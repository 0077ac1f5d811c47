import json
import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import embed_oracle, metrics_oracle
from qasum.embedding import reference_embedding
from qasum.errors import EmptyTextError, IoError, ZeroSourceError
from qasum.evaluation import (
    bleu,
    compression_ratio,
    embedding_similarity,
    evaluate,
    render_table,
    report_to_dict,
    report_to_json,
    rouge_l,
    rouge_n,
)

WORDS = ["the", "patient", "was", "admitted", "with", "fever", "cough", "stable",
         "discharge", "daily", "pneumonia", "ceftriaxone", "improved", "pain"]


def random_text(rng, lo=1, hi=25):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


# -- ROUGE-N -----------------------------------------------------------------


def test_rouge_n_identity():
    score = rouge_n("patient was admitted", "patient was admitted", 1)
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)
    score2 = rouge_n("patient was admitted today", "patient was admitted today", 2)
    assert score2.f1 == 1.0


def test_rouge_n_disjoint():
    score = rouge_n("alpha beta", "gamma delta", 1)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_1_hand_example_with_clipping():
    # candidate "the cat sat" vs reference "the cat slept on the mat":
    # "the" clips to 1, overlap = 2 -> recall 2/6, precision 2/3.
    score = rouge_n("the cat sat", "the cat slept on the mat", 1)
    assert score.recall == 2 / 6
    assert score.precision == 2 / 3


def test_rouge_n_empty_inputs():
    score = rouge_n("", "anything here", 1)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)
    assert rouge_n("", "", 2) == rouge_n("", "", 2)


def test_rouge_symmetry_relation():
    rng = random.Random(31)
    for _ in range(25):
        a, b = random_text(rng), random_text(rng)
        for n in (1, 2):
            assert rouge_n(a, b, n).recall == rouge_n(b, a, n).precision


def test_rouge_1_recall_monotone_under_candidate_growth():
    rng = random.Random(32)
    for _ in range(25):
        reference = random_text(rng)
        candidate = random_text(rng)
        grown = candidate + " " + rng.choice(reference.split())
        assert rouge_n(grown, reference, 1).recall >= rouge_n(candidate, reference, 1).recall


# -- ROUGE-L -----------------------------------------------------------------


def test_rouge_l_identity():
    score = rouge_l("alpha beta gamma", "alpha beta gamma")
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_example():
    score = rouge_l("a b c d", "a c b d")
    assert score.recall == 0.75
    assert score.precision == 0.75


def test_rouge_l_empty_candidate():
    score = rouge_l("", "some reference text")
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


# -- BLEU ----------------------------------------------------------------------


def test_bleu_identity_for_four_plus_tokens():
    assert bleu("one two three four", "one two three four") == pytest.approx(1.0, abs=1e-12)
    assert bleu("one two three four five six", "one two three four five six") == 1.0


def test_bleu_zero_overlap_equals_smoothed_floor():
    # candidate 3 tokens, reference 4 tokens, no shared n-grams:
    # p = (1/4, 1/3, 1/2, 1/1), BP = exp(1 - 4/3); frozen from the oracle.
    value = bleu("aaa bbb ccc", "xxx yyy zzz www")
    hand = math.exp(1 - 4 / 3) * (0.25 * (1 / 3) * 0.5 * 1.0) ** 0.25
    assert value == pytest.approx(hand, abs=1e-12)
    assert value == pytest.approx(0.32372956394183194, abs=1e-12)


def test_bleu_fixture_pair_matches_standalone_oracle():
    value = bleu("the cat sat on the mat", "the cat sat on a mat")
    assert value == pytest.approx(0.537284965911771, abs=1e-12)
    assert value == pytest.approx(
        metrics_oracle.bleu("the cat sat on the mat", "the cat sat on a mat"), abs=1e-12
    )


def test_bleu_empty_inputs():
    assert bleu("", "reference") == 0.0
    assert bleu("candidate", "") == 0.0


def test_bleu_brevity_penalty_applies_only_when_shorter():
    longer = bleu("a b c d e f", "a b c d")
    assert longer <= 1.0
    short = bleu("a b", "a b c d e f g h")
    assert short < bleu("a b c d e f g h", "a b c d e f g h")


# -- compression ---------------------------------------------------------------


def test_compression_ratio_basic():
    summary = " ".join(["tok"] * 50)
    source = " ".join(["tok"] * 200)
    assert compression_ratio(summary, source) == 0.25


def test_compression_identity_and_empty():
    text = "alpha beta gamma"
    assert compression_ratio(text, text) == 1.0
    assert compression_ratio("", text) == 0.0


def test_compression_zero_source():
    with pytest.raises(ZeroSourceError):
        compression_ratio("summary", "--- !!! ---")


# -- embedding similarity --------------------------------------------------------


def test_embedding_similarity_identity():
    value = embedding_similarity("stable on room air", "stable on room air", reference_embedding)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_embedding_similarity_fixture_pair():
    # Frozen from the standalone embedding oracle.
    value = embedding_similarity(
        "the patient was discharged home in stable condition",
        "the patient went home in improved condition",
        reference_embedding,
    )
    assert value == pytest.approx(0.5012804118276031, abs=1e-9)


def test_embedding_similarity_deterministic():
    a = embedding_similarity("alpha beta", "beta gamma", reference_embedding)
    b = embedding_similarity("alpha beta", "beta gamma", reference_embedding)
    assert a == b


def test_embedding_similarity_empty_text():
    with pytest.raises(EmptyTextError):
        embedding_similarity("", "reference", reference_embedding)


# -- properties against the standalone oracle ------------------------------------


# Arbitrary Unicode (empty included), punctuation only, and word sequences
# that share n-grams, some with non-ASCII letters around the ASCII tokens.
metric_texts = st.one_of(
    st.text(max_size=60),
    st.text(alphabet=string.punctuation + " \n\t", max_size=20),
    st.lists(st.sampled_from(WORDS + ["Ünïcode", "naïve", "café", "İl", "ＡＢ", "\u212a", "—", "!?"]), max_size=30)
    .map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(cand=metric_texts, ref=metric_texts)
def test_metrics_match_standalone_oracle_on_random_pairs(cand, ref):
    for n in (1, 2):
        ours = rouge_n(cand, ref, n)
        recall, precision, f1 = metrics_oracle.rouge_n(cand, ref, n)
        assert ours.recall == pytest.approx(recall, abs=1e-9)
        assert ours.precision == pytest.approx(precision, abs=1e-9)
        assert ours.f1 == pytest.approx(f1, abs=1e-9)
    ours_l = rouge_l(cand, ref)
    recall, precision, f1 = metrics_oracle.rouge_l(cand, ref)
    assert ours_l.recall == pytest.approx(recall, abs=1e-9)
    assert ours_l.precision == pytest.approx(precision, abs=1e-9)
    assert ours_l.f1 == pytest.approx(f1, abs=1e-9)
    assert bleu(cand, ref) == pytest.approx(metrics_oracle.bleu(cand, ref), abs=1e-9)


def test_metric_ranges_on_random_pairs():
    rng = random.Random(34)
    for _ in range(50):
        cand, ref = random_text(rng), random_text(rng)
        for n in (1, 2):
            score = rouge_n(cand, ref, n)
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.f1 <= 1.0
        assert 0.0 <= bleu(cand, ref) <= 1.0
        assert -1.0 <= embedding_similarity(cand, ref, reference_embedding) <= 1.0


# -- evaluate -----------------------------------------------------------------


def write(path, text):
    path.write_text(text, "utf-8")
    return path


def test_evaluate_identical_candidate_and_reference(tmp_path):
    text = "the patient improved and was discharged home"
    cand = write(tmp_path / "cand.txt", text)
    ref = write(tmp_path / "ref.txt", text)
    source = write(tmp_path / "source.txt", text + " after a five day hospital course")
    report = evaluate(cand, ref, source, reference_embedding)
    assert report.rouge1.f1 == 1.0
    assert report.rouge2.f1 == 1.0
    assert report.rougeL.f1 == 1.0
    assert report.bleu == pytest.approx(1.0, abs=1e-12)
    assert report.embedding_similarity == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < report.compression_ratio < 1.0


def test_evaluate_missing_reference_names_path(tmp_path):
    cand = write(tmp_path / "cand.txt", "text")
    source = write(tmp_path / "source.txt", "text")
    with pytest.raises(IoError, match="ref.txt"):
        evaluate(cand, tmp_path / "ref.txt", source, reference_embedding)


def test_evaluate_zero_source(tmp_path):
    cand = write(tmp_path / "cand.txt", "text")
    ref = write(tmp_path / "ref.txt", "text")
    source = write(tmp_path / "source.txt", "  \n")
    with pytest.raises(ZeroSourceError):
        evaluate(cand, ref, source, reference_embedding)


def test_evaluate_empty_candidate_yields_zeros(tmp_path):
    cand = write(tmp_path / "cand.txt", "")
    ref = write(tmp_path / "ref.txt", "reference text here")
    source = write(tmp_path / "source.txt", "source text")
    report = evaluate(cand, ref, source, reference_embedding)
    assert report.rouge1.f1 == 0.0
    assert report.bleu == 0.0
    assert report.compression_ratio == 0.0
    assert report.embedding_similarity == 0.0
    assert report.token_counts["candidate"] == 0


def test_report_serialization_roundtrip(tmp_path):
    text = "alpha beta gamma delta"
    cand = write(tmp_path / "c.txt", text)
    ref = write(tmp_path / "r.txt", text)
    source = write(tmp_path / "s.txt", text * 3)
    report = evaluate(cand, ref, source, reference_embedding)
    payload = json.loads(report_to_json(report))
    assert payload == report_to_dict(report)
    assert set(payload) == {
        "rouge1_r", "rouge1_p", "rouge1_f", "rouge2_r", "rouge2_p", "rouge2_f",
        "rougeL_r", "rougeL_p", "rougeL_f", "bleu", "compression_ratio",
        "embedding_similarity", "token_counts",
    }
    table = render_table(report)
    assert "rouge1_f" in table and "tokens" in table


def test_embedding_similarity_matches_oracle_fixture():
    ours = embedding_similarity("ceftriaxone dosing", "ceftriaxone taper", reference_embedding)
    oracle = embed_oracle.cosine(
        embed_oracle.hashed_embedding("ceftriaxone dosing"),
        embed_oracle.hashed_embedding("ceftriaxone taper"),
    )
    assert ours == pytest.approx(oracle, abs=1e-9)
