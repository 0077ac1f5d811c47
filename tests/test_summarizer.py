import json
import re

import pytest

from oracles import embed_oracle
from qasum import answer_engine as ae
from qasum.answer_engine import ScoredAnswer
from qasum.corpus import Document, Sentence
from qasum.embedding import reference_embedding
from qasum.question_bank import RetrievalParams, bank_from_dict
from qasum.summarizer import (
    Summary,
    SummaryItem,
    assemble,
    dedupe,
    expand_acronyms,
    load_acronym_table,
    render_text,
    summary_to_json,
    write_summary,
)

NEAR_DUP_A = "The patient remains afebrile and hemodynamically stable on room air without any complaints."
NEAR_DUP_B = "The patient remains afebrile and hemodynamically stable on room air without any complaints overnight."


def sent(sent_id, text):
    para_id, _, ordinal = sent_id.rpartition(":")
    return Sentence(sent_id=sent_id, para_id=para_id, ordinal=int(ordinal),
                    char_span=(0, len(text.encode())), text=text)


def order_key(sent_id):
    """The order key of sentence d<N>#<para>:<ord>, as an extractor takes it from its hit in these tests."""
    doc, para, ordinal = re.fullmatch(r"d(\d+)#(\d+):(\d+)", sent_id).groups()
    return int(doc), int(para), int(ordinal)


def answer(q_id, sent_id, text, score):
    return ScoredAnswer(q_id=q_id, sentence=sent(sent_id, text), order_key=order_key(sent_id), confidence=score,
                        np_score=score, score=score, passed_threshold=True, answer_text=text)


def same_order(answers):
    """A question order that ranks every answer's question alike, so only score and document order decide."""
    return {a.q_id: 0 for a in answers}


# -- acronym expansion -------------------------------------------------------


def test_expand_acronyms_table_lookup():
    table = {"pt": "patient", "c/o": "complains of", "SOB": "shortness of breath"}
    assert expand_acronyms("pt c/o SOB", table) == "patient complains of shortness of breath"


def test_expand_acronyms_whole_token_only():
    table = load_acronym_table()
    assert expand_acronyms("ptosis", table) == "ptosis"
    assert expand_acronyms("SpO2 was 95", table) == "SpO2 was 95"


def test_expand_acronyms_empty_table_is_identity():
    assert expand_acronyms("pt c/o SOB", {}) == "pt c/o SOB"


def test_expand_acronyms_case_sensitive():
    table = {"pt": "patient", "Pt": "Patient"}
    assert expand_acronyms("Pt seen today, pt stable", table) == "Patient seen today, patient stable"


def test_expand_acronyms_single_pass_no_reexpansion():
    table = {"a": "b", "b": "c"}
    assert expand_acronyms("a b", table) == "b c"


def test_bundled_table_has_unique_nonempty_entries():
    table = load_acronym_table()
    assert len(table) >= 60
    assert all(expansion for expansion in table.values())


# -- dedupe -------------------------------------------------------------------


def test_exact_duplicate_keeps_higher_scored_question(ref_embedder):
    shared = sent("d0#0:0", "Principal discharge diagnosis was pneumonia.")
    low = ScoredAnswer("q-low", shared, (0, 0, 0), 0.7, 0.7, 0.7, True, shared.text)
    high = ScoredAnswer("q-high", shared, (0, 0, 0), 0.9, 0.9, 0.9, True, shared.text)
    survivors = dedupe([low, high], RetrievalParams(), ref_embedder, same_order([low, high]))
    assert len(survivors) == 1
    assert survivors[0].q_id == "q-high"


def test_near_duplicates_collapse_to_higher_score(ref_embedder):
    # The pair's reference-embedder cosine is 0.9649 (standalone oracle),
    # above the 0.95 default.
    pair_cos = embed_oracle.cosine(
        embed_oracle.hashed_embedding(NEAR_DUP_A), embed_oracle.hashed_embedding(NEAR_DUP_B)
    )
    assert pair_cos >= 0.95
    keep = answer("q1", "d0#0:0", NEAR_DUP_A, 0.9)
    drop = answer("q2", "d1#0:0", NEAR_DUP_B, 0.8)
    survivors = dedupe([drop, keep], RetrievalParams(), ref_embedder, same_order([drop, keep]))
    assert [a.sentence.sent_id for a in survivors] == ["d0#0:0"]


def test_near_duplicate_tie_keeps_earlier_doc_order(ref_embedder):
    a = answer("q1", "d0#0:0", NEAR_DUP_A, 0.8)
    b = answer("q2", "d1#0:0", NEAR_DUP_A, 0.8)
    survivors = dedupe([b, a], RetrievalParams(), ref_embedder, same_order([a, b]))
    assert [x.sentence.sent_id for x in survivors] == ["d0#0:0"]


def test_distinct_candidates_all_survive(ref_embedder):
    answers = [
        answer("q1", "d0#0:0", "Admitted with chest pain.", 0.9),
        answer("q2", "d1#0:0", "Discharged on aspirin therapy.", 0.8),
        answer("q3", "d2#0:0", "Follow up scheduled next week.", 0.7),
    ]
    survivors = dedupe(answers, RetrievalParams(), ref_embedder, same_order(answers))
    assert len(survivors) == 3


def test_dedupe_compares_the_unit_vectors(ref_embedder, monkeypatch):
    import qasum.summarizer

    compared = []
    normed_cosine = qasum.summarizer.normed_cosine
    monkeypatch.setattr(qasum.summarizer, "normed_cosine",
                        lambda a, a_norm, b, b_norm: compared.extend([a, b]) or normed_cosine(a, a_norm, b, b_norm))
    texts = [NEAR_DUP_A, NEAR_DUP_B, "Admitted with chest pain."]
    answers = [answer(f"q{i}", f"d{i}#0:0", text, 0.9 - i / 10) for i, text in enumerate(texts)]
    dedupe(answers, RetrievalParams(), ref_embedder, same_order(answers))
    assert compared and {v.tobytes() for v in compared} <= {reference_embedding(t).tobytes() for t in texts}


def test_dedupe_threshold_is_configurable(ref_embedder):
    a = answer("q1", "d0#0:0", NEAR_DUP_A, 0.9)
    b = answer("q2", "d1#0:0", NEAR_DUP_B, 0.8)
    loose = dedupe([a, b], RetrievalParams(dedup_cosine=0.99), ref_embedder, same_order([a, b]))
    assert len(loose) == 2


# -- assemble -----------------------------------------------------------------


def tiny_bank():
    return bank_from_dict({
        "name": "tiny",
        "version": "1",
        "defaults": {},
        "questions": [
            {"q_id": "qa", "text": "First question?", "order": 0},
            {"q_id": "qb", "text": "Second question?", "order": 1},
        ],
    })


@pytest.fixture
def tiny_corpus(pin_documents):
    return pin_documents([
        Document("d0", "p", "progress", None, "Alpha fact one. Beta fact two."),
        Document("d1", "p", "discharge", None, "Gamma fact three."),
    ])


def passed_answer(q_id, corpus, key, score):
    """A passing answer of the corpus sentence at order key (document position, paragraph, sentence ordinal)."""
    doc, para, ordinal = key
    sentence = corpus.sentences(doc, para)[ordinal]
    return ScoredAnswer(q_id, sentence, key, score, score, score, True, sentence.text)


def test_assemble_single_answer(ref_embedder, tiny_corpus):
    passed = [passed_answer("qa", tiny_corpus, (0, 0, 0), 0.8)]
    summary = assemble(passed, tiny_bank(), ref_embedder, RetrievalParams(),
                       corpus_id="abc123", timestamp="2026-01-15T00:00:00Z")
    assert len(summary.items) == 1
    assert summary.items[0].sent_id == "d0#0:0"
    assert summary.meta["counts"] == {
        "questions_asked": 2, "questions_answered": 1, "sentences_emitted": 1,
    }
    assert summary.meta["corpus_id"] == "abc123"


def test_assemble_empty_run_keeps_meta(ref_embedder):
    summary = assemble([], tiny_bank(), ref_embedder, RetrievalParams(), corpus_id="abc123", timestamp="t")
    assert summary.items == ()
    assert summary.meta["counts"] == {
        "questions_asked": 2, "questions_answered": 0, "sentences_emitted": 0,
    }


def test_assemble_orders_by_question_then_document(ref_embedder, tiny_corpus):
    passed = [
        passed_answer("qb", tiny_corpus, (0, 0, 0), 0.7),
        passed_answer("qa", tiny_corpus, (1, 0, 0), 0.9),
        passed_answer("qa", tiny_corpus, (0, 0, 1), 0.8),
    ]
    summary = assemble(passed, tiny_bank(), ref_embedder, RetrievalParams(), corpus_id="x", timestamp="t")
    assert [i.sent_id for i in summary.items] == ["d0#0:1", "d1#0:0", "d0#0:0"]
    assert [i.q_id for i in summary.items] == ["qa", "qa", "qb"]


def test_assemble_applies_acronym_expansion(ref_embedder, pin_documents):
    corpus = pin_documents([Document("d0", "p", "progress", None, "Pt admitted with SOB.")])
    passed = [passed_answer("qa", corpus, (0, 0, 0), 0.9)]
    summary = assemble(passed, tiny_bank(), ref_embedder, RetrievalParams(), corpus_id="x", timestamp="t")
    assert summary.items[0].sentence_text == "Patient admitted with shortness of breath."


def test_assembled_summary_is_diverse(ref_embedder, pin_documents):
    corpus = pin_documents([
        Document("d0", "p", "progress", None, NEAR_DUP_A),
        Document("d1", "p", "progress", None, NEAR_DUP_B),
        Document("d2", "p", "discharge", None, "Gamma fact three."),
    ])
    params = RetrievalParams()
    passed = [
        passed_answer("qa", corpus, (0, 0, 0), 0.9),
        passed_answer("qb", corpus, (1, 0, 0), 0.8),
        passed_answer("qb", corpus, (2, 0, 0), 0.7),
    ]
    summary = assemble(passed, tiny_bank(), ref_embedder, params, corpus_id="x", timestamp="t")
    texts = [item.sentence_text for item in summary.items]
    assert len(texts) == 2
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            cos = embed_oracle.cosine(
                embed_oracle.hashed_embedding(texts[i]), embed_oracle.hashed_embedding(texts[j])
            )
            assert cos < params.dedup_cosine


# -- rendering ----------------------------------------------------------------


def sample_summary():
    items = (
        SummaryItem("qa", "HEADER:\nAlpha fact one.", "d0#0:0", 0.9),
        SummaryItem("qb", "Gamma fact three.", "d1#0:0", 0.8),
    )
    meta = {"bank_name": "tiny", "bank_version": "1",
            "params": {"k": 4, "fusion_weight": 0.5, "score_threshold": 0.6, "dedup_cosine": 0.95},
            "corpus_id": "x", "timestamp": "t",
            "counts": {"questions_asked": 2, "questions_answered": 2, "sentences_emitted": 2}}
    return Summary(items=items, meta=meta)


def test_summary_json_roundtrip():
    payload = json.loads(summary_to_json(sample_summary()))
    assert payload["meta"]["bank_name"] == "tiny"
    assert payload["items"][0]["sent_id"] == "d0#0:0"
    assert payload["items"][0]["sentence_text"] == "HEADER:\nAlpha fact one."


def test_render_text_one_sentence_per_line():
    text = render_text(sample_summary(), tiny_bank())
    assert text == (
        "## First question?\n"
        "HEADER: Alpha fact one.\n"
        "\n"
        "## Second question?\n"
        "Gamma fact three.\n"
    )


def test_render_text_empty_summary():
    empty = Summary(items=(), meta=sample_summary().meta)
    assert render_text(empty, tiny_bank()) == ""


def test_write_summary_emits_both_files(tmp_path):
    json_path, text_path = write_summary(sample_summary(), tiny_bank(), tmp_path / "out")
    assert json_path.read_text("utf-8").startswith("{")
    assert text_path.read_text("utf-8").startswith("## ")


# -- determinism across completion order --------------------------------------


def test_output_bytes_independent_of_input_ordering(bank, fixture_index, pinned, ref_embedder):
    extractor = ae.MockExtractor(pinned)
    results = ae.answer_questions(bank.questions, fixture_index, ref_embedder, pinned, extractor, bank.defaults)
    passed = [r.answer for r in results if r.passed]
    forward = assemble(passed, bank, ref_embedder, bank.defaults, corpus_id="c", timestamp="t")
    backward = assemble(passed[::-1], bank, ref_embedder, bank.defaults, corpus_id="c", timestamp="t")
    assert summary_to_json(forward) == summary_to_json(backward)
    assert render_text(forward, bank) == render_text(backward, bank)
