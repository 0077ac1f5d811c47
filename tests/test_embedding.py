import math
import random
import re
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qasum.embedding
from oracles import embed_oracle
from qasum.embedding import (
    DEFAULT_DIM,
    FEATURE_MEMO_CAP,
    EmbedderSpec,
    FeatureMemo,
    build_embedder,
    cosine,
    cosine_norms,
    normed_cosine,
    reference_counts,
    reference_embedding,
    tokenize,
    unit_rows,
)
from qasum.errors import DimensionMismatchError, EmptyTextError, GatewayError, PreconditionError

EMBEDDER = build_embedder(EmbedderSpec())

WORDS = ["patient", "fever", "cough", "ceftriaxone", "stable", "admitted",
         "discharge", "pneumonia", "daily", "overnight", "oxygen", "renal",
         "chest", "pain", "therapy", "metformin"]


def random_text(rng, n=None):
    return " ".join(rng.choice(WORDS) for _ in range(n or rng.randint(1, 12)))


def embed(text):
    """The vector of one text, through the embedder's one entry point and the helper that normalizes its rows."""
    matrix, kept = EMBEDDER.embed_many([text])
    assert kept.tolist() == [True]
    return unit_rows(matrix)[0]


def test_tokenize_lowercases_and_splits():
    assert tokenize("Pt c/o SOB, 10mg!") == ["pt", "c", "o", "sob", "10mg"]


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters(codec="utf-8") | st.characters(categories=["Cs"]) | st.sampled_from("\u0130\u212a\u0131\u017f\x00")))
def test_tokenize_is_the_alphanumeric_runs_of_the_lowercased_text(text):
    # Lowercasing comes first: "İ" lowers to "i" plus a combining dot, the Kelvin sign to "k".
    assert tokenize(text) == re.findall("[a-z0-9]+", text.lower())


def test_embed_is_deterministic():
    a = embed("fever and productive cough")
    b = embed("fever and productive cough")
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    rng = random.Random(11)
    for _ in range(20):
        vec = embed(random_text(rng))
        assert vec.shape == (DEFAULT_DIM,)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_embed_matches_standalone_oracle():
    rng = random.Random(12)
    for _ in range(20):
        text = random_text(rng)
        ours = embed(text)
        oracle = np.array(embed_oracle.hashed_embedding(text, DEFAULT_DIM))
        assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_disjoint_feature_texts_have_low_cosine():
    # Zero shared unigrams/bigrams; exact value recorded from the standalone
    # oracle script (no bucket collisions for this pair at d=256).
    a = embed("ceftriaxone dosing schedule")
    b = embed("ambulates without assistance")
    value = cosine(a, b)
    assert abs(value) <= 0.25
    assert value == pytest.approx(0.0, abs=1e-12)


def test_empty_text_rejected():
    texts = ["", "   ", "\n\t", "!!! ---"]
    matrix, kept = EMBEDDER.embed_many(texts)
    assert not kept.any() and not matrix.any()
    for text in texts:
        with pytest.raises(EmptyTextError):
            reference_embedding(text)


def test_unknown_embedder_kind():
    with pytest.raises(PreconditionError):
        build_embedder(EmbedderSpec(kind="glove"))


def test_build_embedder_binds_spec():
    embedder = build_embedder(EmbedderSpec(dim=64))
    assert embedder.embed_many(["fever"])[0].shape == (1, 64)


# -- per-embedder feature memo -------------------------------------------------


def embed_or_error(text, dim=DEFAULT_DIM):
    try:
        return reference_embedding(text, dim)
    except EmptyTextError:
        return EmptyTextError


@st.composite
def text_sequences(draw):
    """Texts that share words and repeat, mixed with arbitrary Unicode."""
    pool = draw(st.lists(
        st.text(max_size=40)
        | st.lists(st.sampled_from(WORDS + ["Zoë", "µg", "İ", "10mg", " ", "."]), max_size=10).map(" ".join),
        min_size=1, max_size=8,
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))


@pytest.mark.parametrize("cap", [FEATURE_MEMO_CAP, 5])
@settings(max_examples=150, deadline=None)
@given(
    texts=text_sequences(),
    dim=st.sampled_from([1, 7, DEFAULT_DIM]),
    chunk=st.sampled_from([1, 3, qasum.embedding._EMBED_CHUNK]),
)
def test_memo_embedder_is_bit_equal_to_a_fresh_embedding(cap, texts, dim, chunk):
    fresh = [embed_or_error(text, dim) for text in texts]
    memos = []
    traced = lambda texts, dim, memo: memos.append(memo) or reference_counts(texts, dim, memo)
    with mock.patch.object(qasum.embedding, "FEATURE_MEMO_CAP", cap), \
            mock.patch.object(qasum.embedding, "_EMBED_CHUNK", chunk), \
            mock.patch.object(qasum.embedding, "reference_counts", traced):
        # One embedder fills its memo one text at a time first, the other in one batch first.
        one_first = build_embedder(EmbedderSpec(dim=dim))
        singles = [one_first.embed_many([text]) for text in texts]
        batches = [one_first.embed_many(texts)]
        batch_first = build_embedder(EmbedderSpec(dim=dim))
        batches.append(batch_first.embed_many(texts))
        singles_after = [batch_first.embed_many([text]) for text in texts]
    # Each text embedded alone is a batch of one: its row and its kept flag.
    batches += [(np.concatenate([m for m, _ in rows]), np.concatenate([k for _, k in rows]))
                for rows in (singles, singles_after)]
    for matrix, kept in batches:
        assert matrix.shape == (len(texts), dim) and matrix.dtype == np.int64 and kept.dtype == bool
        assert kept.tolist() == [f is not EmptyTextError for f in fresh]
        assert not matrix[~kept].any()
    for i, (text, expected) in enumerate(zip(texts, fresh)):
        if expected is EmptyTextError:
            continue
        assert expected.dtype == np.float64
        for matrix, _ in batches:
            assert unit_rows(matrix[i : i + 1])[0].tobytes() == expected.tobytes()
        # The per-feature loop of the standalone oracle gives the same bits.
        assert expected.tobytes() == np.array(embed_oracle.hashed_embedding(text, dim)).tobytes()
    assert len(set(map(id, memos))) == 2 and len(memos) == 2 * (len(texts) + 1)
    assert all(len(memo) <= cap for memo in memos)


def test_each_reference_embedder_has_its_own_memo(monkeypatch):
    calls = []

    def traced(texts, dim, memo):
        calls.append((texts, memo))
        return reference_counts(texts, dim, memo)

    monkeypatch.setattr(qasum.embedding, "reference_counts", traced)
    first = build_embedder(EmbedderSpec())
    second = build_embedder(EmbedderSpec())
    first.embed_many(["fever and cough"])
    first.embed_many(["fever"])
    second.embed_many(["fever"])
    # Looked up at call time, once per call: a wrapper installed later still sees every call.
    assert [texts for texts, _ in calls] == [["fever and cough"], ["fever"], ["fever"]]
    memos = [memo for _, memo in calls]
    assert isinstance(memos[0], FeatureMemo)
    assert memos[0] is memos[1] and memos[2] is not memos[0]
    assert set(memos[0]) == {"fever", "and", "cough", "fever and", "and cough"}
    assert set(memos[2]) == {"fever"}


# -- batch kernel ----------------------------------------------------------------


def assert_rows_equal_one_text_calls(texts, matrix, kept, dim=DEFAULT_DIM):
    """unit_rows of an embed_many matrix are the one-text embeddings and the oracle's, bit for bit."""
    assert matrix.shape == (len(texts), dim)
    for text, row, row_kept in zip(texts, unit_rows(matrix), kept):
        single = embed_or_error(text, dim)
        if single is EmptyTextError:
            assert not row_kept and not row.any()
        else:
            assert row_kept and row.tobytes() == single.tobytes()
            assert row.tobytes() == np.array(embed_oracle.hashed_embedding(text, dim)).tobytes()


def test_embed_many_on_blank_punctuation_special_case_and_repeated_texts():
    texts = ["", "  \n", "!!! ---", "\u0130V 40mg", "\u212aCl 20", "\u0130", "fever and cough", "fever and cough",
             "\u00b5g/kg", "cough"]
    matrix, kept = build_embedder(EmbedderSpec()).embed_many(texts)
    assert kept.tolist() == [False, False, False, True, True, True, True, True, True, True]
    assert_rows_equal_one_text_calls(texts, matrix, kept)
    # The dotted capital I lowers to "i" plus a combining dot, which splits "iv"; the Kelvin sign lowers to "k".
    vectors = unit_rows(matrix)
    assert vectors[3].tobytes() == reference_embedding("i v 40mg").tobytes()
    assert vectors[4].tobytes() == reference_embedding("kcl 20").tobytes()


def test_embed_many_spans_several_chunks():
    rng = random.Random(15)
    count = 2 * qasum.embedding._EMBED_CHUNK + 3
    texts = [random_text(rng) if i % 9 else "-- * --" for i in range(count)]
    memo = FeatureMemo()
    matrix, kept = reference_counts(texts, DEFAULT_DIM, memo)
    assert kept.sum() == count - len(range(0, count, 9))
    assert_rows_equal_one_text_calls(texts, matrix, kept)


def test_embed_many_of_no_texts():
    matrix, kept = build_embedder(EmbedderSpec(dim=7)).embed_many([])
    assert matrix.shape == (0, 7) and kept.shape == (0,)


def test_bigrams_never_cross_texts():
    memo = FeatureMemo()
    apart, _ = reference_counts(["a", "b"], DEFAULT_DIM, memo)
    assert set(memo) == {"a", "b"}
    together, _ = reference_counts(["a b"], DEFAULT_DIM, memo)
    assert set(memo) == {"a", "b", "a b"}
    assert unit_rows(apart)[0].tobytes() == reference_embedding("a").tobytes()
    assert unit_rows(apart)[1].tobytes() == reference_embedding("b").tobytes()
    assert unit_rows(together)[0].tobytes() == reference_embedding("a b").tobytes()


def test_no_text_with_tokens_cancels_to_a_zero_vector():
    # n tokens give n unigram and n - 1 bigram occurrences, an odd number of +-1 terms. At dim=1 they
    # all land in the one bucket, so its sum is odd: every vector is exactly [1.0] or [-1.0].
    rng = random.Random(16)
    texts = [random_text(rng) for _ in range(300)]
    counts, kept = reference_counts(texts, 1)
    assert kept.all() and (counts % 2 == 1).all()
    matrix = unit_rows(counts)
    assert set(np.abs(matrix[:, 0]).tolist()) == {1.0}
    assert set(matrix[:, 0].tolist()) == {1.0, -1.0}


def test_one_text_errors_name_why_the_text_was_dropped():
    with pytest.raises(EmptyTextError, match="cannot embed empty text"):
        reference_embedding(" \t")
    with pytest.raises(EmptyTextError, match="no alphanumeric tokens"):
        reference_embedding("!!! ---")


class RecordingGateway:
    def __init__(self, dim=DEFAULT_DIM):
        self.batches = []
        self.dim = dim

    def embed_remote(self, texts):
        self.batches.append(list(texts))
        return [reference_embedding(text, self.dim) for text in texts]


def batches_of(texts, size):
    return [texts[start:start + size] for start in range(0, len(texts), size)]


def test_remote_embedder_sends_one_text_through_its_gateway():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    matrix, kept = embedder.embed_many(["fever"])
    assert kept.tolist() == [True] and np.array_equal(matrix[0], reference_embedding("fever"))
    assert gateway.batches == [["fever"]]


def test_remote_embedder_requests_a_repeated_text_once():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    first, _ = embedder.embed_many(["fever"])
    embedder.embed_many(["cough"])
    again, _ = embedder.embed_many(["cough", "fever", "fever"])
    assert gateway.batches == [["fever"], ["cough"]]
    assert again[1].tobytes() == again[2].tobytes() == first[0].tobytes()
    # The matrix is the caller's own: writing to it leaves the memo as it was.
    again[1] = 0.0
    assert embedder.embed_many(["fever"])[0].tobytes() == first.tobytes()
    # Another embedder, another memo.
    build_embedder(EmbedderSpec(kind="remote"), gateway).embed_many(["fever"])
    assert gateway.batches == [["fever"], ["cough"], ["fever"]]


def test_remote_vector_of_the_wrong_length_fails_and_is_not_remembered():
    gateway = RecordingGateway(dim=128)
    embedder = build_embedder(EmbedderSpec(kind="remote", dim=256), gateway)
    for _ in range(2):
        with pytest.raises(DimensionMismatchError, match=r"shape \(128,\) for 'fever', expected \(256,\)"):
            embedder.embed_many(["fever", "cough"])
    assert gateway.batches == [["fever", "cough"], ["fever", "cough"]]


def test_one_wrong_length_vector_leaves_none_of_its_batch_remembered():
    class OneShortVector(RecordingGateway):
        def embed_remote(self, texts):
            vectors = super().embed_remote(texts)
            return [v[:128] if text == "cough" else v for text, v in zip(texts, vectors)]

    gateway = OneShortVector()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    with pytest.raises(DimensionMismatchError, match=r"shape \(128,\) for 'cough', expected \(256,\)"):
        embedder.embed_many(["fever", "cough"])
    # 'fever' had the right length, but its batch failed, so it is requested again.
    embedder.embed_many(["fever"])
    assert gateway.batches == [["fever", "cough"], ["fever"]]


def test_remote_embedder_requests_distinct_unseen_texts_in_batches_in_call_order(monkeypatch):
    monkeypatch.setattr(qasum.embedding, "_REMOTE_BATCH", 4)
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    embedder.embed_many(["w2", "w5"])
    texts = [f"w{i}" for i in range(11)]
    call = texts[::-1] + [" ", "w3", "", "w10"] + texts
    matrix, kept = embedder.embed_many(call)
    unseen = [t for t in texts[::-1] if t not in ("w2", "w5")]
    assert gateway.batches == [["w2", "w5"]] + batches_of(unseen, 4)
    assert [len(batch) for batch in gateway.batches[1:]] == [4, 4, 1]
    assert kept.tolist() == [text.strip() != "" for text in call]
    assert_rows_equal_one_text_calls(call, matrix, kept)


def test_a_failed_batch_is_retried_whole_by_a_later_call(monkeypatch):
    monkeypatch.setattr(qasum.embedding, "_REMOTE_BATCH", 3)

    class FailsOnce(RecordingGateway):
        failed = False

        def embed_remote(self, texts):
            super().embed_remote(texts)
            if "w4" in texts and not self.failed:
                self.failed = True
                raise GatewayError("embedding service unavailable")
            return [reference_embedding(text) for text in texts]

    gateway = FailsOnce()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    texts = [f"w{i}" for i in range(8)]
    with pytest.raises(GatewayError):
        embedder.embed_many(texts)
    # The first batch arrived and is remembered; the failed batch and the ones after it are not.
    assert gateway.batches == [["w0", "w1", "w2"], ["w3", "w4", "w5"]]
    matrix, kept = embedder.embed_many(texts)
    assert gateway.batches[2:] == [["w3", "w4", "w5"], ["w6", "w7"]]
    assert kept.all()
    assert_rows_equal_one_text_calls(texts, matrix, kept)


class BlockingGateway:
    """Holds every embed request until released; fails them while failing is set."""

    def __init__(self):
        self.requests = []
        self.release = threading.Event()
        self.failing = False

    def embed_remote(self, texts):
        self.requests.append(list(texts))
        assert self.release.wait(10)
        if self.failing:
            raise GatewayError("embedding service unavailable")
        return [reference_embedding(text) for text in texts]


def call_in_threads(embedder, gateway, text, count=2):
    """Embed text in count threads that start while the first request is in flight.

    Each outcome is the text's row, or the exception its thread raised.
    Fails within 10 s if the first thread ends, or makes no request, before
    the others start.
    """
    outcomes = [None] * count

    def call(i):
        try:
            outcomes[i] = embedder.embed_many([text])[0][0]
        except Exception as exc:
            outcomes[i] = exc

    # Daemon threads: one left waiting by a failed assertion cannot hold up the test session.
    threads = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(count)]
    threads[0].start()
    deadline = time.monotonic() + 10
    while not gateway.requests:
        assert threads[0].is_alive(), f"the first caller ended without a request: {outcomes[0]!r}"
        assert time.monotonic() < deadline, "the first caller made no request within 10 s"
        threads[0].join(0.001)
    for thread in threads[1:]:
        thread.start()
        # Long enough for a caller that does not wait on the first request to make its own.
        thread.join(0.2)
        assert thread.is_alive()
    gateway.release.set()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


def test_call_in_threads_fails_fast_when_the_first_caller_dies():
    class Broken:
        def embed_many(self, texts):
            raise TypeError("broken embedder")

    start = time.monotonic()
    with pytest.raises(AssertionError, match="ended without a request: TypeError"):
        call_in_threads(Broken(), BlockingGateway(), "fever")
    assert time.monotonic() - start < 10


def test_concurrent_callers_of_one_text_share_one_request():
    gateway = BlockingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    first, second = call_in_threads(embedder, gateway, "fever")
    assert gateway.requests == [["fever"]]
    expected = reference_embedding("fever").tobytes()
    assert first.tobytes() == second.tobytes() == expected
    assert embedder.embed_many(["fever"])[0][0].tobytes() == expected and gateway.requests == [["fever"]]


def test_a_failed_request_raises_in_every_waiter_and_is_not_remembered():
    # Callers wait on the embedder's lock, not on one shared request: each makes its own request in turn.
    gateway = BlockingGateway()
    gateway.failing = True
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    outcomes = call_in_threads(embedder, gateway, "fever", count=3)
    assert all(isinstance(outcome, GatewayError) for outcome in outcomes)
    assert gateway.requests == [["fever"]] * 3
    gateway.failing = False
    assert np.array_equal(embedder.embed_many(["fever"])[0][0], reference_embedding("fever"))
    assert gateway.requests == [["fever"]] * 4


def test_many_threads_request_each_text_once():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    texts = [f"note {i}" for i in range(40)]
    results = {}

    def work(seed):
        order = random.Random(seed).sample(texts, len(texts))
        results[seed] = {text: embedder.embed_many([text])[0][0] for text in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(results) == 8
    assert sorted(batch[0] for batch in gateway.batches) == sorted(texts)
    for text in texts:
        assert {vectors[text].tobytes() for vectors in results.values()} == {reference_embedding(text).tobytes()}


def test_remote_embed_many_loops_over_the_memo():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote", dim=DEFAULT_DIM), gateway)
    texts = ["fever", " ", "cough", "fever"]
    matrix, kept = embedder.embed_many(texts)
    assert gateway.batches == [["fever", "cough"]]
    assert kept.tolist() == [True, False, True, True]
    assert_rows_equal_one_text_calls(texts, matrix, kept)


def test_remote_embedder_rejects_blank_text_without_a_request():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    matrix, kept = embedder.embed_many(["", "   ", "\n\t"])
    assert not kept.any() and not matrix.any()
    assert gateway.batches == []


def test_remote_embedder_requires_a_gateway():
    with pytest.raises(PreconditionError, match="gateway"):
        build_embedder(EmbedderSpec(kind="remote"))


# -- cosine -----------------------------------------------------------------


def test_cosine_identity():
    v = embed("afebrile overnight")
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_basis():
    e1 = np.zeros(8)
    e2 = np.zeros(8)
    e1[0] = 1.0
    e2[3] = 1.0
    assert cosine(e1, e2) == 0.0


def test_cosine_hand_value():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert cosine(a, b) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_symmetry_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        assert cosine(a, b) == cosine(b, a)


def test_cosine_clamped_to_range():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a = rng.normal(size=16)
        assert -1.0 <= cosine(a, a * rng.uniform(0.1, 10.0)) <= 1.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine(np.ones(4), np.ones(5))


def test_cosine_rejects_non_finite():
    bad = np.array([1.0, np.nan])
    with pytest.raises(PreconditionError):
        cosine(bad, np.ones(2))


def cosine_before_norms_once(a, b):
    """cosine as it was written before norms were computed once per vector, for the bit-equality property."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(np.dot(a, b)) / denom))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def vector_rows(draw):
    """Rows of one matrix: non-unit vectors, zero vectors, and scaled or nudged copies of earlier rows."""
    dim = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "zero", "scaled", "nudged"]))
        if kind == "zero":
            row = np.zeros(dim)
        elif kind == "free" or not rows:
            row = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))] * draw(st.floats(min_value=1e-3, max_value=1e3))
            if kind == "nudged":
                row[draw(st.integers(0, dim - 1))] += draw(st.floats(min_value=-1e-9, max_value=1e-9))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(vector_rows())
def test_norms_once_cosine_equals_cosine_bit_for_bit(matrix):
    norms = cosine_norms(matrix)
    for i, a in enumerate(matrix):
        for j, b in enumerate(matrix):
            expected = cosine_before_norms_once(a.copy(), b.copy())
            got = normed_cosine(a, norms[i], b, norms[j])
            assert np.float64(got).tobytes() == np.float64(cosine(a.copy(), b.copy())).tobytes()
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            if not a.any() or not b.any():
                assert got == 0.0


def test_norms_once_cosine_clamps_rounding_past_one():
    # Parallel vectors whose dot product rounds above the product of their norms.
    rng = np.random.default_rng(5)
    clamped = 0
    for _ in range(2000):
        a = rng.normal(size=7)
        b = a * rng.uniform(0.5, 2.0)
        norms = cosine_norms(np.array([a, b]))
        if float(np.dot(a, b)) / (norms[0] * norms[1]) > 1.0:
            clamped += 1
            assert normed_cosine(a, norms[0], b, norms[1]) == 1.0 == cosine(a, b)
    assert clamped


def test_cosine_norms_reject_non_finite_rows():
    with pytest.raises(PreconditionError, match="finite"):
        cosine_norms(np.array([[1.0, 0.0], [np.inf, 1.0]]))


def test_repeated_text_not_required_to_match_single():
    # Normalization only: determinism and unit norm are the contract.
    single = embed("x7")
    tripled = embed("x7 x7 x7")
    assert abs(np.linalg.norm(tripled) - 1.0) <= 1e-9
    assert single.shape == tripled.shape
