import math
import random
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
    reference_embedding,
    tokenize,
)
from qasum.errors import DimensionMismatchError, EmptyTextError, PreconditionError

embed = build_embedder(EmbedderSpec())

WORDS = ["patient", "fever", "cough", "ceftriaxone", "stable", "admitted",
         "discharge", "pneumonia", "daily", "overnight", "oxygen", "renal",
         "chest", "pain", "therapy", "metformin"]


def random_text(rng, n=None):
    return " ".join(rng.choice(WORDS) for _ in range(n or rng.randint(1, 12)))


def test_tokenize_lowercases_and_splits():
    assert tokenize("Pt c/o SOB, 10mg!") == ["pt", "c", "o", "sob", "10mg"]


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
    for text in ("", "   ", "\n\t", "!!! ---"):
        with pytest.raises(EmptyTextError):
            embed(text)


def test_unknown_embedder_kind():
    with pytest.raises(PreconditionError):
        build_embedder(EmbedderSpec(kind="glove"))


def test_build_embedder_binds_spec():
    embedder = build_embedder(EmbedderSpec(dim=64))
    assert embedder("fever").shape == (64,)


# -- per-embedder feature memo -------------------------------------------------


def embed_or_error(embedder, text):
    try:
        return embedder(text)
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
@given(texts=text_sequences(), dim=st.sampled_from([1, 7, DEFAULT_DIM]))
def test_memo_embedder_is_bit_equal_to_a_fresh_embedding(cap, texts, dim):
    memos = []
    traced = lambda text, dim, memo: memos.append(memo) or reference_embedding(text, dim, memo)
    with mock.patch.object(qasum.embedding, "FEATURE_MEMO_CAP", cap), \
            mock.patch.object(qasum.embedding, "reference_embedding", traced):
        embedder = build_embedder(EmbedderSpec(dim=dim))
        for text in texts:
            ours = embed_or_error(embedder, text)
            fresh = embed_or_error(lambda t: reference_embedding(t, dim), text)
            if fresh is EmptyTextError:
                assert ours is EmptyTextError
                continue
            assert ours is not EmptyTextError
            assert ours.dtype == fresh.dtype and ours.tobytes() == fresh.tobytes()
            # The per-feature loop of the standalone oracle gives the same bits.
            assert fresh.tobytes() == np.array(embed_oracle.hashed_embedding(text, dim)).tobytes()
    assert len(set(map(id, memos))) <= 1
    assert all(len(memo) <= cap for memo in memos)


def test_each_reference_embedder_has_its_own_memo(monkeypatch):
    calls = []

    def traced(text, dim, memo):
        calls.append((text, memo))
        return reference_embedding(text, dim, memo)

    monkeypatch.setattr(qasum.embedding, "reference_embedding", traced)
    first = build_embedder(EmbedderSpec())
    second = build_embedder(EmbedderSpec())
    first("fever and cough")
    first("fever")
    second("fever")
    # Looked up at call time, once per text: a wrapper installed later still sees every call.
    assert [text for text, _ in calls] == ["fever and cough", "fever", "fever"]
    memos = [memo for _, memo in calls]
    assert isinstance(memos[0], FeatureMemo)
    assert memos[0] is memos[1] and memos[2] is not memos[0]
    assert set(memos[0]) == {"fever", "and", "cough", "fever and", "and cough"}
    assert set(memos[2]) == {"fever"}


class RecordingGateway:
    def __init__(self):
        self.batches = []

    def embed_remote(self, texts):
        self.batches.append(list(texts))
        return [reference_embedding(text) for text in texts]


def test_remote_embedder_sends_one_text_through_its_gateway():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    assert np.array_equal(embedder("fever"), reference_embedding("fever"))
    assert gateway.batches == [["fever"]]


def test_remote_embedder_requests_a_repeated_text_once():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    first = embedder("fever")
    embedder("cough")
    again = embedder("fever")
    assert gateway.batches == [["fever"], ["cough"]]
    assert again is first and not again.flags.writeable
    with pytest.raises(ValueError):
        again[0] = 1.0
    # Another embedder, another memo.
    build_embedder(EmbedderSpec(kind="remote"), gateway)("fever")
    assert gateway.batches == [["fever"], ["cough"], ["fever"]]


def test_remote_embedder_rejects_blank_text_without_a_request():
    gateway = RecordingGateway()
    embedder = build_embedder(EmbedderSpec(kind="remote"), gateway)
    for text in ("", "   ", "\n\t"):
        with pytest.raises(EmptyTextError):
            embedder(text)
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


def test_repeated_text_not_required_to_match_single():
    # Normalization only: determinism and unit norm are the contract.
    single = embed("x7")
    tripled = embed("x7 x7 x7")
    assert abs(np.linalg.norm(tripled) - 1.0) <= 1e-9
    assert single.shape == tripled.shape
