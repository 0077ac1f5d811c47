import numpy as np
import pytest

from index_rows import Row, build_index
from oracles import embed_oracle, knn_oracle
from qasum import answer_engine as ae
from qasum.corpus import Document, segment_paragraphs
from qasum.embedding import reference_counts, reference_embedding, unit_rows
from qasum.errors import (
    EmptyRetrievalError,
    GatewayHttpError,
    NoAnswerError,
    UnlocatableSourceError,
)
from qasum.llm_gateway import AnswerReply
from qasum.question_bank import Question, RetrievalParams, effective_params


@pytest.fixture
def mini_corpus(pin_documents):
    """mini_corpus(texts): documents d0, d1, ... of the texts, pinned, and an index of their paragraphs."""

    def build(texts, note_type="progress"):
        docs = [
            Document(doc_id=f"d{i}", patient_id="p", note_type=note_type, timestamp=None, text=text)
            for i, text in enumerate(texts)
        ]
        paragraphs = [para for doc in docs for para in segment_paragraphs(doc)]
        index = build_index([Row(para.para_id, reference_embedding(para.text), para.doc_id, note_type)
                             for para in paragraphs])
        return pin_documents(docs), index

    return build


def question(text, **kwargs):
    return Question(q_id=kwargs.pop("q_id", "q"), text=text, order=kwargs.pop("order", 0), **kwargs)


# -- retrieve_context -------------------------------------------------------


def test_retrieve_context_matches_brute_force_oracle(bank, fixture_index, fixture_entries, pinned):
    q = next(q for q in bank.questions if q.q_id == "q-discharge-meds")
    eff = effective_params(q, bank.defaults)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned, eff.k)
    oracle_entries = [(e.para_id, list(e.vector), e.doc_id, e.note_type) for e in fixture_entries]
    expected = knn_oracle.brute_force_search(
        oracle_entries, list(reference_embedding(q.text)), eff.k, note_types=q.note_type_filter
    )
    assert [h.para_id for h in ctx.hits] == [pid for pid, _ in expected]
    for hit, (_, score) in zip(ctx.hits, expected):
        assert hit.score == pytest.approx(score, abs=1e-9)
    assert len(ctx.hits) <= eff.k
    for para in ctx.paragraphs:
        assert f"[{para.para_id}] " in ctx.context_text
        assert para.text in ctx.context_text


def test_k_override_limits_hits(fixture_index, pinned):
    q = question("Why was the patient admitted?", k_override=1)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned,
                              effective_params(q, RetrievalParams()).k)
    assert len(ctx.hits) == 1


def test_filter_excluding_everything_raises(fixture_index, pinned):
    q = question("Anything at all?", note_type_filter=frozenset({"lab"}))
    with pytest.raises(EmptyRetrievalError):
        ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned, 4)


# -- build_prompt -----------------------------------------------------------


def test_prompt_matches_golden(bank, fixture_index, pinned, golden_dir):
    q = next(q for q in bank.questions if q.q_id == "q-discharge-meds")
    eff = effective_params(q, bank.defaults)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned, eff.k)
    prompt = ae.build_prompt(ctx)
    golden = (golden_dir / "prompt_discharge_meds.txt").read_text("utf-8")
    assert prompt == golden


def test_prompt_preserves_braces(fixture_index, pinned):
    q = question("What about {braces} and {context}?")
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned, 1)
    prompt = ae.build_prompt(ctx)
    assert "What about {braces} and {context}?" in prompt
    assert "QUESTION:" in prompt and "CONTEXT:" in prompt


def test_prompt_is_deterministic(fixture_index, pinned):
    q = question("Why was the patient admitted?")
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding(q.text), pinned, 2)
    assert ae.build_prompt(ctx) == ae.build_prompt(ctx)


# -- mock extractor ---------------------------------------------------------


def test_mock_extractor_hand_example(mini_corpus):
    # Question content tokens {medications, prescribed, discharge}; the
    # sentence shares {discharge, medications} -> c = 2/3.
    corpus, index = mini_corpus(["Discharge medications included lisinopril and metformin."])
    q = question("What medications were prescribed at discharge?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 1)
    raw = ae.MockExtractor(corpus).extract(ae.build_prompt(ctx), ctx)
    assert raw.answer_text == "Discharge medications included lisinopril and metformin."
    assert raw.confidence == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert (raw.sentence.sent_id, raw.order_key) == ("d0#0:0", (0, 0, 0))


def test_mock_extractor_zero_overlap_is_no_answer(mini_corpus):
    corpus, index = mini_corpus(["Ambulating in hallway without assistance."])
    q = question("What medications were prescribed at discharge?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 1)
    with pytest.raises(NoAnswerError):
        ae.MockExtractor(corpus).extract("p", ctx)


def test_mock_extractor_question_without_content_tokens(mini_corpus):
    corpus, index = mini_corpus(["The patient is stable."])
    q = question("Why was the?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 1)
    with pytest.raises(NoAnswerError, match="content tokens"):
        ae.MockExtractor(corpus).extract("p", ctx)


def test_mock_extractor_tie_breaks_by_document_order(mini_corpus):
    corpus, index = mini_corpus(
        ["Fever resolved overnight.", "Fever improving on antibiotics."]
    )
    q = question("Any fever?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 2)
    raw = ae.MockExtractor(corpus).extract("p", ctx)
    assert raw.sentence.para_id == "d0#0" and raw.order_key == (0, 0, 0)


def test_mock_extractor_prefers_higher_overlap(mini_corpus):
    corpus, index = mini_corpus(
        ["Fever noted on admission.", "Fever and productive cough noted."]
    )
    q = question("Was there fever or cough?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 2)
    raw = ae.MockExtractor(corpus).extract("p", ctx)
    assert raw.sentence.para_id == "d1#0" and raw.order_key == (1, 0, 0)
    assert raw.confidence == pytest.approx(1.0)


def test_mock_extractor_is_deterministic(bank, fixture_index, pinned, ref_embedder):
    extractor = ae.MockExtractor(pinned)
    runs = [
        ae.answer_questions(bank.questions, fixture_index, ref_embedder, pinned, extractor, bank.defaults)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# -- remote extractor -------------------------------------------------------


class FakeGateway:
    def __init__(self, reply):
        self.reply = reply
        self.prompts = []

    def chat_answer(self, prompt):
        self.prompts.append(prompt)
        return self.reply


def remote_ctx(mini_corpus):
    corpus, index = mini_corpus(["The patient was afebrile.  Discharged in stable condition."])
    q = question("Was the patient afebrile?")
    ctx = ae.retrieve_context(q, index, reference_embedding(q.text), corpus, 1)
    return corpus, ctx


def test_remote_extractor_exact_match(mini_corpus):
    corpus, ctx = remote_ctx(mini_corpus)
    reply = AnswerReply(answer="afebrile", source_sentence="The patient was afebrile.", confidence=0.9)
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert (raw.sentence.sent_id, raw.order_key) == ("d0#0:0", (0, 0, 0))
    assert raw.answer_text == "afebrile"
    assert raw.confidence == 0.9


def test_remote_extractor_normalized_match(mini_corpus):
    corpus, ctx = remote_ctx(mini_corpus)
    reply = AnswerReply(
        answer="stable", source_sentence="Discharged  in   stable condition.", confidence=0.7
    )
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert (raw.sentence.sent_id, raw.order_key) == ("d0#0:1", (0, 0, 1))


def test_remote_extractor_answer_not_substring_uses_sentence(mini_corpus):
    corpus, ctx = remote_ctx(mini_corpus)
    reply = AnswerReply(
        answer="the patient had no fever", source_sentence="The patient was afebrile.",
        confidence=0.5,
    )
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert raw.answer_text == "The patient was afebrile."


def test_remote_extractor_unlocatable_source(mini_corpus):
    corpus, ctx = remote_ctx(mini_corpus)
    reply = AnswerReply(answer="x", source_sentence="Sentence not in context.", confidence=0.5)
    with pytest.raises(UnlocatableSourceError):
        ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)


def test_remote_extractor_no_answer(mini_corpus):
    corpus, ctx = remote_ctx(mini_corpus)
    reply = AnswerReply(answer="", source_sentence="", confidence=0.0, no_answer=True)
    with pytest.raises(NoAnswerError):
        ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)


# -- noun phrases and NP matching -------------------------------------------


def test_extract_noun_phrases_hand_examples():
    assert ae.extract_noun_phrases("What antibiotics were administered during the stay?") == [
        "antibiotics",
        "administered",
        "stay",
    ]
    assert ae.extract_noun_phrases("the of and") == []
    assert ae.extract_noun_phrases("acute renal failure") == ["acute renal failure"]


def test_extract_noun_phrases_deduplicates_preserving_order():
    assert ae.extract_noun_phrases("fever and chills and fever") == ["fever", "chills"]


def np_match(q_text, a_text):
    """np_match_score of two texts, from the reference embeddings of their noun phrases."""
    q_rows, _ = reference_counts(ae.extract_noun_phrases(q_text))
    a_rows, _ = reference_counts(ae.extract_noun_phrases(a_text))
    return ae.np_match_score(unit_rows(q_rows), unit_rows(a_rows))


def test_np_match_identical_lists():
    value = np_match("acute renal failure", "acute renal failure")
    assert value == pytest.approx(1.0, abs=1e-9)


def test_np_match_empty_side_is_zero():
    assert np_match("the of and", "ceftriaxone") == 0.0
    assert np_match("ceftriaxone", "the of and") == 0.0


def test_np_match_fixture_and_asymmetry():
    # Q={antibiotics}, A={antibiotics, ceftriaxone dose}: forward score is the
    # exact self-match; reverse averages in cos(ceftriaxone dose, antibiotics),
    # recorded as 0.0 from the standalone embedding oracle.
    fwd = np_match("antibiotics", "antibiotics and ceftriaxone dose")
    rev = np_match("antibiotics and ceftriaxone dose", "antibiotics")
    assert fwd == pytest.approx(1.0, abs=1e-9)
    assert rev == pytest.approx(0.5, abs=1e-9)
    assert fwd != rev
    oracle_eps = embed_oracle.cosine(
        embed_oracle.hashed_embedding("antibiotics"),
        embed_oracle.hashed_embedding("ceftriaxone dose"),
    )
    assert rev == pytest.approx((1.0 + max(0.0, oracle_eps)) / 2.0, abs=1e-9)


# -- fusion -----------------------------------------------------------------


def scored(c, m, w, tau, q_id="q"):
    raw = ae.RawAnswer(answer_text="t", sentence=None, order_key=(0, 0, 0), confidence=c)
    params = RetrievalParams(fusion_weight=w, score_threshold=tau)
    return ae.fuse_and_threshold(raw, m, params, q_id)


def test_fusion_weight_extremes():
    assert scored(0.8, 0.1, w=1.0, tau=0.6).score == pytest.approx(0.8)
    assert scored(0.8, 0.1, w=0.0, tau=0.6).score == pytest.approx(0.1)


def test_fusion_midpoint_passes_threshold():
    answer = scored(0.8, 0.6, w=0.5, tau=0.6)
    assert answer.score == pytest.approx(0.7, abs=1e-12)
    assert answer.passed_threshold


def test_threshold_is_inclusive():
    assert scored(0.6, 0.6, w=0.5, tau=0.6).passed_threshold
    assert scored(1.0, 1.0, w=0.5, tau=1.0).passed_threshold
    assert not scored(0.59, 0.59, w=0.5, tau=0.6).passed_threshold


# -- answer_questions -------------------------------------------------------


def test_answer_questions_covers_every_question(bank, fixture_index, pinned, ref_embedder):
    results = ae.answer_questions(
        bank.questions, fixture_index, ref_embedder, pinned, ae.MockExtractor(pinned), bank.defaults
    )
    assert [r.question.q_id for r in results] == [q.q_id for q in bank.questions]
    by_id = {r.question.q_id: r for r in results}
    assert by_id["q-diet"].answer is None  # no content-token overlap anywhere
    assert "content tokens" in by_id["q-diet"].reason
    assert by_id["q-diet"].hits
    assert by_id["q-admit-reason"].passed


def test_answer_questions_searches_counts_and_scores_unit_vectors(bank, fixture_index, pinned, ref_embedder,
                                                                  monkeypatch):
    """embed_many's counts reach search as they are, bit for bit, and the NP score as unit rows."""
    searched, scored = [], []
    search, np_match_score = fixture_index.search, ae.np_match_score
    monkeypatch.setattr(fixture_index, "search", lambda query, *args: searched.append(query) or search(query, *args))
    monkeypatch.setattr(ae, "np_match_score", lambda q, a: scored.extend([q, a]) or np_match_score(q, a))
    ae.answer_questions(bank.questions, fixture_index, ref_embedder, pinned, ae.MockExtractor(pinned), bank.defaults)
    assert all(query.dtype == np.int64 for query in searched)
    assert [query.tobytes() for query in searched] == [reference_counts([q.text])[0][0].tobytes() for q in bank.questions]
    rows = np.concatenate(scored)
    assert len(rows) and rows.dtype == np.float64 and np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)


def test_answer_questions_parallel_matches_serial(bank, fixture_index, pinned, ref_embedder):
    extractor = ae.MockExtractor(pinned)
    serial = ae.answer_questions(
        bank.questions, fixture_index, ref_embedder, pinned, extractor, bank.defaults, max_workers=1
    )
    parallel = ae.answer_questions(
        bank.questions, fixture_index, ref_embedder, pinned, extractor, bank.defaults, max_workers=4
    )
    assert serial == parallel


# -- one question through answer_questions -----------------------------------


def answer_one(q, index, embedder, corpus, extractor, params):
    [result] = ae.answer_questions([q], index, embedder, corpus, extractor, params)
    return result


def test_answer_question_scores_the_extracted_sentence(ref_embedder, mini_corpus):
    corpus, index = mini_corpus(["Discharge medications included lisinopril and metformin."])
    q = question("What medications were prescribed at discharge?")
    result = answer_one(q, index, ref_embedder, corpus, ae.MockExtractor(corpus), RetrievalParams())
    assert result.question == q
    assert [h.para_id for h in result.hits] == ["d0#0"]
    assert result.reason is None
    assert result.answer.sentence.sent_id == "d0#0:0"
    assert result.answer.answer_text == "Discharge medications included lisinopril and metformin."
    assert result.answer.confidence == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.passed == result.answer.passed_threshold


def test_answer_question_unlocatable_source_is_no_answer(ref_embedder, mini_corpus):
    corpus, index = mini_corpus(["The patient was afebrile.  Discharged in stable condition."])
    reply = AnswerReply(answer="x", source_sentence="Sentence not in context.", confidence=0.5)
    result = answer_one(question("Was the patient afebrile?"), index, ref_embedder,
                        corpus, ae.RemoteExtractor(FakeGateway(reply), corpus), RetrievalParams(k=1))
    assert result.answer is None and not result.passed
    assert "source sentence not found" in result.reason
    assert [h.para_id for h in result.hits] == ["d0#0"]


def test_answer_question_empty_retrieval_is_no_answer(fixture_index, pinned, ref_embedder):
    q = question("Anything at all?", note_type_filter=frozenset({"lab"}))
    result = answer_one(q, fixture_index, ref_embedder, pinned, ae.MockExtractor(pinned), RetrievalParams())
    assert result.hits == ()
    assert result.answer is None
    assert "matched no index entries" in result.reason


def test_answer_question_other_errors_propagate(ref_embedder, mini_corpus):
    class FailingGateway:
        def chat_answer(self, prompt):
            raise GatewayHttpError(503, "HTTP 503 from endpoint")

    corpus, index = mini_corpus(["The patient was afebrile."])
    with pytest.raises(GatewayHttpError):
        answer_one(question("Was the patient afebrile?"), index, ref_embedder,
                   corpus, ae.RemoteExtractor(FailingGateway(), corpus), RetrievalParams())
