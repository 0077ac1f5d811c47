import pytest

from index_rows import Row, build_index
from oracles import embed_oracle, knn_oracle
from qasum import answer_engine as ae
from qasum.corpus import Document, SegmentedCorpus
from qasum.embedding import reference_embedding
from qasum.errors import (
    EmptyRetrievalError,
    GatewayHttpError,
    NoAnswerError,
    UnlocatableSourceError,
)
from qasum.llm_gateway import AnswerReply
from qasum.question_bank import Question, RetrievalParams, effective_params


def mini_corpus(texts, note_type="progress"):
    docs = [
        Document(doc_id=f"d{i}", patient_id="p", note_type=note_type, timestamp=None, text=text)
        for i, text in enumerate(texts)
    ]
    corpus = SegmentedCorpus(docs)
    index = build_index(
        [Row(para.para_id, reference_embedding(para.text), para.doc_id, note_type) for para in corpus.paragraphs]
    )
    return corpus, index


def question(text, **kwargs):
    return Question(q_id=kwargs.pop("q_id", "q"), text=text, order=kwargs.pop("order", 0), **kwargs)


# -- retrieve_context -------------------------------------------------------


def test_retrieve_context_matches_brute_force_oracle(bank, fixture_index, fixture_entries, segmented):
    q = next(q for q in bank.questions if q.q_id == "q-discharge-meds")
    eff = effective_params(q, bank.defaults)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding, segmented, eff.k)
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


def test_k_override_limits_hits(fixture_index, segmented):
    q = question("Why was the patient admitted?", k_override=1)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding, segmented,
                              effective_params(q, RetrievalParams()).k)
    assert len(ctx.hits) == 1


def test_filter_excluding_everything_raises(fixture_index, segmented):
    q = question("Anything at all?", note_type_filter=frozenset({"lab"}))
    with pytest.raises(EmptyRetrievalError):
        ae.retrieve_context(q, fixture_index, reference_embedding, segmented, 4)


# -- build_prompt -----------------------------------------------------------


def test_prompt_matches_golden(bank, fixture_index, segmented, golden_dir):
    q = next(q for q in bank.questions if q.q_id == "q-discharge-meds")
    eff = effective_params(q, bank.defaults)
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding, segmented, eff.k)
    prompt = ae.build_prompt(ctx)
    golden = (golden_dir / "prompt_discharge_meds.txt").read_text("utf-8")
    assert prompt == golden


def test_prompt_preserves_braces(fixture_index, segmented):
    q = question("What about {braces} and {context}?")
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding, segmented, 1)
    prompt = ae.build_prompt(ctx)
    assert "What about {braces} and {context}?" in prompt
    assert "QUESTION:" in prompt and "CONTEXT:" in prompt


def test_prompt_is_deterministic(fixture_index, segmented):
    q = question("Why was the patient admitted?")
    ctx = ae.retrieve_context(q, fixture_index, reference_embedding, segmented, 2)
    assert ae.build_prompt(ctx) == ae.build_prompt(ctx)


# -- mock extractor ---------------------------------------------------------


def test_mock_extractor_hand_example():
    # Question content tokens {medications, prescribed, discharge}; the
    # sentence shares {discharge, medications} -> c = 2/3.
    corpus, index = mini_corpus(["Discharge medications included lisinopril and metformin."])
    q = question("What medications were prescribed at discharge?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 1)
    raw = ae.MockExtractor(corpus).extract(ae.build_prompt(ctx), ctx)
    assert raw.answer_text == "Discharge medications included lisinopril and metformin."
    assert raw.confidence == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert raw.source_sent_id == "d0#0:0"


def test_mock_extractor_zero_overlap_is_no_answer():
    corpus, index = mini_corpus(["Ambulating in hallway without assistance."])
    q = question("What medications were prescribed at discharge?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 1)
    with pytest.raises(NoAnswerError):
        ae.MockExtractor(corpus).extract("p", ctx)


def test_mock_extractor_question_without_content_tokens():
    corpus, index = mini_corpus(["The patient is stable."])
    q = question("Why was the?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 1)
    with pytest.raises(NoAnswerError, match="content tokens"):
        ae.MockExtractor(corpus).extract("p", ctx)


def test_mock_extractor_tie_breaks_by_document_order():
    corpus, index = mini_corpus(
        ["Fever resolved overnight.", "Fever improving on antibiotics."]
    )
    q = question("Any fever?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 2)
    raw = ae.MockExtractor(corpus).extract("p", ctx)
    assert raw.source_sent_id.startswith("d0#")


def test_mock_extractor_prefers_higher_overlap():
    corpus, index = mini_corpus(
        ["Fever noted on admission.", "Fever and productive cough noted."]
    )
    q = question("Was there fever or cough?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 2)
    raw = ae.MockExtractor(corpus).extract("p", ctx)
    assert raw.source_sent_id.startswith("d1#")
    assert raw.confidence == pytest.approx(1.0)


def test_mock_extractor_is_deterministic(bank, fixture_index, segmented):
    extractor = ae.MockExtractor(segmented)
    runs = [
        ae.answer_questions(bank, fixture_index, reference_embedding, segmented, extractor)
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


def remote_ctx():
    corpus, index = mini_corpus(["The patient was afebrile.  Discharged in stable condition."])
    q = question("Was the patient afebrile?")
    ctx = ae.retrieve_context(q, index, reference_embedding, corpus, 1)
    return corpus, ctx


def test_remote_extractor_exact_match():
    corpus, ctx = remote_ctx()
    reply = AnswerReply(answer="afebrile", source_sentence="The patient was afebrile.", confidence=0.9)
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert raw.source_sent_id == "d0#0:0"
    assert raw.answer_text == "afebrile"
    assert raw.confidence == 0.9


def test_remote_extractor_normalized_match():
    corpus, ctx = remote_ctx()
    reply = AnswerReply(
        answer="stable", source_sentence="Discharged  in   stable condition.", confidence=0.7
    )
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert raw.source_sent_id == "d0#0:1"


def test_remote_extractor_answer_not_substring_uses_sentence():
    corpus, ctx = remote_ctx()
    reply = AnswerReply(
        answer="the patient had no fever", source_sentence="The patient was afebrile.",
        confidence=0.5,
    )
    raw = ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)
    assert raw.answer_text == "The patient was afebrile."


def test_remote_extractor_unlocatable_source():
    corpus, ctx = remote_ctx()
    reply = AnswerReply(answer="x", source_sentence="Sentence not in context.", confidence=0.5)
    with pytest.raises(UnlocatableSourceError):
        ae.RemoteExtractor(FakeGateway(reply), corpus).extract("p", ctx)


def test_remote_extractor_no_answer():
    corpus, ctx = remote_ctx()
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


def test_np_match_identical_lists():
    value = ae.np_match_score("acute renal failure", "acute renal failure", reference_embedding)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_np_match_empty_side_is_zero():
    assert ae.np_match_score("the of and", "ceftriaxone", reference_embedding) == 0.0
    assert ae.np_match_score("ceftriaxone", "the of and", reference_embedding) == 0.0


def test_np_match_fixture_and_asymmetry():
    # Q={antibiotics}, A={antibiotics, ceftriaxone dose}: forward score is the
    # exact self-match; reverse averages in cos(ceftriaxone dose, antibiotics),
    # recorded as 0.0 from the standalone embedding oracle.
    fwd = ae.np_match_score("antibiotics", "antibiotics and ceftriaxone dose", reference_embedding)
    rev = ae.np_match_score("antibiotics and ceftriaxone dose", "antibiotics", reference_embedding)
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
    raw = ae.RawAnswer(answer_text="t", source_sent_id="s", confidence=c)
    params = RetrievalParams(fusion_weight=w, score_threshold=tau)
    sentence = None
    return ae.fuse_and_threshold(raw, m, params, q_id, sentence)


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


def test_answer_questions_covers_every_question(bank, fixture_index, segmented):
    results = ae.answer_questions(
        bank, fixture_index, reference_embedding, segmented, ae.MockExtractor(segmented)
    )
    assert [r.question.q_id for r in results] == [q.q_id for q in bank.questions]
    by_id = {r.question.q_id: r for r in results}
    assert by_id["q-diet"].answer is None  # no content-token overlap anywhere
    assert "content tokens" in by_id["q-diet"].reason
    assert by_id["q-diet"].hits
    assert by_id["q-admit-reason"].passed


def test_answer_questions_parallel_matches_serial(bank, fixture_index, segmented):
    extractor = ae.MockExtractor(segmented)
    serial = ae.answer_questions(
        bank, fixture_index, reference_embedding, segmented, extractor, max_workers=1
    )
    parallel = ae.answer_questions(
        bank, fixture_index, reference_embedding, segmented, extractor, max_workers=4
    )
    assert serial == parallel


# -- answer_question --------------------------------------------------------


def test_answer_question_scores_the_extracted_sentence():
    corpus, index = mini_corpus(["Discharge medications included lisinopril and metformin."])
    q = question("What medications were prescribed at discharge?")
    result = ae.answer_question(q, index, reference_embedding, corpus, ae.MockExtractor(corpus),
                                RetrievalParams())
    assert result.question == q
    assert [h.para_id for h in result.hits] == ["d0#0"]
    assert result.reason is None
    assert result.answer.sentence.sent_id == "d0#0:0"
    assert result.answer.answer_text == "Discharge medications included lisinopril and metformin."
    assert result.answer.confidence == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.passed == result.answer.passed_threshold


def test_answer_question_unlocatable_source_is_no_answer():
    corpus, index = mini_corpus(["The patient was afebrile.  Discharged in stable condition."])
    reply = AnswerReply(answer="x", source_sentence="Sentence not in context.", confidence=0.5)
    result = ae.answer_question(question("Was the patient afebrile?"), index, reference_embedding,
                                corpus, ae.RemoteExtractor(FakeGateway(reply), corpus),
                                RetrievalParams(k=1))
    assert result.answer is None and not result.passed
    assert "source sentence not found" in result.reason
    assert [h.para_id for h in result.hits] == ["d0#0"]


def test_answer_question_empty_retrieval_is_no_answer(fixture_index, segmented):
    q = question("Anything at all?", note_type_filter=frozenset({"lab"}))
    result = ae.answer_question(q, fixture_index, reference_embedding, segmented,
                                ae.MockExtractor(segmented), RetrievalParams())
    assert result.hits == ()
    assert result.answer is None
    assert "matched no index entries" in result.reason


def test_answer_question_other_errors_propagate():
    class FailingGateway:
        def chat_answer(self, prompt):
            raise GatewayHttpError(503, "HTTP 503 from endpoint")

    corpus, index = mini_corpus(["The patient was afebrile."])
    with pytest.raises(GatewayHttpError):
        ae.answer_question(question("Was the patient afebrile?"), index, reference_embedding,
                           corpus, ae.RemoteExtractor(FailingGateway(), corpus), RetrievalParams())
