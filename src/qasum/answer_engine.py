"""Per-question retrieval, prompting, answer extraction, and score fusion.

One question flows through: embed the question, pull the top-k paragraphs
from the index, build a prompt, extract a sentence-level answer with a
confidence, compute the noun-phrase match score against the question, and
fuse the two into the final score that the threshold gates.
answer_question runs these steps for one question; `ask` and `summarize`
both call it.

Two extractors implement the same contract: MockExtractor (deterministic
lexical overlap, for offline runs and CI) and RemoteExtractor (gateway
chat call with strict reply schema).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Protocol

from .corpus import Paragraph, SegmentedCorpus, Sentence
from .embedding import Embedder, cosine, tokenize
from .errors import (
    CorruptIndexError,
    EmptyRetrievalError,
    EmptyTextError,
    NoAnswerError,
    UnlocatableSourceError,
)
from .question_bank import Question, QuestionBank, RetrievalParams, effective_params
from .vector_index import SearchHit, VectorIndex

PROMPT_TEMPLATE_VERSION = "v1"


@dataclass(frozen=True)
class RetrievedContext:
    question: Question
    hits: tuple[SearchHit, ...]
    paragraphs: tuple[Paragraph, ...]
    context_text: str


@dataclass(frozen=True)
class RawAnswer:
    answer_text: str
    source_sent_id: str
    confidence: float


@dataclass(frozen=True)
class ScoredAnswer:
    q_id: str
    sentence: Sentence
    confidence: float
    np_score: float
    score: float
    passed_threshold: bool
    answer_text: str


@dataclass(frozen=True)
class QuestionResult:
    """One question's outcome: its hits, and either its answer or why it has none."""

    question: Question
    hits: tuple[SearchHit, ...]
    answer: ScoredAnswer | None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.answer is not None and self.answer.passed_threshold


class AnswerExtractor(Protocol):
    def extract(self, prompt: str, ctx: RetrievedContext) -> RawAnswer: ...


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    raw = resources.files("qasum.assets").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in raw.splitlines() if line.strip() and not line.startswith("#")
    )


@lru_cache(maxsize=1)
def load_prompt_template() -> str:
    name = f"answer_prompt_{PROMPT_TEMPLATE_VERSION}.txt"
    return resources.files("qasum.assets").joinpath(name).read_text("utf-8")


def content_tokens(text: str) -> set[str]:
    """Distinct lowercased tokens minus the bundled stopword list."""
    stopwords = load_stopwords()
    return {t for t in tokenize(text) if t not in stopwords}


def retrieve_context(
    question: Question,
    index: VectorIndex,
    embedder: Embedder,
    corpus: SegmentedCorpus,
    k: int,
) -> RetrievedContext:
    """Top-k paragraphs for the question, concatenated in rank order.

    Raises EmptyTextError when the question has nothing to embed, and
    CorruptIndexError when a hit names a paragraph the corpus does not
    have (an index built from another corpus).
    """
    vectors, kept = embedder.embed_many([question.text])
    if not kept[0]:
        raise EmptyTextError(f"question {question.q_id!r}: {question.text[:50]!r} has no words to embed")
    hits = index.search(vectors[0], k, question.note_type_filter)
    if not hits:
        raise EmptyRetrievalError(
            f"question {question.q_id!r}: note-type filter "
            f"{sorted(question.note_type_filter or ())} matched no index entries"
        )
    try:
        paragraphs = tuple(corpus.paragraph(hit.para_id) for hit in hits)
    except KeyError as exc:
        raise CorruptIndexError(
            f"index entry {exc.args[0]!r} is not a paragraph of the corpus; the index is stale, "
            f"rebuild it with `qasum index`"
        ) from None
    context_text = "\n\n".join(f"[{p.para_id}] {p.text}" for p in paragraphs)
    return RetrievedContext(
        question=question, hits=tuple(hits), paragraphs=paragraphs, context_text=context_text
    )


def build_prompt(ctx: RetrievedContext) -> str:
    """Render the versioned prompt template; question text is never re-scanned."""
    template = load_prompt_template()
    head, rest = template.split("{question}", 1)
    mid, tail = rest.split("{context}", 1)
    return head + ctx.question.text + mid + ctx.context_text + tail


class MockExtractor:
    """Extractive stand-in for the remote model.

    Picks the context sentence with the largest distinct content-token
    overlap with the question; confidence is overlap / |question content
    tokens|. Ties go to the earliest sentence in document order. Raises
    NoAnswerError when nothing overlaps.
    """

    def __init__(self, corpus: SegmentedCorpus):
        self._corpus = corpus

    def extract(self, prompt: str, ctx: RetrievedContext) -> RawAnswer:
        question_tokens = content_tokens(ctx.question.text)
        if not question_tokens:
            raise NoAnswerError(
                f"question {ctx.question.q_id!r} has no content tokens to match"
            )
        best: tuple[int, tuple[int, int, int], Sentence] | None = None
        for para in ctx.paragraphs:
            for sent in self._corpus.sentences(para.para_id):
                overlap = len(question_tokens & content_tokens(sent.text))
                if overlap == 0:
                    continue
                key = self._corpus.order_key(sent.sent_id)
                if best is None or overlap > best[0] or (overlap == best[0] and key < best[1]):
                    best = (overlap, key, sent)
        if best is None:
            raise NoAnswerError(
                f"no context sentence shares content tokens with question {ctx.question.q_id!r}"
            )
        overlap, _, sentence = best
        return RawAnswer(
            answer_text=sentence.text,
            source_sent_id=sentence.sent_id,
            confidence=overlap / len(question_tokens),
        )


class RemoteExtractor:
    """Gateway-backed extractor; locates the model's source sentence in the context."""

    def __init__(self, gateway, corpus: SegmentedCorpus):
        self._gateway = gateway
        self._corpus = corpus

    def extract(self, prompt: str, ctx: RetrievedContext) -> RawAnswer:
        reply = self._gateway.chat_answer(prompt)
        if reply.no_answer:
            raise NoAnswerError(f"model declared no answer for question {ctx.question.q_id!r}")
        sentence = self._locate(reply.source_sentence, ctx)
        answer_text = reply.answer if reply.answer in sentence.text else sentence.text
        return RawAnswer(
            answer_text=answer_text,
            source_sent_id=sentence.sent_id,
            confidence=reply.confidence,
        )

    def _locate(self, source_sentence: str, ctx: RetrievedContext) -> Sentence:
        candidates = [
            sent for para in ctx.paragraphs for sent in self._corpus.sentences(para.para_id)
        ]
        for sent in candidates:
            if sent.text == source_sentence:
                return sent
        normalized = " ".join(source_sentence.split())
        for sent in candidates:
            if " ".join(sent.text.split()) == normalized:
                return sent
        raise UnlocatableSourceError(
            f"source sentence not found in retrieved context: {source_sentence[:80]!r}"
        )


def extract_noun_phrases(text: str) -> list[str]:
    """Maximal runs of non-stopword tokens, first-appearance order, deduplicated."""
    stopwords = load_stopwords()
    phrases: list[str] = []
    run: list[str] = []
    for token in tokenize(text):
        if token in stopwords:
            if run:
                phrases.append(" ".join(run))
                run = []
        else:
            run.append(token)
    if run:
        phrases.append(" ".join(run))
    return list(dict.fromkeys(phrases))


def np_match_score(q_text: str, a_text: str, embedder: Embedder) -> float:
    """Greedy best-match average of question noun phrases against answer noun phrases."""
    q_phrases = extract_noun_phrases(q_text)
    a_phrases = extract_noun_phrases(a_text)
    if not q_phrases or not a_phrases:
        return 0.0
    # A phrase is a run of tokens, so every row is kept.
    vectors, _ = embedder.embed_many(q_phrases + a_phrases)
    a_vectors = list(vectors[len(q_phrases):])  # one row view each, not one per comparison
    total = 0.0
    for q_vec in vectors[: len(q_phrases)]:
        best = max(cosine(q_vec, a_vec) for a_vec in a_vectors)
        total += min(1.0, max(0.0, best))
    return total / len(q_phrases)


def fuse_and_threshold(
    raw: RawAnswer,
    np_score: float,
    params: RetrievalParams,
    q_id: str,
    sentence: Sentence,
) -> ScoredAnswer:
    """Weighted average of extractor confidence and NP score, gated at the threshold."""
    w = params.fusion_weight
    score = w * raw.confidence + (1.0 - w) * np_score
    return ScoredAnswer(
        q_id=q_id,
        sentence=sentence,
        confidence=raw.confidence,
        np_score=np_score,
        score=score,
        passed_threshold=score >= params.score_threshold,
        answer_text=raw.answer_text,
    )


def answer_question(
    question: Question,
    index: VectorIndex,
    embedder: Embedder,
    corpus: SegmentedCorpus,
    extractor: AnswerExtractor,
    params: RetrievalParams,
) -> QuestionResult:
    """Run one question end to end.

    A question with no hits, no answer in its context, or a reply whose
    source sentence is not in the context gets a result with no answer and
    the reason; every other error propagates.
    """
    eff = effective_params(question, params)
    hits: tuple[SearchHit, ...] = ()
    try:
        ctx = retrieve_context(question, index, embedder, corpus, eff.k)
        hits = ctx.hits
        raw = extractor.extract(build_prompt(ctx), ctx)
    except (EmptyRetrievalError, NoAnswerError, UnlocatableSourceError) as exc:
        return QuestionResult(question, hits, None, str(exc))
    sentence = corpus.sentence(raw.source_sent_id)
    m = np_match_score(question.text, raw.answer_text, embedder)
    return QuestionResult(question, hits, fuse_and_threshold(raw, m, eff, question.q_id, sentence))


def answer_questions(
    bank: QuestionBank,
    index: VectorIndex,
    embedder: Embedder,
    corpus: SegmentedCorpus,
    extractor: AnswerExtractor,
    params: RetrievalParams | None = None,
    max_workers: int = 1,
) -> list[QuestionResult]:
    """Answer every bank question; results in bank order.

    Evaluation may run on a thread pool; the result order is fixed by the
    bank regardless of completion order.
    """
    params = params or bank.defaults

    def run(question: Question) -> QuestionResult:
        return answer_question(question, index, embedder, corpus, extractor, params)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, bank.questions))
    return [run(q) for q in bank.questions]
