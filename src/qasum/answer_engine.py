"""Per-question retrieval, prompting, answer extraction, and score fusion.

One question flows through: embed the question, pull the top-k paragraphs
from the index, build a prompt, extract a sentence-level answer with a
confidence, compute the noun-phrase match score against the question, and
fuse the two into the final score that the threshold gates.
answer_questions runs these steps for a list of questions in four phases;
`ask` calls it with one question and `summarize` with the bank. Only the
calling thread embeds, one embed_many per phase over every question, so
the texts embedded together never depend on the number of workers.

Two extractors implement the same contract: MockExtractor (deterministic
lexical overlap, for offline runs and CI) and RemoteExtractor (gateway
chat call with strict reply schema).

Paragraphs and sentences are found by position, never by id: each search
hit carries its document's position in the pinned corpus and its paragraph
ordinal, and an extractor returns the chosen Sentence with its order key
(document position, paragraph ordinal, sentence ordinal), taken from the
hit, which dedupe and assembly sort by. Ids are only written out: in the
prompt context, the ``ask`` output and ``summary.json``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Protocol, Sequence

import numpy as np

from .corpus import Paragraph, PinnedCorpus, Sentence
from .embedding import Embedder, cosine_norms, normed_cosine, tokenize, unit_rows
from .errors import (
    EmptyRetrievalError,
    EmptyTextError,
    NoAnswerError,
    UnlocatableSourceError,
)
from .question_bank import Question, RetrievalParams, effective_params
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
    """An extractor's answer, the context sentence it came from with that sentence's order key, and a confidence."""

    answer_text: str
    sentence: Sentence
    order_key: tuple[int, int, int]  # (document position, paragraph ordinal, sentence ordinal)
    confidence: float


@dataclass(frozen=True)
class ScoredAnswer:
    q_id: str
    sentence: Sentence
    order_key: tuple[int, int, int]
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
    row: np.ndarray,
    corpus: PinnedCorpus,
    k: int,
) -> RetrievedContext:
    """Top-k paragraphs for the question, whose embed_many row is row, concatenated in rank order.

    Raises EmptyRetrievalError when the question's note-type filter leaves
    no hits, and the corpus raises CorruptIndexError when a hit names a
    paragraph it does not have (a hand-edited index).
    """
    hits = index.search(row, k, question.note_type_filter)
    if not hits:
        raise EmptyRetrievalError(
            f"question {question.q_id!r}: note-type filter "
            f"{sorted(question.note_type_filter or ())} matched no index entries"
        )
    paragraphs = tuple(corpus.paragraph(hit.doc, hit.ordinal) for hit in hits)
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

    def __init__(self, corpus: PinnedCorpus):
        self._corpus = corpus

    def extract(self, prompt: str, ctx: RetrievedContext) -> RawAnswer:
        question_tokens = content_tokens(ctx.question.text)
        if not question_tokens:
            raise NoAnswerError(
                f"question {ctx.question.q_id!r} has no content tokens to match"
            )
        best: tuple[int, tuple[int, int, int], Sentence] | None = None
        for sent, key in _context_sentences(self._corpus, ctx):
            overlap = len(question_tokens & content_tokens(sent.text))
            if overlap == 0:
                continue
            if best is None or overlap > best[0] or (overlap == best[0] and key < best[1]):
                best = (overlap, key, sent)
        if best is None:
            raise NoAnswerError(
                f"no context sentence shares content tokens with question {ctx.question.q_id!r}"
            )
        overlap, key, sentence = best
        return RawAnswer(
            answer_text=sentence.text,
            sentence=sentence,
            order_key=key,
            confidence=overlap / len(question_tokens),
        )


class RemoteExtractor:
    """Gateway-backed extractor; locates the model's source sentence in the context."""

    def __init__(self, gateway, corpus: PinnedCorpus):
        self._gateway = gateway
        self._corpus = corpus

    def extract(self, prompt: str, ctx: RetrievedContext) -> RawAnswer:
        reply = self._gateway.chat_answer(prompt)
        if reply.no_answer:
            raise NoAnswerError(f"model declared no answer for question {ctx.question.q_id!r}")
        sentence, key = self._find_source(reply.source_sentence, ctx)
        answer_text = reply.answer if reply.answer in sentence.text else sentence.text
        return RawAnswer(
            answer_text=answer_text,
            sentence=sentence,
            order_key=key,
            confidence=reply.confidence,
        )

    def _find_source(self, source_sentence: str, ctx: RetrievedContext) -> tuple[Sentence, tuple[int, int, int]]:
        candidates = _context_sentences(self._corpus, ctx)
        for sent, key in candidates:
            if sent.text == source_sentence:
                return sent, key
        normalized = " ".join(source_sentence.split())
        for sent, key in candidates:
            if " ".join(sent.text.split()) == normalized:
                return sent, key
        raise UnlocatableSourceError(
            f"source sentence not found in retrieved context: {source_sentence[:80]!r}"
        )


def _context_sentences(corpus: PinnedCorpus, ctx: RetrievedContext) -> list[tuple[Sentence, tuple[int, int, int]]]:
    """Each sentence of the context's paragraphs, in rank order, with its order key from its hit."""
    return [
        (sent, (hit.doc, hit.ordinal, sent.ordinal))
        for hit in ctx.hits
        for sent in corpus.sentences(hit.doc, hit.ordinal)
    ]


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


def np_match_score(q_vectors: np.ndarray, a_vectors: np.ndarray) -> float:
    """Greedy best-match average of question noun-phrase vectors against answer noun-phrase vectors.

    Rows are the embeddings of extract_noun_phrases of each side; either
    side empty scores 0.0.
    """
    if not len(q_vectors) or not len(a_vectors):
        return 0.0
    a_rows = list(zip(a_vectors, cosine_norms(a_vectors)))
    total = 0.0
    for q_vec, q_norm in zip(q_vectors, cosine_norms(q_vectors)):
        best = max(normed_cosine(q_vec, q_norm, a_vec, a_norm) for a_vec, a_norm in a_rows)
        total += min(1.0, max(0.0, best))
    return total / len(q_vectors)


def fuse_and_threshold(raw: RawAnswer, np_score: float, params: RetrievalParams, q_id: str) -> ScoredAnswer:
    """Weighted average of extractor confidence and NP score, gated at the threshold."""
    w = params.fusion_weight
    score = w * raw.confidence + (1.0 - w) * np_score
    return ScoredAnswer(
        q_id=q_id,
        sentence=raw.sentence,
        order_key=raw.order_key,
        confidence=raw.confidence,
        np_score=np_score,
        score=score,
        passed_threshold=score >= params.score_threshold,
        answer_text=raw.answer_text,
    )


def answer_questions(
    questions: Sequence[Question],
    index: VectorIndex,
    embedder: Embedder,
    corpus: PinnedCorpus,
    extractor: AnswerExtractor,
    params: RetrievalParams,
    max_workers: int = 1,
) -> list[QuestionResult]:
    """Answer each question; results in the order of questions.

    Four phases, each over every question in order:
    1. one embed_many of the question texts; a question the embedder does
       not keep raises EmptyTextError naming the first such question,
       before any search or extraction;
    2. retrieval, prompt and extraction, per question, on a pool of
       max_workers threads when max_workers > 1;
    3. one embed_many of the question and answer noun phrases of every
       answered question, then np_match_score per question on its rows;
    4. fusion and threshold.
    A question with no hits, no answer in its context, or a reply whose
    source sentence is not in the context gets a result with no answer and
    the reason; every other error propagates. Only the calling thread
    embeds, so each embed_many gets the same texts whatever max_workers is.
    """
    rows, kept = embedder.embed_many([q.text for q in questions])
    if not kept.all():
        question = questions[int(np.argmin(kept))]
        raise EmptyTextError(f"question {question.q_id!r}: {question.text[:50]!r} has no words to embed")

    def extract(i: int) -> tuple[tuple[SearchHit, ...], RawAnswer | None, str | None]:
        """Question i's hits, and its raw answer or why it has none; embeds nothing."""
        question = questions[i]
        hits: tuple[SearchHit, ...] = ()
        try:
            ctx = retrieve_context(question, index, rows[i], corpus, effective_params(question, params).k)
            hits = ctx.hits
            return hits, extractor.extract(build_prompt(ctx), ctx), None
        except (EmptyRetrievalError, NoAnswerError, UnlocatableSourceError) as exc:
            return hits, None, str(exc)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            extracted = list(pool.map(extract, range(len(questions))))
    else:
        extracted = [extract(i) for i in range(len(questions))]

    phrases: list[str] = []
    bounds: list[tuple[int, int, int]] = []
    for question, (_, raw, _) in zip(questions, extracted):
        q_phrases = extract_noun_phrases(question.text) if raw is not None else []
        a_phrases = extract_noun_phrases(raw.answer_text) if raw is not None else []
        if not (q_phrases and a_phrases):
            q_phrases = a_phrases = []  # scores 0.0 without embedding either side
        start = len(phrases)
        phrases += q_phrases + a_phrases
        bounds.append((start, start + len(q_phrases), len(phrases)))
    # A phrase is a run of tokens, so every row is kept.
    phrase_vectors = unit_rows(embedder.embed_many(phrases)[0])

    results = []
    for question, (hits, raw, reason), (start, mid, end) in zip(questions, extracted, bounds):
        if raw is None:
            results.append(QuestionResult(question, hits, None, reason))
            continue
        m = np_match_score(phrase_vectors[start:mid], phrase_vectors[mid:end])
        eff = effective_params(question, params)
        results.append(QuestionResult(question, hits, fuse_and_threshold(raw, m, eff, question.q_id)))
    return results
