"""In-memory span recorder and the layer wrappers of the traced run.

Spans are recorded from outside the program: each wrapper replaces a public
function at a layer boundary, patched where its caller resolves the name
(`qasum.cli.load_corpus`, not `qasum.corpus.load_corpus`, because `cli`
imports the name directly). A span is (id, parent, name, start, end). A
span opened on a thread with no open span (the `--workers` pool) takes the
running command's root span as its parent.

A span's self time is its duration minus the part of that interval its
children cover; where spans on pool threads overlap, the overlapping time
is split evenly among them. Either way the self times of a command's spans
sum to its wall time. Wrappers whose target no longer
exists are skipped and listed, so the benchmark keeps running as the
program changes; their metrics then read 0.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli"  # a command's root span is named "cli:<command>"

# Per-layer metric -> (unit, end-to-end metric it should move, workloads where it should).
PER_LAYER = {
    "corpus.load_s": ("s", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "corpus.segment_s": ("s", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "corpus.segment_calls": ("count", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "corpus.paragraphs": ("count", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "corpus.sentences": ("count", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "corpus.distinct_paragraph_ratio": ("ratio", "ask_s, summarize_s / index_s", "query-12k / ingest-12k"),
    "embedding.calls": ("count", "index_s / summarize_s", "ingest-12k / bank-replay"),
    "embedding.s": ("s", "index_s / summarize_s", "ingest-12k / bank-replay"),
    "embedding.distinct_ratio": ("ratio", "index_s / summarize_s", "ingest-12k / bank-replay"),
    "vector_index.insert_s": ("s", "index_s", "ingest-12k"),
    "vector_index.save_s": ("s", "index_s", "ingest-12k"),
    "vector_index.load_s": ("s", "ask_s, summarize_s", "query-12k"),
    "vector_index.search_s": ("s", "ask_s, summarize_s", "query-12k"),
    "vector_index.search_calls": ("count", "ask_s, summarize_s", "query-12k"),
    "vector_index.rows_scanned": ("count", "ask_s, summarize_s", "query-12k"),
    "question_bank.load_s": ("s", "summarize_s", "bank-replay"),
    "answer_engine.retrieve_s": ("s", "summarize_s", "bank-replay"),
    "answer_engine.extract_s": ("s", "summarize_s", "bank-replay"),
    "answer_engine.np_score_s": ("s", "summarize_s", "bank-replay"),
    "answer_engine.questions": ("count", "summarize_s", "bank-replay"),
    "answer_engine.passed_ratio": ("ratio", "summarize_s", "bank-replay"),
    "answer_engine.no_answer": ("count", "summarize_s", "bank-replay"),
    "answer_engine.empty_retrieval": ("count", "summarize_s", "bank-replay"),
    "summarizer.dedupe_s": ("s", "summarize_s", "bank-replay"),
    "summarizer.dedupe_candidates": ("count", "summarize_s", "bank-replay"),
    "summarizer.dedupe_kept_ratio": ("ratio", "summarize_s", "bank-replay"),
    "summarizer.write_s": ("s", "summarize_s", "bank-replay"),
    "llm_gateway.chat_requests": ("count", "summarize_s, setup_s", "bank-replay"),
    "llm_gateway.embed_requests": ("count", "summarize_s, setup_s", "bank-replay"),
    "llm_gateway.texts_per_embed_request": ("ratio", "summarize_s, setup_s", "bank-replay"),
    "llm_gateway.chat_s": ("s", "summarize_s, setup_s", "bank-replay"),
    "llm_gateway.embed_s": ("s", "summarize_s, setup_s", "bank-replay"),
    "llm_gateway.failed": ("count", "summarize_s, setup_s", "bank-replay"),
    "evaluation.rouge_n_s": ("s", "evaluate_s", "bank-replay"),
    "evaluation.rouge_l_s": ("s", "evaluate_s", "bank-replay"),
    "evaluation.bleu_s": ("s", "evaluate_s", "bank-replay"),
    "evaluation.similarity_s": ("s", "evaluate_s", "bank-replay"),
    "cli.self_s": ("s", "every command's time", "all"),
    "trace.overhead_ratio": ("ratio", "none (traced wall / untraced wall)", "all"),
}

# Span name -> self-time metric.
_SELF_TIME = {
    ROOT_SPAN: "cli.self_s",
    "corpus.load": "corpus.load_s",
    "corpus.segment": "corpus.segment_s",
    "embedding": "embedding.s",
    "vector_index.insert": "vector_index.insert_s",
    "vector_index.save": "vector_index.save_s",
    "vector_index.load": "vector_index.load_s",
    "vector_index.search": "vector_index.search_s",
    "question_bank.load": "question_bank.load_s",
    "answer_engine.retrieve": "answer_engine.retrieve_s",
    "answer_engine.extract": "answer_engine.extract_s",
    "answer_engine.np_score": "answer_engine.np_score_s",
    "summarizer.dedupe": "summarizer.dedupe_s",
    "summarizer.write": "summarizer.write_s",
    "llm_gateway.chat": "llm_gateway.chat_s",
    "llm_gateway.embed": "llm_gateway.embed_s",
    "evaluation.rouge_n": "evaluation.rouge_n_s",
    "evaluation.rouge_l": "evaluation.rouge_l_s",
    "evaluation.bleu": "evaluation.bleu_s",
    "evaluation.similarity": "evaluation.similarity_s",
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.texts: set[str] = set()
        self.pending_corpora: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        if root:
            self._root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def embedded(self, texts) -> None:
        with self._lock:
            self.counts["embedding.calls"] += len(texts)
            self.texts.update(texts)

    def end_command(self) -> None:
        """Close the last command's counts, outside its spans.

        Counts the paragraphs and sentences of the corpora it built, and the
        distinct texts it embedded (a per-command memo could skip the rest).
        """
        self.counts["embedding.distinct"] += len(self.texts)
        self.texts.clear()
        for corpus in self.pending_corpora:
            texts = [p.text for p in corpus.paragraphs]
            self.counts["corpus.paragraphs"] += len(texts)
            self.counts["corpus.distinct_paragraphs"] += len(set(texts))
            self.counts["corpus.sentences"] += sum(len(corpus.sentences(p.para_id)) for p in corpus.paragraphs)
        self.pending_corpora.clear()

    def self_times(self) -> list[tuple[str, float, dict[str, float]]]:
        """Per root span: (its name, its wall seconds, self seconds by span name in its tree).

        Where self intervals of spans on different threads overlap, each
        instant is split evenly among them, so the self times of a command
        sum to its wall time with or without --workers.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        roots = []
        for root_id, parent, root_name, root_start, root_end in self.spans:
            if parent is not None:
                continue
            events = []
            todo = [(root_id, ROOT_SPAN, root_start, root_end)]
            while todo:
                span_id, name, start, end = todo.pop()
                kids = children.get(span_id, ())
                for s, e in _gaps(start, end, [(k[3], k[4]) for k in kids]):
                    events += [(s, 1, name), (e, -1, name)]
                todo.extend((k[0], k[2], k[3], k[4]) for k in kids)
            events.sort(key=lambda event: event[0])
            by_name: dict[str, float] = defaultdict(float)
            active: Counter = Counter()
            last = root_start
            for when, delta, name in events:
                n_active = sum(active.values())
                if n_active:
                    for active_name, n in active.items():
                        by_name[active_name] += (when - last) * n / n_active
                active[name] += delta
                if not active[name]:
                    del active[name]
                last = when
            roots.append((root_name, root_end - root_start, dict(by_name)))
        return roots


def _gaps(start: float, end: float, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The parts of [start, end] that no interval covers."""
    gaps, cursor = [], start
    for s, e in sorted(intervals):
        if s > cursor:
            gaps.append((cursor, min(s, end)))
        cursor = max(cursor, e)
    if cursor < end:
        gaps.append((cursor, end))
    return [(s, e) for s, e in gaps if e > s]


class Patches:
    """Installs the layer wrappers on the qasum modules and removes them again."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.skipped: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _swap(self, owner, attr: str, make):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrap(self, original, name: str, before=None, after=None, errors=None):
        rec = self.recorder

        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            with rec.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if errors:
                        errors(exc)
                    raise
            if after:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _timed(self, owner, attr: str, name: str, **hooks):
        self._swap(owner, attr, lambda original: self._wrap(original, name, **hooks))

    def install(self) -> "Patches":
        import qasum.answer_engine as ae
        import qasum.cli as cli
        import qasum.embedding as embedding
        import qasum.evaluation as evaluation
        import qasum.summarizer as summarizer
        from qasum.llm_gateway import Gateway
        from qasum.vector_index import VectorIndex

        rec = self.recorder
        count = rec.count

        self._timed(cli, "load_corpus", "corpus.load")
        self._swap(cli, "SegmentedCorpus", self._segmented_corpus)
        self._timed(embedding, "reference_embedding", "embedding", before=lambda text, *a, **k: rec.embedded([text]))

        def search(index, *a, **k):
            count("vector_index.search_calls")
            # The exact search reads every row, whatever the note-type filter.
            count("vector_index.rows_scanned", len(index))

        self._timed(VectorIndex, "insert", "vector_index.insert")
        self._timed(VectorIndex, "save", "vector_index.save")
        self._timed(VectorIndex, "search", "vector_index.search", before=search)
        self._swap(
            VectorIndex, "load",
            lambda original: classmethod(self._wrap(original.__func__, "vector_index.load")),
        )

        self._timed(cli, "load_question_bank", "question_bank.load")

        def retrieval_error(exc):
            if type(exc).__name__ == "EmptyRetrievalError":
                count("answer_engine.empty_retrieval")

        def extract_error(exc):
            if type(exc).__name__ == "NoAnswerError":
                count("answer_engine.no_answer")

        self._timed(ae, "retrieve_context", "answer_engine.retrieve",
                    before=lambda *a, **k: count("answer_engine.questions"), errors=retrieval_error)
        for extractor in ("MockExtractor", "RemoteExtractor"):
            if hasattr(ae, extractor):
                self._timed(getattr(ae, extractor), "extract", "answer_engine.extract", errors=extract_error)
            else:
                self.skipped.append(f"answer_engine.{extractor}")
        self._timed(ae, "np_match_score", "answer_engine.np_score")
        self._swap(ae, "fuse_and_threshold", lambda original: lambda *a, **k: _count_passed(rec, original(*a, **k)))

        def dedupe_counts(result, candidates, *a, **k):
            count("summarizer.dedupe_candidates", len(candidates))
            count("summarizer.dedupe_kept", len(result))

        self._timed(summarizer, "dedupe", "summarizer.dedupe", after=dedupe_counts)
        self._timed(summarizer, "write_summary", "summarizer.write")

        def gateway_failed(exc):
            count("llm_gateway.failed")

        def embed_request(gateway, texts, *a, **k):
            count("llm_gateway.embed_requests")
            count("llm_gateway.embed_texts", len(texts))
            rec.embedded(list(texts))

        self._timed(Gateway, "chat_answer", "llm_gateway.chat",
                    before=lambda *a, **k: count("llm_gateway.chat_requests"), errors=gateway_failed)
        self._timed(Gateway, "embed_remote", "llm_gateway.embed", before=embed_request, errors=gateway_failed)

        self._timed(evaluation, "rouge_n", "evaluation.rouge_n")
        self._timed(evaluation, "rouge_l", "evaluation.rouge_l")
        self._timed(evaluation, "bleu", "evaluation.bleu")
        self._timed(evaluation, "embedding_similarity", "evaluation.similarity")
        return self

    def _segmented_corpus(self, original):
        rec = self.recorder

        class TracedSegmentedCorpus(original):
            def __init__(self, *args, **kwargs):
                rec.count("corpus.segment_calls")
                with rec.span("corpus.segment"):
                    super().__init__(*args, **kwargs)
                rec.pending_corpora.append(self)

        return TracedSegmentedCorpus

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _count_passed(rec: Recorder, scored):
    if getattr(scored, "passed_threshold", False):
        rec.count("answer_engine.passed")
    return scored


def per_layer_metrics(rec: Recorder, rounds: int, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass: seconds and counts per round, ratios as measured."""
    self_s: dict[str, float] = defaultdict(float)
    for _, _, by_name in rec.self_times():
        for name, seconds in by_name.items():
            self_s[name] += seconds
    c = rec.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in _SELF_TIME.items():
        metrics[metric] = self_s.get(span_name, 0.0) / rounds
    metrics["vector_index.search_s"] = ratio(self_s.get("vector_index.search", 0.0), c["vector_index.search_calls"])
    for key in (
        "corpus.segment_calls", "corpus.paragraphs", "corpus.sentences", "embedding.calls",
        "vector_index.search_calls", "vector_index.rows_scanned", "answer_engine.questions",
        "answer_engine.no_answer", "answer_engine.empty_retrieval", "summarizer.dedupe_candidates",
        "llm_gateway.chat_requests", "llm_gateway.embed_requests", "llm_gateway.failed",
    ):
        metrics[key] = c[key] / rounds
    metrics["corpus.distinct_paragraph_ratio"] = ratio(c["corpus.distinct_paragraphs"], c["corpus.paragraphs"])
    metrics["embedding.distinct_ratio"] = ratio(c["embedding.distinct"], c["embedding.calls"])
    metrics["answer_engine.passed_ratio"] = ratio(c["answer_engine.passed"], c["answer_engine.questions"])
    metrics["summarizer.dedupe_kept_ratio"] = ratio(c["summarizer.dedupe_kept"], c["summarizer.dedupe_candidates"])
    metrics["llm_gateway.texts_per_embed_request"] = ratio(c["llm_gateway.embed_texts"], c["llm_gateway.embed_requests"])
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
