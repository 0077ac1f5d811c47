"""Operator entry point: index, ask, summarize, evaluate.

One JSON config file describes the pipeline (corpus, embedder, index path,
question bank, retrieval params, extractor, output dir); a few flags
override it for parameter sweeps. Exit codes: 0 success, 1 failure,
2 no answer (ask only). Relative paths in the config resolve against the
config file's directory.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import lru_cache
from itertools import compress, islice
from pathlib import Path

from . import answer_engine, evaluation, summarizer
from .corpus import paragraph_columns, read_corpus
from .embedding import Embedder, EmbedderSpec, build_embedder
from .errors import (
    CorruptIndexError,
    IoError,
    QasumError,
    ValidationError,
)
from .fileio import write_atomic
from .llm_gateway import Gateway, GatewayConfig
from .question_bank import Question, check_known_keys, check_params, load_question_bank
from .vector_index import MAX_DIM, IndexWriter, VectorIndex

log = logging.getLogger(__name__)

_CONFIG_KEYS = (
    "corpus", "embedder", "index_path", "question_bank_path", "params", "extractor", "gateway", "output_dir",
    "workers", "seed", "run_timestamp",
)
_CORPUS_KEYS = ("path", "format")
_EMBEDDER_KEYS = ("kind", "dim")
# Documents that index segments and embeds together; only one chunk's documents, paragraphs and
# embedded rows are held at a time. On a 12k-document corpus, while index still held the corpus
# bytes, it peaked at 53 MB RSS with 256, 68 MB with 1024 and 110 MB with 4096 (139 MB when it
# held the whole corpus), and 256 was no slower.
_INDEX_CHUNK_DOCS = 256


@dataclass
class PipelineConfig:
    corpus_path: Path
    corpus_format: str
    embedder: EmbedderSpec
    index_path: Path
    question_bank_path: Path
    params_override: dict
    extractor: str
    gateway: GatewayConfig | None
    output_dir: Path
    workers: int = 1
    seed: int | None = None
    run_timestamp: str | None = None


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """The config file at path, with overrides (config keys, as the flags set them) in place.

    overrides replace the file's values, and their ``params`` are merged
    into the file's key by key, before any value is checked; every value is
    checked here, so a bad one fails before a command reads anything else.
    """
    import json

    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"config {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config {path}: top level must be a JSON object")
    check_known_keys(data, _CONFIG_KEYS, "config")
    for key, value in (overrides or {}).items():
        if key == "params" and "params" in data:
            value = {**check_params(data["params"], "params"), **value}
        data[key] = value

    base = path.parent

    def resolve(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base / p

    corpus = data.get("corpus")
    if not (isinstance(corpus, dict) and isinstance(corpus.get("path"), str)):
        raise ValidationError("config: corpus.path is required")
    check_known_keys(corpus, _CORPUS_KEYS, "config: corpus")
    corpus_format = corpus.get("format", "jsonl")
    if corpus_format not in ("jsonl", "text-dir"):
        raise ValidationError(f"config: corpus.format must be 'jsonl' or 'text-dir', got {corpus_format!r}")

    for key in ("index_path", "question_bank_path", "output_dir"):
        if not isinstance(data.get(key), str):
            raise ValidationError(f"config: {key} is required")

    embedder_raw = data.get("embedder", {})
    if not isinstance(embedder_raw, dict):
        raise ValidationError("config: embedder must be an object")
    check_known_keys(embedder_raw, _EMBEDDER_KEYS, "config: embedder")
    spec = EmbedderSpec(**embedder_raw)
    if spec.kind not in ("hashed-reference", "remote"):
        raise ValidationError(f"config: embedder.kind must be 'hashed-reference' or 'remote', got {spec.kind!r}")
    if not (type(spec.dim) is int and 1 <= spec.dim <= MAX_DIM):
        raise ValidationError(
            f"config: embedder.dim must be an integer from 1 to {MAX_DIM}, got {spec.dim!r}"
        )

    params_override = check_params(data.get("params", {}), "params")

    extractor = data.get("extractor", "mock")
    if extractor not in ("mock", "remote"):
        raise ValidationError(f"config: extractor must be 'mock' or 'remote', got {extractor!r}")

    gateway = None
    if "gateway" in data:
        raw = data["gateway"]
        if not isinstance(raw, dict):
            raise ValidationError("config: gateway must be an object")
        try:
            gateway = GatewayConfig(**raw)
        except TypeError as exc:  # an unknown or a missing key
            raise ValidationError(f"config: gateway: {exc}") from exc
        if gateway.fixtures_dir:
            gateway = replace(gateway, fixtures_dir=str(resolve(gateway.fixtures_dir)))
    if extractor == "remote" and gateway is None:
        raise ValidationError("config: extractor 'remote' requires a gateway section")
    if spec.kind == "remote" and gateway is None:
        raise ValidationError("config: remote embedder requires a gateway section")

    workers = data.get("workers", 1)
    if not (type(workers) is int and workers >= 1):
        raise ValidationError(f"config: workers must be a positive integer, got {workers!r}")
    seed = data.get("seed")
    if not (seed is None or type(seed) is int):
        raise ValidationError(f"config: seed must be an integer or null, got {seed!r}")
    run_timestamp = data.get("run_timestamp")
    if not (run_timestamp is None or isinstance(run_timestamp, str)):
        raise ValidationError(f"config: run_timestamp must be a string or null, got {run_timestamp!r}")

    return PipelineConfig(
        corpus_path=resolve(corpus["path"]),
        corpus_format=corpus_format,
        embedder=spec,
        index_path=resolve(data["index_path"]),
        question_bank_path=resolve(data["question_bank_path"]),
        params_override=params_override,
        extractor=extractor,
        gateway=gateway,
        output_dir=resolve(data["output_dir"]),
        workers=workers,
        seed=seed,
        run_timestamp=run_timestamp,
    )


def _build_gateway(cfg: PipelineConfig, extracts: bool) -> Gateway | None:
    """The command's one gateway, shared by its remote embedder and extractor.

    None when nothing the command runs is remote; extracts says whether the
    command runs the extractor.
    """
    if cfg.embedder.kind == "remote" or (extracts and cfg.extractor == "remote"):
        return Gateway(cfg.gateway, seed=cfg.seed)
    return None


def _build_extractor(cfg: PipelineConfig, corpus, gateway: Gateway | None):
    if cfg.extractor == "remote":
        return answer_engine.RemoteExtractor(gateway, corpus)
    return answer_engine.MockExtractor(corpus)


def _embedder_identity(cfg: PipelineConfig) -> str:
    """The name an index records for the embedder that made its vectors."""
    if cfg.embedder.kind == "remote":
        return f"remote:{cfg.gateway.model}"
    return cfg.embedder.kind


def _load_pinned(cfg: PipelineConfig):
    """The configured index, the corpus it indexes pinned to it (``CorpusFile.pinned``), and that corpus's SHA-256.

    Refuses an index that another embedder built, or that was built from
    other corpus bytes or segmentation rules than the configured ones. The
    corpus is read and hashed once; documents are parsed and segmented from
    those bytes when a hit first needs them.
    """
    index = VectorIndex.load(cfg.index_path)
    expected = _embedder_identity(cfg)
    if index.embedder != expected:
        raise CorruptIndexError(
            f"index {cfg.index_path} was built by embedder {index.embedder!r}, but the config "
            f"uses {expected!r}; rebuild it with `qasum index`"
        )
    source = read_corpus(cfg.corpus_path, cfg.corpus_format)
    return index, source.pinned(index.corpus), source.sha256


def _timestamp(cfg: PipelineConfig) -> str:
    if cfg.run_timestamp:
        return cfg.run_timestamp
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _index_chunk(texts: list[str], first: int, embedder: Embedder, writer: IndexWriter) -> tuple[int, int]:
    """Segment, embed and spool the texts of documents first, first + 1, ... of the corpus.

    Returns how many paragraphs the documents have and how many of them
    were left out as unembeddable. The chunk's paragraphs and vectors are
    freed on return, before the next chunk is read.
    """
    rows, ordinals, paragraphs = paragraph_columns(texts)
    vectors, kept = embedder.embed_many(paragraphs)
    keep = kept.tolist()
    doc_pos = list(range(first, first + len(texts)))  # one int object per document, shared by its rows
    writer.add([doc_pos[row] for row in compress(rows, keep)], list(compress(ordinals, keep)), vectors[kept])
    return len(paragraphs), keep.count(False)


def cmd_index(cfg: PipelineConfig) -> int:
    """Index the corpus as a stream: each chunk of documents is segmented, embedded and spooled in turn.

    Between chunks only the manifest columns and each row's document
    position and ordinal are kept. A bad record in any chunk fails the
    command before the index file is replaced.
    """
    source = read_corpus(cfg.corpus_path, cfg.corpus_format)
    embedder = build_embedder(cfg.embedder, _build_gateway(cfg, extracts=False))
    doc_ids: list[str] = []
    note_types: list[str] = []
    locators: list[int | str] = []
    paragraph_count = skipped = 0
    entries = source.entries()
    with IndexWriter(cfg.index_path, cfg.embedder.dim, _embedder_identity(cfg)) as writer:
        while chunk := list(islice(entries, _INDEX_CHUNK_DOCS)):
            first = len(doc_ids)
            doc_ids += [doc.doc_id for doc, _ in chunk]
            note_types += [doc.note_type for doc, _ in chunk]
            locators += [locator for _, locator in chunk]
            paragraphs, unembeddable = _index_chunk([doc.text for doc, _ in chunk], first, embedder, writer)
            paragraph_count += paragraphs
            skipped += unembeddable
        writer.write(source.manifest(doc_ids, note_types, locators))
    suffix = f" ({skipped} unembeddable skipped)" if skipped else ""
    print(f"indexed {len(doc_ids)} docs / {paragraph_count} paragraphs{suffix} -> {cfg.index_path}")
    return 0


def cmd_ask(cfg: PipelineConfig, question_text: str) -> int:
    bank = load_question_bank(cfg.question_bank_path)
    params = replace(bank.defaults, **cfg.params_override)
    index, corpus, _ = _load_pinned(cfg)
    gateway = _build_gateway(cfg, extracts=True)
    embedder = build_embedder(cfg.embedder, gateway)
    extractor = _build_extractor(cfg, corpus, gateway)

    question = Question(q_id="adhoc", text=question_text, order=0)
    [result] = answer_engine.answer_questions([question], index, embedder, corpus, extractor, params)
    print("hits:")
    for hit in result.hits:
        print(f"  {hit.rank}. {hit.para_id}  score={hit.score:.6f}")
    answer = result.answer
    if answer is None:
        print(f"no answer: {result.reason}")
        return 2
    print(f"answer: {answer.answer_text}")
    print(f"source: {answer.sentence.sent_id}")
    print(
        f"confidence={answer.confidence:.6f} np_score={answer.np_score:.6f} "
        f"fused={answer.score:.6f} threshold={params.score_threshold:.6f} "
        f"passed={'yes' if answer.passed_threshold else 'no'}"
    )
    return 0


def cmd_summarize(cfg: PipelineConfig) -> int:
    bank = load_question_bank(cfg.question_bank_path)
    params = replace(bank.defaults, **cfg.params_override)
    index, corpus, corpus_sha256 = _load_pinned(cfg)
    gateway = _build_gateway(cfg, extracts=True)
    embedder = build_embedder(cfg.embedder, gateway)
    extractor = _build_extractor(cfg, corpus, gateway)

    results = answer_engine.answer_questions(
        bank.questions, index, embedder, corpus, extractor, params, max_workers=cfg.workers
    )
    summary = summarizer.assemble(
        [r.answer for r in results if r.passed],
        bank,
        embedder,
        params,
        corpus_id=corpus_sha256[:12],
        timestamp=_timestamp(cfg),
    )
    json_path, text_path = summarizer.write_summary(summary, bank, cfg.output_dir)
    counts = summary.meta["counts"]
    print(
        f"summary: {counts['questions_answered']}/{counts['questions_asked']} questions answered, "
        f"{counts['sentences_emitted']} sentences -> {json_path}, {text_path}"
    )
    return 0


def cmd_evaluate(
    cfg: PipelineConfig, candidate: str, reference: str, source: str, output_format: str
) -> int:
    embedder = build_embedder(cfg.embedder, _build_gateway(cfg, extracts=False))
    report = evaluation.evaluate(candidate, reference, source, embedder)
    report_json = evaluation.report_to_json(report)
    report_path = cfg.output_dir / "metrics.json"
    write_atomic(report_path, [report_json.encode("utf-8")])
    if output_format == "json":
        print(report_json, end="")
    else:
        print(evaluation.render_table(report), end="")
    print(f"report -> {report_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # A usage error is a failure like any other: exit 1 with one error line.
        raise ValidationError(f"{self.prog}: {message}")


# Flags whose argparse dest is a config key: retrieval params (set under "params") and top-level keys.
_PARAM_FLAGS = ("k", "score_threshold", "fusion_weight")
_CONFIG_FLAGS = ("extractor", "workers", "seed", "run_timestamp")


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The config values the given flags set, under their config keys."""
    overrides = {key: getattr(args, key) for key in _CONFIG_FLAGS if getattr(args, key) is not None}
    params = {key: getattr(args, key) for key in _PARAM_FLAGS if getattr(args, key) is not None}
    return {**overrides, "params": params} if params else overrides


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qasum", description="Question-driven corpus summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="Path to the pipeline config JSON")
        p.add_argument("--output-dir", help="Override the configured output directory")
        p.add_argument("--extractor", choices=("mock", "remote"), help="Override the extractor")
        p.add_argument("--k", type=int, help="Override retrieval k")
        p.add_argument("--threshold", type=float, dest="score_threshold", help="Override the score threshold")
        p.add_argument("--weight", type=float, dest="fusion_weight", help="Override the fusion weight")
        p.add_argument("--seed", type=int, help="Seed for retry jitter")
        p.add_argument("--timestamp", dest="run_timestamp", help="Fixed run timestamp for reproducible output")
        p.add_argument("--workers", type=int, help="Parallel question evaluation workers")

    p_index = sub.add_parser("index", help="Segment and embed the corpus into the vector index")
    common(p_index)

    p_ask = sub.add_parser("ask", help="Run a single ad-hoc question against the index")
    common(p_ask)
    p_ask.add_argument("question", help="Question text")

    p_sum = sub.add_parser("summarize", help="Run the question bank and assemble the summary")
    common(p_sum)

    p_eval = sub.add_parser("evaluate", help="Score a candidate summary against a reference")
    common(p_eval)
    p_eval.add_argument("candidate", help="Candidate summary file")
    p_eval.add_argument("reference", help="Reference summary file")
    p_eval.add_argument("source", help="Source text file")
    p_eval.add_argument("--format", choices=("table", "json"), default="table", dest="output_format")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing keeps no state in it, and building one takes about 3 ms."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config, _flag_overrides(args))
        if args.output_dir:
            # Relative to the working directory, unlike the config's output_dir.
            cfg.output_dir = Path(args.output_dir)
        if args.command == "index":
            return cmd_index(cfg)
        if args.command == "ask":
            return cmd_ask(cfg, args.question)
        if args.command == "summarize":
            return cmd_summarize(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.candidate, args.reference, args.source, args.output_format)
        raise ValidationError(f"unknown command {args.command!r}")
    except QasumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # A bug, not an input error: one line for the operator, the traceback only in the debug log.
        log.debug("internal error", exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
