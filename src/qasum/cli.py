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
from pathlib import Path

import numpy as np

from . import answer_engine, evaluation, summarizer
from .corpus import SegmentedCorpus, read_corpus
from .embedding import EmbedderSpec, build_embedder
from .errors import (
    CorruptIndexError,
    DimensionMismatchError,
    EmptyTextError,
    IoError,
    QasumError,
    ValidationError,
)
from .fileio import write_atomic
from .llm_gateway import Gateway, GatewayConfig
from .question_bank import Question, RetrievalParams, load_question_bank
from .vector_index import MAX_DIM, VectorIndex

log = logging.getLogger(__name__)

_PARAM_KEYS = ("k", "fusion_weight", "score_threshold", "dedup_cosine")
_EMBEDDER_KEYS = ("kind", "dim")


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


def load_config(path: str | Path) -> PipelineConfig:
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

    base = path.parent

    def resolve(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base / p

    corpus = data.get("corpus")
    if not isinstance(corpus, dict) or "path" not in corpus:
        raise ValidationError("config: corpus.path is required")
    corpus_format = corpus.get("format", "jsonl")
    if corpus_format not in ("jsonl", "text-dir"):
        raise ValidationError(f"config: corpus.format must be 'jsonl' or 'text-dir', got {corpus_format!r}")

    for key in ("index_path", "question_bank_path", "output_dir"):
        if not isinstance(data.get(key), str):
            raise ValidationError(f"config: {key} is required")

    embedder_raw = data.get("embedder", {})
    if not isinstance(embedder_raw, dict):
        raise ValidationError("config: embedder must be an object")
    unknown = set(embedder_raw) - set(_EMBEDDER_KEYS)
    if unknown:
        raise ValidationError(f"config: embedder has unknown keys {sorted(unknown)}")
    spec = EmbedderSpec(**embedder_raw)
    if spec.kind not in ("hashed-reference", "remote"):
        raise ValidationError(f"config: embedder.kind must be 'hashed-reference' or 'remote', got {spec.kind!r}")
    if not (isinstance(spec.dim, int) and 1 <= spec.dim <= MAX_DIM):
        raise ValidationError(
            f"config: embedder.dim must be an integer from 1 to {MAX_DIM}, got {spec.dim!r}"
        )

    params_override = data.get("params", {})
    if not isinstance(params_override, dict):
        raise ValidationError("config: params must be an object")
    unknown = set(params_override) - set(_PARAM_KEYS)
    if unknown:
        raise ValidationError(f"config: params has unknown keys {sorted(unknown)}")

    extractor = data.get("extractor", "mock")
    if extractor not in ("mock", "remote"):
        raise ValidationError(f"config: extractor must be 'mock' or 'remote', got {extractor!r}")

    gateway = None
    if "gateway" in data:
        raw = data["gateway"]
        if not isinstance(raw, dict):
            raise ValidationError("config: gateway must be an object")
        known = {f for f in GatewayConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"config: gateway has unknown keys {sorted(unknown)}")
        if raw.get("fixtures_dir"):
            raw = dict(raw, fixtures_dir=str(resolve(raw["fixtures_dir"])))
        try:
            gateway = GatewayConfig(**raw)
        except TypeError as exc:
            raise ValidationError(f"config: gateway: {exc}") from exc
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


def _build_extractor(cfg: PipelineConfig, corpus: SegmentedCorpus, gateway: Gateway | None):
    if cfg.extractor == "remote":
        return answer_engine.RemoteExtractor(gateway, corpus)
    return answer_engine.MockExtractor(corpus)


def _embedder_identity(cfg: PipelineConfig) -> str:
    """The name an index records for the embedder that made its vectors."""
    if cfg.embedder.kind == "remote":
        return f"remote:{cfg.gateway.model}"
    return cfg.embedder.kind


def _load_pinned(cfg: PipelineConfig) -> tuple[VectorIndex, SegmentedCorpus, str]:
    """The configured index, the corpus it indexes, and the SHA-256 of that corpus's bytes.

    Refuses an index that another embedder built, or that was built from
    other corpus bytes or segmentation rules than the configured ones. The
    corpus is read and hashed once; documents are parsed from those bytes
    when a lookup first needs them.
    """
    index = VectorIndex.load(cfg.index_path)
    expected = _embedder_identity(cfg)
    if index.embedder != expected:
        raise CorruptIndexError(
            f"index {cfg.index_path} was built by embedder {index.embedder!r}, but the config "
            f"uses {expected!r}; rebuild it with `qasum index`"
        )
    source = read_corpus(cfg.corpus_path, cfg.corpus_format)
    return index, SegmentedCorpus(source.pinned(index.corpus)), source.sha256


def _effective_params(cfg: PipelineConfig, defaults: RetrievalParams) -> RetrievalParams:
    params = replace(defaults, **cfg.params_override)
    params.validate("params")
    return params


def _timestamp(cfg: PipelineConfig) -> str:
    if cfg.run_timestamp:
        return cfg.run_timestamp
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def cmd_index(cfg: PipelineConfig) -> int:
    docs, manifest = read_corpus(cfg.corpus_path, cfg.corpus_format).load()
    corpus = SegmentedCorpus(docs)
    embedder = build_embedder(cfg.embedder, _build_gateway(cfg, extracts=False))
    doc_pos = {doc_id: i for i, doc_id in enumerate(manifest.doc_ids)}
    dim = cfg.embedder.dim
    matrix = np.empty((len(corpus.paragraphs), dim))
    embedded = []
    for para in corpus.paragraphs:
        try:
            vector = embedder(para.text)
        except EmptyTextError:
            continue
        if np.shape(vector) != (dim,):
            raise DimensionMismatchError(
                f"embedder returned a vector of shape {np.shape(vector)} for {para.para_id}, expected ({dim},)"
            )
        matrix[len(embedded)] = vector
        embedded.append(para)
    index = VectorIndex(
        manifest,
        [doc_pos[para.doc_id] for para in embedded],
        [para.ordinal for para in embedded],
        matrix[: len(embedded)],
        _embedder_identity(cfg),
    )
    index.save(cfg.index_path)
    skipped = len(corpus.paragraphs) - len(embedded)
    suffix = f" ({skipped} unembeddable skipped)" if skipped else ""
    print(f"indexed {len(docs)} docs / {len(corpus.paragraphs)} paragraphs{suffix} -> {cfg.index_path}")
    return 0


def cmd_ask(cfg: PipelineConfig, question_text: str) -> int:
    index, corpus, _ = _load_pinned(cfg)
    bank = load_question_bank(cfg.question_bank_path)
    params = _effective_params(cfg, bank.defaults)
    gateway = _build_gateway(cfg, extracts=True)
    embedder = build_embedder(cfg.embedder, gateway)
    extractor = _build_extractor(cfg, corpus, gateway)

    question = Question(q_id="adhoc", text=question_text, order=0)
    result = answer_engine.answer_question(question, index, embedder, corpus, extractor, params)
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
    index, corpus, corpus_sha256 = _load_pinned(cfg)
    bank = load_question_bank(cfg.question_bank_path)
    params = _effective_params(cfg, bank.defaults)
    gateway = _build_gateway(cfg, extracts=True)
    embedder = build_embedder(cfg.embedder, gateway)
    extractor = _build_extractor(cfg, corpus, gateway)

    results = answer_engine.answer_questions(
        bank, index, embedder, corpus, extractor, params=params, max_workers=cfg.workers
    )
    summary = summarizer.assemble(
        [r.answer for r in results if r.passed],
        bank,
        corpus,
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
    cfg: PipelineConfig, candidate: str, reference: str, source: str, output_format: str = "table"
) -> int:
    embedder = build_embedder(cfg.embedder, _build_gateway(cfg, extracts=False))
    report = evaluation.evaluate(candidate, reference, source, embedder)
    report_json = evaluation.report_to_json(report)
    report_path = cfg.output_dir / "metrics.json"
    write_atomic(report_path, report_json.encode("utf-8"))
    if output_format == "json":
        print(report_json, end="")
    else:
        print(evaluation.render_table(report), end="")
    print(f"report -> {report_path}")
    return 0


def _apply_flag_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "output_dir", None):
        cfg.output_dir = Path(args.output_dir)
    if getattr(args, "extractor", None):
        if args.extractor == "remote" and cfg.gateway is None:
            raise ValidationError("extractor 'remote' requires a gateway section in the config")
        cfg.extractor = args.extractor
    for flag, key in (("k", "k"), ("threshold", "score_threshold"), ("weight", "fusion_weight")):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.params_override = dict(cfg.params_override, **{key: value})
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "timestamp", None):
        cfg.run_timestamp = args.timestamp
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ValidationError("--workers must be a positive integer")
        cfg.workers = args.workers
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qasum", description="Question-driven corpus summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="Path to the pipeline config JSON")
        p.add_argument("--output-dir", help="Override the configured output directory")
        p.add_argument("--extractor", choices=("mock", "remote"), help="Override the extractor")
        p.add_argument("--k", type=int, help="Override retrieval k")
        p.add_argument("--threshold", type=float, help="Override the score threshold")
        p.add_argument("--weight", type=float, help="Override the fusion weight")
        p.add_argument("--seed", type=int, help="Seed for retry jitter")
        p.add_argument("--timestamp", help="Fixed run timestamp for reproducible output")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_flag_overrides(load_config(args.config), args)
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
        log.debug("internal error in %s", args.command, exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
