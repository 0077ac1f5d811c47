"""The benchmark workloads: how each is set up, what one round runs, and the output checks.

Load model for every workload: a closed loop with one client. The client
issues one `qasum.cli.main(argv)` command at a time, in-process, and the
next only after the previous returns. Only bank-replay passes
`--workers 2` (the host has 2 cores).

- query-12k: the read path. ~12k generated docs, the fixture 6-question
  bank, index built in set-up. A round is one `summarize` and two `ask`.
- ingest-12k: the write path. The same kind of corpus; a round is one
  `index`. Search never runs.
- bank-replay: ~120 docs and a generated bank of a few hundred questions,
  remote embedder and extractor served from replay fixtures recorded in
  set-up. A round is `summarize --workers 2` and `evaluate`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import traceback
from pathlib import Path

import gen
from stub import LoopbackStub

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "golden"
METRICS_ORACLE = ROOT / "tests" / "oracles" / "metrics_oracle.py"
TIMESTAMP = "2026-01-15T00:00:00Z"

WORKLOADS = ("query-12k", "ingest-12k", "bank-replay")
LARGE_DOCS = 12_000
BANK_DOCS = 120
BANK_QUESTIONS = 200
REFERENCE_SENTENCES = 12
DIM = 256


class CheckFailed(Exception):
    """An output differs from what the program must produce."""


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one command in-process; returns (exit code or None if it raised, captured output)."""
    from qasum.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
    return rc, out.getvalue()


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _write_config(work: Path, **overrides) -> Path:
    config = {
        "corpus": {"path": "corpus.jsonl", "format": "jsonl"},
        "embedder": {"kind": "hashed-reference", "dim": DIM},
        "index_path": "index.qidx",
        "question_bank_path": str(FIXTURES / "question_bank.json"),
        "extractor": "mock",
        "output_dir": "out",
        "run_timestamp": TIMESTAMP,
    }
    config.update(overrides)
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), "utf-8")
    return path


def _must(argv: list[str]) -> str:
    rc, output = run_cli(argv)
    if rc != 0:
        raise CheckFailed(f"set-up command {argv[0]} exited {rc}:\n{output}")
    return output


def _bank_gateway(base_url: str, mode: str) -> dict:
    return {"base_url": base_url, "model": "bench-stub", "mode": mode, "fixtures_dir": "fixtures"}


def prepare(workload: str, work: Path, seed: int) -> None:
    """Generate the workload's inputs under work/ and build what its rounds read."""
    work.mkdir(parents=True)
    if workload in ("query-12k", "ingest-12k"):
        gen.write_corpus(gen.generate_corpus(FIXTURES, LARGE_DOCS, seed), work / "corpus.jsonl")
        config = _write_config(work)
        if workload == "query-12k":
            _must(["index", "--config", str(config)])
        return

    docs = gen.generate_corpus(FIXTURES, BANK_DOCS, seed)
    gen.write_corpus(docs, work / "corpus.jsonl")
    (work / "bank.json").write_text(json.dumps(gen.generate_bank(BANK_QUESTIONS, seed), indent=2), "utf-8")
    reference, source = gen.reference_and_source(docs, seed, REFERENCE_SENTENCES)
    (work / "reference.txt").write_text(reference, "utf-8")
    (work / "source.txt").write_text(source, "utf-8")
    remote = {"embedder": {"kind": "remote", "dim": DIM}, "extractor": "remote", "question_bank_path": "bank.json"}
    os.environ.setdefault("QASUM_API_KEY", "loopback-stub-key")
    with LoopbackStub(DIM) as stub:
        config = str(_write_config(work, gateway=_bank_gateway(stub.base_url, "record"), **remote))
        _must(["index", "--config", config])
        _must(["summarize", "--config", config])
        _must(["evaluate", "--config", config, *_evaluate_files(work)])
    # Replay never opens a connection; the URL only has to be well formed.
    _write_config(work, gateway=_bank_gateway("http://127.0.0.1:9", "replay"), **remote)


def _evaluate_files(work: Path) -> list[str]:
    return [str(work / "out" / "summary.txt"), str(work / "reference.txt"), str(work / "source.txt")]


def round_commands(workload: str, work: Path, seed: int, i: int) -> list[list[str]]:
    """The commands of round i, in the order the client issues them."""
    config = ["--config", str(work / "config.json")]
    if workload == "query-12k":
        asks = [gen.ask_question(seed, 2 * i + j) for j in range(2)]
        return [["summarize", *config]] + [["ask", *config, q] for q in asks]
    if workload == "ingest-12k":
        return [["index", *config]]
    return [
        ["summarize", *config, "--workers", "2"],
        ["evaluate", *config, *_evaluate_files(work), "--format", "json"],
    ]


def index_mb(work: Path) -> float:
    return (work / "index.qidx").stat().st_size / 1e6


def golden_gate(work: Path) -> str:
    """1x fixture run; summary bytes must equal the committed golden files."""
    work.mkdir(parents=True)
    config = str(
        _write_config(
            work,
            corpus={"path": str(FIXTURES / "corpus.jsonl"), "format": "jsonl"},
            run_timestamp=None,
        )
    )
    _must(["index", "--config", config])
    _must(["summarize", "--config", config, "--timestamp", TIMESTAMP])
    for name in ("summary.json", "summary.txt"):
        if (work / "out" / name).read_bytes() != (GOLDEN / name).read_bytes():
            raise CheckFailed(f"golden gate: {name} differs from {GOLDEN / name}")
    return digest(work / "out" / "summary.json", work / "out" / "summary.txt")


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_metrics_oracle", METRICS_ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_against_oracle(metrics_path: Path, candidate: Path, reference: Path) -> None:
    """evaluate's ROUGE and BLEU must equal the independent oracle within 1e-9."""
    oracle = _load_oracle()
    got = json.loads(metrics_path.read_text("utf-8"))
    cand, ref = candidate.read_text("utf-8"), reference.read_text("utf-8")
    expected = {"bleu": oracle.bleu(cand, ref)}
    for prefix, triple in (
        ("rouge1", oracle.rouge_n(cand, ref, 1)),
        ("rouge2", oracle.rouge_n(cand, ref, 2)),
        ("rougeL", oracle.rouge_l(cand, ref)),
    ):
        expected.update(zip((f"{prefix}_r", f"{prefix}_p", f"{prefix}_f"), triple))
    for key, value in expected.items():
        if abs(got[key] - value) > 1e-9:
            raise CheckFailed(f"evaluate {key}={got[key]!r} but the metrics oracle gives {value!r}")


class OutputChecker:
    """Checks every timed command's output against the first of its kind in the run.

    A summarize must reproduce the reference digest (on bank-replay, the
    serial run's); an index must be byte-identical across rounds; evaluate
    must match the metrics oracle once and then repeat its bytes; ask must
    exit 0 or 2 (always 2 for the unanswerable questions) and repeat its
    exit code and output for the same question.
    """

    def __init__(self, work: Path, summary_digest: str | None = None):
        self.work = work
        self.digests: dict[str, str] = {}
        if summary_digest:
            self.digests["summarize"] = summary_digest

    def _same(self, key: str, value: str) -> None:
        expected = self.digests.setdefault(key, value)
        if value != expected:
            raise CheckFailed(f"{key}: output digest {value} differs from {expected} earlier in the run")

    def check(self, argv: list[str], rc: int, output: str) -> None:
        command, out = argv[0], self.work / "out"
        if command == "ask":
            question = argv[-1]
            if rc not in (0, 2) or (question in gen.UNANSWERABLE_ASKS and rc != 2):
                raise CheckFailed(f"ask {question!r} exited {rc}:\n{output}")
            self._same(f"ask:{question}", hashlib.sha256(f"{rc}:{output}".encode()).hexdigest()[:16])
            return
        if rc != 0:
            raise CheckFailed(f"{command} exited {rc}:\n{output}")
        if command == "summarize":
            self._same("summarize", digest(out / "summary.json", out / "summary.txt"))
        elif command == "index":
            self._same("index", digest(self.work / "index.qidx"))
        elif command == "evaluate":
            if "evaluate" not in self.digests:
                check_against_oracle(out / "metrics.json", out / "summary.txt", self.work / "reference.txt")
            self._same("evaluate", digest(out / "metrics.json"))


def serial_summary_digest(work: Path) -> str:
    """bank-replay reference: the same summarize without --workers."""
    _must(["summarize", "--config", str(work / "config.json")])
    out = work / "out"
    return digest(out / "summary.json", out / "summary.txt")


if __name__ == "__main__":
    # Set-up runs in its own process so its memory never counts toward the
    # timed process's peak RSS: workloads.py <workload> <seed> <dir>
    sys.path.insert(0, str(ROOT / "src"))
    prepare(sys.argv[1], Path(sys.argv[3]), int(sys.argv[2]))
