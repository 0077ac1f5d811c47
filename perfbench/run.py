"""qasum benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload query-12k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The run checks the 1x golden
summary, sets the workload up from the seed (three or five times
untraced, to report the median set-up time; once traced), then drives rounds of CLI
commands in-process in a closed loop with one client for at least
--seconds and at least one whole round, checking every command's output.

--trace 0 prints the end-to-end metrics; --trace 1 runs whole rounds
untraced for half of --seconds, repeats the same rounds traced with layer
spans, and prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed gate or check
exits 1; a checkout without the program or its fixtures exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import ROOT, CheckFailed

REQUIRED = (
    ROOT / "src" / "qasum" / "cli.py",
    workloads.GOLDEN / "summary.json",
    workloads.GOLDEN / "summary.txt",
    workloads.FIXTURES / "corpus.jsonl",
    workloads.METRICS_ORACLE,
)
# Set-ups per untraced run. ingest-12k's set-up only generates the corpus
# (under 1 s), and each of its rounds is one ~7 s index, so it sets up five
# times: five chunks give it five timed samples spread over the run.
SETUPS = {"query-12k": 3, "ingest-12k": 5, "bank-replay": 3}
SETUP_TIMEOUT_S = 60

COMMANDS = ("index", "ask", "summarize", "evaluate")


def _host_line() -> str:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qasum").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return (
        f"host: cpus={os.cpu_count()} git={sha or 'unavailable'} src_sha256={src.hexdigest()[:16]} "
        f"python={sys.version.split()[0]}"
    )


def _summary(name: str, samples: list[float], unit: str) -> str:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    line = f"{name}: median {statistics.median(samples):.6f} {unit} (n={len(samples)}"
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[pct - 1]
            return line + f", p{pct} {value:.6f} {unit})"
    return line + "; too few samples for any percentile above p50)"


def _prepare(workload: str, seed: int, target: Path) -> float:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("workloads.py")), workload, str(seed), str(target)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise CheckFailed(f"set-up of {workload} failed:\n{done.stdout}{done.stderr}")
    return elapsed


def _setup_digest(data: Path) -> str:
    files = [data / "corpus.jsonl"] + [p for p in (data / "index.qidx", data / "bank.json") if p.exists()]
    fixtures = data / "fixtures"
    names = sorted(p.name for p in fixtures.iterdir()) if fixtures.is_dir() else []
    return workloads.digest(*files) + hashlib.sha256("".join(names).encode()).hexdigest()[:8]


class Loop:
    """Closed loop, one client: each command starts when the previous one returns."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.checker: workloads.OutputChecker | None = None
        self.commands: list[tuple[str, float, int | None]] = []
        self._next = (0, 0)  # (round, command) to issue next

    @property
    def data(self) -> Path:
        return self.checker.work

    def use(self, data: Path) -> None:
        """Point the loop at a set-up's files; the first set-up also fixes the reference outputs."""
        if self.checker is not None:
            shutil.rmtree(self.data)
            self.checker.work = data
            return
        summary_digest = None
        if self.workload == "bank-replay":
            summary_digest = workloads.serial_summary_digest(data)
            print(f"check: serial summarize digest {summary_digest}; every --workers 2 run must match it")
        self.checker = workloads.OutputChecker(data, summary_digest)

    def run(self, seconds: float, finish_round: bool) -> None:
        """Issue at least one command, then more until `seconds` of command time are measured in total.

        Later calls continue the same sequence of rounds. With finish_round,
        also keep going until at least one whole round is done.
        """
        while True:
            i, j = self._next
            argvs = workloads.round_commands(self.workload, self.data, self.seed, i)
            self.command(argvs[j])
            self._next = (i, j + 1) if j + 1 < len(argvs) else (i + 1, 0)
            measured = sum(t for _, t, _ in self.commands)
            if measured >= seconds and not (finish_round and self._next[0] == 0):
                return

    def run_rounds(self, seconds: float) -> int:
        """Issue whole rounds while fewer than `seconds` have passed, at least one; returns how many."""
        started = time.perf_counter()
        i = 0
        while not i or time.perf_counter() - started < seconds:
            self.round(i)
            i += 1
        return i

    def round(self, i: int, recorder: spans.Recorder | None = None) -> None:
        for argv in workloads.round_commands(self.workload, self.data, self.seed, i):
            self.command(argv, recorder)

    def command(self, argv: list[str], recorder: spans.Recorder | None = None) -> None:
        t0 = time.perf_counter()
        if recorder is None:
            rc, output = workloads.run_cli(argv)
        else:
            with recorder.span(f"{spans.ROOT_SPAN}:{argv[0]}", root=True):
                rc, output = workloads.run_cli(argv)
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.end_command()
        self.commands.append((argv[0], elapsed, rc))
        if rc is None or rc == 1:
            print(f"failed: {argv[0]} exited {rc}:\n{output}", file=sys.stderr)
        else:
            self.checker.check(argv, rc, output)

    def samples(self, command: str) -> list[float]:
        return [t for name, t, _ in self.commands if name == command]

    def round_s(self) -> float:
        """A round's time from per-command medians: sum over its commands of the median for that command."""
        round_zero = workloads.round_commands(self.workload, self.data, self.seed, 0)
        return sum(statistics.median(self.samples(argv[0])) for argv in round_zero)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, rc in self.commands if rc is None or rc == 1)


def _result(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _report_commands(loop: Loop) -> None:
    for command in COMMANDS:
        samples = loop.samples(command)
        if samples:
            print(_summary(f"{command}_s", samples, "s"))
    attempted = len(loop.commands)
    print(
        f"error_rate: {loop.failed / attempted:.6f} ({loop.failed} of {attempted} commands exited 1 or "
        f"raised; an ask exit code of 2 is an outcome, not a failure)"
    )


def _report_trace(rec: spans.Recorder, patches: spans.Patches) -> None:
    if patches.skipped:
        print(f"trace: wrappers skipped (target missing): {', '.join(patches.skipped)}")
    by_command: dict[str, tuple[float, dict[str, float]]] = {}
    worst = 0.0
    for name, wall, self_s in rec.self_times():
        total_wall, total_self = by_command.get(name, (0.0, {}))
        for layer, seconds in self_s.items():
            total_self[layer] = total_self.get(layer, 0.0) + seconds
        by_command[name] = (total_wall + wall, total_self)
        worst = max(worst, abs(sum(self_s.values()) - wall) / wall)
    for name, (wall, self_s) in by_command.items():
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:4]
        shares = ", ".join(f"{layer} {100 * seconds / wall:.1f}%" for layer, seconds in top)
        print(f"trace: {name} self-time shares of traced wall {wall:.3f} s: {shares}")
    print(f"trace: per command, the self times (cli.self_s included) sum to the traced wall within {100 * worst:.2e}%")


def _untraced(args: argparse.Namespace, work: Path, loop: Loop) -> dict[str, tuple[float, str]]:
    # The timed loop runs in chunks, one after each set-up, so that a run
    # samples the host over its whole length.
    setups = SETUPS[args.workload]
    setup_times, setup_digests = [], set()
    for i in range(setups):
        data = work / f"setup{i}"
        setup_times.append(_prepare(args.workload, args.seed, data))
        setup_digests.add(_setup_digest(data))
        if len(setup_digests) != 1:
            raise CheckFailed(f"set-ups from one seed produced different inputs: {sorted(setup_digests)}")
        loop.use(data)
        loop.run(args.seconds * (i + 1) / setups, finish_round=i + 1 == setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(_summary("setup_s", setup_times, "s") + f" inputs {setup_digests.pop()}")
    _report_commands(loop)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "round_s": (loop.round_s(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "index_mb": (workloads.index_mb(data), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6f} {unit}")
    return metrics


def _traced(args: argparse.Namespace, work: Path, loop: Loop) -> dict[str, tuple[float, str]]:
    data = work / "setup0"
    print(_summary("setup_s", [_prepare(args.workload, args.seed, data)], "s"))
    loop.use(data)
    rounds = loop.run_rounds(args.seconds / 2)
    untraced = sum(t for _, t, _ in loop.commands)
    rec = spans.Recorder()
    patches = spans.Patches(rec).install()
    try:
        for i in range(rounds):
            loop.round(i, rec)
    finally:
        patches.remove()
    traced = sum(t for _, t, _ in loop.commands) - untraced
    _report_commands(loop)
    _report_trace(rec, patches)
    per_layer = spans.per_layer_metrics(rec, rounds, traced / untraced)
    for name, value in per_layer.items():
        _, moves, where = spans.PER_LAYER[name]
        print(f"{name}: {value:.6g} (moves {moves} on {where})")
    return {name: (value, spans.PER_LAYER[name][0]) for name, value in per_layer.items()}


def run(args: argparse.Namespace, work: Path) -> int:
    print(_host_line())
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    loop = Loop(args.workload, args.seed)
    try:
        gate = workloads.golden_gate(work / "golden")
        print(f"gate: 1x fixture summary matches tests/fixtures/golden byte for byte (digest {gate})")
        metrics = (_traced if args.trace else _untraced)(args, work, loop)
        print("digests: " + " ".join(f"{k}={v}" for k, v in sorted(loop.checker.digests.items())))
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(_result(False, max(len(loop.commands), 1), loop.failed, {}))
        return 1
    print(_result(loop.failed == 0, len(loop.commands), loop.failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: not a qasum source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
