"""Closed-loop runner, correctness gate and end-to-end statistics.

A workload is a seeded stream of *rounds*; a round is a fixed mix of
operations (`Op`).  The loop runs whole rounds, one operation at a time
in this single process, until the requested seconds have elapsed, so
every run measures the same mix whatever its length.  Each operation's
output goes through the gate: its invariant check, then, for the
default seed, the golden digest of its canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Golden digests exist for this seed only; other seeds rely on the
# invariant checks.
DEFAULT_SEED = 0
GOLDEN_ROUNDS = 2
# Warm-up inputs come from a seed no timed run derives its inputs from.
WARM_SEED_OFFSET = 1_000_003
SETUP_REPEATS = 3
BUDGET_MS = 1000.0


class CheckFailed(Exception):
    """An operation returned an output that fails its invariant check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop request.

    ``call`` is the timed work; ``check`` validates its output, raising
    CheckFailed, and returns the payload whose digest is compared with
    the golden one.  ``point`` names the size-ladder point the operation
    belongs to (None when it is off the ladder) and ``size`` its size.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    point: str | None = None
    size: int | None = None


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str, seed: int) -> list[list[str]]:
    if seed != DEFAULT_SEED or not GOLDEN_PATH.is_file():
        return []
    return json.loads(GOLDEN_PATH.read_text()).get(workload, [])


@dataclass
class OpRecord:
    point: str | None
    size: int | None
    ms: float
    ok: bool


class Gate:
    """Runs an operation's check and digest comparison; counts failures."""

    def __init__(self, golden: list[list[str]], log=sys.stderr):
        self.golden = golden
        self.log = log
        self.digests: list[list[str]] = []
        self.failures: list[str] = []

    def __call__(self, op: Op, out: Any, round_index: int, op_index: int) -> bool:
        try:
            d = digest(op.check(out))
            if round_index < len(self.golden):
                want = self.golden[round_index][op_index]
                require(d == want, f"digest {d} != golden {want}")
        except Exception as exc:  # any failed check counts against the operation
            self.fail(op, round_index, f"{type(exc).__name__}: {exc}")
            return False
        while len(self.digests) <= round_index:
            self.digests.append([])
        self.digests[round_index].append(d)
        return True

    def fail(self, op: Op, round_index: int, message: str) -> None:
        self.failures.append(f"round {round_index} {op.label}: {message}")
        if self.log is not None and len(self.failures) <= 5:
            print(f"FAILED {self.failures[-1]}", file=self.log)


def run_op(op: Op, gate: Gate, round_index: int, op_index: int) -> OpRecord:
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception:  # a raise is a failed operation, not a benchmark crash
        ms = (time.perf_counter() - t0) * 1e3
        gate.fail(op, round_index, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return OpRecord(op.point, op.size, ms, False)
    ms = (time.perf_counter() - t0) * 1e3
    return OpRecord(op.point, op.size, ms, gate(op, out, round_index, op_index))


def run_round(workload, round_index: int, gate: Gate, records: list[OpRecord], tracer=None) -> None:
    for op_index, op in enumerate(workload.round(round_index)):
        if tracer is None:
            records.append(run_op(op, gate, round_index, op_index))
            continue
        # the benchmark's own span: its self time is the gate and glue
        tracer.enter("bench.op")
        try:
            records.append(run_op(op, gate, round_index, op_index))
        finally:
            tracer.leave("bench.op")


def closed_loop(workload, seconds: float, gate: Gate, max_rounds: int | None = None, tracer=None):
    """Whole rounds until `seconds` have passed, or exactly `max_rounds`."""
    records: list[OpRecord] = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        run_round(workload, rounds, gate, records, tracer)
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_rounds is None and time.perf_counter() - t0 >= seconds:
            break
    return records, rounds, time.perf_counter() - t0


# ---- statistics -------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def size_at_budget(records: list[OpRecord]) -> dict | None:
    """Size one operation handles in BUDGET_MS, log-log over the ladder.

    Each ladder point contributes its median size and median latency.
    Between the two points that bracket the budget the value is
    interpolated; outside the ladder it is extrapolated from the two
    nearest points and marked so.
    """
    points: dict[str, list[OpRecord]] = {}
    for rec in records:
        if rec.point is not None and rec.ok:
            points.setdefault(rec.point, []).append(rec)
    if len(points) < 2:
        return None
    ladder = sorted(
        (statistics.median(r.size for r in recs), statistics.median(r.ms for r in recs))
        for recs in points.values()
    )
    idx = next((i for i in range(1, len(ladder)) if ladder[i][1] >= BUDGET_MS), None)
    extrapolated = idx is None or ladder[idx - 1][1] > BUDGET_MS
    if idx is None:
        idx = len(ladder) - 1
    (s0, t0), (s1, t1) = ladder[idx - 1], ladder[idx]
    slope = math.log(t1 / t0) / math.log(s1 / s0)
    size = s0 * math.exp(math.log(BUDGET_MS / t0) / slope)
    return {
        "value": size,
        "extrapolated": extrapolated,
        "ladder": [{"size": s, "median_ms": t} for s, t in ladder],
    }


def peak_rss_mb(include_children: bool) -> float:
    # ru_maxrss is in KiB on Linux; children run one at a time, so the
    # tree's peak is at most our own peak plus the largest child's.
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# Gated end-to-end metrics.  Latency quantiles are printed but not
# gated: the host this was tuned on runs ~1.5x slower for seconds at a
# time, and a quantile follows whichever phase a run happened to hit
# (10-run spreads up to 0.34), while throughput averages over it (up to
# 0.19).
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


def end_to_end(workload, records, loop_s, setup_s) -> tuple[dict, dict]:
    """(gated metrics, summary of all seven end-to-end figures)."""
    lat = [r.ms for r in records]
    n = len(lat)
    pct = workload.tail_pct
    tail = percentile(lat, pct)
    failed = sum(not r.ok for r in records)
    summary = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": n / loop_s, "unit": "1/s"},
        "op_p50_ms": {"value": percentile(lat, 50), "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms", "percentile": pct, "samples": n,
                       "samples_beyond": sum(v > tail for v in lat)},
        "peak_rss_mb": {"value": peak_rss_mb(workload.uses_children), "unit": "MB"},
    }
    metrics = {k: {"value": summary[k]["value"], "unit": summary[k]["unit"]} for k in GATED}
    budget = size_at_budget(records) if workload.has_ladder else None
    summary["failed_ratio"] = {"value": failed / n, "unit": "ratio", "failed": failed, "attempted": n}
    if budget is None:
        summary["size_at_budget"] = {"value": None, "unit": workload.size_unit, "note": "not applicable"}
    else:
        summary["size_at_budget"] = dict(budget, unit=workload.size_unit, budget_ms=BUDGET_MS)
    return metrics, summary


# ---- environment record -------------------------------------------------------


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: this host's speed just now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy

    return {
        "calibration_ms": calibration_ms(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(Path.cwd()),
    }


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads, inherited by children."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )
