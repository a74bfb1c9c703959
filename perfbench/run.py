"""wbslab benchmark: one closed-loop workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

One client in one process sends the next request when the previous one
has returned (suites-cli also waits on one CLI child at a time).  BLAS
is pinned to one thread.  `--trace 0` prints the end-to-end metrics;
`--trace 1` runs the workload's trace rounds once untraced and once with
spans around every layer call, and prints the per-layer metrics; it
ignores `--seconds`.  The line before the result holds the environment,
the run's summary with all seven end-to-end figures (the result line
carries the gated ones), and the count-cache statistics.

    python3 perfbench/run.py --write-golden

regenerates perfbench/golden.json, the digests the default seed's
outputs are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["exact", "geometry", "embed-batch", "suites-cli"])
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    return args


def import_library() -> float:
    """Put the checkout's src/ on the path and time `import wbslab`."""
    src = Path.cwd() / "src"
    if not (src / "wbslab" / "__init__.py").is_file():
        raise SystemExit(f"error: no wbslab sources under {src}; run from a source checkout")
    harness.pin_blas_threads()
    sys.path.insert(0, str(src))
    # CLI children import the same sources
    os.environ["PYTHONPATH"] = str(src)
    t0 = time.perf_counter()
    import wbslab  # noqa: F401

    return time.perf_counter() - t0


def warm_up(cls, seed: int) -> int:
    """One tiny round from another seed; returns the failures it saw."""
    warm = cls(seed + harness.WARM_SEED_OFFSET, tiny=True)
    warm.build()
    gate = harness.Gate([])
    try:
        harness.run_round(warm, 0, gate, [])
    finally:
        warm.close()
    return len(gate.failures)


IMPORT_PROBE = "import time; t = time.perf_counter(); import wbslab; print(time.perf_counter() - t)"


def child_import_s() -> float:
    """`import wbslab` timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, capture_output=True, text=True)
    return float(out.stdout)


def set_up(cls, seed: int, repeats: int):
    """Set the workload up `repeats` times, each from a cold count cache.

    A repetition is an import (in a fresh interpreter: this process can
    import only once), the workload's inputs and the warm-up round.
    """
    from wbslab import schreier

    times, failures = [], 0
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        schreier.count_max_at_most.cache_clear()
        import_s = child_import_s()
        t0 = time.perf_counter()
        workload = cls(seed)
        workload.build()
        failures += warm_up(cls, seed)
        times.append(import_s + time.perf_counter() - t0)
    return workload, statistics.median(times), failures


def cache_info() -> dict:
    from wbslab import schreier

    return schreier.count_max_at_most.cache_info()._asdict()


def run_untraced(cls, args, import_s: float):
    workload, setup_s, warm_failed = set_up(cls, args.seed, harness.SETUP_REPEATS)
    gate = harness.Gate(harness.load_golden(cls.name, args.seed))
    try:
        before = cache_info()
        records, rounds, loop_s = harness.closed_loop(workload, args.seconds, gate)
        after = cache_info()
        probes = workload.run_probes()
    finally:
        workload.close()
    metrics, summary = harness.end_to_end(workload, records, loop_s, setup_s)
    info = {
        "rounds": rounds,
        "loop_s": loop_s,
        "import_s": import_s,
        "count_cache": {"before": before, "after": after},
        "summary": summary,
    }
    if probes:
        info["escape_probes"] = probes
    failed = sum(not r.ok for r in records)
    return info, len(records), failed, warm_failed, metrics


def cli_startup_ms(samples: int = 5) -> dict:
    """Median child start with and without `import wbslab`."""
    def median_ms(code):
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    interp = median_ms("pass")
    return {"interp_ms": interp, "import_ms": median_ms("import wbslab") - interp}


def run_traced(cls, args):
    from wbslab import schreier

    import tracing

    workload, _, warm_failed = set_up(cls, args.seed, 1)
    gate = harness.Gate(harness.load_golden(cls.name, args.seed))
    tracer = tracing.Tracer()
    try:
        _, _, untraced_s = harness.closed_loop(workload, 0, gate, max_rounds=cls.trace_rounds)
        # the traced pass starts from the same cache state as the untraced one
        schreier.count_max_at_most.cache_clear()
        warm_failed += warm_up(cls, args.seed)
        workload.error_calls = workload.error_exit2 = 0
        before = cache_info()
        tracer.install()
        try:
            records, _, traced_s = harness.closed_loop(
                workload, 0, gate, max_rounds=cls.trace_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        after = cache_info()
        extra = {"escape_probes": workload.run_probes()}
        if workload.uses_children:
            extra.update(cli_startup_ms())
        if workload.error_calls:
            extra["error_exit2_ratio"] = workload.error_exit2 / workload.error_calls
    finally:
        workload.close()
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    extra["count_cache_hit_ratio"] = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
    metrics = tracer.metrics(traced_s, untraced_s, extra)
    info = {"trace_rounds": cls.trace_rounds, "untraced_s": untraced_s, "traced_s": traced_s,
            "count_cache": {"before": before, "after": after}}
    if extra["escape_probes"]:
        info["escape_probes"] = extra["escape_probes"]
    return info, 2 * len(records), len(gate.failures), warm_failed, metrics


def write_golden() -> None:
    from workloads import WORKLOADS

    golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls(harness.DEFAULT_SEED)
        workload.build()
        gate = harness.Gate([])
        try:
            for r in range(harness.GOLDEN_ROUNDS):
                harness.run_round(workload, r, gate, [])
        finally:
            workload.close()
        if gate.failures:
            raise SystemExit(f"{name}: refusing to record digests of failing outputs")
        golden[name] = gate.digests
        print(f"{name}: {sum(map(len, gate.digests))} digests", file=sys.stderr)
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    if args.write_golden:
        write_golden()
        return 0
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.trace:
        info, attempted, failed, warm_failed, metrics = run_traced(cls, args)
    else:
        info, attempted, failed, warm_failed, metrics = run_untraced(cls, args, import_s)
    header = {"workload": cls.name, "trace": args.trace, "env": harness.environment(args.seed),
              "warm_up_failures": warm_failed}
    print(json.dumps(dict(header, **info)))
    print(harness.result_line(failed == 0 and warm_failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
