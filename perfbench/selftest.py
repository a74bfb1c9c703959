"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
* an untraced tiny round passes its gate and yields every end-to-end
  metric named in BENCHMARK.json with a unit, plus the printed summary
  figures (failed_ratio, size_at_budget, the tail's percentile);
* a traced tiny round yields every per-layer metric with a unit;
* the gate counts deliberately corrupted outputs, and a wrong golden
  digest, as failed.
It also checks that run.py exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import harness
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SUMMARY = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb",
           "failed_ratio", "size_at_budget")


def corruptions(label: str, out):
    """Outputs that look plausible but are wrong, for each kind of op."""
    from wbslab import schreier

    kind = label.split("/")[0]
    if kind == "certify":
        cert, oracle = out
        yield "mean below 1/2", (dataclasses.replace(cert, mean=Fraction(1, 3)), oracle)
        yield "witness rank off by one", (
            dataclasses.replace(cert, witness_coordinate=cert.witness_coordinate + 1), oracle)
    elif kind == "roundtrip":
        rank, _ = out
        yield "wrong set back", (rank, schreier.SchreierSet((1,)))
    elif kind == "geometry":
        space, family, verified, report = out
        yield "upper above bound", (space, family, verified,
                                    dataclasses.replace(report, upper=report.bound_upper * 1.01))
        bad = dataclasses.replace(family, pairs=family.pairs[:1] * 2)
        yield "unseparated family", (space, bad, verified, report)
    elif kind == "planted":
        yield "violation dropped", dataclasses.replace(out, violations=out.violations[1:])
    elif kind == "report":
        yield "upper above bound", dataclasses.replace(out, upper=out.bound_upper * 1.01)
    elif kind == "tents":
        first = dataclasses.replace(out[0], values=out[0].values * 0.5)
        yield "tent image shrunk", [first] + out[1:]
    elif kind == "cli":
        yield "traceback", subprocess.CompletedProcess(out.args, 1, out.stdout, "Traceback (most recent call last):")
        yield "wrong exit", subprocess.CompletedProcess(out.args, 3 - out.returncode, out.stdout, out.stderr)
    elif kind == "suite":
        yield "suite not ok", dataclasses.replace(out, ok=False)
    else:
        raise AssertionError(f"no corruption for {label}")


def check_workload(cls) -> list[str]:
    import tracing

    problems = []
    workload = cls(harness.DEFAULT_SEED + 7, tiny=True)
    workload.build()
    try:
        gate = harness.Gate([])
        records, _, loop_s = harness.closed_loop(workload, 0, gate, max_rounds=1)
        if gate.failures:
            problems.append(f"tiny round failed: {gate.failures[:2]}")
        metrics, summary = harness.end_to_end(workload, records, loop_s, 0.1)
        if set(metrics) != {spec["name"] for spec in SPEC["end_to_end"]}:
            problems.append(f"gated metrics {sorted(metrics)} differ from BENCHMARK.json")
        for spec in SPEC["end_to_end"]:
            got = metrics.get(spec["name"])
            if not got or got["unit"] != spec["unit"]:
                problems.append(f"end-to-end {spec['name']} missing or without unit {spec['unit']}")
        for name in SUMMARY:
            if "unit" not in summary.get(name, {}):
                problems.append(f"summary {name} missing or without a unit")
        if "percentile" not in summary["op_tail_ms"]:
            problems.append("op_tail_ms does not record its percentile")

        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, _, traced_s = harness.closed_loop(workload, 0, harness.Gate([]), max_rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(traced_s, loop_s, {"count_cache_hit_ratio": 0.0})
        if set(layer) != {spec["name"] for spec in SPEC["per_layer"]}:
            problems.append("traced metrics differ from BENCHMARK.json's per_layer list")
        for spec in SPEC["per_layer"]:
            got = layer.get(spec["name"])
            if not got or got["unit"] != spec["unit"]:
                problems.append(f"per-layer {spec['name']} missing or without unit {spec['unit']}")

        ops = workload.round(0)
        seen = set()
        for op_index, op in enumerate(ops):
            kind = op.label.split("/")[0]
            out = op.call()
            golden = [["0" * 16] * len(ops)]
            if harness.Gate(golden, log=None)(op, out, 0, op_index):
                problems.append(f"{op.label}: wrong golden digest passed")
            if kind in seen:
                continue
            seen.add(kind)
            for what, bad in corruptions(op.label, out):
                if harness.Gate([], log=None)(op, bad, 0, op_index):
                    problems.append(f"{op.label}: corrupted output ({what}) passed the gate")
    finally:
        workload.close()
    return problems


def check_bare_directory() -> list[str]:
    bare = Path(".perfbench_tmp") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py succeeded in a directory without the sources"]
    return []


def main() -> int:
    run.import_library()
    from workloads import WORKLOADS

    problems = check_bare_directory()
    for name, cls in WORKLOADS.items():
        found = check_workload(cls)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += [f"{name}: {p}" for p in found]
    try:
        Path(".perfbench_tmp").rmdir()
    except OSError:
        pass
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest ok" if not problems else f"selftest FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
