"""The benchmark's four workloads.

Each workload turns (seed, round index) into a fixed mix of operations.
Inputs of a round come from their own seeded generator, so rounds never
replay each other's inputs through the library's caches.  Library
functions are always looked up through their module at call time, so the
traced run sees every call.  A ``tiny`` workload has the same mix at toy
sizes; it serves warm-up and the self-test.

* exact        -- `schreier` and `weaknull`: certificates and deep rank
                  round trips, big-integer bound.
* geometry     -- `metric`: validation and pair search on fresh spaces.
* embed-batch  -- `embed` and `holder`: distortion batches on fixed
                  spaces built during set-up.
* suites-cli   -- `experiments` and `cli`: the user's own entry points.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from wbslab import embed, experiments, holder, metric, schreier, weaknull
from wbslab.tolerances import DEFAULT_TOLERANCES

from harness import Op, require

TMP_ROOT = Path(".perfbench_tmp")
ENUMERATIONS = ("canonical", "alt")


def rng_for(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def np_rng(*key) -> np.random.Generator:
    return np.random.default_rng(rng_for(*key).getrandbits(64))


class Workload:
    """A seeded stream of rounds.

    Every round holds an odd number of operations.  Pooled over whole
    rounds, each operation of the round owns a block of the sorted
    latencies; the median then falls in the middle of one block and the
    tail percentile in the lower part of another.  The shared host this
    was tuned on runs about 1.5x slower for seconds at a time, and a
    percentile near a block's upper edge, or between two blocks, would
    mostly report how long those phases lasted.
    """

    name = ""
    # Fixed per workload, so that runs of different lengths report the
    # same statistic; at least ten samples lie beyond it at the seed
    # commit's run length.
    tail_pct = 75.0
    has_ladder = False
    size_unit = "n/a"
    uses_children = False
    # rounds the traced run measures, once untraced and once traced
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        # invalid-input CLI calls made, and how many ended as a JSON error
        self.error_calls = 0
        self.error_exit2 = 0

    def build(self) -> None:
        """Inputs shared by every round (part of set-up)."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what build() created."""

    def run_probes(self) -> list[dict]:
        """Known-defect probes, run after the timed loop."""
        return []


# ---- exact --------------------------------------------------------------------


def certify_op(rule: str, N: int, enumeration: str, label: str, point: str | None) -> Op:
    def call():
        oracle = weaknull.SequenceOracle(enumeration)
        sub = weaknull.Subsequence.parse(rule)
        return weaknull.certify_not_cesaro_null(sub, N, oracle=oracle), oracle

    def check(out):
        cert, oracle = out
        require(cert.N == N and cert.enumeration == enumeration, "certificate for another request")
        require(cert.mean >= Fraction(1, 2), f"mean {cert.mean} < 1/2")
        witness = frozenset(cert.witness_set.elements)
        hits = sum(1 for k in cert.prefix if k in witness)
        require(len(cert.prefix) == 2 * N and Fraction(hits, 2 * N) == cert.mean,
                "mean disagrees with the prefix")
        require(cert.prefix_len == N + len(witness), "prefix_len is not N + k_{N+1}")
        # certify ranked the witness and the oracle unranked that rank:
        # the cached set closes the round trip without a second unrank
        require(oracle.coordinate_set(cert.witness_coordinate) == witness,
                "unrank(rank_of(witness)) != witness")
        return {
            "rule": rule, "N": N, "A_N": sorted(witness), "i0": hex(cert.witness_coordinate),
            "mean": f"{cert.mean.numerator}/{cert.mean.denominator}",
            "prefix_len": cert.prefix_len, "enumeration": enumeration,
        }

    return Op(f"certify/{rule.split(':')[0]}/{label}", call, check, point, N)


def round_trip_op(s: schreier.SchreierSet, enumeration: str, label: str) -> Op:
    def call():
        enum = schreier.get_enumeration(enumeration)
        rank = enum.rank_of(s)
        return rank, enum.unrank(rank)

    def check(out):
        rank, back = out
        require(rank >= 1, "rank below 1")
        require(back == s, "unrank(rank_of(s)) != s")
        # hex, not decimal: no str() of a rank, whatever its size
        return {"set": list(s.elements), "rank": hex(rank), "enumeration": enumeration}

    return Op(f"roundtrip/{label}", call, check)


class Exact(Workload):
    name = "exact"
    has_ladder = True
    size_unit = "N"
    # Per-rule N ladders, capped so no operation takes much over 1 s
    # here (random:*,3 at N=1024 takes about 3 s, affine:2 about 4 s).
    # identity and affine:1 run the whole ladder and define size_at_budget.
    LADDERS = {
        "identity": (128, 256, 512, 1024, 2048),
        "affine1": (128, 256, 512, 1024, 2048),
        "affine2": (128, 256, 512),
        "random": (128, 256, 512),
    }
    TINY_LADDERS = {"identity": (8, 16, 32), "affine1": (8, 16, 32), "affine2": (8, 16), "random": (8, 16)}
    # Round-trip maxima, one per narrow stratum from 1e5 to 4e5;
    # unrank time grows steeply with the maximum, so wide strata would
    # make the tail a lottery.  Tiny rounds keep these sizes: as warm-up
    # they fill the count cache's shared grade-search probes, the state
    # every round after the first sees.
    TRIP_STRATA = tuple((lo, lo + 5_000) for lo in (100_000, 250_000, 395_000))

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, self.name, r)
        ops = []
        for kind, ladder in (self.TINY_LADDERS if self.tiny else self.LADDERS).items():
            for N0 in ladder:
                # a small seeded offset keeps rounds' requests distinct
                N = N0 + rng.randrange(max(1, N0 // 64))
                rule = {
                    "identity": "identity",
                    "affine1": f"affine:1,{rng.randrange(10)}",
                    "affine2": f"affine:2,{rng.randrange(10)}",
                    "random": f"random:{rng.getrandbits(31)},3",
                }[kind]
                on_ladder = kind in ("identity", "affine1")
                ops.append(certify_op(rule, N, ENUMERATIONS[len(ops) % 2], f"N{N0}",
                                      f"N{N0}" if on_ladder else None))
        for lo, hi in self.TRIP_STRATA:
            top = rng.randrange(lo, hi)
            m = rng.randint(3, 6)
            middle = sorted(rng.sample(range(m + 1, top), m - 2))
            s = schreier.SchreierSet((m, *middle, top))
            ops.append(round_trip_op(s, ENUMERATIONS[len(ops) % 2], f"max{lo}"))
        return ops


# ---- geometry -----------------------------------------------------------------


def build_space(kind: str, n: int, rng: np.random.Generator) -> metric.FiniteMetricSpace:
    """A fresh seeded space; grids and cycles have integer, tie-heavy distances."""
    if kind in ("euclidean", "l1", "linf"):
        return metric.FiniteMetricSpace.from_points(rng.uniform(0.0, 10.0, size=(n, 2)), metric=kind)
    order = rng.permutation(n)
    if kind == "grid":
        return metric.FiniteMetricSpace.from_points(order.astype(float))
    edges = [(int(order[i]), int(order[(i + 1) % n]), 1.0) for i in range(n)]
    return metric.FiniteMetricSpace.from_graph(n, edges)


def check_distortion(report, family, alpha: float, vectors: int) -> None:
    require(report.samples == vectors, f"{report.samples} samples for {vectors} vectors")
    require(report.bound_upper == 2.0 / family.K**alpha + 1.0, "bound is not 2/K^alpha + 1")
    require(report.upper <= report.bound_upper, f"upper {report.upper} > bound {report.bound_upper}")
    require(report.lower >= 1.0 - 2 * DEFAULT_TOLERANCES.sandwich_rel, f"lower {report.lower} < 1")


def geometry_op(kind: str, n: int, count: int, alpha: float, key, point: str) -> Op:
    def call():
        space = build_space(kind, n, np_rng(*key))
        family = metric.find_pair_family(space, 0.25, count)
        verified = metric.verify_pair_family(space, family)
        report = embed.distortion_report(space, family, alpha, embed.structured_vectors(len(family)))
        return space, family, verified, report

    def check(out):
        space, family, verified, report = out
        require(verified.ok and len(family) == count, "pair family fails verification")
        require(metric.verify_pair_family(space, family).ok, "pair family fails re-verification")
        check_distortion(report, family, alpha, count + 1)
        return {"kind": kind, "n": n, "family": family.to_json(), "report": report.to_json()}

    return Op(f"geometry/{kind}/{point}", call, check, point, n)


def planted_op(n: int, plants: int, key) -> Op:
    """Validate a cloud's matrix after planting far-too-long pairs."""
    rng = np_rng(*key)
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    for _ in range(plants):
        i, j = rng.choice(n, size=2, replace=False)
        dist[i, j] = dist[j, i] = 3.0 * dist.max()

    def call():
        return metric.validate_metric(dist)

    def check(report):
        require(not report.ok, "planted violations not reported")
        index = {label: i for i, label in enumerate(metric.default_labels(n))}
        for v in report.violations:
            require(v.kind == "triangle", f"unexpected {v.kind} violation")
            i, k, j = (index[p] for p in v.points)
            require(dist[i, j] > dist[i, k] + dist[k, j], f"reported triangle {v.points} holds")
        require(len(report.violations) == 50, "report not capped at 50 entries")
        return report.to_json()

    return Op(f"planted/{n}", call, check)


class Geometry(Workload):
    name = "geometry"
    has_ladder = True
    size_unit = "n"
    trace_rounds = 2
    KINDS = ("euclidean", "l1", "linf", "grid", "cycle")
    # Ladder capped at n=400 (about 1.3 s per operation here) so a run
    # holds enough operations for its tail percentile.  The planted
    # matrix is one operation in seven.
    LADDER = (140, 170, 210, 250, 300, 400)
    TINY = (12, 13, 14, 15, 16, 17)

    def round(self, r: int) -> list[Op]:
        ladder = self.TINY if self.tiny else self.LADDER
        count = 3 if self.tiny else 20
        ops = [
            geometry_op(self.KINDS[(r + j) % len(self.KINDS)], n, count, 0.5,
                        (self.seed, self.name, r, j), f"n{n}")
            for j, n in enumerate(ladder)
        ]
        ops.append(planted_op(ladder[2], 6, (self.seed, self.name, r, "planted")))
        return ops


# ---- embed-batch -----------------------------------------------------------------


def report_op(space, family, alpha: float, key, label: str) -> Op:
    m = len(family)
    rng = np_rng(*key)
    batch = [embed.FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=m))) for _ in range(64)]
    vectors = batch + embed.structured_vectors(m)

    def call():
        return embed.distortion_report(space, family, alpha, vectors)

    def check(report):
        require(metric.verify_pair_family(space, family).ok, "pair family fails re-verification")
        check_distortion(report, family, alpha, len(vectors))
        return report.to_json()

    return Op(f"report/{label}", call, check)


def tent_op(space, family, key, label: str) -> Op:
    centers = [y for _, y in family.pairs]
    radii = family.radii(space)
    rng = np_rng(*key)
    batch = [embed.FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=len(centers)))) for _ in range(64)]

    def call():
        return [embed.embed_cb(a, space, centers, radii) for a in batch]

    def check(images):
        sups = [holder.sup_norm(f) for f in images]
        require(all(s == a.sup_value for s, a in zip(sups, batch)), "tent sum is not isometric")
        return {"sups": sups, "l1": [float(np.abs(f.values).sum()) for f in images]}

    return Op(f"tents/{label}", call, check)


class EmbedBatch(Workload):
    name = "embed-batch"
    trace_rounds = 4
    # (points, dimension, metric, pairs, alpha).  Clouds stay near 250
    # points: an n^2/2 pair scan then fits a 2 MiB L2 cache, while at
    # n=400-440 run-to-run throughput spread 26% on a shared 2-core host
    # (against 8% here).
    CLOUDS = ((220, 2, "euclidean", 20, 0.7), (260, 3, "l1", 40, 1.0))
    TINY = ((24, 2, "euclidean", 3, 0.7), (30, 3, "l1", 4, 1.0))

    def build(self) -> None:
        self.instances = []
        for c, (n, dim, kind, pairs, alpha) in enumerate(self.TINY if self.tiny else self.CLOUDS):
            rng = np_rng(self.seed, self.name, "cloud", c)
            space = metric.FiniteMetricSpace.from_points(rng.uniform(0.0, 10.0, size=(n, dim)), metric=kind)
            family = metric.find_pair_family(space, 0.25, pairs)
            self.instances.append((f"{kind}{n}", space, family, alpha))

    def round(self, r: int) -> list[Op]:
        """A report per cloud and one tent batch, on alternating clouds."""
        ops = [
            report_op(space, family, alpha, (self.seed, self.name, r, label), label)
            for label, space, family, alpha in self.instances
        ]
        label, space, family, _ = self.instances[r % len(self.instances)]
        return ops + [tent_op(space, family, (self.seed, self.name, r, label, "tent"), label)]


# ---- suites-cli ------------------------------------------------------------------


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter; returns after the child exits."""
    return subprocess.run(
        [sys.executable, "-m", "wbslab.cli", *args],
        capture_output=True, text=True, timeout=120, env=os.environ.copy(),
    )


def is_json_error(proc: subprocess.CompletedProcess) -> bool:
    try:
        payload = json.loads(proc.stderr)
    except ValueError:
        return False
    return proc.returncode == 2 and isinstance(payload, dict) and "error" in payload


class SuitesCli(Workload):
    name = "suites-cli"
    uses_children = True

    def build(self) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.dir = TMP_ROOT / f"{self.name}-{os.getpid()}-{self.seed}-{int(self.tiny)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        rng = np_rng(self.seed, self.name, "files")
        self.space_file = self.dir / "space.json"
        self.space_file.write_text(json.dumps({"points": rng.uniform(0.0, 10.0, size=(24, 2)).tolist()}))
        space = metric.load_space(str(self.space_file))
        family = metric.find_pair_family(space, 0.5, 3)
        self.family_file = self.dir / "family.json"
        self.family_file.write_text(json.dumps(family.to_json()))
        self.field_file = self.dir / "field.json"
        self.field_file.write_text(json.dumps(rng.uniform(-1.0, 1.0, size=24).tolist()))
        self.centers = ",".join(y for _, y in family.pairs)
        self.radii = ",".join(repr(r) for r in family.radii(space))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    def cli_calls(self, r: int) -> list[tuple[list[str], int]]:
        """(arguments, expected exit status); status 2 means a JSON error."""
        rng = rng_for(self.seed, self.name, r, "cli")
        q = rng.getrandbits(20)
        space, family, field = str(self.space_file), str(self.family_file), str(self.field_file)
        a, b = sorted(rng.sample(range(4, 60), 2))
        calls = [
            (["schreier", "unrank", str(rng.randrange(10**5, 10**6))], 0),
            (["cesaro", "certify", "--subsequence", f"random:{q},3", "--N", "32",
              "--enumeration", ENUMERATIONS[r % 2]], 0),
            (["embed", "holder", space, family, "--vector", f"random:{q}:8", "--alpha", "0.8"], 0),
            (["schreier", "rank", "3,4"], 2),
        ]
        if self.tiny:
            return calls[::3]
        return calls + [
            (["schreier", "rank", f"3,{a},{b}"], 0),
            (["schreier", "count", str(rng.randrange(50, 500))], 0),
            (["metric", "validate", space], 0),
            (["pairs", "find", space, "--K", "0.5", "--count", "3"], 0),
            (["pairs", "verify", space, family], 0),
            (["holder", "seminorm", space, field, "--alpha", "0.5"], 0),
            (["embed", "cb", space, "--centers", self.centers, "--radii", self.radii,
              "--vector", "1,-0.5,0.25"], 0),
            (["classify", "calpha", "--points", str(rng.randrange(2, 99))], 0),
            (["experiment", "run", "isometry-suite", "--seed", str(q % 1000)], 0),
            (["cesaro", "certify", "--subsequence", "5,3", "--N", "1"], 2),
            (["pairs", "find", space, "--K", "1.5"], 2),
            (["classify", "cb"], 2),
        ]

    # Inputs that should end as a JSON error with exit 2 but escape as a
    # traceback at the seed commit (ROADMAP item 5).  They run after the
    # timed loop and feed cli.error_exit2_ratio.
    def escape_probes(self) -> list[list[str]]:
        long_json = json.dumps({"points": [[float(i), float(i * i % 7)] for i in range(40)]})
        return [
            ["schreier", "unrank", "abc"],
            ["schreier", "count", "30000"],
            ["pairs", "find", long_json, "--K", "0.5", "--count", "2"],
            ["classify", "ordinal", "w^(" * 1000 + "1" + ")" * 1000],
        ]

    def run_probes(self) -> list[dict]:
        out = []
        for args in self.escape_probes():
            proc = run_cli(args)
            ok = is_json_error(proc)
            self.error_calls += 1
            self.error_exit2 += ok
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            out.append({"args": args[:2], "exit": proc.returncode, "json_error": ok, "stderr_tail": last[0][:120]})
        return out

    def cli_op(self, args: list[str], expected: int) -> Op:
        def call():
            return run_cli(args)

        def check(proc):
            require("Traceback" not in proc.stderr, "CLI call ended in a traceback")
            require(proc.returncode == expected, f"exit {proc.returncode}, expected {expected}")
            if expected == 2:
                self.error_calls += 1
                require(is_json_error(proc), "error is not a JSON payload")
                self.error_exit2 += 1
                return json.loads(proc.stderr)
            return json.loads(proc.stdout)

        return Op(f"cli/{' '.join(args[:2])}", call, check)

    def suite_op(self, name: str, seed: int, out_dir: Path) -> Op:
        def call():
            return experiments.run_experiment(name, experiments.ExperimentConfig(seed=seed, out_dir=out_dir))

        def check(result):
            require(result.ok and not result.failures, f"{name} reported failures")
            path = out_dir / f"{name}.json"
            report = json.loads(path.read_text())
            shutil.rmtree(out_dir, ignore_errors=True)
            require(all(row["ok"] for row in report["rows"]), f"{name} has a failing row")
            report.pop("meta")
            return report

        return Op(f"suite/{name}", call, check)

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, self.name, r, "suites")
        ops = [
            self.suite_op(name, rng.randrange(10_000), self.dir / f"r{r}-{name}")
            for name in experiments.EXPERIMENT_NAMES
        ]
        return ops + [self.cli_op(args, expected) for args, expected in self.cli_calls(r)]


WORKLOADS = {cls.name: cls for cls in (Exact, Geometry, EmbedBatch, SuitesCli)}
