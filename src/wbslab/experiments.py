"""Seeded experiment suites with reproducible JSON and CSV reports.

Every suite is a pure function of its configuration: identical configs
produce byte-identical reports except for the isolated ``meta`` block,
which carries the timestamp.  Rationals are serialized as "p/q" strings
and big integers as decimal strings, so nothing is lost to floats.
"""

from __future__ import annotations

import csv
import datetime
import json
import random
from dataclasses import InitVar, asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import tolerances
from .embed import FiniteSequence, build_support_map, structured_vectors, verify_sandwich
from .errors import WbsLabError
# perfbench/tracing.py wraps holder_seminorm and pair_bump under this module's names
from .holder import holder_seminorm, pair_bump  # noqa: F401
from .inputs import EXPERIMENT_NAMES
from .metric import find_pair_family
from .samples import bundled_spaces
from .weaknull import SequenceOracle, Subsequence, certify_not_cesaro_null

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "EXPERIMENT_NAMES"]

CESARO_N_VALUES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    enumeration: str = "canonical"
    out_dir: Path | None = None

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "enumeration": self.enumeration,
            "tolerances": asdict(tolerances.DEFAULT_TOLERANCES),
        }


@dataclass
class ExperimentResult:
    """A suite's rows and failures; ``ok`` iff none was recorded (``replace(result, ok=False)`` records one)."""

    name: str
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    ok: InitVar[bool]  # its default is the (truthy) property below

    def __post_init__(self, ok) -> None:
        if ok is False and not self.failures:
            self.failures = [{"reason": "result marked not ok"}]

    ok = property(lambda self: not self.failures)  # no failure recorded

    def to_json(self) -> dict:
        return {
            "meta": {"created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()},
            "experiment": self.name,
            "ok": self.ok,
            "config": self.config.to_json(),
            "rows": self.rows,
            "failures": self.failures,
        }


def _cesaro_suite(config: ExperimentConfig) -> ExperimentResult:
    """100 seeded subsequences, exact mean >= 1/2 at every N."""
    rng = random.Random(config.seed)
    oracle = SequenceOracle(config.enumeration)
    subs: list[Subsequence] = []
    for _ in range(50):
        subs.append(Subsequence.affine(rng.randint(1, 5), rng.randint(0, 9)))
    for _ in range(50):
        subs.append(Subsequence.seeded_increments(rng.randrange(2**31), max_step=3))

    result = ExperimentResult("cesaro-suite", config)
    half = Fraction(1, 2)
    for sub in subs:
        for N in CESARO_N_VALUES:
            cert = certify_not_cesaro_null(sub, N, oracle=oracle)
            payload = cert.to_json()
            row = {
                "rule": sub.description,
                "N": N,
                "mean": payload["mean"],
                "i0": payload["i0"],
                "witness_max": cert.witness_set.maximum,
                "prefix_len": cert.prefix_len,
                "ok": cert.mean >= half,
            }
            result.rows.append(row)
            if not row["ok"]:
                result.failures.append({"rule": sub.description, "N": N, "certificate": payload})
    return result


def _instance_battery(config: ExperimentConfig):
    """(name, space, family, alpha) instances over the bundled spaces."""
    spaces = bundled_spaces(seed=config.seed)
    combos = []
    for name, space in spaces.items():
        for K in (0.25, 0.5, 0.9):
            family = find_pair_family(space, K, target_count=3)
            if not family.pairs:
                continue
            for alpha in (0.3, 0.5, 0.8, 1.0):
                combos.append((f"{name}/K={K}/a={alpha}", space, family, alpha))
    return combos


def _sandwich_suite(config: ExperimentConfig) -> ExperimentResult:
    """Seminorm bounds and two-sided embedding bounds over the battery."""
    result = ExperimentResult("sandwich-suite", config)
    rng = np.random.default_rng(config.seed)
    slack = tolerances.DEFAULT_TOLERANCES.float_slack
    for name, space, family, alpha in _instance_battery(config):
        embedding = build_support_map(space, family, alpha)
        # the images of the unit vectors are the pair bumps themselves
        sups, seminorms = embedding.apply_batch(np.eye(len(family)))
        sup_worst, seminorm_worst = float(sups.max()), float(seminorms.max())
        bound = 1.0 / family.K**alpha
        bumps_ok = seminorm_worst <= bound + slack and sup_worst <= 1.0 + slack

        vectors = structured_vectors(len(family))
        vectors += [
            FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=len(family))))
            for _ in range(20)
        ]
        nonzero = [vec for vec in vectors if any(vec.entries)]  # finite entries: exactly sup_value != 0
        checks = verify_sandwich(nonzero, embedding)
        ratios = [check.ratio for check in checks]
        failed = [
            {"instance": name, "vector": vec.to_json(), "check": check.to_json()}
            for vec, check in zip(nonzero, checks) if not (check.lower_ok and check.upper_ok)
        ]
        result.failures += failed
        row = {
            "instance": name,
            "pairs": len(family),
            "seminorm_worst": seminorm_worst,
            "seminorm_bound": bound,
            "ratio_lo": min(ratios),
            "ratio_hi": max(ratios),
            "ratio_bound": embedding.bound_upper,
            "ok": bumps_ok and not failed,
        }
        result.rows.append(row)
        if not bumps_ok:
            witness = {"seminorm_worst": seminorm_worst, "sup_worst": sup_worst, "bound": bound}
            result.failures.append({"instance": name, **witness})
    return result


def _isometry_suite(config: ExperimentConfig) -> ExperimentResult:
    """Exact isometry of the tent-sum and indicator-sum embeddings."""
    from .embed import embed_linf, tent_images
    from .samples import line_grid

    result = ExperimentResult("isometry-suite", config)
    rng = np.random.default_rng(config.seed)
    space = line_grid(12)
    centers = list(space.labels[:6])
    radii = [0.45] * 6
    masses = list(rng.uniform(0.1, 5.0, size=6))
    trials = 1000
    # dyadic entries: exact in binary floating point
    vectors = [FiniteSequence(tuple(rng.integers(-256, 257, size=6) / 64.0)) for _ in range(trials)]
    sups = np.abs(tent_images(vectors, space, centers, radii)).max(axis=1)
    exact_cb = sum(sup == vec.sup_value for sup, vec in zip(sups.tolist(), vectors))
    exact_linf = sum(embed_linf(vec, masses).ess_sup == vec.sup_value for vec in vectors)
    ok = exact_cb == trials and exact_linf == trials
    result.rows.append(
        {"trials": trials, "exact_cb": exact_cb, "exact_linf": exact_linf, "ok": ok}
    )
    if not ok:
        result.failures.append({"exact_cb": exact_cb, "exact_linf": exact_linf})
    return result


_SUITES = dict(zip(EXPERIMENT_NAMES, (_cesaro_suite, _sandwich_suite, _isometry_suite)))


def run_experiment(name: str, config: ExperimentConfig) -> ExperimentResult:
    """Run one suite; write JSON and a CSV summary when out_dir is set."""
    if name not in _SUITES:
        raise WbsLabError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    result = _SUITES[name](config)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"{name}.json"
        json_path.write_text(json.dumps(result.to_json(), indent=2, sort_keys=True))
        csv_path = out / f"{name}.csv"
        if result.rows:
            with csv_path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(result.rows[0]))
                writer.writeheader()
                writer.writerows(result.rows)
            result.artifacts.append(str(csv_path))
        result.artifacts.append(str(json_path))
    return result
