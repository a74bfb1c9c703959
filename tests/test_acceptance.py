"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact arithmetic
where the mathematics is exact (criteria 1, 2, 7, 8 and the isometries
of 5), 1e-12 absolute slack on the seminorm bound (3), 1e-9 relative
slack on the embedding sandwich (4), and magnitude-scaled 1e-12 slack on
the scalar power inequality (6).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from wbslab.classify import (
    FiniteMeasurePartition,
    cb_rank,
    classify_calpha,
    classify_cb,
    classify_c_of_ordinal,
    classify_linf,
    parse_ordinal,
)
from wbslab.embed import (
    FiniteSequence,
    build_support_map,
    embed_cb,
    embed_linf,
    structured_vectors,
    verify_sandwich,
)
from wbslab.holder import holder_seminorm, pair_bump, sup_norm
from wbslab.metric import find_pair_family
from wbslab.samples import cycle_graph, harmonic_with_zero, line_grid, random_cloud
from wbslab.schreier import SchreierSet, count_max_at_most, get_enumeration
from wbslab.weaknull import SequenceOracle, Subsequence, certify_not_cesaro_null

from oracles import (
    brute_force_schreier,
    derived_set,
    detect_limit_points,
    omega_times,
    power_diff_check,
    triple_is_limit,
)

HALF = Fraction(1, 2)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _instance_battery():
    """Deterministic (space, family, K, alpha) instances; at least 50."""
    spaces = [
        ("line12", line_grid(12)),
        ("line20-fine", line_grid(20, spacing=0.3)),
        ("harmonic18", harmonic_with_zero(18)),
        ("cloud2d", random_cloud(26, 2, seed=101)),
        ("cloud3d", random_cloud(22, 3, seed=202)),
        ("cycle10", cycle_graph(10)),
    ]
    instances = []
    for name, space in spaces:
        for K in (0.25, 0.5, 0.9):
            family = find_pair_family(space, K, target_count=3)
            if not family.pairs:
                continue
            for alpha in (0.3, 0.5, 1.0):
                instances.append((f"{name}/K={K}/a={alpha}", space, family, alpha))
    assert len(instances) >= 50
    return instances


def test_criterion_1_cesaro_certificates():
    """100 seeded subsequences, N in {1,...,32}: exact mean >= 1/2, under 10s."""
    with criterion("1 cesaro-certificates"):
        start = time.monotonic()
        rng = random.Random(20260809)
        subsequences = [
            Subsequence.affine(rng.randint(1, 5), rng.randint(0, 9)) for _ in range(50)
        ] + [
            Subsequence.seeded_increments(rng.randrange(2**31), max_step=3)
            for _ in range(50)
        ]
        oracle = SequenceOracle()
        violations = []
        for sub in subsequences:
            for N in (1, 2, 4, 8, 16, 32):
                cert = certify_not_cesaro_null(sub, N, oracle=oracle)
                assert isinstance(cert.mean, Fraction)
                if not cert.mean >= HALF:
                    violations.append((sub.description, N, cert.mean))
        elapsed = time.monotonic() - start
        assert not violations, violations
        assert elapsed < 10.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_schreier_bijection():
    """Round trips, brute-force agreement, and the Fibonacci recurrence."""
    with criterion("2 schreier-bijection"):
        enum = get_enumeration("canonical")
        for rank in range(1, 10**4 + 1):
            assert enum.rank_of(enum.unrank(rank)) == rank
        rng = random.Random(424242)
        for _ in range(100):
            rank = rng.randrange(10**6, 10**30)
            assert enum.rank_of(enum.unrank(rank)) == rank
        brute = brute_force_schreier(15)
        for elements in brute:
            s = SchreierSet(elements)
            assert enum.unrank(enum.rank_of(s)) == s
        for n in range(1, 16):
            assert count_max_at_most(n) == len(brute_force_schreier(n))
        for n in range(3, 501):
            assert count_max_at_most(n) == count_max_at_most(n - 1) + count_max_at_most(
                n - 2
            )


def test_criterion_3_seminorm_bound():
    """Every bump: seminorm <= 1/K**alpha + 1e-12 and sup <= 1."""
    with criterion("3 seminorm-bound"):
        instances = _instance_battery()
        for name, space, family, alpha in instances:
            bound = 1.0 / family.K**alpha
            for pair in family.pairs:
                bump = pair_bump(space, pair, family.K, alpha)
                seminorm = holder_seminorm(bump, alpha)
                assert seminorm <= bound + 1e-12, (name, pair, seminorm, bound)
                assert sup_norm(bump) <= 1.0, (name, pair)


def test_criterion_4_sandwich():
    """Two-sided embedding bounds, 1e-9 relative slack, failures reported."""
    with criterion("4 sandwich"):
        instances = _instance_battery()
        rng = np.random.default_rng(515151)
        lower_failures = []
        upper_failures = []
        for name, space, family, alpha in instances:
            embedding = build_support_map(space, family, alpha)
            vectors = structured_vectors(len(family)) + [
                FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=len(family))))
                for _ in range(20)
            ]
            for vec in vectors:
                if vec.sup_value == 0:
                    continue
                check = verify_sandwich([vec], embedding)[0]
                if not check.lower_ok:
                    lower_failures.append((name, vec.to_json(), check.to_json()))
                if not check.upper_ok:
                    upper_failures.append((name, vec.to_json(), check.to_json()))
        # a lower-bound failure on a finite space would be a finding worth
        # reporting verbatim, never a tolerated flake
        assert not lower_failures, f"lower bound failed: {lower_failures[:3]}"
        assert not upper_failures, f"upper bound failed: {upper_failures[:3]}"


def test_criterion_5_isometries():
    """Tent-sum and indicator-sum embeddings reproduce sup norms exactly."""
    with criterion("5 isometries"):
        space = line_grid(14)
        centers = list(space.labels[:7])
        radii = [0.45] * 7
        rng = np.random.default_rng(616161)
        masses = list(rng.uniform(0.05, 9.0, size=7))
        for _ in range(1000):
            vec = FiniteSequence(tuple(rng.integers(-1024, 1025, size=7) / 256.0))
            assert sup_norm(embed_cb(vec, space, centers, radii)) == vec.sup_value
        for _ in range(1000):
            vec = FiniteSequence(tuple(rng.integers(-1024, 1025, size=7) / 256.0))
            assert embed_linf(vec, masses).ess_sup == vec.sup_value


def test_criterion_6_power_inequality():
    """|a**t - b**t| <= |a - b|**t on 1e5 random triples."""
    with criterion("6 power-inequality"):
        rng = random.Random(717171)
        for _ in range(10**5):
            a = rng.uniform(0.0, 50.0) ** rng.uniform(0.5, 2.0)
            b = rng.uniform(0.0, 50.0) ** rng.uniform(0.5, 2.0)
            alpha = rng.uniform(1e-9, 1.0)
            assert power_diff_check(a, b, alpha), (a, b, alpha)


def test_criterion_7_cantor_bendixson():
    """Derived sets vs the rational limit oracle, rank value, verdict table."""
    with criterion("7 cantor-bendixson"):
        # symbolic rule against the literal point-set computation
        for c2 in range(4):
            for c1 in range(4):
                for c0 in range(4):
                    triple = (c2, c1, c0)
                    if triple == (0, 0, 0):
                        continue
                    parts = []
                    if c2:
                        parts.append(f"w^2*{c2}")
                    if c1:
                        parts.append(f"w*{c1}")
                    if c0:
                        parts.append(str(c0))
                    o = parse_ordinal(" + ".join(parts))
                    detected, shallow = detect_limit_points(triple)
                    assert detected == {t for t in shallow if triple_is_limit(t)}
                    derived = derived_set(o)
                    if derived.is_zero:
                        assert not detected
                    else:
                        coeffs = [0, 0, 0]
                        for e, c in derived.terms:
                            coeffs[2 - e.as_int()] = c
                        assert coeffs[0] == 0
                        assert max(detected) == omega_times((0, coeffs[1], coeffs[2]))

        assert cb_rank(parse_ordinal("w^2*3 + w*2 + 5")) == 3

        table = [
            (classify_calpha(1), True),
            (classify_calpha(10), True),
            (classify_calpha(math.inf), False),
            (classify_c_of_ordinal(parse_ordinal("5")), True),
            (classify_c_of_ordinal(parse_ordinal("w*3")), True),
            (classify_c_of_ordinal(parse_ordinal("w^2")), True),
            (classify_c_of_ordinal(parse_ordinal("w^w")), False),
            (classify_cb(ordinal=parse_ordinal("w*2")), True),
            (classify_cb(assume="noncompact"), False),
            (classify_linf(FiniteMeasurePartition((1.0,), True)), True),
            (classify_linf(FiniteMeasurePartition((1.0, 2.0, 3.0), True)), True),
            (classify_linf(FiniteMeasurePartition((1.0, 2.0), False)), False),
        ]
        assert len(table) == 12
        for verdict, expected in table:
            assert verdict.wbs is expected, verdict


def test_criterion_8_coordinatewise_nullity():
    """entry(k, i) == 0 for 1000 indices past each threshold, i <= 1e4."""
    with criterion("8 coordinatewise-nullity"):
        oracle = SequenceOracle()
        for i in range(1, 10**4 + 1):
            members = oracle.coordinate_set(i)
            threshold = max(members)
            assert members.isdisjoint(range(threshold + 1, threshold + 1001)), i
        # spot-check the public entry operation on a sample of coordinates
        rng = random.Random(818181)
        for i in rng.sample(range(1, 10**4 + 1), 50):
            threshold = oracle.coordinatewise_null_check(i)
            for k in range(threshold + 1, threshold + 1001):
                assert oracle.entry(k, i) == 0
