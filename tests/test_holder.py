"""Norms, seminorms, bump functions, and the power difference inequality."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbslab.errors import InvalidInputError
from wbslab.holder import (
    ScalarField,
    holder_norm,
    holder_seminorm,
    pair_bump,
    sup_norm,
    tent_bump,
    validate_alpha,
)
from wbslab.metric import FiniteMetricSpace, find_pair_family
from wbslab.samples import harmonic_with_zero, line_grid

from oracles import power_diff_check, restrict_field


def brute_seminorm(f: ScalarField, alpha: float) -> float:
    best = 0.0
    labels = f.space.labels
    for a, b in itertools.combinations(labels, 2):
        best = max(best, abs(f.value_at(a) - f.value_at(b)) / f.space.d(a, b) ** alpha)
    return best


class TestNorms:
    def test_sup_norm(self):
        space = line_grid(2)
        assert sup_norm(ScalarField(space, [0.0, 0.0])) == 0.0
        assert sup_norm(ScalarField(space, [-2.0, 1.0])) == 2.0

    def test_two_point_seminorm(self):
        space = line_grid(2)
        f = ScalarField(space, [0.0, 1.0])
        assert holder_seminorm(f, 1.0) == 1.0
        assert holder_norm(f, 1.0) == 2.0

    def test_constant_field(self):
        space = line_grid(5)
        f = ScalarField(space, [3.0] * 5)
        assert holder_seminorm(f, 0.5) == 0.0
        assert holder_norm(f, 0.5) == 3.0

    def test_singleton_space(self):
        space = FiniteMetricSpace([[0.0]], labels=["only"])
        f = ScalarField(space, [4.0])
        assert holder_seminorm(f, 1.0) == 0.0
        assert holder_norm(f, 1.0) == 4.0

    def test_matches_brute_force_pair_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            space = FiniteMetricSpace.from_points(rng.uniform(0, 5, size=(n, 2)))
            f = ScalarField(space, rng.uniform(-3, 3, size=n))
            alpha = float(rng.uniform(0.1, 1.0))
            assert holder_seminorm(f, alpha) == pytest.approx(
                brute_seminorm(f, alpha), rel=1e-12
            )
            assert sup_norm(f) == max(abs(v) for v in f.values)

    def test_norm_dominates_sup(self):
        rng = np.random.default_rng(4)
        space = line_grid(8)
        for _ in range(10):
            f = ScalarField(space, rng.uniform(-1, 1, size=8))
            assert holder_norm(f, 0.7) >= sup_norm(f)

    def test_alpha_validation(self):
        with pytest.raises(InvalidInputError):
            validate_alpha(0.0)
        with pytest.raises(InvalidInputError):
            validate_alpha(1.5)

    def test_field_validation(self):
        space = line_grid(3)
        with pytest.raises(InvalidInputError):
            ScalarField(space, [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            ScalarField(space, [1.0, float("inf"), 0.0])


class TestRestrictionMonotonicity:
    def test_over_all_subsets(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0, 3.0, 7.0, 8.5])
        f = ScalarField(space, [0.3, -1.2, 2.0, 0.0, 5.0])
        full = holder_seminorm(f, 0.7)
        for r in range(1, len(space) + 1):
            for subset in itertools.combinations(space.labels, r):
                assert holder_seminorm(restrict_field(f, list(subset)), 0.7) <= full + 1e-12


class TestPairBump:
    def test_value_at_center(self):
        space = harmonic_with_zero(10)
        pair = ("inv4", "inv3")
        bump = pair_bump(space, pair, 0.5, 0.5)
        d = space.d(*pair)
        assert bump.value_at("inv3") == min(1.0, d**0.5)

    def test_zero_at_first_point(self):
        # the inner term is nonpositive at x_n whenever K <= 1
        for K in (0.3, 1.0):
            space = line_grid(6)
            bump = pair_bump(space, (space.labels[0], space.labels[1]), K, 0.8)
            assert bump.value_at(space.labels[0]) == 0.0

    def test_unit_interval_midpoint(self):
        space = FiniteMetricSpace.from_points([0.0, 0.5, 1.0], labels=["x", "mid", "y"])
        bump = pair_bump(space, ("x", "y"), 1.0, 1.0)
        assert bump.value_at("mid") == 0.5

    def test_support_is_the_open_ball(self):
        space = harmonic_with_zero(16)
        family = find_pair_family(space, 0.5, 4)
        for pair, radius in zip(family.pairs, family.radii(space)):
            bump = pair_bump(space, pair, family.K, 0.6)
            inside = {
                space.labels[i]
                for i in np.nonzero(space.balls([pair[1]], [radius])[0])[0]
            }
            assert set(bump.support()) == inside

    def test_disjoint_supports_across_a_family(self):
        space = harmonic_with_zero(20)
        family = find_pair_family(space, 0.5, 5)
        supports = [
            set(pair_bump(space, pair, family.K, 0.4).support())
            for pair in family.pairs
        ]
        for a, b in itertools.combinations(supports, 2):
            assert not (a & b)

    def test_seminorm_and_sup_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(6, 25))
            space = FiniteMetricSpace.from_points(rng.uniform(0, 4, size=(n, 2)))
            K = float(rng.uniform(0.2, 1.0))
            try:
                family = find_pair_family(space, K, 2)
            except Exception:
                continue
            alpha = float(rng.uniform(0.2, 1.0))
            for pair in family.pairs:
                bump = pair_bump(space, pair, K, alpha)
                assert holder_seminorm(bump, alpha) <= 1.0 / K**alpha + 1e-12
                assert sup_norm(bump) <= 1.0

    def test_identical_points_rejected(self):
        space = line_grid(3)
        with pytest.raises(InvalidInputError):
            pair_bump(space, (space.labels[0], space.labels[0]), 0.5, 1.0)


class TestTentBump:
    def test_center_value(self):
        space = line_grid(5)
        bump = tent_bump(space, space.labels[2], 1.5)
        assert bump.value_at(space.labels[2]) == 1.0

    def test_vanishes_outside_ball(self):
        space = line_grid(5)
        bump = tent_bump(space, space.labels[0], 2.0)
        assert bump.value_at(space.labels[2]) == 0.0
        assert bump.value_at(space.labels[4]) == 0.0

    def test_midpoint(self):
        space = FiniteMetricSpace.from_points([0.0, 0.5], labels=["c", "m"])
        bump = tent_bump(space, "c", 1.0)
        assert bump.value_at("m") == 0.5

    def test_bad_radius(self):
        space = line_grid(2)
        for epsilon in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidInputError, match="radius must be positive"):
                tent_bump(space, space.labels[0], epsilon)


class TestClampsAreOneLipschitz:
    def test_clamping_never_increases_seminorm(self):
        rng = np.random.default_rng(23)
        space = line_grid(10)
        for _ in range(15):
            f = ScalarField(space, rng.uniform(-2, 2, size=10))
            alpha = float(rng.uniform(0.2, 1.0))
            base = holder_seminorm(f, alpha)
            floored = ScalarField(space, np.maximum(f.values, 0.0))
            capped = ScalarField(space, np.minimum(f.values, 1.0))
            assert holder_seminorm(floored, alpha) <= base + 1e-12
            assert holder_seminorm(capped, alpha) <= base + 1e-12


class TestPowerDiff:
    def test_equal_operands(self):
        assert power_diff_check(3.7, 3.7, 0.5)

    def test_alpha_one_is_equality(self):
        assert power_diff_check(5.0, 2.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            power_diff_check(-1.0, 2.0, 0.5)

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    def test_always_true(self, a, b, alpha):
        assert power_diff_check(a, b, alpha)

    def test_randomized_sweep(self):
        rng = random.Random(8080)
        for _ in range(20000):
            a = rng.uniform(0, 100) ** rng.uniform(0.5, 2)
            b = rng.uniform(0, 100) ** rng.uniform(0.5, 2)
            alpha = rng.uniform(1e-6, 1.0)
            assert power_diff_check(a, b, alpha)
