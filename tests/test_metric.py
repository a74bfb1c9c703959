"""Metric validation, pair families, and the greedy finder."""

import contextlib
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbslab.errors import InvalidInputError
from wbslab.metric import (
    _PREFIX,
    _best_detours,
    FiniteMetricSpace,
    SeparatedPairFamily,
    ValidationReport,
    find_pair_family,
    load_space,
    validate_metric,
    verify_pair_family,
)
from wbslab.samples import cycle_graph, harmonic_with_zero, line_grid, random_cloud
from wbslab import metric, tolerances
from wbslab.tolerances import DEFAULT_TOLERANCES, Tolerances

from oracles import (
    brute_force_pair_family_ok,
    reference_find_pair_family,
    reference_point_distances,
    reference_validate_metric,
    reference_verify_pair_family,
    restrict_space,
)


def unvalidated_space(dist) -> FiniteMetricSpace:
    """A space on a matrix that need not be a metric, with its metric check patched to pass it."""
    with mock.patch.object(metric, "_check_metric", lambda *_: ValidationReport()):
        return FiniteMetricSpace(dist)


class TestValidation:
    def test_line_is_valid(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0, 2.0])
        assert validate_metric(space.dist, space.labels).ok

    def test_triangle_violation_reported(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        kinds = {v.kind for v in report.violations}
        assert kinds == {"triangle"}
        assert report.violations[0].points == ("p0", "p1", "p2")

    def test_symmetry_and_diagonal(self):
        report = validate_metric([[0.5, 1.0], [2.0, 0.0]])
        kinds = {v.kind for v in report.violations}
        assert "diagonal" in kinds and "symmetry" in kinds

    def test_positivity(self):
        report = validate_metric([[0, 0], [0, 0]])
        assert any(v.kind == "positivity" for v in report.violations)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            validate_metric([[0, 1]])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            validate_metric([[0, float("nan")], [float("nan"), 0]])

    def test_inf_rejected(self):
        # inf - inf under the min-plus bound is NaN, which no test can flag
        inf = float("inf")
        for dist in ([[0, inf], [inf, 0]], [[0, 1, inf], [1, 0, 1], [1, 1, 0]]):
            with pytest.raises(InvalidInputError, match="infinite"):
                validate_metric(dist)
            with pytest.raises(InvalidInputError, match="infinite"):
                FiniteMetricSpace(dist)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_euclidean_clouds_always_valid(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(n, dim))
        # merge near-duplicate points so positivity holds by construction
        pts = np.unique(np.round(pts, 6), axis=0)
        if len(pts) < 2:
            return
        space = FiniteMetricSpace.from_points(pts)
        assert validate_metric(space.dist, space.labels).ok

    def test_constructor_rejects_invalid(self):
        with pytest.raises(InvalidInputError):
            FiniteMetricSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_a_space_prepares_its_input_once(self):
        prepare = mock.Mock(wraps=metric._metric_input)
        with mock.patch.object(metric, "_metric_input", prepare):
            space = FiniteMetricSpace.from_points([[0.0, 0.0], [3.0, 4.0], [6.0, 0.0]])
            assert prepare.call_count == 1
            assert validate_metric(space.dist).ok and prepare.call_count == 2


class TestSpaceBasics:
    def test_restrict_full_is_identity(self):
        space = line_grid(4)
        again = restrict_space(space, space.labels)
        assert again.labels == space.labels
        assert np.array_equal(again.dist, space.dist)

    def test_restrict_to_two_points(self):
        space = FiniteMetricSpace.from_points([0.0, 1.0, 2.0], labels=["a", "b", "c"])
        sub = restrict_space(space, ["a", "c"])
        assert sub.labels == ("a", "c")
        assert sub.d("a", "c") == 2.0

    def test_unknown_label(self):
        space = line_grid(3)
        with pytest.raises(InvalidInputError):
            space.d("nope", space.labels[0])
        with pytest.raises(InvalidInputError):
            restrict_space(space, ["nope"])

    def test_load_space_formats(self, tmp_path):
        by_points = load_space({"points": [[0.0], [1.0]], "metric": "euclidean"})
        assert by_points.d(*by_points.labels) == 1.0
        by_matrix = load_space({"matrix": [[0, 2], [2, 0]], "labels": ["u", "v"]})
        assert by_matrix.d("u", "v") == 2.0
        path = tmp_path / "space.json"
        path.write_text('{"matrix": [[0, 1], [1, 0]]}')
        assert len(load_space(path)) == 2
        with pytest.raises(InvalidInputError):
            load_space({"rows": []})


class TestVerifyPairFamily:
    def test_harmonic_pairs(self):
        # pairs (1/(2n), 1/(2n-1)) leave each tiny ball holding only its center
        space = harmonic_with_zero(20)
        pairs = tuple((f"inv{2 * n}", f"inv{2 * n - 1}") for n in range(1, 11))
        family = SeparatedPairFamily(pairs, 0.25)
        report = verify_pair_family(space, family)
        assert report.ok
        assert brute_force_pair_family_ok(space, family)

    def test_single_pair_any_K(self):
        space = line_grid(2)
        for K in (0.1, 0.5, 1.0):
            family = SeparatedPairFamily(((space.labels[0], space.labels[1]),), K)
            assert verify_pair_family(space, family).ok

    def test_K_above_one_rejected(self):
        with pytest.raises(InvalidInputError):
            SeparatedPairFamily((("a", "b"),), 1.5)
        with pytest.raises(InvalidInputError):
            SeparatedPairFamily((("a", "b"),), 0.0)

    def test_boolean_K_rejected(self):
        # True would compare as 1 and print as "K": true
        with pytest.raises(InvalidInputError, match="got JSON boolean"):
            SeparatedPairFamily((("a", "b"),), True)

    def test_violations_are_listed(self):
        space = line_grid(4)
        # second ball of radius 0.9 swallows the first pair's x-point
        family = SeparatedPairFamily(
            ((space.labels[0], space.labels[1]), (space.labels[3], space.labels[2])), 0.9
        )
        report = verify_pair_family(space, family)
        assert report.ok == brute_force_pair_family_ok(space, family)

    def test_agrees_with_brute_force_on_random_families(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(4, 10))
            space = FiniteMetricSpace.from_points(rng.uniform(0, 10, size=(n, 2)))
            count = int(rng.integers(1, 3))
            idx = rng.choice(n, size=2 * count, replace=False)
            pairs = tuple(
                (space.labels[idx[2 * i]], space.labels[idx[2 * i + 1]])
                for i in range(count)
            )
            family = SeparatedPairFamily(pairs, float(rng.uniform(0.1, 1.0)))
            assert verify_pair_family(space, family).ok == brute_force_pair_family_ok(
                space, family
            )

    def test_distinctness_checked(self):
        space = line_grid(3)
        family = SeparatedPairFamily(((space.labels[0], space.labels[0]),), 0.5)
        report = verify_pair_family(space, family)
        assert not report.ok
        assert any(v["condition"] == "distinct" for v in report.violations)

    def test_unknown_labels(self):
        space = line_grid(3)
        with pytest.raises(InvalidInputError):
            verify_pair_family(space, SeparatedPairFamily((("x", "y"),), 0.5))


class TestVerifyMatchesReference:
    """The gathered separation test against the per-pair loop it replaced."""

    @staticmethod
    def outcome(verify, space, family):
        try:
            return verify(space, family).to_json()
        except InvalidInputError as exc:
            return ("error", str(exc))

    def test_same_report_on_random_families(self):
        rng = np.random.default_rng(47)
        for trial in range(150):
            n = int(rng.integers(3, 14))
            if trial % 3 == 0:  # ties: many equal distances on a grid
                space = line_grid(n)
            elif trial % 3 == 1:  # d(x, y) != d(y, x): which entry is read shows
                space = unvalidated_space(rng.uniform(0.5, 10, size=(n, n)) * (1 - np.eye(n)))
            else:
                space = FiniteMetricSpace.from_points(rng.uniform(0, 10, size=(n, 2)))
            labels = list(space.labels) + ["nowhere", "elsewhere"]
            count = int(rng.integers(0, 7))
            # labels drawn with replacement: repeated points, x == y pairs,
            # and now and then a label the space does not have
            weights = np.r_[np.full(n, 1.0), 0.1, 0.1] if trial % 4 == 0 else np.r_[np.ones(n), 0, 0]
            draw = rng.choice(len(labels), size=(count, 2), p=weights / weights.sum())
            pairs = tuple((labels[a], labels[b]) for a, b in draw)
            family = SeparatedPairFamily(pairs, float(rng.uniform(0.05, 1.0)))
            expected = self.outcome(reference_verify_pair_family, space, family)
            assert self.outcome(verify_pair_family, space, family) == expected
            assert json.dumps(expected)  # plain floats and ints only

    def test_violating_family_lists_every_separation_failure(self):
        space = line_grid(6)
        labels = space.labels
        # B(p2, 2) holds x-points p1 and p3, B(p5, 4) holds p3
        family = SeparatedPairFamily(
            ((labels[0], labels[2]), (labels[1], labels[5]), (labels[3], labels[4])), 1.0
        )
        report = verify_pair_family(space, family)
        assert report.to_json() == reference_verify_pair_family(space, family).to_json()
        separation = [(v["pair"], v["other"]) for v in report.violations if v["condition"] == "separation"]
        assert separation == [(0, 1), (0, 2), (1, 2)]
        assert report.violations[0]["detail"] == "d(p1, p2) = 1.0 < 2.0"
        assert "np." not in json.dumps(report.to_json())

    def test_first_unknown_label_in_pair_order(self):
        space = line_grid(3)
        family = SeparatedPairFamily(((space.labels[0], "ghost"), ("phantom", space.labels[1])), 0.5)
        with pytest.raises(InvalidInputError, match="ghost"):
            verify_pair_family(space, family)

    def test_empty_family(self):
        assert verify_pair_family(line_grid(3), SeparatedPairFamily((), 0.5)).to_json() == {
            "ok": True,
            "violations": [],
        }


class TestFindPairFamily:
    def test_line_grid_yields_adjacent_groupings(self):
        space = line_grid(10)
        family = find_pair_family(space, 0.25, 4)
        assert len(family) >= 4
        assert verify_pair_family(space, family).ok

    def test_two_point_space(self):
        space = line_grid(2)
        family = find_pair_family(space, 1.0, 1)
        assert family.pairs == ((space.labels[0], space.labels[1]),)

    def test_pigeonhole_failure(self):
        space = line_grid(10)
        family = find_pair_family(space, 0.25, 6)
        assert len(family) == 5
        assert verify_pair_family(space, family).ok

    def test_finder_is_self_certifying(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            space = FiniteMetricSpace.from_points(rng.uniform(0, 10, size=(n, 2)))
            family = find_pair_family(space, float(rng.uniform(0.2, 1.0)), 2)
            report = verify_pair_family(space, family)
            assert report.ok, report.violations

    def test_deterministic(self):
        space = harmonic_with_zero(15)
        a = find_pair_family(space, 0.5, 3)
        b = find_pair_family(space, 0.5, 3)
        assert a == b

    def test_every_point_in_at_most_one_ball(self):
        space = harmonic_with_zero(12)
        family = find_pair_family(space, 0.5, 3)
        radii = family.radii(space)
        counts = space.balls([y for _, y in family.pairs], radii).sum(axis=0)
        assert counts.max() <= 1

    def test_bad_arguments(self):
        space = line_grid(4)
        with pytest.raises(InvalidInputError):
            find_pair_family(space, 1.5, 1)
        with pytest.raises(InvalidInputError):
            find_pair_family(space, 0.5, 0)


# ---- differential tests against the original loop implementations -------------

CAPS = (1, 3, 50, 10**9)
EPS = (0.0, 1e-10, -1e-10, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-8, -1e-8)


def same_report(dist, max_reported, triangle_rel=DEFAULT_TOLERANCES.triangle_rel):
    """Both checks under one triangle slack, patched into the pinned record."""
    with mock.patch.object(tolerances, "DEFAULT_TOLERANCES", Tolerances(triangle_rel=triangle_rel)):
        got = validate_metric(dist, max_reported=max_reported)
        want = reference_validate_metric(dist, max_reported=max_reported)
    assert got.to_json() == want.to_json()
    return got


class TestValidateMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=11),
        st.sampled_from((1e-3, 0.05, 0.4, 1.0, 7.0, 1e3)),
        st.data(),
    )
    def test_near_boundary_collinear(self, coords, scale, data):
        # collinear points make many triangles tight; perturbations of
        # 1e-10..1e-8 land on both sides of the 1e-9 slack, and at
        # sub-unit scales max(bound, 1) = 1 is the binding term
        pts = np.array(coords, dtype=float) * scale
        dist = np.abs(pts[:, None] - pts[None, :])
        n = len(pts)
        eps = np.array(data.draw(st.lists(st.sampled_from(EPS), min_size=n * n, max_size=n * n)))
        if data.draw(st.booleans(), label="absolute"):
            dist += eps.reshape(n, n)
        else:
            dist *= 1.0 + eps.reshape(n, n)
        if data.draw(st.booleans(), label="symmetric"):
            dist = np.triu(dist) + np.triu(dist, 1).T
        rel = data.draw(st.sampled_from((1e-9, 0.0, 1e-6)), label="triangle_rel")
        same_report(dist, data.draw(st.sampled_from(CAPS), label="cap"), rel)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 9),
        st.integers(0, 10**6),
        st.lists(
            st.tuples(
                st.integers(0, 8),
                st.integers(0, 8),
                st.sampled_from((0.0, -1.0, -1e-12, 1e-10, 2e-9, 0.5, 3.0, 40.0)),
            ),
            max_size=6,
        ),
        st.sampled_from(CAPS),
    )
    def test_broken_axioms(self, n, seed, edits, cap):
        # single-entry edits break the diagonal, symmetry and positivity
        # and often create triangle violations too
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        for i, j, value in edits:
            dist[i % n, j % n] = value
        same_report(dist, cap)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(CAPS))
    def test_planted_long_pairs(self, n, seed, plants, cap):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        for _ in range(plants):
            i, j = rng.choice(n, size=2, replace=False)
            dist[i, j] = dist[j, i] = 3.0 * dist.max()
        report = same_report(dist, cap)
        assert 0 < len(report.violations) <= cap

    def test_planted_report_is_capped_at_fifty(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 10.0, size=(60, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        dist[4, 9] = dist[9, 4] = 100.0
        report = same_report(dist, 50)
        assert len(report.violations) == 50
        assert report.checked_triples == 60**3

    @pytest.mark.parametrize(
        "dist",
        [
            [[0.0]],
            [[0.5]],
            [[0.0, 1.0], [1.0, 0.0]],
            [[0.0, 1.0], [2.0, -1.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            [[0.0, 1.0, 2.0 + 1e-8], [1.0, 0.0, 1.0], [2.0 + 1e-8, 1.0, 0.0]],
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]],
            [[1.0, 3.0, 0.0], [-2.0, 0.0, 1.0], [9.0, 1.0, 0.0]],
        ],
    )
    def test_one_two_and_three_points(self, dist):
        for cap in CAPS:
            same_report(dist, cap)
            same_report(dist, cap, triangle_rel=0.0)

    def test_planted_eighty_points(self):
        rng = np.random.default_rng(80)
        pts = rng.uniform(0.0, 10.0, size=(80, 3))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        assert same_report(dist, 50).ok  # no pair fails the min test: the rescan is skipped
        for i, j in ((0, 79), (3, 41), (41, 3), (60, 61)):
            dist[i, j] = 2.5 * dist.max()
        for cap in CAPS:
            report = same_report(dist, cap)
            assert 0 < len(report.violations) <= cap

    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0, -4.0, 0.0])
    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("upper", [True, False])
    def test_asymmetry_around_the_slack(self, a, step, upper):
        # |a - b| just below, at and just above rel * max(|a|, 1) for the
        # upper entry a, with rel = 2**-30 so that every difference is exact
        rel = 2.0**-30
        b = a + step * rel * max(abs(a), 1.0)
        dist = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
        dist[0, 2], dist[2, 0] = (a, b) if upper else (b, a)
        report = same_report(dist, 50, triangle_rel=rel)
        fails = abs(a - b) > rel * max(abs(float(dist[0, 2])), 1.0)  # below a, the slack scales with b
        assert any(v.kind == "symmetry" for v in report.violations) is fails
        assert fails is (step > 1.0) or not upper

    @pytest.mark.parametrize(
        "dist",
        [
            [[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, -0.0]],  # mirrored signed zeros
            [[-0.0, -0.0, 2.0], [0.0, 0.0, -0.0], [2.0, 0.0, 0.0]],
            [[0.0, -1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],  # negative entries, mirrored or not
            [[0.0, -1.0, -2.0, 1.0], [1.0, 0.0, -3.0, 2.0], [-2.0, -3.0, 0.0, -1.0], [1.0, 2.0, -1.0, 0.0]],
            [[0.0, 2.0, 9.0, 1.0], [3.0, 0.0, 1.0, 1.0], [9.0, 1.0, 0.0, 5.0], [1.0, 2.0, 5.0, 0.0]],  # int16
            [[0.0, 8191.0, -8191.0], [8191.0, 0.0, 1.0], [8191.0, 1.0, 0.0]],
        ],
    )
    def test_signed_zero_negative_and_integer_entries(self, dist):
        for cap in CAPS:
            same_report(dist, cap)
            same_report(dist, cap, triangle_rel=0.0)

    @pytest.mark.parametrize("cap", [1, 3, 50])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_cheap_stages_around_the_cap(self, cap, extra):
        # cap + extra diagonal, symmetry and positivity violations ahead
        # of a planted long pair: only extra = -1 leaves room for a
        # triangle, and a full report never reaches the detour pass
        n = 60
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        dist[0, n - 1] = dist[n - 1, 0] = 10.0 * n
        for t in range(cap + extra):
            p = t + 1
            if t % 3 == 0:
                dist[p, p] = 0.5
            elif t % 3 == 1:
                dist[p, p + 1] += 0.5
            else:
                dist[p, p + 2] = dist[p + 2, p] = 0.0
        skipped = mock.patch.object(metric, "_best_detours", side_effect=AssertionError("detour pass ran"))
        with skipped if extra >= 0 else contextlib.nullcontext():
            report = same_report(dist, cap)
        assert len(report.violations) == cap
        assert (report.violations[-1].kind == "triangle") is (extra == -1)


class TestLazyStages:
    """A report filled by the cheap stages never runs the O(n^3) detour pass."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(60)
        asymmetric = rng.uniform(1.0, 2.0, size=(60, 60))
        np.fill_diagonal(asymmetric, 0.0)
        diagonal = np.abs(np.subtract.outer(np.arange(60.0), np.arange(60.0))) + np.eye(60)
        duplicates = metric._point_distances([[0.25, 4.0]] * 60)
        return {"asymmetric": asymmetric, "duplicates": duplicates, "diagonal": diagonal}

    @pytest.mark.parametrize("name", ["asymmetric", "duplicates", "diagonal"])
    def test_full_report_skips_the_detour_pass(self, name):
        dist = self.inputs()[name]
        want = reference_validate_metric(dist)
        first = want.violations[0]
        message = f"not a metric: 50+ violation(s), first: {first.kind} at {first.points} ({first.detail})"
        with mock.patch.object(metric, "_best_detours", side_effect=AssertionError("detour pass ran")):
            assert validate_metric(dist).to_json() == want.to_json()
            with pytest.raises(InvalidInputError) as info:
                FiniteMetricSpace(dist)
            assert str(info.value) == message
            with pytest.raises(AssertionError, match="detour pass ran"):
                validate_metric(dist, max_reported=10**9)
        assert len(want.violations) == 50 and want.checked_triples == 60**3

    @pytest.mark.parametrize("name", ["asymmetric", "duplicates"])
    def test_full_report_holds_only_masks(self, name):
        # symmetry and positivity keep one n x n bool mask each and walk
        # its rows until the report is full: no float temporaries, no
        # list of every failing index pair
        dist = np.kron(self.inputs()[name], np.ones((5, 5)))  # 300 points
        if name == "asymmetric":
            dist += np.arange(300.0) * 1e-6
        np.fill_diagonal(dist, 0.0)
        want = reference_validate_metric(dist)
        tracemalloc.start()
        try:
            got = validate_metric(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.to_json() == want.to_json() and len(got.violations) == 50
        assert peak < 2.5 * dist.size  # bytes: the 8-byte floats would need 8 per entry

    @pytest.mark.parametrize(
        "cap, message",
        [
            (0, "max_reported must be >= 1, got 0"),
            (-3, "max_reported must be >= 1, got -3"),
            (True, "expected a decimal integer, got JSON boolean"),
            (2.0, "expected a decimal integer, got JSON number"),
        ],
    )
    def test_cap_is_a_count(self, cap, message):
        # a cap of 0 or below reported a non-metric as ok; True was read as 1
        with pytest.raises(InvalidInputError) as info:
            validate_metric([[0, 1], [2, 0]], max_reported=cap)
        assert str(info.value) == message

    def test_cap_past_the_violations(self):
        report = validate_metric([[0, 1], [2, 0]], max_reported=10**21)
        assert [v.kind for v in report.violations] == ["symmetry"]


@pytest.mark.filterwarnings("error")
class TestNoOverflowWarnings:
    """Entries near the float range answer as before, with no numpy warning."""

    @pytest.mark.parametrize(
        "points, kind",
        [
            ([[1e200], [-1e200]], "euclidean"),
            ([[1e308], [-1e308]], "linf"),
            ([[1e200] + [0.0] * 7, [-1e200] + [0.0] * 7], "euclidean"),
            ([[1e308] + [0.0] * 8, [-1e308] + [0.0] * 8], "l1"),
            ([[np.inf], [0.0]], "euclidean"),
            ([[np.inf] * 8, [np.inf] * 8], "linf"),
        ],
    )
    def test_points_past_the_float_range_are_refused(self, points, kind):
        with np.errstate(all="ignore"):
            want = reference_point_distances(np.array(points), kind)
        assert metric._point_distances(points, kind).tobytes() == want.tobytes()
        with pytest.raises(InvalidInputError, match="NaN|infinite"):
            FiniteMetricSpace.from_points(points, kind)

    @pytest.mark.parametrize(
        "dist",
        [
            [[0.0, 1e308, 1.7e308], [1e308, 0.0, 1e308], [1.7e308, 1e308, 0.0]],  # detours past the range
            [[0.0, 1e308], [-1e308, 0.0]],  # d_ij - d_ji past the range
            [[0.0, 1e308, -7.5e307], [1.0, 0.0, 1.0], [1.0, -7.5e307, 0.0]],  # d - best past the range
            # a failing pair (p0, p1) whose rescan through p3 overflows
            [[0.0, 100.0, 1.0, 1e308], [100.0, 0.0, 1.0, 1e308], [1.0, 1.0, 0.0, 1e308], [1e308] * 3 + [0.0]],
            # detours of -inf: d - (-inf) = inf fails, as d > -inf does
            [[0.0, -1e308, -1.7e308], [-1e308, 0.0, -1e308], [-1.7e308, -1e308, 0.0]],
            [[0.0, 1e308, -1e308, 5.0], [1e308, 0.0, -1e308, 1e308], [-1e308, -1e308, 0.0, 1.0], [5.0, 1e308, 1.0, 0.0]],
        ],
    )
    @pytest.mark.parametrize("rel", [DEFAULT_TOLERANCES.triangle_rel, 0.0])
    def test_matrices_near_the_float_range(self, dist, rel):
        with mock.patch.object(tolerances, "DEFAULT_TOLERANCES", Tolerances(triangle_rel=rel)):
            with np.errstate(all="ignore"):
                want = reference_validate_metric(dist, max_reported=10**9)
            assert validate_metric(dist, max_reported=10**9).to_json() == want.to_json()


ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 3.0)),
    st.floats(-4.0, 4.0, allow_nan=False),
)


def assert_best_detours(dist):
    """The upper triangle against a brute-force min, bit for bit.

    Where several sums tie at the minimum the kernel may return any one
    of them, so zeros of either sign are matched against the candidates.
    """
    dist = np.array(dist, dtype=float)
    n = len(dist)
    best = _best_detours(dist)
    assert best.shape == (n, n)
    assert np.all(best[np.tril_indices(n)] == np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            sums = [dist[i, k] + dist[k, j] for k in range(n) if k not in (i, j)]
            low = min(sums, default=np.inf)
            bits = {np.float64(s).tobytes() for s in sums if s == low} or {np.float64(low).tobytes()}
            assert best[i, j].tobytes() in bits, (i, j, best[i, j], low)


class TestBestDetours:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_matches_brute_force(self, n, data):
        # asymmetric entries, negative and -0.0 diagonals and ties make
        # a kernel that keeps k = i or k = j in the min observable
        dist = np.array(data.draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        assert_best_detours(dist)

    def test_reads_d_kj_not_d_jk(self):
        # only the detour through p2 read as d_02 + d_21 breaks d_01; the
        # mirror entry d_12 is long, so a kernel reading row j misses it
        dist = [[0.0, 10.0, 1.0], [10.0, 0.0, 9.5], [1.0, 1.0, 0.0]]
        assert_best_detours(dist)
        assert _best_detours(np.array(dist))[0, 1] == 2.0
        report = same_report(dist, 50)
        triangles = [v for v in report.violations if v.kind == "triangle"]
        assert [v.points for v in triangles] == [("p0", "p2", "p1")]

    def test_diagonal_never_counts_as_a_detour(self):
        # d_ii + d_ij and d_ij + d_jj undercut every real detour
        dist = [[-5.0, 3.0, 4.0], [3.0, -0.0, 4.0], [4.0, 4.0, -5.0]]
        assert_best_detours(dist)
        assert _best_detours(np.array(dist))[0, 1] == 8.0


# entries on both sides of the int16 bound, 2**13
EDGES = tuple(float(sign * v) for v in (metric._NARROW_BOUND - 1, metric._NARROW_BOUND) for sign in (1, -1))
INTEGRAL = st.one_of(st.integers(-9, 9).map(float), st.sampled_from(EDGES))


def shuffled_grid(kind: str, n: int, seed: int) -> np.ndarray:
    """A line grid or an n-cycle on shuffled labels: integer distances, many ties."""
    at = np.random.default_rng(seed).permutation(n)
    gap = np.abs(at[:, None] - at[None, :]).astype(float)
    return gap if kind == "line" else np.minimum(gap, n - gap)


class TestNarrowDetours:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_matches_brute_force(self, n, data):
        # integral matrices take the int16 pass; one non-integral, -0.0
        # or out-of-bound entry sends the whole matrix to float64
        dist = np.array(data.draw(st.lists(INTEGRAL, min_size=n * n, max_size=n * n))).reshape(n, n)
        if data.draw(st.booleans(), label="odd entry"):
            odd = data.draw(st.sampled_from((-0.0, 0.5, -2.25, 1e-9, 3e4)), label="value")
            dist.flat[data.draw(st.integers(0, n * n - 1), label="at")] = odd
        assert_best_detours(dist)

    @pytest.mark.parametrize(
        "entries, narrow",
        [
            ([[8191.0, -8191.0], [0.0, 2.0]], True),
            ([[8192.0, 0.0], [0.0, 0.0]], False),
            ([[-8192.0, 0.0], [0.0, 0.0]], False),
            ([[0.0, -0.0], [1.0, 0.0]], False),
            ([[0.0, 0.5], [1.0, 0.0]], False),
            ([[0.0, np.inf], [1.0, 0.0]], False),
            ([[0.0, np.nan], [1.0, 0.0]], False),
            ([[0.5, 1.0], [1.0, 0.0]], False),  # the first row ends the check
            ([[0.0, 1.0], [1.5, 0.0]], False),  # a later row does
            ([[0.0, 1.0], [1.0, 9000.0]], False),
            (np.zeros((0, 0)), True),
        ],
    )
    def test_int16_rule(self, entries, narrow):
        assert (metric._as_int16(np.array(entries)) is not None) is narrow

    @pytest.mark.parametrize("value", [8191.0, -8191.0])
    def test_sums_at_the_int16_bound(self, value):
        # 2 * 8191 = 2**14 - 2, the largest sum in size, stays a sum and not "no k"
        dist = np.full((4, 4), value)
        assert metric._as_int16(dist) is not None
        best = _best_detours(dist)
        assert best[0, 1] == 2 * value and best.dtype == np.float64
        assert_best_detours(dist)
        assert np.all(_best_detours(dist[:2, :2]) == np.inf)

    @pytest.mark.parametrize("kind", ["line", "cycle"])
    @pytest.mark.parametrize("plant", [40.0, 5000.5, 9000.0])
    def test_validate_grids_against_reference(self, kind, plant):
        # 300 shuffled points with planted long pairs: an integral plant
        # keeps the int16 pass, 5000.5 and 9000 (past 2**13) do not
        dist = shuffled_grid(kind, 300, seed=int(plant))
        rng = np.random.default_rng(300)
        for _ in range(4):
            i, j = rng.choice(300, size=2, replace=False)
            dist[i, j] = dist[j, i] = dist.max() + plant
        assert (metric._as_int16(dist) is not None) is (plant == 40.0)
        for cap in (3, 50):
            report = same_report(dist, cap)
            assert 0 < len(report.violations) <= cap
        assert same_report(shuffled_grid(kind, 300, seed=1), 50).ok


class TestPointDistances:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("kind", ["euclidean", "l1", "linf"])
    def test_matches_the_broadcast_formula(self, dim, kind):
        # bit for bit, signs of zero included: numpy sums fewer than
        # eight coordinates in order, as the per-coordinate table does,
        # and eight or more keep the difference array
        rng = np.random.default_rng(dim)
        for n in (0, 1, 5, 60):
            pts = rng.uniform(-5.0, 5.0, size=(n, dim)) * rng.choice([1e-3, 1.0, 1e6], size=(1, dim))
            pts[::3] = np.round(pts[::3])
            pts[1::4] = -0.0
            got, want = metric._point_distances(pts, kind), reference_point_distances(pts, kind)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_flat_points_and_unknown_metric(self):
        assert metric._point_distances([0.0, 2.0, -1.0], "l1").tolist() == [[0, 2, 1], [2, 0, 3], [1, 3, 0]]
        with pytest.raises(InvalidInputError, match="unknown metric 'l2'"):
            metric._point_distances([[0.0, 1.0]], "l2")


def l1_lattice(a: int, b: int, seed: int) -> FiniteMetricSpace:
    """Integer points of an a x b box under l1, in a shuffled label order."""
    pts = np.array([(i, j) for i in range(a) for j in range(b)], dtype=float)
    return FiniteMetricSpace.from_points(np.random.default_rng(seed).permutation(pts), metric="l1")


TIE_HEAVY = {
    "line": lambda n: line_grid(n),
    "cycle": lambda n: cycle_graph(n),
    "lattice": lambda n: l1_lattice(2 + n % 3, 2 + n // 3, n),
}


class TestFindMatchesReference:
    @pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
    @pytest.mark.parametrize("K", (0.1, 0.25, 0.5, 1.0))
    def test_tie_heavy_spaces_all_counts(self, kind, K):
        outcomes = set()
        for n in (3, 6, 11):
            space = TIE_HEAVY[kind](n)
            for count in range(1, len(space) // 2 + 2):
                got = find_pair_family(space, K, count).to_json()
                assert got == reference_find_pair_family(space, K, count).to_json()
                outcomes.add(len(got["pairs"]) == count)
        assert outcomes == {True, False}

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(TIE_HEAVY) + ["euclidean", "linf"]),
        st.integers(2, 22),
        st.sampled_from((0.1, 0.25, 0.5, 1.0)),
        st.integers(1, 12),
        st.integers(0, 10**6),
    )
    def test_random_spaces(self, kind, n, K, count, seed):
        if kind in TIE_HEAVY:
            space = TIE_HEAVY[kind](n)
        else:
            rng = np.random.default_rng(seed)
            space = FiniteMetricSpace.from_points(rng.uniform(0, 10, size=(n, 2)), metric=kind)
        got = find_pair_family(space, K, count).to_json()
        assert got == reference_find_pair_family(space, K, count).to_json()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(3, 11),
        st.integers(0, 10**6),
        st.booleans(),
        st.sampled_from((0.1, 0.25, 0.5, 1.0)),
        st.integers(1, 6),
    )
    def test_unvalidated_integer_matrices(self, n, seed, symmetric, K, count):
        # small integer entries tie often, and without the metric axioms
        # (some points even lie outside their own balls) each condition
        # and each orientation of the matrix can decide
        rng = np.random.default_rng(seed)
        dist = rng.integers(1, 5, size=(n, n)).astype(float)
        if symmetric:
            dist = np.triu(dist, 1) + np.triu(dist, 1).T
        np.fill_diagonal(dist, rng.choice((0.0, 9.0), size=n, p=(0.7, 0.3)))
        space = unvalidated_space(dist)
        got = find_pair_family(space, K, count).to_json()
        assert got == reference_find_pair_family(space, K, count).to_json()


class TestFindPastFirstPrefix:
    """n in 70..130, so n * n > _PREFIX and the sorted prefix grows."""

    @staticmethod
    def largest(space, K):
        # a count no space can meet exhausts every prefix
        return len(find_pair_family(space, K, len(space)))

    @pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
    @pytest.mark.parametrize("n", (70, 101, 130))
    def test_tie_heavy_spaces(self, kind, n):
        space = TIE_HEAVY[kind](n)
        assert len(space) ** 2 > _PREFIX
        for K in (0.25, 1.0):
            top = self.largest(space, K)
            for count in (1, top // 2, top, top + 1, len(space)):
                got = find_pair_family(space, K, count).to_json()
                assert got == reference_find_pair_family(space, K, count).to_json()
                assert len(got["pairs"]) == min(count, top)

    @pytest.mark.parametrize("kind", ["line", "cycle", "integers"])
    @pytest.mark.parametrize("n", (30, 64, 65, 90))
    @pytest.mark.parametrize("count", (1, 3, 20, 100))
    def test_first_round_sized_to_the_count(self, kind, n, count):
        # a matrix past _PREFIX entries sorts n + 8 * count entries first;
        # on these ties straddle that threshold, and count 100 exhausts
        # every round
        if kind == "integers":
            dist = np.random.default_rng(n).integers(1, 5, size=(n, n)).astype(float)
            np.fill_diagonal(dist, 0.0)
            space = unvalidated_space(dist)
        else:
            space = TIE_HEAVY[kind](n)
        flat = np.sort(space.dist, axis=None)
        first = n + 8 * count
        if n * n > _PREFIX:
            assert flat[first - 1] == flat[first]
        got = find_pair_family(space, 0.25, count).to_json()
        assert got == reference_find_pair_family(space, 0.25, count).to_json()

    def test_clouds_succeed_past_first_prefix(self):
        for seed, metric in enumerate(("euclidean", "linf", "l1")):
            space = random_cloud(100 + 10 * seed, 2, seed, metric)
            top = self.largest(space, 0.1)
            for count in (top, top + 1):
                got = find_pair_family(space, 0.1, count).to_json()
                assert got == reference_find_pair_family(space, 0.1, count).to_json()
            x, y = got["pairs"][-1]
            assert space.d(x, y) > np.partition(space.dist, _PREFIX - 1, axis=None)[_PREFIX - 1]

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(("euclidean", "linf", "l1")),
        st.integers(70, 130),
        st.sampled_from((0.1, 0.25, 0.5, 1.0)),
        st.integers(1, 70),
        st.integers(0, 10**6),
    )
    def test_random_clouds(self, metric, n, K, count, seed):
        space = random_cloud(n, 2, seed, metric)
        got = find_pair_family(space, K, count).to_json()
        assert got == reference_find_pair_family(space, K, count).to_json()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(70, 130),
        st.integers(0, 10**6),
        st.booleans(),
        st.sampled_from((0.1, 0.25, 0.5, 1.0)),
        st.integers(1, 70),
    )
    def test_unvalidated_integer_matrices(self, n, seed, symmetric, K, count):
        # entries 1..4 put thousands of ties at every prefix threshold
        rng = np.random.default_rng(seed)
        dist = rng.integers(1, 5, size=(n, n)).astype(float)
        if symmetric:
            dist = np.triu(dist, 1) + np.triu(dist, 1).T
        np.fill_diagonal(dist, rng.choice((0.0, 9.0), size=n, p=(0.7, 0.3)))
        space = unvalidated_space(dist)
        got = find_pair_family(space, K, count).to_json()
        assert got == reference_find_pair_family(space, K, count).to_json()


def fresh_floyd_warshall(n, edges):
    """All-pairs shortest paths, every row updated for every k on a fresh array."""
    expected = np.full((n, n), np.inf)
    np.fill_diagonal(expected, 0.0)
    for u, v, w in edges:
        expected[u, v] = expected[v, u] = min(expected[u, v], w)
    for k in range(n):
        expected = np.minimum(expected, expected[:, [k]] + expected[[k], :])
    return expected


def relaxed(n, edges):
    """from_graph's matrix, unchecked, and the dtypes it relaxed in; or the refusal."""
    dtypes, relax = [], metric._relax
    spy = lambda dist, fill: dtypes.append(dist.dtype) or relax(dist, fill)
    with mock.patch.object(metric, "_relax", spy), mock.patch.object(metric, "_check_metric", lambda *_: ValidationReport()):
        try:
            return FiniteMetricSpace.from_graph(n, edges).dist, dtypes
        except InvalidInputError as exc:
            return str(exc), dtypes


WEIGHTS = {
    "float": lambda rng: float(rng.uniform(0.1, 5.0)),
    "integer": lambda rng: float(rng.integers(0, 4)),  # zeros included: int16
    "large": lambda rng: float(rng.integers(100, 400)),  # sums on both sides of 2**13
}


class TestFromGraph:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10**6), st.integers(0, 60), st.sampled_from(sorted(WEIGHTS)))
    def test_matches_fresh_array_floyd_warshall(self, n, seed, extra, kind):
        rng = np.random.default_rng(seed)
        weight = WEIGHTS[kind]
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[i + 1]), weight(rng)) for i in range(n - 1)]
        ends = rng.integers(0, n, size=(extra, 2))
        edges += [(int(u), int(v), weight(rng)) for u, v in ends if u != v]
        expected = fresh_floyd_warshall(n, edges)
        dist, dtypes = relaxed(n, edges)
        assert dist.tobytes() == expected.tobytes()
        least = {}  # the weight kept per edge
        for u, v, w in edges:
            least[u, v] = least[v, u] = min(least.get((u, v), w), w)
        narrow = kind != "float" and sum(least.values()) < 2 * 2**13
        assert dtypes == [np.int16 if narrow else np.float64]

    @pytest.mark.parametrize(
        "edges, narrow",
        [
            ([(0, 1, 8191.0), (1, 2, 0.0)], True),  # 8191 + fill = 2**15 - 1
            ([(0, 1, 8192.0), (1, 2, 0.0)], False),  # 8192 + fill would wrap in int16
            ([(0, 1, 4095), (1, 2, 4096.0), (2, 3, 0)], True),
            ([(0, 1, 4096.0), (1, 2, 4096.0), (2, 3, 0.0)], False),
            ([(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.0)], True),
            ([(0, 1, -0.0), (1, 2, 1.0), (2, 3, 1.0)], False),
            ([(0, 1, -1.0), (1, 2, 2.0), (2, 3, 1.0)], False),
            ([(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.0)], False),
            ([(0, 1, 2.5), (0, 1, 2.0), (1, 0, 3.0), (1, 2, 1.0), (2, 3, 1.0)], True),  # parallel edges: the least kept
            ([(0, 1, 9000.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], True),
            ([(0, 1, 1.0), (0, 1, 0.5), (1, 2, 1.0), (2, 3, 1.0)], False),
            ([(1, 1, 5.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], True),  # a loop keeps the zero diagonal
            ([(0, 1, 1.0), (2, 3, 1.0)], True),  # disconnected
            ([(0, 1, 1.5), (2, 3, 1.0)], False),
            ([(0, 1, 8191.0), (2, 3, 0.0)], True),
        ],
    )
    def test_int16_relaxation_is_the_float_one(self, edges, narrow):
        n = max(max(u, v) for u, v, _ in edges) + 1
        dist, dtypes = relaxed(n, edges)
        assert dtypes == [np.int16 if narrow else np.float64]
        expected = fresh_floyd_warshall(n, edges)
        if np.isinf(expected).any():
            assert dist == "graph is not connected"
        else:
            assert dist.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 60), st.integers(2, 5), st.integers(0, 10**6), st.booleans())
    def test_components_joined_late(self, n, parts, seed, joined):
        # each component is a random path; its highest-numbered point is
        # the one that joins it to the next, so until k reaches the joints
        # most rows cannot reach k and are skipped
        rng = np.random.default_rng(seed)
        part = rng.integers(0, parts, size=n)
        edges, joints = [], []
        for c in range(parts):
            members = [int(p) for p in rng.permutation(np.nonzero(part == c)[0])]
            edges += [(a, b, float(rng.uniform(0.1, 5.0))) for a, b in zip(members, members[1:])]
            joints += [max(members)] if members else []
        if joined:
            edges += [(a, b, float(rng.uniform(0.1, 5.0))) for a, b in zip(joints, joints[1:])]
        expected = fresh_floyd_warshall(n, edges)
        if np.isinf(expected).any():
            with pytest.raises(InvalidInputError, match="not connected"):
                FiniteMetricSpace.from_graph(n, edges)
        else:
            assert FiniteMetricSpace.from_graph(n, edges).dist.tobytes() == expected.tobytes()

    def test_disconnected(self):
        edges = [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 2.0), (3, 5, 1.0)]
        assert np.isinf(fresh_floyd_warshall(6, edges)).any()
        with pytest.raises(InvalidInputError, match="not connected"):
            FiniteMetricSpace.from_graph(6, edges)
        with pytest.raises(InvalidInputError, match="not connected"):
            FiniteMetricSpace.from_graph(3, [])

    def test_boolean_weight_rejected(self):
        # float(True) would build distance 1.0
        with pytest.raises(InvalidInputError, match=r"edge \(0, 1, True\) needs .* a finite weight"):
            FiniteMetricSpace.from_graph(2, [(0, 1, True)])

    def test_integer_endpoints_of_any_kind(self):
        edges = [(0, 1, 1.0), (1, 2, 2)]
        numpy_edges = [(np.int64(0), np.int32(1), np.float32(1.0)), (np.uint8(1), np.int64(2), np.int64(2))]
        fraction_edges = [(0, 1, Fraction(1)), (1, 2, Fraction(4, 2))]
        expected = FiniteMetricSpace.from_graph(3, edges).dist
        for other in (numpy_edges, fraction_edges):
            assert FiniteMetricSpace.from_graph(3, other).dist.tobytes() == expected.tobytes()
        assert expected.tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, float("nan"))],
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, float("inf"))],
            [(0, 1, 1.0), (1, -1, 1.0)],
            [(0, 1, 1.0), (1, 3, 1.0), (1, 2, 1.0)],
            [(0, 1.0, 1.0), (1, 2, 1.0)],
            [(0, 1.5, 1.0), (1, 2, 1.0)],
            [(0, True, 1.0), (1, 2, 1.0)],
            [(0, "1", 1.0), (1, 2, 1.0)],
            [(0, 1, "x"), (1, 2, 1.0)],
            [(0, 1, None), (1, 2, 1.0)],
            [(0, 1, 10**400), (1, 2, 1.0)],
            [(0, 1, Fraction(10**400, 3)), (1, 2, 1.0)],
        ],
    )
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(InvalidInputError, match="endpoints in 0..2 and a finite weight"):
            FiniteMetricSpace.from_graph(3, edges)
