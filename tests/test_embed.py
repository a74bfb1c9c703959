"""Support maps, the three embeddings, and their certified norm bounds."""

import gc
import random
import subprocess
import sys
import warnings
import weakref
from contextlib import nullcontext
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wbslab.embed
from wbslab.embed import (
    FiniteSequence,
    build_support_map,
    distortion_report,
    embed_cb,
    embed_holder,
    embed_linf,
    structured_vectors,
    tent_images,
    verify_sandwich,
)
from wbslab.errors import (
    CertificateViolationError,
    InconsistentFamilyError,
    InvalidInputError,
    PairSearchFailure,
    WbsLabError,
)
from wbslab.holder import pair_bump, sup_norm, validate_radius
from wbslab.metric import (
    FiniteMetricSpace,
    PairFamilyReport,
    SeparatedPairFamily,
    find_pair_family,
)
from wbslab import tolerances
from wbslab.samples import harmonic_with_zero, line_grid
from wbslab.tolerances import Tolerances

from oracles import (
    reference_distortion_report,
    reference_embed_cb,
    reference_embed_holder,
    reference_sandwich_checks,
    reference_sandwich_norms,
)

KINDS = st.sampled_from(("cloud", "skewed", "grid", "harmonic"))
ALPHAS = st.sampled_from((0.3, 0.5, 0.7, 1.0))
COEFFS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-5.0, 5.0), st.floats(-1e308, 1e308)
)


def _space(kind: str, n: int, seed: int) -> FiniteMetricSpace:
    """n points: a random planar cloud, the same with its lower triangle
    stretched by 1e-12 (symmetric only within tolerance), an evenly
    spaced line, or {0} with 1/k."""
    if kind in ("cloud", "skewed"):
        cloud = FiniteMetricSpace.from_points(np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2)))
        if kind == "cloud":
            return cloud
        return FiniteMetricSpace(cloud.dist * np.where(np.tri(n, k=-1, dtype=bool), 1.0 + 1e-12, 1.0))
    return line_grid(n) if kind == "grid" else harmonic_with_zero(n - 1)


def _family(space: FiniteMetricSpace, K: float) -> SeparatedPairFamily:
    try:
        return find_pair_family(space, K, 5)
    except PairSearchFailure as exc:
        return exc.best


def _vectors(data, m: int, max_size: int) -> list[FiniteSequence]:
    entries = st.lists(COEFFS, min_size=m, max_size=m).map(lambda c: FiniteSequence(tuple(c)))
    return data.draw(st.lists(entries, min_size=1, max_size=max_size))


def _outcome(fn, *args):
    """The result, or the type, message and witness of the error raised."""
    try:
        return fn(*args)
    except WbsLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _same_outcome(got, expected) -> None:
    """Equal results, floats bit for bit; or the same error with the very witness."""
    if isinstance(expected, tuple):
        assert got[:2] == expected[:2] and got[2] is expected[2]
        assert "np.float64" not in got[1]
    else:
        assert repr(got) == repr(expected)


@pytest.fixture(scope="module")
def harmonic_setup():
    space = harmonic_with_zero(20)
    family = find_pair_family(space, 0.25, 5)
    return space, family


class TestSupportMap:
    def test_centers_map_to_their_pair(self, harmonic_setup):
        space, family = harmonic_setup
        smap = build_support_map(space, family, 0.5)
        owners = dict(zip(smap.support.tolist(), smap.owner.tolist()))
        for n, (x, y) in enumerate(family.pairs):
            assert owners[space.index(y)] == n
            assert space.index(x) not in owners

    def test_far_points_unassigned(self, harmonic_setup):
        space, family = harmonic_setup
        smap = build_support_map(space, family, 0.5)
        radii = family.radii(space)
        for i, p in enumerate(space.labels):
            if i not in smap.support:
                assert all(
                    space.d(p, y) >= r for (_, y), r in zip(family.pairs, radii)
                )

    def test_overlap_detected(self):
        # radius-1.8 balls around p2 and p3 share the points p2 and p3
        space = line_grid(6)
        family = SeparatedPairFamily(
            ((space.labels[0], space.labels[2]), (space.labels[5], space.labels[3])),
            0.9,
        )
        with pytest.raises(InconsistentFamilyError):
            build_support_map(space, family, 1.0)


class TestEmbedHolder:
    def test_zero_vector(self, harmonic_setup):
        space, family = harmonic_setup
        embedding = build_support_map(space, family, 0.5)
        image = embed_holder(FiniteSequence((0.0,) * len(family)), embedding)
        assert not image.values.any()

    def test_unit_vector_is_the_bump(self, harmonic_setup):
        space, family = harmonic_setup
        embedding = build_support_map(space, family, 0.5)
        for k in range(len(family)):
            image = embed_holder(FiniteSequence.unit(k, len(family)), embedding)
            bump = pair_bump(space, family.pairs[k], family.K, 0.5)
            assert np.array_equal(image.values, bump.values)

    def test_value_at_ball_center(self, harmonic_setup):
        space, family = harmonic_setup
        alpha = 0.5
        rng = np.random.default_rng(5)
        vec = FiniteSequence(tuple(rng.uniform(-2, 2, size=len(family))))
        image = embed_holder(vec, build_support_map(space, family, alpha))
        for k, (x, y) in enumerate(family.pairs):
            expected = vec.entries[k] * min(1.0, space.d(x, y) ** alpha)
            assert image.value_at(y) == pytest.approx(expected, rel=1e-14)

    def test_length_mismatch(self, harmonic_setup):
        space, family = harmonic_setup
        with pytest.raises(InvalidInputError):
            embed_holder(FiniteSequence((1.0,)), build_support_map(space, family, 0.5))

    def test_linearity(self, harmonic_setup):
        space, family = harmonic_setup
        rng = np.random.default_rng(6)
        m = len(family)
        embedding = build_support_map(space, family, 0.7)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=m)
            b = rng.uniform(-1, 1, size=m)
            lam = float(rng.uniform(-2, 2))
            combo = embed_holder(FiniteSequence(tuple(a + lam * b)), embedding)
            parts = (
                embed_holder(FiniteSequence(tuple(a)), embedding).values
                + lam * embed_holder(FiniteSequence(tuple(b)), embedding).values
            )
            assert np.allclose(combo.values, parts, atol=1e-12)


class TestSandwich:
    def test_zero_vector_trivial(self, harmonic_setup):
        space, family = harmonic_setup
        embedding = build_support_map(space, family, 0.5)
        check = verify_sandwich([FiniteSequence((0.0,) * len(family))], embedding)[0]
        assert check.lower_ok and check.upper_ok and check.ratio is None
        assert check.image_holder_norm == 0.0

    def test_unit_vectors_meet_lower_bound(self, harmonic_setup):
        # every pair here has distance < 1, so the sup part alone is short
        # and the seminorm must carry the lower bound
        space, family = harmonic_setup
        embedding = build_support_map(space, family, 0.5)
        for k in range(len(family)):
            check = verify_sandwich([FiniteSequence.unit(k, len(family))], embedding)[0]
            assert check.lower_ok and check.upper_ok
            assert check.ratio >= 1.0 - 1e-9

    def test_random_vectors(self, harmonic_setup):
        space, family = harmonic_setup
        rng = np.random.default_rng(7)
        for alpha in (0.3, 0.5, 1.0):
            bound = 2.0 / family.K**alpha + 1.0
            embedding = build_support_map(space, family, alpha)
            for _ in range(50):
                vec = FiniteSequence(tuple(rng.uniform(-3, 3, size=len(family))))
                check = verify_sandwich([vec], embedding)[0]
                assert check.lower_ok and check.upper_ok
                if check.ratio is not None:
                    assert 1.0 - 1e-9 <= check.ratio <= bound + 1e-9

    def test_norm_components_bounded(self, harmonic_setup):
        from wbslab.holder import holder_seminorm

        space, family = harmonic_setup
        rng = np.random.default_rng(8)
        alpha = 0.6
        embedding = build_support_map(space, family, alpha)
        for _ in range(20):
            vec = FiniteSequence(tuple(rng.uniform(-2, 2, size=len(family))))
            image = embed_holder(vec, embedding)
            assert sup_norm(image) <= vec.sup_value + 1e-12
            assert holder_seminorm(image, alpha) <= (
                2.0 / family.K**alpha
            ) * vec.sup_value + 1e-9

    def test_report_over_battery(self, harmonic_setup):
        space, family = harmonic_setup
        rng = np.random.default_rng(9)
        vectors = structured_vectors(len(family)) + [
            FiniteSequence(tuple(rng.uniform(-1, 1, size=len(family))))
            for _ in range(20)
        ]
        report = distortion_report(space, family, 0.5, vectors)
        assert 1.0 - 1e-9 <= report.lower <= report.upper
        assert report.upper <= report.bound_upper + 1e-9
        assert report.samples == len(vectors)
        assert report.worst_vector.sup_value > 0

    def test_violation_raises_with_witness(self, harmonic_setup, monkeypatch):
        space, family = harmonic_setup
        # impossible negative slack, patched into the pinned record, forces
        # a reported violation
        monkeypatch.setattr(tolerances, "DEFAULT_TOLERANCES", Tolerances(sandwich_rel=-1.0))
        with pytest.raises(CertificateViolationError) as exc:
            verify_sandwich(
                [FiniteSequence.unit(0, len(family))],
                build_support_map(space, family, 0.5),
            )
        assert isinstance(exc.value.witness, FiniteSequence)


class TestOperator:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(("cloud", "grid", "harmonic")),
        st.integers(4, 40),
        st.sampled_from((0.25, 0.5, 1.0)),
        st.sampled_from((0.3, 0.5, 0.8, 1.0)),
        st.integers(0, 10**6),
        st.data(),
    )
    def test_image_matches_reference_bitwise(self, kind, n, K, alpha, seed, data):
        rng = np.random.default_rng(seed)
        if kind == "cloud":
            space = FiniteMetricSpace.from_points(rng.uniform(0.0, 10.0, size=(n, 2)))
        else:
            space = line_grid(n) if kind == "grid" else harmonic_with_zero(n)
        try:
            family = find_pair_family(space, K, 5)
        except PairSearchFailure as exc:
            family = exc.best
        embedding = build_support_map(space, family, alpha)
        coeffs = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-5.0, 5.0))
        a = FiniteSequence(tuple(data.draw(st.lists(coeffs, min_size=len(family), max_size=len(family)))))
        expected = reference_embed_holder(a.entries, space, family, alpha)
        assert embed_holder(a, embedding).values.tobytes() == expected.tobytes()

    def test_report_verifies_and_builds_bumps_once(self, monkeypatch):
        # a space of its own: the memo of a shared one may already hold the tables
        space = harmonic_with_zero(20)
        family = find_pair_family(space, 0.25, 5)
        spies = {name: Mock(wraps=getattr(wbslab.embed, name)) for name in ("verify_pair_family", "pair_bump")}
        for name, spy in spies.items():
            monkeypatch.setattr(wbslab.embed, name, spy)
        rng = np.random.default_rng(12)
        vectors = structured_vectors(len(family)) + [
            FiniteSequence(tuple(rng.uniform(-1, 1, size=len(family)))) for _ in range(10)
        ]
        first = distortion_report(space, family, 0.5, vectors)
        assert first.samples == len(vectors)
        assert spies["verify_pair_family"].call_count == 1
        assert spies["pair_bump"].call_count == len(family)
        # a second report on the same space reuses the verified tables
        assert distortion_report(space, family, 0.5, vectors) == first
        assert spies["verify_pair_family"].call_count == 1
        assert spies["pair_bump"].call_count == len(family)

    def test_inconsistent_family_reported_before_vector_length(self):
        # the family of test_overlap_detected, with a vector of the wrong length
        space = line_grid(6)
        family = SeparatedPairFamily(
            ((space.labels[0], space.labels[2]), (space.labels[5], space.labels[3])),
            0.9,
        )
        with pytest.raises(InconsistentFamilyError):
            distortion_report(space, family, 1.0, [FiniteSequence((1.0,))])


# entries near 1e308 overflow apply_batch's differences and ratios, and the
# scan of holder_seminorm, to inf, as IEEE arithmetic does
@pytest.mark.filterwarnings("ignore:overflow encountered in subtract", "ignore:overflow encountered in divide")
class TestBatchKernel:
    """apply_batch and the reports built on it against the per-vector scan."""

    @settings(max_examples=200, deadline=None)
    @given(
        KINDS,
        st.integers(1, 30),
        st.sampled_from(("found", "empty", "cover")),
        st.sampled_from((0.25, 0.5, 1.0)),
        ALPHAS,
        st.integers(0, 10**6),
        st.data(),
    )
    def test_apply_batch_matches_reference_bitwise(self, kind, n, shape, K, alpha, seed, data):
        space = _space(kind, n, seed)
        accept = nullcontext()
        if shape == "found":
            family = _family(space, K)
        elif shape == "empty":
            family = SeparatedPairFamily((), K)
        else:
            # every point centers a ball reaching short of its nearest
            # neighbor, its pair partner, so S is the whole space; the
            # x-points then sit in other balls, which the kernel does not
            # rely on
            assume(n >= 2)
            nearest = np.where(np.eye(n, dtype=bool), np.inf, space.dist).argmin(axis=1)
            family = SeparatedPairFamily(
                tuple((space.labels[q], label) for label, q in zip(space.labels, nearest)), K
            )
            accept = patch.object(
                wbslab.embed, "verify_pair_family", lambda *_: PairFamilyReport(True, [])
            )
        with accept:
            embedding = build_support_map(space, family, alpha)
        assert (len(embedding.support) == len(space)) == (shape == "cover")
        vectors = _vectors(data, len(family), 6)
        coeffs = np.array([a.entries for a in vectors]).reshape(len(vectors), len(family))
        sups, seminorms = embedding.apply_batch(coeffs)
        ref_sups, ref_seminorms = reference_sandwich_norms(vectors, space, family, alpha)
        assert sups.tobytes() == ref_sups.tobytes()
        assert seminorms.tobytes() == ref_seminorms.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        KINDS,
        st.integers(2, 30),
        st.sampled_from((0.25, 0.5, 1.0)),
        ALPHAS,
        st.integers(0, 10**6),
        st.one_of(st.just(None), st.floats(-1.0, 0.0)),
        st.data(),
    )
    def test_report_matches_reference(self, kind, n, K, alpha, seed, slack, data):
        # a negative slack, patched into the pinned record, forces
        # violations part way through the batch
        space = _space(kind, n, seed)
        family = _family(space, K)
        vectors = _vectors(data, len(family), 8)
        # exact ties for the largest ratio: repeats and negations
        for a in data.draw(st.lists(st.sampled_from(vectors), max_size=3)):
            vectors += [a, FiniteSequence(tuple(-v for v in a.entries))]
        record = Tolerances(sandwich_rel=slack)
        with nullcontext() if slack is None else patch.object(tolerances, "DEFAULT_TOLERANCES", record):
            expected = _outcome(reference_distortion_report, space, family, alpha, vectors)
            got = _outcome(distortion_report, space, family, alpha, vectors)
        _same_outcome(got, expected)
        if not isinstance(expected, tuple):
            assert got == expected and got.worst_vector is expected.worst_vector

    @settings(max_examples=80, deadline=None)
    @given(
        KINDS,
        st.integers(2, 30),
        st.sampled_from((0.25, 0.5, 1.0)),
        ALPHAS,
        st.integers(0, 10**6),
        st.one_of(st.just(None), st.floats(-1.0, 0.0)),
        st.data(),
    )
    def test_checks_match_reference(self, kind, n, K, alpha, seed, slack, data):
        # the report's strategy, zero vectors included; a negative slack
        # fails some vectors part way through the batch
        space = _space(kind, n, seed)
        family = _family(space, K)
        embedding = build_support_map(space, family, alpha)
        vectors = _vectors(data, len(family), 8)
        record = Tolerances(sandwich_rel=slack)
        with nullcontext() if slack is None else patch.object(tolerances, "DEFAULT_TOLERANCES", record):
            expected = reference_sandwich_checks(vectors, space, family, alpha, False)
            got = verify_sandwich(vectors, embedding, raise_on_violation=False)
            assert repr(got) == repr(expected)
            assert all(type(c.lower_ok) is bool and type(c.upper_ok) is bool for c in got)
            _same_outcome(
                _outcome(verify_sandwich, vectors, embedding),
                _outcome(reference_sandwich_checks, vectors, space, family, alpha),
            )

    @pytest.mark.parametrize("slack", [None, -0.5, -1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_overflowing_tests_match_reference_silently(self, slack, alpha):
        # unit distances and balls of radius 1/4: the images are the
        # coefficients on the ball centers, so apply_batch divides by
        # powers of at least 1 and subtracts values of one sign; only the
        # certificate's own sums and products overflow
        space = line_grid(16)
        family = find_pair_family(space, 0.25, 5)
        m = len(family)
        unit = [FiniteSequence.unit(k, m).entries for k in range(m)]
        vectors = [
            FiniteSequence(tuple(scale * v for v in entries))
            for scale in (1.7e308, -1.7e308, 7e307, -1.0)
            for entries in unit[:2]
        ]
        vectors.insert(3, FiniteSequence((6e307,) * m))
        vectors.insert(5, FiniteSequence((0.0,) * m))
        embedding = build_support_map(space, family, alpha)
        record = Tolerances(sandwich_rel=slack)
        with nullcontext() if slack is None else patch.object(tolerances, "DEFAULT_TOLERANCES", record):
            expected = [
                reference_sandwich_checks(vectors, space, family, alpha, False),
                _outcome(reference_sandwich_checks, vectors, space, family, alpha),
                _outcome(reference_distortion_report, space, family, alpha, vectors),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [
                    verify_sandwich(vectors, embedding, raise_on_violation=False),
                    _outcome(verify_sandwich, vectors, embedding),
                    _outcome(distortion_report, space, family, alpha, vectors),
                ]
        assert any(c.image_holder_norm == np.inf for c in expected[0])
        assert repr(got[0]) == repr(expected[0])
        for g, e in zip(got[1:], expected[1:]):
            _same_outcome(g, e)

    def test_single_vector_check_matches_report(self, harmonic_setup):
        space, family = harmonic_setup
        embedding = build_support_map(space, family, 0.5)
        vectors = structured_vectors(len(family))
        ratios = [verify_sandwich([a], embedding)[0].ratio for a in vectors]
        report = distortion_report(space, family, 0.5, vectors)
        assert (report.lower, report.upper) == (min(ratios), max(ratios))

    def test_report_imports_no_masked_arrays(self):
        # numpy.ma is imported lazily by set routines and costs resident memory
        code = (
            "import sys\n"
            "from wbslab.embed import distortion_report, embed_cb, structured_vectors\n"
            "from wbslab.metric import find_pair_family\n"
            "from wbslab.samples import harmonic_with_zero\n"
            "space = harmonic_with_zero(20)\n"
            "family = find_pair_family(space, 0.25, 5)\n"
            "distortion_report(space, family, 0.5, structured_vectors(5))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestEmbedCb:
    def setup_method(self):
        self.space = line_grid(10)
        self.centers = list(self.space.labels[:5])
        self.radii = [0.45] * 5

    def test_unit_vector_is_the_tent(self):
        from wbslab.holder import tent_bump

        vec = FiniteSequence.unit(2, 5)
        image = embed_cb(vec, self.space, self.centers, self.radii)
        tent = tent_bump(self.space, self.centers[2], self.radii[2])
        assert np.array_equal(image.values, tent.values)

    @settings(max_examples=80, deadline=None)
    @given(KINDS, st.integers(1, 30), st.integers(0, 10**6), st.data())
    def test_image_matches_reference_bitwise(self, kind, n, seed, data):
        space = _space(kind, n, seed)
        picked = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
        # up to half the distance to the nearest other center keeps the balls disjoint
        gaps = space.dist[np.ix_(picked, picked)] + np.diag([np.inf] * len(picked))
        scale = data.draw(st.floats(0.05, 1.0))
        radii = [scale * min(g.min() / 2, 3.0) for g in gaps]
        centers = [space.labels[i] for i in picked]
        vectors = _vectors(data, len(centers), 8)
        images = tent_images(vectors, space, centers, radii)
        assert images.shape == (len(vectors), n)
        for a, row in zip(vectors, images):
            expected = reference_embed_cb(a.entries, space, centers, radii)
            assert row.tobytes() == expected.tobytes()
            assert embed_cb(a, space, centers, radii).values.tobytes() == expected.tobytes()

    def test_exact_isometry(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            vec = FiniteSequence(tuple(rng.integers(-512, 513, size=5) / 128.0))
            image = embed_cb(vec, self.space, self.centers, self.radii)
            assert sup_norm(image) == vec.sup_value

    def test_zero_vector(self):
        image = embed_cb(FiniteSequence((0.0,) * 5), self.space, self.centers, self.radii)
        assert not image.values.any()

    def test_overlapping_balls_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_cb(
                FiniteSequence((1.0, 1.0)),
                self.space,
                list(self.space.labels[:2]),
                [2.0, 2.0],
            )

    def test_bad_radius(self):
        for r in (-1.0, 0.0, float("nan")):
            with pytest.raises(InvalidInputError):
                embed_cb(FiniteSequence((1.0,)), self.space, [self.space.labels[0]], [r])

    @pytest.mark.parametrize(
        "entries, count, radii",
        [
            ((1.0, 1.0, 1.0), 2, [0.45] * 2),  # a vector longer than the centers
            ((1.0, 1.0), 2, [0.45] * 3),  # more radii than centers
            ((1.0, 1.0), 2, [0.45, float("nan")]),
            ((1.0, 1.0), 2, [0.45, -1.0]),
            ((1.0, 1.0), 2, [2.0, 2.0]),  # overlapping balls
        ],
    )
    def test_batch_errors_are_those_of_embed_cb(self, entries, count, radii):
        bad, good = FiniteSequence(entries), FiniteSequence((0.5,) * count)
        centers = list(self.space.labels[:count])
        expected = _outcome(embed_cb, bad, self.space, centers, radii)
        assert expected[0] is InvalidInputError
        for batch in ([bad], [good, bad]):
            assert _outcome(tent_images, batch, self.space, centers, radii) == expected

    @pytest.mark.parametrize(
        "third, fourth",
        [(0.0, 0.45), (-1, 0.45), (float("nan"), 0.45), ("abc", 0.45), ("abc", -1.0), (-1.0, "abc")],
    )
    def test_refused_radius_is_that_of_validate_radius(self, third, fourth):
        radii = [0.45, 0.45, third, fourth, 0.45]
        vectors = [FiniteSequence((0.5,) * 5)] * 3

        def raised(fn, *args):
            with pytest.raises(Exception) as exc:
                fn(*args)
            return type(exc.value), str(exc.value)

        # the first radius validate_radius refuses, with its own error
        expected = raised(lambda: [validate_radius(r) for r in radii])
        assert raised(tent_images, vectors, self.space, self.centers, radii) == expected
        assert raised(embed_cb, vectors[0], self.space, self.centers, radii) == expected

    def test_empty_batch(self):
        images = tent_images([], self.space, self.centers, self.radii)
        assert images.shape == (0, len(self.space))
        with pytest.raises(InvalidInputError, match="5 coefficients, 5 centers, 4 radii"):
            tent_images([], self.space, self.centers, self.radii[:4])


def _copy(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """The same points in a new space, whose memo is empty."""
    return FiniteMetricSpace(space.dist, space.labels)


def _memo_keys(space: FiniteMetricSpace) -> list:
    return list(wbslab.embed._memo.get(space, ()))


class TestOperatorMemo:
    """Each verified operator is built once per space and reused bit for bit."""

    def setup_method(self):
        self.space = harmonic_with_zero(20)
        self.family = find_pair_family(self.space, 0.25, 5)
        self.centers = [y for _, y in self.family.pairs]
        self.radii = self.family.radii(self.space)
        rng = np.random.default_rng(13)
        self.vectors = [FiniteSequence(tuple(rng.uniform(-2, 2, size=len(self.family)))) for _ in range(6)]

    def test_holder_hit_is_a_fresh_build(self):
        first = build_support_map(self.space, self.family, 0.5)
        keys = _memo_keys(self.space)
        again = build_support_map(self.space, self.family, 0.5)
        fresh = build_support_map(_copy(self.space), self.family, 0.5)
        assert _memo_keys(self.space) == keys and len(keys) == 1
        for name in ("support", "owner", "weight", "den", "off_min"):
            assert getattr(again, name) is getattr(first, name)
            assert getattr(again, name).tobytes() == getattr(fresh, name).tobytes()
            assert not getattr(again, name).flags.writeable
        assert again.space is self.space and again.family is self.family
        coeffs = again.coefficients(self.vectors)
        ref_sups, ref_seminorms = reference_sandwich_norms(self.vectors, self.space, self.family, 0.5)
        for embedding in (again, fresh):
            sups, seminorms = embedding.apply_batch(coeffs)
            assert sups.tobytes() == ref_sups.tobytes()
            assert seminorms.tobytes() == ref_seminorms.tobytes()

    def test_tent_hit_is_a_fresh_build(self):
        first = tent_images(self.vectors, self.space, self.centers, self.radii)
        keys = _memo_keys(self.space)
        again = tent_images(self.vectors, self.space, self.centers, self.radii)
        fresh = tent_images(self.vectors, _copy(self.space), self.centers, self.radii)
        assert _memo_keys(self.space) == keys and len(keys) == 1
        assert again.tobytes() == first.tobytes() == fresh.tobytes()
        for a, row in zip(self.vectors, again):
            expected = reference_embed_cb(a.entries, self.space, self.centers, self.radii).tobytes()
            assert row.tobytes() == expected
            assert embed_cb(a, self.space, self.centers, self.radii).values.tobytes() == expected
        assert _memo_keys(self.space) == keys

    def test_other_keys_build_anew(self):
        smaller = SeparatedPairFamily(self.family.pairs[:4], self.family.K)
        builds = [
            lambda: build_support_map(self.space, self.family, 0.5),
            lambda: build_support_map(self.space, self.family, 0.7),
            lambda: build_support_map(self.space, smaller, 0.5),
            lambda: tent_images([], self.space, self.centers, self.radii),
            lambda: tent_images([], self.space, self.centers[::-1], self.radii[::-1]),
            lambda: tent_images([], self.space, self.centers, [r / 2 for r in self.radii]),
        ]
        for count, build in enumerate(builds, 1):
            build()
            assert len(_memo_keys(self.space)) == count
        for build in builds:  # each a hit now
            build()
        assert len(_memo_keys(self.space)) == len(builds)
        smap = build_support_map(self.space, smaller, 0.7)
        fresh = build_support_map(_copy(self.space), smaller, 0.7)
        assert smap.den.tobytes() == fresh.den.tobytes() and smap.weight.tobytes() == fresh.weight.tobytes()
        halved = [r / 2 for r in self.radii]
        got = tent_images(self.vectors, self.space, self.centers, halved)
        assert got.tobytes() == tent_images(self.vectors, _copy(self.space), self.centers, halved).tobytes()

    def test_refusals_repeat_and_store_nothing(self):
        line = line_grid(6)
        overlapping = SeparatedPairFamily(((line.labels[0], line.labels[2]), (line.labels[5], line.labels[3])), 0.9)
        ok_centers, ok_radii = list(line.labels[:2]), [0.45, 0.45]
        tent_images([FiniteSequence((1.0, 2.0))], line, ok_centers, ok_radii)
        keys = _memo_keys(line)
        refused = [
            (build_support_map, line, overlapping, 1.0),  # failed separation
            (build_support_map, line, overlapping, 1.5),  # alpha out of range
            (tent_images, [FiniteSequence((1.0,))], line, ok_centers, ok_radii),  # lengths, after a hit
            (tent_images, [FiniteSequence((1.0, 2.0))], line, ok_centers, [0.45, float("nan")]),  # radius
            (tent_images, [FiniteSequence((1.0, 2.0))], line, ok_centers, [2.0, 2.0]),  # overlap
            (tent_images, [FiniteSequence((1.0, 2.0))], line, ["p0", "nowhere"], ok_radii),  # unknown label
        ]
        for fn, *args in refused:
            first = _outcome(fn, *args)
            assert isinstance(first, tuple) and _outcome(fn, *args) == first
        assert _memo_keys(line) == keys
        embedding = build_support_map(self.space, self.family, 0.5)
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="vector length 1 != family size"):
                verify_sandwich([FiniteSequence((1.0,))], build_support_map(self.space, self.family, 0.5))
        assert embedding.den is build_support_map(self.space, self.family, 0.5).den

    def test_entries_die_with_their_space(self):
        gc.collect()  # spaces of earlier tests held only by cycles leave the memo now, not mid-test
        before = len(wbslab.embed._memo)
        space = _copy(self.space)
        ref = weakref.ref(space)
        embedding = build_support_map(space, self.family, 0.5)
        tent_images(self.vectors, space, self.centers, self.radii)
        assert len(wbslab.embed._memo) == before + 1 and len(_memo_keys(space)) == 2
        del space, embedding
        # freed by reference counts alone: no cycle runs through the space
        assert ref() is None
        gc.collect()
        assert len(wbslab.embed._memo) == before

    def test_per_space_bound(self):
        bound = wbslab.embed._MEMO_PER_SPACE
        scales = [1.0 / (k + 2) for k in range(2 * bound)]

        def tents(scale):
            return tent_images([], self.space, self.centers, [r * scale for r in self.radii])

        build_support_map(self.space, self.family, 0.5)
        for scale in scales[: bound - 1]:
            tents(scale)
        keys = _memo_keys(self.space)
        assert len(keys) == bound
        build_support_map(self.space, self.family, 0.5)  # a hit: now the most recent
        tents(scales[bound - 1])  # evicts the least recently used, the first tents
        assert len(_memo_keys(self.space)) == bound
        assert keys[0] in _memo_keys(self.space) and keys[1] not in _memo_keys(self.space)
        for scale in scales[bound:]:  # bound new entries replace every older one
            tents(scale)
        assert len(_memo_keys(self.space)) == bound
        assert not set(keys) & set(_memo_keys(self.space))


class TestEmbedLinf:
    def test_unit_vector_is_an_indicator(self):
        step = embed_linf(FiniteSequence.unit(0, 3), [1.0, 2.0, 3.0])
        assert step.cell_values == (1.0, 0.0, 0.0)

    def test_exact_isometry(self):
        rng = np.random.default_rng(11)
        masses = list(rng.uniform(0.01, 10, size=6))
        for _ in range(300):
            vec = FiniteSequence(tuple(rng.integers(-512, 513, size=6) / 128.0))
            assert embed_linf(vec, masses).ess_sup == vec.sup_value

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_linf(FiniteSequence((1.0,)), [0.0])
        with pytest.raises(InvalidInputError):
            embed_linf(FiniteSequence((1.0,)), [-2.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            embed_linf(FiniteSequence((1.0, 2.0)), [1.0])


class TestFiniteSequence:
    def test_sup_value(self):
        assert FiniteSequence((1.0, -3.0, 2.0)).sup_value == 3.0
        assert FiniteSequence(()).sup_value == 0.0

    def test_structured_vectors(self):
        vecs = structured_vectors(3)
        assert len(vecs) == 4
        assert vecs[0].entries == (1.0, 0.0, 0.0)
        assert vecs[-1].entries == (1.0, -1.0, 1.0)

    def test_sup_value_matches_generator_definition(self):
        rng = random.Random(64)
        pool = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -1.7e308)
        for length in range(65):
            for entries in ((-0.0,) * length, tuple(rng.choice(pool) for _ in range(length))):
                old = max((abs(v) for v in entries), default=0.0)
                assert repr(FiniteSequence(entries).sup_value) == repr(old)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteSequence((float("nan"),))
