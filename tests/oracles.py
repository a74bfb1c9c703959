"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the production code paths it checks:
the Schreier enumeration is rebuilt by exhaustive generation, pair
families are verified by triple loops, and derived sets are computed by
literally embedding ordinal intervals into the rationals and detecting
limit points by nearest-neighbor shrinkage under deepening truncations.
"""

from __future__ import annotations

import bisect
import random
import sys
from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import comb, isfinite

import numpy as np

# ---- CPython's int/str digit limit, set for one block ------------------------


@contextmanager
def int_digit_limit(limit: int):
    """The int/str digit limit set to limit inside the block (0 lifts it).

    For tests only: the limit is process-wide, and the library's own
    conversions never touch it.
    """
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# ---- maximal Schreier sets by exhaustive generation -------------------------


def brute_force_schreier(max_value: int) -> list[tuple[int, ...]]:
    """All sets with max <= max_value, in (grade by max, lex) order."""
    sets = []
    for m in range(1, max_value + 1):
        for mid in combinations(range(m + 1, max_value + 1), m - 1):
            sets.append((m,) + mid)
    return sorted(sets, key=lambda t: (t[-1], t))


def order_key(s) -> tuple[int, tuple[int, ...]]:
    """Sort key of a SchreierSet realizing the canonical (grade, lex) order."""
    return (s.maximum, s.elements)


def brute_force_schreier_alt(max_value: int) -> list[tuple[int, ...]]:
    """Same grading, each grade reversed."""
    out = []
    for _, grade in groupby(brute_force_schreier(max_value), key=lambda t: t[-1]):
        out.extend(reversed(list(grade)))
    return out


def is_maximal_schreier(candidate) -> bool:
    """True iff the candidate is nonempty and its size equals its minimum.

    Elements are read by the library's integer rule, so a value that is
    not an integer raises InvalidInputError, and so does one below 1; an
    empty candidate is simply not a member of the family.
    """
    from wbslab.errors import InvalidInputError
    from wbslab.inputs import parse_ints

    values = sorted(set(parse_ints(candidate)))
    if values and values[0] < 1:
        raise InvalidInputError(f"elements must be positive integers: {values}")
    return bool(values) and len(values) == values[0]


# ---- reference rank and unrank: one binomial from scratch per term -----------
#
# The original ranking code: grades found by doubling and bisection on
# the counts, the blocks of each minimum summed with one comb per term,
# and the in-grade unranking walked with one comb per value.  The
# production code carries every binomial by ratio updates and must give
# the same ranks and sets.


@lru_cache(maxsize=4096)
def _reference_count(n: int) -> int:
    """F(n) by the recurrence itself, one addition per grade."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def reference_grade_of_rank(rank: int) -> int:
    """Smallest n with count_max_at_most(n) >= rank."""
    hi = 2
    while _reference_count(hi) < rank:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _reference_count(mid) < rank:
            lo = mid
        else:
            hi = mid
    return hi if _reference_count(lo) < rank else lo


def _reference_grade_size(n: int) -> int:
    return 1 if n == 1 else _reference_count(n) - _reference_count(n - 1)


def _reference_rank_in_grade(elements: tuple[int, ...]) -> int:
    n, m = elements[-1], elements[0]
    if n == 1:
        return 0
    rank = sum(comb(n - 1 - mm, mm - 2) for mm in range(2, m))
    lo, hi = m + 1, n - 1
    chosen = elements[1:-1]
    k = len(chosen)
    prev = lo - 1
    for idx, c in enumerate(chosen):
        j = k - idx - 1
        a, b = prev + 1, c - 1
        if a <= b:
            rank += comb(hi - a + 1, j + 1) - comb(hi - b, j + 1)
        prev = c
    return rank


def _reference_unrank_in_grade(n: int, index: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    for m in range(2, (n + 1) // 2 + 1):
        block = comb(n - 1 - m, m - 2)
        if index < block:
            out, k, v = [], m - 2, m + 1
            while k > 0:
                step = comb(n - 1 - v, k - 1)
                if index < step:
                    out.append(v)
                    k -= 1
                else:
                    index -= step
                v += 1
            return (m, *out, n)
        index -= block
    raise ValueError(f"index exceeds grade {n}")


def reference_rank_of(elements, enumeration: str = "canonical") -> int:
    """1-based rank of a maximal Schreier set under either enumeration."""
    elements = tuple(elements)
    n = elements[-1]
    within = _reference_rank_in_grade(elements)
    if enumeration == "alt":
        within = _reference_grade_size(n) - 1 - within
    return (0 if n == 1 else _reference_count(n - 1)) + within + 1


def reference_unrank(rank: int, enumeration: str = "canonical") -> tuple[int, ...]:
    """The rank-th maximal Schreier set (1-based) under either enumeration."""
    n = reference_grade_of_rank(rank)
    within = rank - 1 if n == 1 else rank - _reference_count(n - 1) - 1
    if enumeration == "alt":
        within = _reference_grade_size(n) - 1 - within
    return _reference_unrank_in_grade(n, within)


class ReferenceCountCache:
    """The count cache's bookkeeping, every pair computed from nothing.

    A hit moves the grade to the recent end; a miss keeps F(n + 1), then
    F(n), and evicts the least recent counts until the sizes fit.
    """

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.entries: OrderedDict[int, int] = OrderedDict()
        self.hits = self.misses = self.nbytes = 0

    def __call__(self, n: int) -> int:
        if n in self.entries:
            self.hits += 1
            self.entries.move_to_end(n)
            return self.entries[n]
        self.misses += 1
        for grade in (n + 1, n):
            if grade in self.entries:
                self.nbytes -= sys.getsizeof(self.entries.pop(grade))
            self.entries[grade] = _reference_count(grade)
            self.nbytes += sys.getsizeof(self.entries[grade])
            while self.nbytes > self.maxbytes:
                self.nbytes -= sys.getsizeof(self.entries.popitem(last=False)[1])
        return _reference_count(n)

    def info(self) -> tuple[int, int, int, int]:
        """(hits, misses, currsize, nbytes), as in the cache's cache_info()."""
        return self.hits, self.misses, len(self.entries), self.nbytes


# ---- subsequence rules, one term at a time ---------------------------------


def reference_rule_terms(rule: str, n: int) -> tuple[int, ...]:
    """The first n terms of a rule spec, each from its closed form or one draw.

    Defaults as in Subsequence.parse: affine offset 0, geometric ratio 2,
    random max_step 3.
    """
    name, _, args = rule.partition(":")
    params = [int(p) for p in args.split(",") if p]
    if name == "identity":
        return tuple(range(1, n + 1))
    if name == "affine":
        step, offset = (params + [0])[:2]
        return tuple(step * j + offset for j in range(1, n + 1))
    if name == "geometric":
        base, ratio = (params + [2])[:2]
        return tuple(base * ratio ** (j - 1) for j in range(1, n + 1))
    if name == "random":
        seed, max_step = (params + [3])[:2]
        rng = random.Random(seed)
        out, last = [], 0
        for _ in range(n):
            last += rng.randint(1, max_step)
            out.append(last)
        return tuple(out)
    raise ValueError(f"unknown rule {rule!r}")


# ---- sub-spaces and restricted fields ----------------------------------------


def restrict_space(space, subset):
    """The induced submatrix on the given labels, in the given order, validated like any space."""
    from wbslab.errors import InvalidInputError
    from wbslab.metric import FiniteMetricSpace

    idx = [space.index(label) for label in subset]
    if len(set(idx)) != len(idx):
        raise InvalidInputError("subset labels must be distinct")
    return FiniteMetricSpace(space.dist[np.ix_(idx, idx)], tuple(subset))


def restrict_field(f, subset):
    """The field's values on the sub-space of the given labels."""
    from wbslab.holder import ScalarField

    idx = [f.space.index(label) for label in subset]
    return ScalarField(restrict_space(f.space, subset), f.values[idx])


# ---- separated pair families by triple loops ---------------------------------


def brute_force_pair_family_ok(space, family) -> bool:
    radii = family.radii(space)
    for x, y in family.pairs:
        if x == y:
            return False
    for n, (_, y_n) in enumerate(family.pairs):
        for x_m, _ in family.pairs:
            if space.d(x_m, y_n) < radii[n]:
                return False
    for n in range(len(family)):
        for m in range(n + 1, len(family)):
            y_n, y_m = family.pairs[n][1], family.pairs[m][1]
            for p in space.labels:
                if space.d(p, y_n) < radii[n] and space.d(p, y_m) < radii[m]:
                    return False
    return True


def reference_verify_pair_family(space, family):
    """verify_pair_family with one space.d call per (n, m) separation test.

    The original implementation; the production version compares one
    gathered block of the distance matrix against the radii.
    """
    from wbslab.metric import PairFamilyReport

    violations: list[dict] = []
    pairs = family.pairs
    for n, (x, y) in enumerate(pairs):
        space.index(x), space.index(y)
        if x == y:
            violations.append({"condition": "distinct", "pair": n, "detail": f"{x} == {y}"})

    radii = family.radii(space)
    for n, (x_n, y_n) in enumerate(pairs):
        for m, (x_m, _) in enumerate(pairs):
            d = space.d(x_m, y_n)
            if d < radii[n]:
                violations.append(
                    {
                        "condition": "separation",
                        "pair": n,
                        "other": m,
                        "detail": f"d({x_m}, {y_n}) = {d!r} < {radii[n]!r}",
                    }
                )

    membership = space.balls([y for _, y in pairs], radii)
    counts = membership.sum(axis=0)
    for p in np.nonzero(counts > 1)[0]:
        inside = np.nonzero(membership[:, p])[0]
        violations.append(
            {
                "condition": "disjoint",
                "point": space.labels[int(p)],
                "balls": [int(i) for i in inside],
                "detail": f"point lies in {int(counts[p])} balls",
            }
        )
    return PairFamilyReport(violations)


# ---- reference metric checks: the per-k triangle loop and the tuple greedy ---
#
# These are the original implementations of validate_metric and
# find_pair_family.  The production versions use a min-plus bound and a
# conflict mask; they must reproduce these reports and families exactly.


def reference_point_distances(points, metric="euclidean"):
    """The n x n x d difference array, reduced over its last axis.

    An empty max (d = 0) starts from 0, as the sums do.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    diff = pts[:, None, :] - pts[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=2))
    if metric == "l1":
        return np.abs(diff).sum(axis=2)
    return np.abs(diff).max(axis=2, initial=0.0)


def reference_validate_metric(dist, labels=None, max_reported=50):
    """One n x n pass per intermediate point k, reported k-major."""
    from wbslab import tolerances
    from wbslab.metric import MetricViolation, ValidationReport, default_labels

    rel = tolerances.DEFAULT_TOLERANCES.triangle_rel
    arr = np.asarray(dist, dtype=float)
    n = arr.shape[0]
    labels = default_labels(n) if labels is None else labels
    report = ValidationReport()

    def add(kind, idx, detail):
        if len(report.violations) < max_reported:
            report.violations.append(
                MetricViolation(kind, tuple(labels[i] for i in idx), detail)
            )

    diag = np.abs(np.diagonal(arr))
    for i in np.nonzero(diag > rel)[0]:
        add("diagonal", (int(i),), f"d(x,x) = {arr[i, i]!r} != 0")
    asym = np.abs(arr - arr.T)
    bad = np.argwhere(asym > rel * np.maximum(np.abs(arr), 1.0))
    for i, j in bad:
        if i < j:
            add("symmetry", (int(i), int(j)), f"{arr[i, j]!r} vs {arr[j, i]!r}")
    off = ~np.eye(n, dtype=bool)
    for i, j in np.argwhere((arr <= 0) & off):
        if i < j:
            add("positivity", (int(i), int(j)), f"d = {arr[i, j]!r} <= 0 for distinct points")
    for k in range(n):
        bound = arr[:, k][:, None] + arr[k, :][None, :]
        excess = arr - bound
        bad = np.argwhere(excess > rel * np.maximum(bound, 1.0))
        for i, j in bad:
            if i != k and j != k and i < j:
                add(
                    "triangle",
                    (int(i), int(k), int(j)),
                    f"d = {arr[i, j]!r} > {arr[i, k]!r} + {arr[k, j]!r}",
                )
    report.checked_triples = n * n * n
    return report


def reference_find_pair_family(space, K, target_count):
    """Sort all (d, i, j) tuples, then test each against every accepted pair."""
    from wbslab.metric import SeparatedPairFamily

    n = len(space)
    dist = space.dist
    candidates = sorted((dist[i, j], i, j) for i in range(n) for j in range(n) if i != j)
    accepted = []  # (x_idx, y_idx, radius)
    used = set()
    for d, xi, yi in candidates:
        if xi in used or yi in used:
            continue
        r = K * d
        if any(dist[xi, yj] < rj or dist[xj, yi] < r for xj, yj, rj in accepted):
            continue
        new_ball = dist[yi] < r
        if any(np.any(new_ball & (dist[yj] < rj)) for _, yj, rj in accepted):
            continue
        accepted.append((xi, yi, r))
        used.update((xi, yi))
        if len(accepted) >= target_count:
            break
    return SeparatedPairFamily(tuple((space.labels[xi], space.labels[yi]) for xi, yi, _ in accepted), K)


# ---- the scalar power inequality, with the pinned float slack ----------------


def power_diff_check(a: float, b: float, alpha: float) -> bool:
    """Whether |a**alpha - b**alpha| <= |a - b|**alpha within float slack.

    The inequality is a theorem for nonnegative a, b and 0 < alpha <= 1;
    the slack, ``float_slack`` scaled by the larger power, only absorbs
    power rounding.
    """
    from wbslab import tolerances
    from wbslab.errors import InvalidInputError
    from wbslab.holder import validate_alpha

    alpha = validate_alpha(alpha)
    a, b = float(a), float(b)
    if a < 0 or b < 0:
        raise InvalidInputError(f"operands must be nonnegative, got {a}, {b}")
    pa, pb = a**alpha, b**alpha
    slack = tolerances.DEFAULT_TOLERANCES.float_slack * max(1.0, pa, pb)
    return abs(pa - pb) <= abs(a - b) ** alpha + slack


# ---- reference Holder embedding: the per-vector bump loop ------------------
#
# The original embed_holder: a fresh pair bump per pair on every call, the
# owning ball of each point found by a direct scan, then one product per
# point.  The production operator builds the bumps once; its images must
# match these bit for bit.


def reference_embed_holder(a, space, family, alpha):
    """Values of sum_n a_n * phi_n on every point of the space."""
    from wbslab.holder import pair_bump

    bumps = [pair_bump(space, pair, family.K, alpha) for pair in family.pairs]
    radii = family.radii(space)
    values = np.zeros(len(space))
    for p, label in enumerate(space.labels):
        for n, (_, y) in enumerate(family.pairs):
            if space.d(y, label) < radii[n]:
                values[p] = a[n] * bumps[n].values[p]
    return values


def reference_embed_cb(a, space, centers, radii):
    """The original tent sum: one full tent field per center."""
    from wbslab.holder import tent_bump

    values = np.zeros(len(space))
    for coeff, center, r, mask in zip(a, centers, radii, space.balls(centers, radii)):
        values[mask] = coeff * tent_bump(space, center, float(r)).values[mask]
    return values


# ---- reference sandwich certificate: one exhaustive scan per vector ----------
#
# The original verify_sandwich and distortion_report: every vector's image
# built as a field on the whole space and its Holder norm taken by the
# n^2/2 pair scan.  The production kernel scans only the support of the
# images; its norms, checks, reports and errors must match these exactly.


def reference_sandwich_norms(vectors, space, family, alpha):
    """Sup norms and seminorms of the images, by the exhaustive scan."""
    from wbslab.holder import ScalarField, holder_seminorm, sup_norm

    images = [ScalarField(space, reference_embed_holder(a.entries, space, family, alpha)) for a in vectors]
    return (
        np.array([sup_norm(f) for f in images]),
        np.array([holder_seminorm(f, alpha) for f in images]),
    )


def reference_sandwich_checks(vectors, space, family, alpha, raise_on_violation=True):
    """The per-vector loop: both sandwich tests on each vector's scanned norm."""
    from wbslab import tolerances
    from wbslab.embed import SandwichCheck
    from wbslab.errors import CertificateViolationError, InvalidInputError

    for a in vectors:
        if len(a) != len(family):
            raise InvalidInputError(f"vector length {len(a)} != family size {len(family)}")
    slack = tolerances.DEFAULT_TOLERANCES.sandwich_rel
    bound_upper = 2.0 / family.K**alpha + 1.0
    sups, seminorms = reference_sandwich_norms(vectors, space, family, alpha)
    checks = []
    for a, sup_f, seminorm in zip(vectors, sups.tolist(), seminorms.tolist()):
        norm, sup_a = sup_f + seminorm, a.sup_value
        lower_ok = sup_a <= norm * (1.0 + slack) + slack * max(1.0, sup_a)
        upper_ok = norm <= bound_upper * sup_a * (1.0 + slack) + slack
        if raise_on_violation and not isfinite(norm):
            raise InvalidInputError(f"image norm overflows the float range at sup(a)={sup_a!r}")
        if raise_on_violation and not (lower_ok and upper_ok):
            side = "lower" if not lower_ok else "upper"
            raise CertificateViolationError(
                f"{side} embedding bound violated: sup(a)={sup_a!r}, "
                f"norm={norm!r}, upper bound {bound_upper!r}",
                witness=a,
            )
        ratio = (norm / sup_a) if sup_a > 0 else None
        checks.append(SandwichCheck(sup_a, norm, ratio, bound_upper, lower_ok, upper_ok))
    return checks


def reference_distortion_report(space, family, alpha, vectors):
    """Certify each nonzero vector by the per-vector loop, then summarize."""
    from wbslab.embed import EmbeddingReport, build_support_map
    from wbslab.errors import InvalidInputError

    nonzero = [a for a in vectors if a.sup_value != 0]
    if not nonzero:
        raise InvalidInputError("no nonzero vectors supplied")
    build_support_map(space, family, alpha)  # verifies the family first
    checks = reference_sandwich_checks(nonzero, space, family, alpha)
    ratios = [(c.ratio, a) for c, a in zip(checks, nonzero)]
    upper, worst = max(ratios, key=lambda t: t[0])
    return EmbeddingReport(
        lower=min(r for r, _ in ratios),
        upper=upper,
        bound_upper=checks[0].bound_upper,
        samples=len(ratios),
        worst_vector=worst,
    )


def reference_bump_worst(space, family, alpha):
    """The original sandwich-suite loop: the largest seminorm and sup norm
    over the family's pair bumps, each bump a fresh field and its seminorm
    the exhaustive pair scan."""
    from wbslab.holder import holder_seminorm, pair_bump, sup_norm

    seminorm_worst = sup_worst = 0.0
    for pair in family.pairs:
        bump = pair_bump(space, pair, family.K, alpha)
        seminorm_worst = max(seminorm_worst, holder_seminorm(bump, alpha))
        sup_worst = max(sup_worst, sup_norm(bump))
    return seminorm_worst, sup_worst


# ---- ordinal intervals as rational point sets --------------------------------
#
# Ordinals below omega^3 are triples (c2, c1, c0) in lex order.  The
# interval (0, o] is embedded into (0, 1] by nesting convergent families:
# a successor tail becomes isolated points, each omega-term a sequence
# accumulating at its supremum, each omega^2-term a sequence of such
# blocks.  Infinite families are truncated to their first `depth`
# members; supremum points are always kept, so the truncations of one
# interval are nested and exact.

Triple = tuple[int, int, int]


def derived_set(o):
    """Ordinal of the derived interval: limit ordinals of (0, o].

    Zero encodes the empty space.  Finite exponents decrement, infinite
    exponents are fixed points of the decrement, the finite part drops.
    Iterating it is the oracle for the closed form `classify.cb_rank`.
    """
    from wbslab.classify import Ordinal

    new_terms = []
    for e, c in o.terms:
        if e.is_zero:
            continue  # isolated finite tail
        if e.is_finite:
            new_terms.append((Ordinal.from_int(e.as_int() - 1), c))
        else:
            new_terms.append((e, c))
    return Ordinal(tuple(new_terms))


def triple_add(a: Triple, b: Triple) -> Triple:
    """Ordinal addition restricted to triples."""
    if b[0] > 0:
        return (a[0] + b[0], b[1], b[2])
    if b[1] > 0:
        return (a[0], a[1] + b[1], b[2])
    return (a[0], a[1], a[2] + b[2])


def triple_is_limit(t: Triple) -> bool:
    return t != (0, 0, 0) and t[2] == 0


def omega_times(lam: Triple) -> Triple:
    """Left multiplication by omega for lam < omega^2, i.e. lam = (0,a,b)."""
    if lam[0] != 0:
        raise ValueError(f"{lam} is not below omega^2")
    return (lam[1], lam[2], 0)


def _materialize(
    length: Triple,
    base: Triple,
    lo: Fraction,
    hi: Fraction,
    depth: int,
    out: dict[Triple, Fraction],
) -> None:
    c2, c1, c0 = length
    if length == (0, 0, 0):
        return
    if c0 > 0:
        inner = (c2, c1, 0)
        mid = (lo + hi) / 2 if inner != (0, 0, 0) else lo
        _materialize(inner, base, lo, mid, depth, out)
        for j in range(1, c0 + 1):
            out[triple_add(base, (c2, c1, j))] = mid + (hi - mid) * Fraction(j, c0)
        return
    if c1 > 0:
        prefix = (c2, c1 - 1, 0)
        mid = (lo + hi) / 2 if prefix != (0, 0, 0) else lo
        _materialize(prefix, base, lo, mid, depth, out)
        anchor = triple_add(base, prefix)
        for n in range(1, depth + 1):
            out[triple_add(anchor, (0, 0, n))] = hi - (hi - mid) / 2**n
        out[triple_add(base, (c2, c1, 0))] = hi
        return
    prefix = (c2 - 1, 0, 0)
    mid = (lo + hi) / 2 if prefix != (0, 0, 0) else lo
    _materialize(prefix, base, lo, mid, depth, out)
    anchor = triple_add(base, prefix)
    for n in range(1, depth + 1):
        block_lo = hi - (hi - mid) / 2 ** (n - 1)
        block_hi = hi - (hi - mid) / 2**n
        _materialize((0, 1, 0), triple_add(anchor, (0, n - 1, 0)), block_lo, block_hi, depth, out)
    out[triple_add(base, (c2, 0, 0))] = hi


def embed_interval(o: Triple, depth: int) -> dict[Triple, Fraction]:
    """The interval (0, o] as exact rational points, truncated at depth."""
    out: dict[Triple, Fraction] = {}
    _materialize(o, (0, 0, 0), Fraction(0), Fraction(1), depth, out)
    return out


def _nearest_distance(sorted_positions: list[Fraction], q: Fraction) -> Fraction | None:
    i = bisect.bisect_left(sorted_positions, q)
    best = None
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(sorted_positions) and sorted_positions[j] != q:
            d = abs(sorted_positions[j] - q)
            if best is None or d < best:
                best = d
    return best


def detect_limit_points(
    o: Triple, depths: tuple[int, int, int] = (4, 8, 12)
) -> tuple[set[Triple], dict[Triple, Fraction]]:
    """Literal limit-point computation over the rational realization.

    A point of the shallowest truncation is a limit point iff its
    nearest-neighbor distance keeps shrinking strictly as the truncation
    deepens.  Isolated points have their final neighborhoods by the
    middle depth; sequence members keep arriving next to suprema.  All
    arithmetic is exact.
    """
    m1, m2, m3 = depths
    shallow = embed_interval(o, m1)
    pos_mid = sorted(embed_interval(o, m2).values())
    pos_deep = sorted(embed_interval(o, m3).values())
    detected = set()
    for t, q in shallow.items():
        d_mid = _nearest_distance(pos_mid, q)
        d_deep = _nearest_distance(pos_deep, q)
        if d_mid is not None and d_deep is not None and d_deep < d_mid:
            detected.add(t)
    return detected, shallow
