"""Enumeration of maximal Schreier sets against exhaustive generation."""

import random
import sys
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbslab import schreier
from wbslab.errors import InvalidInputError
from wbslab.schreier import (
    CanonicalEnumeration,
    ReversedGradeEnumeration,
    SchreierSet,
    count_max_at_most,
    get_enumeration,
)
from wbslab.weaknull import Subsequence

from oracles import (
    ReferenceCountCache,
    _reference_count,
    brute_force_schreier,
    brute_force_schreier_alt,
    is_maximal_schreier,
    order_key,
    reference_grade_of_rank,
    reference_rank_of,
    reference_unrank,
)

CANONICAL = get_enumeration("canonical")
ALT = get_enumeration("alt")


class TestMembership:
    def test_singleton_one(self):
        assert is_maximal_schreier({1})

    def test_direct_check(self):
        assert is_maximal_schreier({2, 3})
        assert not is_maximal_schreier({2, 3, 4})

    def test_empty_excluded(self):
        assert not is_maximal_schreier(set())

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            is_maximal_schreier({0, 1})
        with pytest.raises(InvalidInputError):
            is_maximal_schreier({-3})

    def test_type_invariants(self):
        with pytest.raises(InvalidInputError):
            SchreierSet(())
        with pytest.raises(InvalidInputError):
            SchreierSet((3, 2, 1))
        with pytest.raises(InvalidInputError):
            SchreierSet((2, 3, 4))


class TestIntegerRule:
    @pytest.mark.parametrize("make", [
        lambda: SchreierSet((2.7, 3.2)),
        lambda: SchreierSet((True,)),
        lambda: SchreierSet.from_iterable([2.0, 3]),
        lambda: is_maximal_schreier({1.5}),
        lambda: is_maximal_schreier([True]),
        lambda: count_max_at_most(2.5),
        lambda: CANONICAL.unrank(3.0),
    ])
    def test_non_integers_are_refused_not_truncated(self, make):
        with pytest.raises(InvalidInputError, match="expected a decimal integer"):
            make()

    def test_integral_values_and_decimal_texts_are_read(self):
        s = SchreierSet((np.int64(2), "3"))
        assert s.elements == (2, 3) and all(type(e) is int for e in s)
        assert SchreierSet.from_iterable(["5", 4, np.uint8(3), 4]).elements == (3, 4, 5)
        assert is_maximal_schreier(["2", 3])
        # past CPython's default 4300-digit limit
        assert CANONICAL.unrank("9" * 5000) == CANONICAL.unrank(10**5000 - 1)
        with pytest.raises(InvalidInputError, match="^cardinality 1 != minimum 9{5000}"):
            SchreierSet(("9" * 5000,))

    def test_positivity_is_reported_before_order(self):
        with pytest.raises(InvalidInputError, match="positive"):
            SchreierSet((3, 0, 5))
        with pytest.raises(InvalidInputError, match="^elements must be strictly increasing: \\(3, 2, 4\\)$"):
            SchreierSet((3, 2, 4))


class TestCanonicalOrder:
    # frozen from the exhaustive generation below
    FIRST_THIRTEEN = [
        (1,), (2, 3), (2, 4), (2, 5), (3, 4, 5), (2, 6), (3, 4, 6),
        (3, 5, 6), (2, 7), (3, 4, 7), (3, 5, 7), (3, 6, 7), (4, 5, 6, 7),
    ]

    def test_first_ranks(self):
        for rank, expected in enumerate(self.FIRST_THIRTEEN, start=1):
            assert CANONICAL.unrank(rank).elements == expected

    def test_rank_examples(self):
        assert CANONICAL.rank_of(SchreierSet((1,))) == 1
        assert CANONICAL.rank_of(SchreierSet((3, 4, 5))) == 5

    def test_matches_brute_force(self):
        expected = brute_force_schreier(15)
        for i, elems in enumerate(expected):
            assert CANONICAL.unrank(i + 1).elements == elems
            assert CANONICAL.rank_of(SchreierSet(elems)) == i + 1

    def test_monotone_in_order_key(self):
        previous = CANONICAL.unrank(1)
        for rank in range(2, 3000):
            current = CANONICAL.unrank(rank)
            assert order_key(previous) < order_key(current)
            previous = current

    def test_unrank_outputs_are_members(self):
        for rank in range(1, 500):
            assert is_maximal_schreier(CANONICAL.unrank(rank).elements)

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            CANONICAL.unrank(0)


class TestRoundTrip:
    def test_small_ranks(self):
        for rank in range(1, 5001):
            assert CANONICAL.rank_of(CANONICAL.unrank(rank)) == rank

    def test_random_big_ranks(self):
        rng = random.Random(90125)
        for _ in range(100):
            rank = rng.randrange(10**6, 10**30)
            assert CANONICAL.rank_of(CANONICAL.unrank(rank)) == rank

    def test_huge_sparse_set(self):
        s = SchreierSet((2, 10**6))
        assert CANONICAL.unrank(CANONICAL.rank_of(s)) == s

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_sets_round_trip(self, data):
        m = data.draw(st.integers(min_value=1, max_value=8))
        tail = data.draw(
            st.lists(
                st.integers(min_value=m + 1, max_value=m + 40),
                min_size=m - 1,
                max_size=m - 1,
                unique=True,
            )
        )
        s = SchreierSet((m, *sorted(tail)))
        assert CANONICAL.unrank(CANONICAL.rank_of(s)) == s
        assert ALT.unrank(ALT.rank_of(s)) == s


class TestCounts:
    def test_small_values(self):
        assert [count_max_at_most(n) for n in range(1, 6)] == [1, 1, 2, 3, 5]

    def test_matches_brute_force(self):
        for n in range(1, 16):
            assert count_max_at_most(n) == len(brute_force_schreier(n))

    def test_matches_binomial_sum(self):
        for n in range(1, 200):
            assert count_max_at_most(n) == sum(
                comb(n - m, m - 1) for m in range(1, n + 1)
            )

    def test_fibonacci_recurrence(self):
        for n in range(3, 501):
            assert count_max_at_most(n) == count_max_at_most(n - 1) + count_max_at_most(n - 2)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            count_max_at_most(0)

    def test_grade_cap(self):
        # checked before any Fibonacci work, so a grade like 2**520 fails at once
        for n in (schreier._MAX_GRADE + 1, 2**520, 10**30):
            with pytest.raises(InvalidInputError, match="largest supported grade"):
                count_max_at_most(n)
        with pytest.raises(InvalidInputError, match="largest supported grade"):
            CanonicalEnumeration().rank_of(SchreierSet((2, 10**30)))


class TestAlternativeEnumeration:
    def test_is_a_bijection_on_prefix(self):
        expected = brute_force_schreier_alt(15)
        for i, elems in enumerate(expected):
            assert ALT.unrank(i + 1).elements == elems
            assert ALT.rank_of(SchreierSet(elems)) == i + 1

    def test_differs_from_canonical(self):
        assert ALT.rank_of(SchreierSet((3, 4, 5))) == 4
        assert CANONICAL.rank_of(SchreierSet((3, 4, 5))) == 5

    def test_registry(self):
        assert isinstance(get_enumeration("canonical"), CanonicalEnumeration)
        assert isinstance(get_enumeration("alt"), ReversedGradeEnumeration)
        with pytest.raises(InvalidInputError):
            get_enumeration("nope")


def _assert_matches_reference(s: SchreierSet) -> None:
    for enum in (CANONICAL, ALT):
        rank = enum.rank_of(s)
        assert rank == reference_rank_of(s.elements, enum.name)
        assert enum.unrank(rank) == s


def _set_from_gaps(m: int, gaps) -> SchreierSet:
    elems = [m]
    for g in gaps:
        elems.append(elems[-1] + 1 + g)
    return SchreierSet(tuple(elems))


class TestAgainstReference:
    """The ratio-walked ranking against the one-comb-per-term original."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dense_gappy_sets(self, data):
        m = data.draw(st.integers(min_value=2, max_value=300))
        gaps = data.draw(st.lists(st.integers(0, 3), min_size=m - 1, max_size=m - 1))
        _assert_matches_reference(_set_from_gaps(m, gaps))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_sets_with_large_maxima(self, data):
        m = data.draw(st.integers(min_value=2, max_value=6))
        top = data.draw(st.integers(min_value=2 * m, max_value=10**5))
        middle = data.draw(
            st.lists(st.integers(m + 1, top - 1), min_size=m - 2, max_size=m - 2, unique=True)
        )
        _assert_matches_reference(SchreierSet((m, *sorted(middle), top)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gaps_straddling_the_ratio_crossover(self, data):
        steps = schreier._RATIO_STEPS
        m = data.draw(st.integers(min_value=2, max_value=12))
        near = st.sampled_from(
            [0, 1, steps - 2, steps - 1, steps, steps + 1, steps + 2, 3 * steps]
        )
        gaps = data.draw(st.lists(near, min_size=m - 1, max_size=m - 1))
        _assert_matches_reference(_set_from_gaps(m, gaps))

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_gaps_ending_at_gallop_probes(self, m):
        # Past the ratio steps, unranking probes offsets 2**j - 1 further
        # on.  A gap that ends next to a probe, followed by consecutive
        # elements, makes a probed binomial equal the target exactly.
        steps = schreier._RATIO_STEPS
        for position in range(m - 2):
            for j in range(12):
                for gap in (steps - 2 + 2**j, steps - 1 + 2**j, steps + 2**j):
                    for last in (0, 50, 3000):
                        gaps = [0] * (m - 1)
                        gaps[position], gaps[-1] = gap, last
                        _assert_matches_reference(_set_from_gaps(m, gaps))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10**120), st.sampled_from(["canonical", "alt"]))
    def test_unrank_of_arbitrary_ranks(self, rank, name):
        assert get_enumeration(name).unrank(rank).elements == reference_unrank(rank, name)

    def test_grade_of_rank_at_every_boundary(self):
        for n in range(3, 2001):
            f = count_max_at_most(n)
            for rank in (f - 1, f, f + 1):
                assert schreier._grade_of_rank(rank) == reference_grade_of_rank(rank)

    @pytest.mark.parametrize("shift", [-3, 3])
    def test_grade_of_rank_corrects_a_wrong_estimate(self, monkeypatch, shift):
        shifted = schreier._LOG_SQRT5 + shift * schreier._LOG_PHI
        monkeypatch.setattr(schreier, "_LOG_SQRT5", shifted)
        for n in range(3, 300):
            f = count_max_at_most(n)
            for rank in (f - 1, f, f + 1):
                assert schreier._grade_of_rank(rank) == reference_grade_of_rank(rank)

    @pytest.mark.parametrize("enum", [CANONICAL, ALT], ids=["canonical", "alt"])
    def test_grade_boundaries(self, enum):
        # grade 2 is empty: F(2) = F(1), so the identities start at n = 3
        grades = sorted(set(range(3, 200)) | {int(10 ** (2 + 3 * i / 40)) for i in range(41)})
        assert grades[-1] == 10**5
        for n in grades:
            f = count_max_at_most(n)
            assert enum.unrank(f).maximum == n
            first_of_next = enum.unrank(f + 1)
            assert first_of_next.maximum == n + 1
            if enum is CANONICAL:
                assert first_of_next.elements == (2, n + 1)


class TestLexRankOfSubsets:
    """Ranking stops at the final run, unranking at index 0: every subset, in lex order."""

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 10), (4, 13), (7, 6)])
    def test_every_subset_of_small_intervals(self, lo, hi):
        values = range(lo, hi + 1)
        for k in range(len(values) + 1):
            subsets = list(combinations(values, k))  # lex order
            for index, chosen in enumerate(subsets):
                assert schreier._comb_lex_rank(lo, hi, chosen) == index
                assert schreier._comb_lex_unrank(lo, hi, k, index) == chosen
            with pytest.raises(InvalidInputError):
                schreier._comb_lex_unrank(lo, hi, k, len(subsets))

    @pytest.mark.parametrize("run", [1, 2, 63, 64, 65, 500])
    @pytest.mark.parametrize("gap", [0, 1, 70, 3000])
    def test_a_final_run_after_a_gap(self, run, gap):
        # gaps before the run straddle the ratio steps and the galloping
        _assert_matches_reference(_set_from_gaps(run + 4, [2, 0, gap] + [0] * run))

    def test_identity_witness_at_N_1e5(self):
        N = 10**5
        s = SchreierSet(tuple(range(N + 1, 2 * N + 2)))
        # one run: the middle is the first subset of its interval
        assert schreier._comb_lex_rank(N + 2, 2 * N, s.elements[1:-1]) == 0
        for enum in (CANONICAL, ALT):
            assert enum.unrank(enum.rank_of(s)) == s


def _assert_both_walks_match_reference(s: SchreierSet) -> None:
    """_assert_matches_reference, and the oracle's own unrank back to s."""
    _assert_matches_reference(s)
    for enum in (CANONICAL, ALT):
        assert reference_unrank(enum.rank_of(s), enum.name) == s.elements


def _dense_witness(rule: str, N: int) -> SchreierSet:
    """A_N of the rule: its terms at positions N + 1 .. N + k_{N+1}."""
    sub = Subsequence.parse(rule)
    return SchreierSet(sub.terms(N + sub.term(N + 1))[N:])


class TestSkipRuns:
    """Runs of 0-70 skipped values, either side of the ratio-step crossover."""

    @pytest.mark.parametrize("skip", range(71))
    def test_every_skip_length(self, skip):
        # the run of skip values comes after a choice, after a run of
        # choices, before the final run and at the start of the middle
        _assert_both_walks_match_reference(_set_from_gaps(8, [skip, 0, 0, skip, 1, skip, 0]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mixed_skip_runs(self, data):
        m = data.draw(st.integers(min_value=2, max_value=30))
        skips = st.one_of(st.integers(0, 3), st.integers(0, 70))
        gaps = data.draw(st.lists(skips, min_size=m - 1, max_size=m - 1))
        _assert_both_walks_match_reference(_set_from_gaps(m, gaps))

    @pytest.mark.parametrize("rule", ["random:12345,3", "random:-8,3", "affine:2,5", "affine:3", "affine:6,1"])
    def test_dense_witnesses_match_the_oracles(self, rule):
        _assert_both_walks_match_reference(_dense_witness(rule, 60))

    @pytest.mark.parametrize("rule, N", [
        ("random:7,3", 5000), ("random:2024,3", 2000), ("affine:2", 5000), ("affine:2,9", 1000),
        ("affine:3,1", 1000), ("affine:4", 600), ("affine:5,2", 400), ("affine:6", 300),
    ])
    def test_dense_witness_round_trips(self, rule, N):
        s = _dense_witness(rule, N)
        n = s.maximum
        ranks = [enum.rank_of(s) for enum in (CANONICAL, ALT)]
        for enum, rank in zip((CANONICAL, ALT), ranks):
            assert enum.unrank(rank) == s
        # the grade's two orders are mirror images: the positions add up to its size - 1
        below = count_max_at_most(n - 1)
        assert sum(ranks) - 2 * (below + 1) == count_max_at_most(n) - below - 1


class TestCountCache:
    def test_memory_bound_across_many_large_grades(self):
        count_max_at_most.cache_clear()
        info = count_max_at_most.cache_info()
        assert info.nbytes == 0 and info.currsize == 0
        grades = sorted({int(10 ** (3 + 3 * i / 199)) for i in range(200)})
        assert len(grades) == 200 and grades[-1] == 10**6
        for n in grades:
            s = SchreierSet((2, n))
            assert CANONICAL.rank_of(s) == count_max_at_most(n - 1) + 1
            info = count_max_at_most.cache_info()
            assert info.nbytes <= info.maxbytes
        assert 0 < info.currsize < len(grades)
        assert info.maxbytes == schreier._COUNT_CACHE_BYTES

    def test_a_miss_keeps_both_counts_of_the_pair(self):
        count_max_at_most.cache_clear()
        count_max_at_most(50)
        count_max_at_most(50)
        count_max_at_most(51)
        info = count_max_at_most.cache_info()._asdict()
        assert (info["hits"], info["misses"], info["currsize"]) == (2, 1, 2)
        count_max_at_most.cache_clear()
        assert count_max_at_most.cache_info().currsize == 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_request_sequences_match_the_recurrence_and_the_bookkeeping(self, data):
        # Budgets from below one count (values returned but not kept) to
        # no eviction; a small one evicts F(n + 1) before F(n), leaving
        # half pairs that must not serve as a source.
        maxbytes = data.draw(st.sampled_from([400, 1500, 6000, 1 << 20]))
        cache = schreier._FibonacciCache(maxbytes)
        reference = ReferenceCountCache(maxbytes)
        ratio = schreier._NEAR_PAIR_RATIO
        for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
            keys = list(cache._entries)
            if keys and data.draw(st.booleans()):
                q = data.draw(st.sampled_from(keys))
                # a whole pair at q is in reach of n = q + k iff
                # k <= q // (ratio - 1) above it or -k <= q // (ratio + 1) below
                up, down = q // (ratio - 1), q // (ratio + 1)
                edges = [0, 1, -1, 2, -2, up, up + 1, -down, -down - 1]
                k = data.draw(st.sampled_from(edges) | st.integers(-down - 1, up + 1))
                n = max(1, q + k)
            else:
                n = data.draw(st.integers(min_value=1, max_value=6000))
            assert cache(n) == reference(n) == _reference_count(n)
            info = cache.cache_info()
            assert (info.hits, info.misses, info.currsize) == reference.info()[:3]
            assert info.nbytes == reference.nbytes <= maxbytes

    def test_a_miss_is_derived_only_from_a_whole_nearby_pair(self, monkeypatch):
        sources = []

        def spy(n, p, fp, fp1):
            sources.append(p)
            return derive(n, p, fp, fp1)

        derive = schreier._fib_pair_from
        monkeypatch.setattr(schreier, "_fib_pair_from", spy)
        cache = schreier._FibonacciCache(
            sum(sys.getsizeof(_reference_count(n)) for n in (1000, 3000, 3001))
        )
        cache(1000)  # keeps 1001, then 1000
        cache(3000)  # keeps 3001 and 3000, evicting 1001
        assert list(cache._entries) == [1000, 3001, 3000] and sources == []
        assert cache(1020) == _reference_count(1020)  # 1000 is half a pair
        assert sources == []
        # 16 |n - p| <= n holds with equality at n = 1600, and fails one grade further out
        cases = [(1500, 1600, True), (1500, 1601, False), (1700, 1600, True), (1700, 1599, False)]
        for p, n, derived in cases:
            cache = schreier._FibonacciCache(1 << 20)
            cache(p)
            sources.clear()
            assert cache(n) == _reference_count(n)
            assert sources == ([p] if derived else [])

    @pytest.mark.parametrize("n", [4 * 10**5, 10**6])
    @pytest.mark.parametrize("offset", [None, -3000, 3000], ids=["scratch", "pair_below", "pair_above"])
    def test_cassini_identity_at_large_grades(self, monkeypatch, n, offset):
        # F(n - 1) F(n + 1) - F(n)**2 = (-1)**n
        if offset is None:
            low, mid = schreier._fib_pair(n - 1)
            again, high = schreier._fib_pair(n)
        else:
            derive, calls = schreier._fib_pair_from, []
            monkeypatch.setattr(
                schreier, "_fib_pair_from", lambda *args: calls.append(args[1]) or derive(*args)
            )
            cache = schreier._FibonacciCache(1 << 20)
            cache(n + offset)
            low, mid = cache(n - 1), cache(n)
            again, high = mid, cache(n + 1)
            # n - 1 from the pair 3000 grades away, n + 1 from the pair at n - 1
            assert calls == [n + offset, n - 1]
            assert cache.cache_info()[:2] == (1, 3)
        assert mid == again
        assert low * high - mid * mid == (-1) ** n
