"""The 0/1 sequence, its null coordinates, and the Cesaro certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest

from wbslab import weaknull
from wbslab.errors import CertificateViolationError, InvalidInputError, NeedsMoreDataError
from wbslab.schreier import SchreierSet, get_enumeration
from wbslab.weaknull import (
    SequenceOracle,
    Subsequence,
    WeakConvergenceChallenge,
    certify_not_cesaro_null,
    find_weak_witness,
)

from oracles import brute_force_schreier, is_maximal_schreier, reference_rule_terms

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def oracle():
    return SequenceOracle()


class TestEntries:
    def test_examples(self, oracle):
        # the second set in canonical order is {2, 3}
        assert oracle.entry(2, 2) == 1
        assert oracle.entry(5, 1) == 0

    def test_matches_brute_force(self, oracle):
        sets = brute_force_schreier(10)
        for i, elems in enumerate(sets[:60], start=1):
            for k in range(1, 12):
                assert oracle.entry(k, i) == (1 if k in elems else 0)

    def test_vanishes_beyond_set_maximum(self, oracle):
        for i in (1, 2, 5, 17, 123):
            top = max(oracle.coordinate_set(i))
            assert all(oracle.entry(top + j, i) == 0 for j in range(1, 101))

    def test_invalid_arguments(self, oracle):
        with pytest.raises(InvalidInputError):
            oracle.entry(0, 1)
        with pytest.raises(InvalidInputError):
            oracle.entry(1, 0)


class TestCoordinatewiseNull:
    def test_thresholds(self, oracle):
        assert oracle.coordinatewise_null_check(1) == 1
        assert oracle.coordinatewise_null_check(5) == 5

    def test_threshold_is_sharp(self, oracle):
        for i in (2, 3, 7, 50):
            t = oracle.coordinatewise_null_check(i)
            assert oracle.entry(t, i) == 1
            assert oracle.entry(t + 1, i) == 0


class TestSubsequence:
    def test_rules(self):
        assert Subsequence.identity().terms(5) == (1, 2, 3, 4, 5)
        assert Subsequence.affine(2).terms(4) == (2, 4, 6, 8)
        assert Subsequence.geometric(1, 2).terms(4) == (1, 2, 4, 8)

    def test_seeded_rule_is_deterministic(self):
        a = Subsequence.seeded_increments(77).terms(50)
        b = Subsequence.seeded_increments(77).terms(50)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_prefix_without_rule_raises(self):
        sub = Subsequence.from_terms([1, 4, 9])
        with pytest.raises(NeedsMoreDataError) as exc:
            sub.term(5)
        assert exc.value.required == 5
        assert exc.value.available == 3

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidInputError):
            Subsequence.from_terms([1, 3, 3])
        with pytest.raises(InvalidInputError):
            Subsequence.from_terms([0, 1])

    @pytest.mark.parametrize("rule", [
        "identity", "affine:1,7", "affine:3,2", "geometric:1,2", "geometric:5,3",
        "random:194,3", "random:7,1", "random:2023,9",
    ])
    def test_bulk_terms_match_the_per_term_reference(self, rule):
        expected = reference_rule_terms(rule, 3000)
        sub = Subsequence.parse(rule)
        assert sub.term(5) == expected[4] and len(sub) == 5
        assert sub.term(1000) == expected[999] and len(sub) == 1000
        assert sub.terms(3000) == expected

    @pytest.mark.parametrize("max_step", [1, 2, 3, 4, 9, 2**70])
    @pytest.mark.parametrize("seed", [0, 7, -12345, 2**40 + 3])
    def test_random_rule_draws_as_randint_does(self, monkeypatch, seed, max_step):
        # the terms and the generator's state after them are those of a
        # rng.randint(1, max_step) loop, so no later draw can drift
        rule, n = f"random:{seed},{max_step}", 500
        expected = reference_rule_terms(rule, n)
        reference = random.Random(seed)
        for _ in range(n):
            reference.randint(1, max_step)
        generators = []

        class Recorded(random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                generators.append(self)

        monkeypatch.setattr(random, "Random", Recorded)
        assert Subsequence.parse(rule).terms(n) == expected
        assert [g.getstate() for g in generators] == [reference.getstate()]

    @pytest.mark.parametrize("values, message", [
        ([0, 1], "terms must be positive, got 0"),
        ([1, 2, -4], "terms must be positive, got -4"),
        ([3, 0], "terms must be positive, got 0"),  # positivity is checked first
        ([1, 3, 3], "terms must be strictly increasing: 3 then 3"),
        ([2, 5, 4, 1, -1], "terms must be strictly increasing: 5 then 4"),
        ([1, 10**700, 10**700 - 1], "terms must be strictly increasing: 1" + "0" * 700 + " then " + "9" * 700),
    ])
    def test_explicit_prefix_names_the_first_offender(self, values, message):
        with pytest.raises(InvalidInputError) as info:
            Subsequence.from_terms(values)
        assert str(info.value) == message

    def test_rule_keeps_the_terms_before_its_first_offender(self):
        sub = Subsequence((1, 2), rule=iter([3, 5, 5, 8]))
        assert sub.term(3) == 3
        with pytest.raises(InvalidInputError, match="^terms must be strictly increasing: 5 then 5$"):
            sub.term(6)
        assert sub.terms(4) == (1, 2, 3, 5)

    def test_exhausted_rule_needs_more_data(self):
        sub = Subsequence((1, 2), rule=iter([3, 4]))
        with pytest.raises(NeedsMoreDataError) as exc:
            sub.term(9)
        assert (exc.value.required, exc.value.available) == (9, 4)

    def test_term_cap_materializes_nothing(self):
        sub = Subsequence.identity()
        with pytest.raises(InvalidInputError, match=f"cap {weaknull.DEFAULT_MAX_TERMS}"):
            sub.term(weaknull.DEFAULT_MAX_TERMS + 1)
        assert len(sub) == 0
        assert sub.terms(3) == (1, 2, 3)

    @pytest.mark.parametrize("make", [
        lambda: Subsequence.from_terms([1.9, 2.5, 3.1]),
        lambda: Subsequence.from_terms([True, 2]),
        lambda: Subsequence(rule=iter([1, 2.5])).term(2),
        lambda: Subsequence.identity().term(2.0),
        lambda: certify_not_cesaro_null(Subsequence.identity(), 2.0),
        lambda: SequenceOracle().entry(2.0, 2),
        lambda: SequenceOracle().coordinate_set(2.0),
        lambda: Subsequence.affine(2.5),
        lambda: Subsequence.geometric(1, 2.0),
        lambda: Subsequence.seeded_increments(7, max_step=2.5),
        lambda: WeakConvergenceChallenge(Fraction(1, 2), (1.5, 2), (1, 2), (1, 2)),
        lambda: WeakConvergenceChallenge(Fraction(1, 2), (1, 2), (True, 2), (1, 2)),
    ])
    def test_non_integers_are_refused_not_truncated(self, make):
        with pytest.raises(InvalidInputError, match="expected a decimal integer"):
            make()

    def test_integral_and_decimal_terms_are_read(self):
        big = "9" * 5000  # past CPython's default 4300-digit limit
        sub = Subsequence.from_terms([np.int64(2), "3", big])
        assert sub.terms(3) == (2, 3, 10**5000 - 1)
        assert all(type(t) is int for t in sub.terms(3))
        challenge = WeakConvergenceChallenge(Fraction(1, 2), ("1", np.int32(4)), (1,), (big,))
        assert challenge.k_seq == (1, 4) and challenge.J_seq == (10**5000 - 1,)

    def test_parse(self):
        assert Subsequence.parse("identity").description == "identity"
        assert Subsequence.parse("affine:3,1").terms(3) == (4, 7, 10)
        assert Subsequence.parse("2,4,6").terms(3) == (2, 4, 6)
        with pytest.raises(InvalidInputError):
            Subsequence.parse("banana")


class TestCertificates:
    def test_identity_N2(self, oracle):
        cert = certify_not_cesaro_null(Subsequence.identity(), 2, oracle=oracle)
        assert cert.witness_set.elements == (3, 4, 5)
        assert cert.witness_coordinate == 5
        assert cert.mean == HALF
        assert cert.prefix == (1, 2, 3, 4)
        assert cert.prefix_len == 5

    def test_even_terms_N3(self, oracle):
        cert = certify_not_cesaro_null(Subsequence.affine(2), 3, oracle=oracle)
        assert cert.witness_set.elements == tuple(range(8, 24, 2))
        assert len(cert.witness_set) == cert.witness_set.minimum == 8
        assert cert.mean >= HALF
        # the coordinate really is the enumeration rank of the witness set
        bf = brute_force_schreier(cert.witness_set.maximum)
        assert bf[cert.witness_coordinate - 1] == cert.witness_set.elements

    def test_any_subsequence_N1(self, oracle):
        for sub in (Subsequence.identity(), Subsequence.affine(3, 5),
                    Subsequence.geometric(2, 3)):
            assert certify_not_cesaro_null(sub, 1, oracle=oracle).mean >= HALF

    def test_witness_past_the_grade_cap_stops_drawing(self, oracle):
        # geometric:1,2 at N = 17 needs 131,089 terms of up to 131,088
        # bits, but term 25 already passes the largest grade
        sub = Subsequence.geometric(1, 2)
        with pytest.raises(InvalidInputError, match="largest supported grade"):
            certify_not_cesaro_null(sub, 17, oracle=oracle)
        assert len(sub) <= 2 * 18

    def test_first_terms_past_the_grade_cap_stop_drawing(self, oracle):
        # geometric:2,3 passes the largest grade at term 16; drawing all
        # N + 1 = 400,001 terms first would hold about 10^11 bits
        sub = Subsequence.geometric(2, 3)
        with pytest.raises(InvalidInputError, match="^n exceeds the largest supported grade, 10000000$"):
            certify_not_cesaro_null(sub, 400_000, oracle=oracle)
        assert len(sub) <= 32

    def test_witness_is_maximal_schreier(self, oracle):
        for seed in range(10):
            sub = Subsequence.seeded_increments(seed)
            cert = certify_not_cesaro_null(sub, 4, oracle=oracle)
            assert is_maximal_schreier(cert.witness_set.elements)

    def test_tail_entries_are_one(self, oracle):
        sub = Subsequence.seeded_increments(5)
        N = 6
        cert = certify_not_cesaro_null(sub, N, oracle=oracle)
        terms = sub.terms(2 * N)
        for j in range(N + 1, 2 * N + 1):
            assert oracle.entry(terms[j - 1], cert.witness_coordinate) == 1

    def test_randomized_means(self, oracle):
        rng = random.Random(194)
        for _ in range(25):
            sub = Subsequence.seeded_increments(rng.randrange(2**30), max_step=4)
            N = rng.choice([1, 2, 4, 8, 16, 32])
            cert = certify_not_cesaro_null(sub, N, oracle=oracle)
            assert cert.mean >= HALF
            assert isinstance(cert.mean, Fraction)

    def test_enumeration_independence(self):
        alt = SequenceOracle("alt")
        for sub_maker in (Subsequence.identity, lambda: Subsequence.affine(2, 3)):
            for N in (1, 2, 4, 8):
                cert = certify_not_cesaro_null(sub_maker(), N, oracle=alt)
                assert cert.mean >= HALF
        # the witness coordinate moves, the bound does not
        c_can = certify_not_cesaro_null(Subsequence.identity(), 2)
        c_alt = certify_not_cesaro_null(Subsequence.identity(), 2, oracle=alt)
        assert c_can.witness_coordinate != c_alt.witness_coordinate
        assert c_can.mean == c_alt.mean == HALF

    def test_prefix_too_short(self):
        # short of N + k_(N+1) terms, then short of the first N + 1
        for terms, N, required in (([1, 2, 3], 2, 5), (range(1, 41), 100, 101)):
            with pytest.raises(NeedsMoreDataError) as exc:
                certify_not_cesaro_null(Subsequence.from_terms(terms), N)
            assert (exc.value.required, exc.value.available) == (required, len(terms))

    def test_term_cap(self):
        # N + k_{N+1} = 1_000_001 terms would be needed, one past the cap
        with pytest.raises(InvalidInputError, match=f"cap {weaknull.DEFAULT_MAX_TERMS}") as info:
            certify_not_cesaro_null(Subsequence.identity(), 500_000)
        assert "needs N + k_(N+1) = 1000001 terms" in str(info.value)

    def test_witness_past_the_grade_cap_is_refused_before_the_term_cap(self, oracle):
        # N + k_{N+1} has 2386 digits here; the grade, not that count, is named
        with pytest.raises(InvalidInputError, match="^n exceeds the largest supported grade, 10000000$"):
            certify_not_cesaro_null(Subsequence.geometric(2, 3), 5000, oracle=oracle)

    def test_lower_bound_reports_the_mean(self, oracle):
        sub = Subsequence.identity()
        assert certify_not_cesaro_null(sub, 2, oracle=oracle).mean == HALF

    def test_certificate_json(self, oracle):
        cert = certify_not_cesaro_null(Subsequence.identity(), 2, oracle=oracle)
        payload = cert.to_json()
        assert payload == {
            "N": 2,
            "A_N": [3, 4, 5],
            "i0": "5",
            "mean": "1/2",
            "prefix_len": 5,
            "enumeration": "canonical",
        }

    def test_round_trip_mismatch_is_a_violation(self, monkeypatch):
        enum = get_enumeration("canonical")
        wrong = SchreierSet((3, 4, 6))
        monkeypatch.setattr(enum, "unrank", lambda rank: wrong)
        with pytest.raises(CertificateViolationError) as info:
            certify_not_cesaro_null(Subsequence.identity(), 2, oracle=SequenceOracle(enum))
        assert info.value.witness == SchreierSet((3, 4, 5))


class TestOracleCache:
    def test_evicts_the_least_recently_used_set(self, monkeypatch):
        enum = get_enumeration("canonical")
        # the sets {2, n}, one per grade, take the same bytes each
        coords = [enum.rank_of(SchreierSet((2, n))) for n in range(3, 12)]
        cap = len(coords) - 1
        sizing = SequenceOracle(enum)
        sizing.coordinate_set(coords[0])
        monkeypatch.setattr(weaknull, "_SET_CACHE_BYTES", cap * sizing._sets.nbytes)
        unranked = []
        real = enum.unrank
        monkeypatch.setattr(enum, "unrank", lambda rank: unranked.append(rank) or real(rank))
        oracle = SequenceOracle(enum)
        for i in coords[:cap]:
            oracle.coordinate_set(i)
        oracle.coordinate_set(coords[0])
        oracle.coordinate_set(coords[cap])
        assert len(unranked) == cap + 1
        oracle.coordinate_set(coords[0])  # used recently: still cached
        assert len(unranked) == cap + 1
        oracle.coordinate_set(coords[1])  # the least recently used: evicted
        assert unranked[-1] == coords[1] and len(unranked) == cap + 2
        assert (oracle._sets.hits, oracle._sets.misses) == (2, cap + 2)
        assert oracle._sets.nbytes == oracle._sets.maxbytes

    def test_a_loop_of_large_witnesses_stays_under_the_budget(self, monkeypatch):
        # affine:s witnesses at N = 300 take 17-182 kB; the first one,
        # read again after each certificate, is never the least recent
        budget = 220_000
        monkeypatch.setattr(weaknull, "_SET_CACHE_BYTES", budget)
        oracle = SequenceOracle()
        coords = []
        for s in range(1, 7):
            cert = certify_not_cesaro_null(Subsequence.affine(s), 300, oracle=oracle)
            coords.append(cert.witness_coordinate)
            assert oracle._sets.nbytes <= budget
            oracle.coordinate_set(coords[0])
        assert list(oracle._sets._entries) == [coords[-1], coords[0]]
        assert (oracle._sets.hits, oracle._sets.misses) == (6, 6)

    @pytest.mark.parametrize("seed, sets", [(0, 428), (1, 424), (2, 448)])
    def test_the_cesaro_suite_unranks_each_set_once(self, monkeypatch, seed, sets):
        from wbslab.experiments import ExperimentConfig, run_experiment

        enum = get_enumeration("canonical")
        unranked = []
        real = enum.unrank
        monkeypatch.setattr(enum, "unrank", lambda rank: unranked.append(rank) or real(rank))
        assert run_experiment("cesaro-suite", ExperimentConfig(seed=seed)).ok
        assert len(unranked) == len(set(unranked)) == sets


class TestWeakWitnessSearch:
    def test_identity_challenge(self, oracle):
        challenge = WeakConvergenceChallenge(
            Fraction(1, 2), tuple(range(1, 11)), tuple(range(1, 11)), tuple(range(1, 11))
        )
        witness = find_weak_witness(challenge, oracle)
        assert (witness.n, witness.j) == (2, 1)
        assert witness.value == 0

    def test_occupied_first_index(self, oracle):
        # k_1 = 2 and the third set, {2, 4}, contains it: the scan escapes at j=2
        challenge = WeakConvergenceChallenge(
            Fraction(1, 2), (2, 5, 7, 9, 11), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)
        )
        witness = find_weak_witness(challenge, oracle)
        assert (witness.n, witness.j) == (3, 2)
        assert witness.value == 0

    def test_witness_value_is_within_threshold(self, oracle):
        rng = random.Random(6)
        for _ in range(30):
            start = rng.randint(1, 6)
            k_seq = tuple(range(start, start + 30))
            i_seq = tuple(range(1, 31))
            J_seq = tuple(range(2, 32))
            challenge = WeakConvergenceChallenge(Fraction(1, 100), k_seq, i_seq, J_seq)
            witness = find_weak_witness(challenge, oracle)
            assert witness.j <= challenge.J_seq[witness.n - 1]
            assert witness.value <= challenge.alpha
            assert oracle.entry(witness.index, witness.coordinate) == witness.value

    def test_insufficient_prefix(self, oracle):
        challenge = WeakConvergenceChallenge(Fraction(1, 2), (5, 6, 7), (1, 2, 3), (1, 2, 3))
        with pytest.raises(NeedsMoreDataError) as exc:
            find_weak_witness(challenge, oracle)
        assert exc.value.required == 6

    def test_challenge_validation(self):
        with pytest.raises(InvalidInputError):
            WeakConvergenceChallenge(Fraction(0), (1,), (1,), (1,))
        with pytest.raises(InvalidInputError):
            WeakConvergenceChallenge(Fraction(1, 2), (2, 2), (1, 2), (1, 2))
