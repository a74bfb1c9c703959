"""Ordinal arithmetic, derived sets against the rational oracle, verdicts."""

import itertools
import math

import pytest

from wbslab.classify import (
    MAX_ORDINAL_NESTING,
    FiniteMeasurePartition,
    INFINITE_RANK,
    Ordinal,
    Verdict,
    cb_rank,
    classify_calpha,
    classify_cb,
    classify_c_of_ordinal,
    classify_linf,
    parse_ordinal,
)
from wbslab.errors import InvalidInputError

from oracles import (
    derived_set,
    detect_limit_points,
    embed_interval,
    omega_times,
    triple_is_limit,
)


def all_small_ordinals(max_coeff: int = 3):
    """Every CNF ordinal with exponents <= 2 and coefficients <= max_coeff."""
    for c2 in range(max_coeff + 1):
        for c1 in range(max_coeff + 1):
            for c0 in range(max_coeff + 1):
                if (c2, c1, c0) == (0, 0, 0):
                    continue
                parts = []
                if c2:
                    parts.append(f"w^2*{c2}")
                if c1:
                    parts.append(f"w*{c1}")
                if c0:
                    parts.append(str(c0))
                yield (c2, c1, c0), parse_ordinal(" + ".join(parts))


def to_triple(o: Ordinal) -> tuple[int, int, int]:
    coeffs = [0, 0, 0]
    for e, c in o.terms:
        coeffs[2 - e.as_int()] = c
    return tuple(coeffs)


class TestOrdinalType:
    def test_parse_and_str_round_trip(self):
        for text in ["0", "7", "w", "w*2", "w^2*3 + w*2 + 5", "w^w", "w^(w*2) + w^3 + 1"]:
            o = parse_ordinal(text)
            assert parse_ordinal(str(o)) == o

    def test_comparisons(self):
        assert parse_ordinal("w") > parse_ordinal("1000")
        assert parse_ordinal("w^w") > parse_ordinal("w^3*9 + w*2")
        assert parse_ordinal("w^2") > parse_ordinal("w*5 + 3")
        assert parse_ordinal("w*2") > parse_ordinal("w + 99")

    def test_cnf_order_enforced(self):
        with pytest.raises(InvalidInputError):
            parse_ordinal("5 + w")
        with pytest.raises(InvalidInputError):
            parse_ordinal("w + w")

    def test_bad_syntax(self):
        for text in ["", "w^", "w*", "q", "w^2*0"]:
            with pytest.raises(InvalidInputError):
                parse_ordinal(text)

    def test_nesting_cap(self):
        def tower(depth):
            return "w^(" * depth + "1" + ")" * depth

        deepest = parse_ordinal(tower(MAX_ORDINAL_NESTING))
        assert cb_rank(deepest) is INFINITE_RANK
        for depth in (MAX_ORDINAL_NESTING + 1, 1000):
            with pytest.raises(InvalidInputError, match="deeper than"):
                parse_ordinal(tower(depth))

    def test_finite_accessors(self):
        assert parse_ordinal("5").as_int() == 5
        assert Ordinal.zero().as_int() == 0
        with pytest.raises(InvalidInputError):
            parse_ordinal("w").as_int()

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, math.nan, None])
    def test_integers_are_refused_not_truncated(self, bad):
        with pytest.raises(InvalidInputError, match="expected a decimal integer"):
            Ordinal.from_int(bad)
        with pytest.raises(InvalidInputError, match="expected a decimal integer"):
            Ordinal(((Ordinal.zero(), bad),))


class TestDerivedSet:
    def test_headline_example(self):
        o = parse_ordinal("w^2*3 + w*2 + 5")
        assert str(derived_set(o)) == "w*3 + 2"

    def test_finite_becomes_empty(self):
        assert derived_set(parse_ordinal("17")).is_zero

    def test_omega(self):
        assert str(derived_set(parse_ordinal("w"))) == "1"

    def test_omega_to_omega_is_fixed(self):
        o = parse_ordinal("w^w")
        assert derived_set(o) == o

    def test_matches_rational_limit_oracle(self):
        for triple, o in all_small_ordinals(3):
            detected, shallow = detect_limit_points(triple)
            ground_truth = {t for t in shallow if triple_is_limit(t)}
            assert detected == ground_truth, f"limit detection differs at {triple}"
            derived = derived_set(o)
            if derived.is_zero:
                assert not detected, f"{triple}: oracle found limits, rule found none"
                continue
            derived_triple = to_triple(derived)
            # the largest limit point realizes omega times the derived ordinal
            assert max(detected) == omega_times(
                (0, derived_triple[1], derived_triple[2])
            )
            # and every limit point is omega times something in (0, derived]
            for t in detected:
                lam = (0, t[0], t[1])
                assert (0, 0, 0) < lam <= (0, derived_triple[1], derived_triple[2])

    def test_oracle_embedding_is_order_preserving(self):
        points = sorted(embed_interval((3, 3, 3), depth=6).items())
        assert all(a[1] < b[1] for a, b in zip(points, points[1:]))


class TestCbRank:
    def test_finite(self):
        assert cb_rank(parse_ordinal("5")) == 1

    def test_headline(self):
        assert cb_rank(parse_ordinal("w^2*3 + w*2 + 5")) == 3

    def test_omega_tower(self):
        assert cb_rank(parse_ordinal("w^w")) is INFINITE_RANK
        assert cb_rank(parse_ordinal("w^(w*2) + w*3")) is INFINITE_RANK

    def test_zero(self):
        assert cb_rank(Ordinal.zero()) == 0

    def test_rank_recurrence(self):
        for _, o in all_small_ordinals(3):
            derived = derived_set(o)
            assert cb_rank(o) == 1 + cb_rank(derived)

    def test_rank_is_leading_exponent_plus_one(self):
        for _, o in all_small_ordinals(3):
            leading = max(e.as_int() for e, _ in o.terms)
            assert cb_rank(o) == leading + 1

    def test_closed_form_matches_iterated_derived_sets(self):
        # every CNF ordinal with exponents <= 4 and coefficients <= 2
        for coeffs in itertools.product(range(3), repeat=5):
            terms = tuple((Ordinal.from_int(4 - i), c) for i, c in enumerate(coeffs) if c)
            o, steps = Ordinal(terms), 0
            while not o.is_zero:
                o, steps = derived_set(o), steps + 1
            assert cb_rank(Ordinal(terms)) == steps
            # an infinite leading exponent survives every derivation
            tower = Ordinal(((Ordinal.omega(), 1),) + terms)
            for _ in range(6):
                tower = derived_set(tower)
            assert not tower.is_zero and cb_rank(Ordinal(((Ordinal.omega(), 1),) + terms)) is INFINITE_RANK

    def test_large_exponents_at_once(self):
        assert cb_rank(parse_ordinal("w^1000000000000*3 + w^2 + 1")) == 10**12 + 1
        big = "9" * 5000
        o = parse_ordinal(f"w^{big}*{big} + {big}")
        assert cb_rank(o) == 10**5000
        assert str(o) == f"w^{big}*{big} + {big}"

    def test_digits_are_ascii(self):
        with pytest.raises(InvalidInputError, match="bad ordinal syntax"):
            parse_ordinal("w^\u0663")


class TestVerdicts:
    def test_ordinal_space(self):
        assert classify_c_of_ordinal(parse_ordinal("3")).wbs
        assert classify_c_of_ordinal(parse_ordinal("w^2")).wbs
        assert not classify_c_of_ordinal(parse_ordinal("w^w")).wbs

    def test_monotone_in_larger_exponents(self):
        # stacking a higher term on a failing space never repairs it
        failing = parse_ordinal("w^w")
        bigger = parse_ordinal("w^(w*2) + w^w")
        assert not classify_c_of_ordinal(failing).wbs
        assert not classify_c_of_ordinal(bigger).wbs

    def test_cb(self):
        assert classify_cb(ordinal=parse_ordinal("w*2")).wbs
        assert not classify_cb(ordinal=parse_ordinal("w^w")).wbs
        noncompact = classify_cb(assume="noncompact")
        assert not noncompact.wbs
        assert noncompact.assumption is not None
        with pytest.raises(InvalidInputError):
            classify_cb()

    def test_linf(self):
        assert classify_linf(FiniteMeasurePartition((1.0, 2.0, 3.0), True)).wbs
        assert classify_linf(FiniteMeasurePartition((1.0,), True)).wbs
        assert not classify_linf(FiniteMeasurePartition((1.0, 2.0), False)).wbs

    def test_linf_partition_validation(self):
        with pytest.raises(InvalidInputError):
            FiniteMeasurePartition((), True)
        with pytest.raises(InvalidInputError):
            FiniteMeasurePartition((0.0,), True)

    def test_calpha(self):
        assert classify_calpha(1).wbs
        assert classify_calpha(10).wbs
        infinite = classify_calpha(math.inf)
        assert not infinite.wbs
        assert infinite.assumption is not None
        with pytest.raises(InvalidInputError):
            classify_calpha(0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, math.nan, -math.inf, None])
    def test_calpha_refuses_what_is_not_an_integer(self, bad):
        with pytest.raises(InvalidInputError, match="expected a decimal integer"):
            classify_calpha(bad)

    def test_reason_matches_family(self):
        verdicts = [
            classify_calpha(2),
            classify_cb(assume="noncompact"),
            classify_linf(FiniteMeasurePartition((1.0,), True)),
            classify_c_of_ordinal(parse_ordinal("w")),
        ]
        for v in verdicts:
            assert isinstance(v, Verdict)
            assert v.reason
            assert v.space_family in {"Calpha", "Cb", "Linf", "C_of_ordinal"}
            payload = v.to_json()
            assert payload["wbs"] == v.wbs
