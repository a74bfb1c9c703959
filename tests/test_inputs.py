"""The decimal codec: integers of any length to text and back, the integer rule and the count rule."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbslab.classify import Ordinal, classify_calpha
from wbslab.errors import InvalidInputError
from wbslab.inputs import from_decimal, load_json, parse_int, parse_ints, to_decimal
from wbslab.metric import find_pair_family
from wbslab.samples import line_grid
from wbslab.schreier import CanonicalEnumeration, count_max_at_most
from wbslab.weaknull import SequenceOracle, Subsequence, certify_not_cesaro_null

from oracles import int_digit_limit


def check_round_trip(n: int) -> None:
    """The codec under the lowest legal limit agrees with str and int under none."""
    with int_digit_limit(0):
        expected = str(n)
    with int_digit_limit(640):
        assert to_decimal(n) == expected
        assert from_decimal(expected) == n


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40_000), st.integers(0, 2**32), st.booleans())
def test_random_integers_round_trip(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    check_round_trip(-n if negative else n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12_000), st.integers(0, 2**32))
def test_digit_strings_with_long_zero_runs_round_trip(length, seed):
    # zero runs fall across the halves the codec splits at
    rng = random.Random(seed)
    chunks = (rng.choice(["0" * rng.randint(1, 900), str(rng.randint(1, 9))]) for _ in range(length // 50 + 1))
    text = "".join(chunks)
    with int_digit_limit(0):
        n = int(text)
        expected = str(n)
    with int_digit_limit(640):
        assert from_decimal(text) == n
        assert from_decimal("+" + text) == n and from_decimal("-" + text) == -n
        assert to_decimal(n) == expected


@pytest.mark.parametrize("d", [599, 600, 601, 617, 640, 4299, 4300, 4301])
def test_powers_of_ten_and_their_predecessors(d):
    for n in (10**d, 10**d - 1):
        check_round_trip(n)
        check_round_trip(-n)


@pytest.mark.parametrize("n", [0, 1, -1, 2**2048 - 1, 2**2048, -(2**2048), 2**2049, 3**5000])
def test_values_at_the_leaf_bounds(n):
    check_round_trip(n)


@pytest.mark.parametrize("text", ["0", "-0", "+17", " 12 ", "1_000", "٣", "-" + "9" * 599])
def test_short_texts_go_to_int(text):
    assert from_decimal(text) == int(text)


@pytest.mark.parametrize(
    "text",
    ["", "-", "abc", "0x10", "1_" + "0" * 700, " " + "9" * 700, "9" * 700 + "\n",
     "٣" * 700, "+-" + "9" * 700, "9" * 350 + "." + "9" * 350],
)
def test_bad_texts_are_refused(text):
    # past the leaf size only ASCII digits after an optional sign are read
    with pytest.raises(ValueError):
        from_decimal(text)


def test_load_json_reads_long_integer_literals():
    big = "9" * 5000
    assert load_json(f'{{"K": {big}, "pairs": [-{big}]}}') == {"K": 10**5000 - 1, "pairs": [1 - 10**5000]}


@pytest.mark.parametrize(
    "value, expected",
    [(7, 7), (-(2**4000), -(2**4000)), (np.int64(-3), -3), (np.uint8(200), 200), ("12", 12),
     (" +8 ", 8)],
)
def test_parse_int_reads_integrals_and_decimal_texts(value, expected):
    n = parse_int(value)
    assert n == expected and type(n) is int


def test_parse_int_reads_texts_past_the_digit_limit():
    with int_digit_limit(4300):
        assert parse_int("9" * 5000) == 10**5000 - 1


@pytest.mark.parametrize(
    "value, message",
    [(True, "got JSON boolean"), (np.True_, "got JSON bool_?"), (2.0, "got JSON number"),
     (None, "got JSON null"), (Fraction(4, 2), "got JSON Fraction"), ("2.5", "got '2.5'"),
     ("9" * 50 + ".", "got '" + "9" * 40 + "'")],
)
def test_parse_int_refuses_everything_else(value, message):
    with pytest.raises(InvalidInputError, match=f"^expected a decimal integer, {message}$"):
        parse_int(value)


def test_parse_ints_reads_each_value_by_the_same_rule():
    assert parse_ints(iter([1, 2, 10**700])) == (1, 2, 10**700)
    values = parse_ints([1, "2", np.int8(3)])
    assert values == (1, 2, 3) and all(type(v) is int for v in values)
    with pytest.raises(InvalidInputError, match="got JSON boolean"):
        parse_ints([1, 2, True])



# (name in the message, call) for every reader of a count that must be >= 1
COUNT_SITES = [
    ("n", count_max_at_most),
    ("rank", CanonicalEnumeration().unrank),
    ("coordinate", SequenceOracle().coordinate_set),
    ("index", lambda v: SequenceOracle().entry(v, 1)),
    ("term index", Subsequence.identity().term),
    ("max_step", lambda v: Subsequence.seeded_increments(0, v)),
    ("N", lambda v: certify_not_cesaro_null(Subsequence.identity(), v)),
    ("point count", classify_calpha),
    ("target_count", lambda v: find_pair_family(line_grid(12), 0.5, v)),
    ("coefficient", lambda v: Ordinal(((Ordinal.zero(), v),))),
]


@pytest.mark.parametrize(
    "value, message",
    [(0, "{name} must be >= 1, got 0"), (-1, "{name} must be >= 1, got -1"),
     (2.5, "expected a decimal integer, got JSON number"), (True, "expected a decimal integer, got JSON boolean"),
     ("x", "expected a decimal integer, got 'x'")],
)
@pytest.mark.parametrize("name, call", COUNT_SITES, ids=[name for name, _ in COUNT_SITES])
def test_every_count_is_read_by_one_rule(name, call, value, message):
    with pytest.raises(InvalidInputError) as excinfo:
        call(value)
    assert str(excinfo.value) == message.format(name=name)
