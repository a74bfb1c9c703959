"""Numpy-free argument helpers shared by the CLI parser and the library.

The CLI builds its parser from these names before it knows which action
runs, so they live apart from the array modules that only some actions
load.  Every big integer crosses text here, through `to_decimal` and
`from_decimal`, whatever CPython's int/str digit limit is set to, and
every JSON argument through `parse_json`.  Every integer argument of
the exact half, from the CLI or a library caller, is read by `parse_int`
(a count by `parse_count`), and every vector entry by `parse_floats`.
"""

from __future__ import annotations

import json
import math
from functools import cache
from numbers import Integral
from pathlib import Path

from .errors import InvalidInputError

__all__ = [
    "EXPERIMENT_NAMES", "cell_masses", "existing_file", "from_decimal", "json_type", "load_json",
    "parse_count", "parse_floats", "parse_int", "parse_ints", "parse_json", "to_decimal",
]

# The suites ``experiments.run_experiment`` runs, in run order.
EXPERIMENT_NAMES = ("cesaro-suite", "sandwich-suite", "isometry-suite")

# CPython checks no int/str conversion under 640 digits, whatever its
# limit is set to; 2048 bits print as at most 617 digits.
_LEAF_BITS = 2048
_LEAF_DIGITS = 600


def to_decimal(n: int) -> str:
    """str(n) at any length, in subquadratic time where str is quadratic.

    Past _LEAF_BITS bits, the halves of n join as exact Decimals,
    lo + hi * 2**k, which libmpdec multiplies in subquadratic time.
    """
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    import decimal
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    power = cache(lambda k: ctx.power(2, k))  # one per width in each level

    def join(m, width):
        if width <= _LEAF_BITS:
            return decimal.Decimal(m)
        k = width >> 1
        return ctx.fma(join(m >> k, width - k), power(k), join(m & ((1 << k) - 1), k))

    return ("-" if n < 0 else "") + str(join(abs(n), n.bit_length()))


def from_decimal(text: str) -> int:
    """int(text) at any length, in subquadratic time.

    Texts past _LEAF_DIGITS characters must be ASCII digits after an
    optional sign; their halves join as hi * 10**k = hi * 5**k << k.
    """
    if len(text) <= _LEAF_DIGITS:
        return int(text)
    digits = text[1:] if text[0] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"a decimal integer of {len(text)} characters must be ASCII digits")
    power = cache(lambda k: 5**k)  # one per width in each level

    def join(a, b):
        if b - a <= _LEAF_DIGITS:
            return int(digits[a:b])
        k = (b - a) >> 1
        return (join(a, b - k) * power(k) << k) + join(b - k, b)

    n = join(0, len(digits))
    return -n if text[0] == "-" else n


def parse_json(text: str):
    """JSON text, integer literals of any length read through from_decimal.

    Nesting deeper than the interpreter's recursion limit is invalid input.
    """
    try:
        return json.loads(text, parse_int=from_decimal)
    except RecursionError:
        raise InvalidInputError("JSON nested too deeply to parse") from None


_JSON_TYPES = {
    type(None): "null", bool: "boolean", dict: "object", list: "array", str: "string",
    int: "number", float: "number",
}


def json_type(value) -> str:
    """The JSON name of a parsed value's type, for messages that refuse it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def parse_int(value) -> int:
    """An Integral that is not a bool, or a decimal text of any length.

    Anything else, floats included, is refused rather than truncated.
    """
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, str):
        raise InvalidInputError(f"expected a decimal integer, got JSON {json_type(value)}")
    try:
        return from_decimal(value)
    except ValueError:
        raise InvalidInputError(f"expected a decimal integer, got {value[:40]!r}") from None


def parse_count(value, name: str) -> int:
    """parse_int of value, refused below 1 in a message that names it."""
    n = parse_int(value)
    if n < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {to_decimal(n)}")
    return n


_PLAIN_INT = frozenset((int,))


def parse_ints(values) -> tuple[int, ...]:
    """parse_int of each value; values that are all plain ints pass in one C-level pass."""
    values = tuple(values)
    if _PLAIN_INT.issuperset(map(type, values)):
        return values
    return tuple(map(parse_int, values))


def parse_floats(values) -> tuple[float, ...]:
    """Numbers and numeric texts as floats; booleans and anything else are invalid input."""
    values = tuple(values)
    if bool in map(type, values):  # float(True) would read it as 1.0
        raise InvalidInputError("expected a list of numbers: got JSON boolean")
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"expected a list of numbers: {exc}") from None


def load_json(source):
    """Parse the file source names if it exists, else source as JSON text."""
    path = existing_file(source)
    return parse_json(path.read_text() if path else str(source))


def existing_file(source) -> Path | None:
    """The path source names if it is a regular file, else None (inline text)."""
    try:
        return Path(source) if Path(source).is_file() else None
    except OSError:  # ENAMETOOLONG: inline JSON or a number list, not a path
        return None


def cell_masses(masses) -> tuple[float, ...]:
    """parse_floats of the masses, each positive and finite; numpy-free for `classify linf`."""
    masses = parse_floats(masses)
    if not all(0 < m < math.inf for m in masses):  # NaN included
        raise InvalidInputError(f"cell masses must be positive and finite: {masses}")
    return masses
