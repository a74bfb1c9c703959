"""Weak Banach-Saks verdicts for four families of function spaces.

The families and their criteria:

* Holder functions over a metric space: the property holds iff the
  space is finite (finitely many points means a finite-dimensional
  function space).
* Bounded continuous functions over a compact countable space, modeled
  symbolically as an ordinal interval: the property holds iff iterating
  the derived-set operation reaches the empty space in finitely many
  steps, i.e. the Cantor-Bendixson rank is finite.
* Bounded continuous functions over a non-compact space: the property
  always fails; since non-compactness has no finite witness, the verdict
  is recorded as assumption-conditional.
* Essentially bounded functions over a measure space described by a
  finite positive-mass partition: the property holds iff the partition
  is terminal (those cells are all the atoms), and fails as soon as
  infinitely many disjoint positive-measure sets exist.

Compact countable spaces are kept symbolic because derived sets are not
computable from finite samples; the interval of an ordinal in Cantor
normal form carries exactly the needed structure.  The derived set of
the interval (0, o] consists of the limit ordinals in it, an interval
again: drop the finite part of o and decrement every finite exponent by
one (infinite exponents absorb the decrement, which is why any exponent
of omega or beyond pins the rank at infinity).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering

from .errors import InvalidInputError
from .inputs import cell_masses, from_decimal, parse_count, parse_int, to_decimal

__all__ = [
    "Ordinal",
    "parse_ordinal",
    "cb_rank",
    "INFINITE_RANK",
    "FiniteMeasurePartition",
    "Verdict",
    "classify_c_of_ordinal",
    "classify_cb",
    "classify_linf",
    "classify_calpha",
]

INFINITE_RANK = math.inf


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """An ordinal in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) with exponents
    strictly decreasing ordinals and coefficients positive naturals;
    the empty tuple is zero.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        terms = tuple((e, parse_count(c, "coefficient")) for e, c in self.terms)
        object.__setattr__(self, "terms", terms)
        for e, _ in terms:
            if not isinstance(e, Ordinal):
                raise InvalidInputError(f"exponent must be an Ordinal, got {type(e)}")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if not e2 < e1:
                raise InvalidInputError(
                    "exponents must be strictly decreasing in Cantor normal form"
                )

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Ordinal":
        return cls(())

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        n = parse_int(n)
        if n < 0:
            raise InvalidInputError(f"ordinal from a negative integer: {to_decimal(n)}")
        if n == 0:
            return cls.zero()
        return cls(((cls.zero(), n),))

    @classmethod
    def omega(cls) -> "Ordinal":
        return cls(((cls.from_int(1), 1),))

    # ---- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return all(e.is_zero for e, _ in self.terms)

    def as_int(self) -> int:
        if not self.is_finite:
            raise InvalidInputError(f"{self} is not a finite ordinal")
        return self.terms[0][1] if self.terms else 0

    def _cmp_key(self):
        return tuple(((e._cmp_key(), c)) for e, c in self.terms)

    def __lt__(self, other: "Ordinal") -> bool:
        return self._cmp_key() < other._cmp_key()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero:
                parts.append(to_decimal(c))
                continue
            if e == Ordinal.from_int(1):
                base = "w"
            elif e.is_finite:
                base = f"w^{to_decimal(e.as_int())}"
            else:
                inner = str(e)
                base = f"w^{inner}" if re.fullmatch(r"w|\d+", inner) else f"w^({inner})"
            parts.append(base if c == 1 else f"{base}*{to_decimal(c)}")
        return " + ".join(parts)

    def to_json(self) -> str:
        return str(self)


_TOKEN = re.compile(r"\s*(w|[0-9]+|[\^*+()])")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InvalidInputError(f"bad ordinal syntax at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


# Each level of parenthesized exponent costs a few Python frames, here and
# in the recursive comparisons and printing of Ordinal; 300 levels stay
# well inside the default recursion limit of 1000 frames.
MAX_ORDINAL_NESTING = 300


def parse_ordinal(text: str) -> Ordinal:
    """Parse Cantor normal form like ``w^2*3 + w*2 + 5`` or ``w^w``.

    Terms must already appear in strictly decreasing exponent order;
    anything else is rejected rather than silently renormalized, because
    ordinal addition is not commutative.  Parentheses may nest at most
    ``MAX_ORDINAL_NESTING`` deep; deeper input is rejected before parsing.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise InvalidInputError("empty ordinal expression")
    depth = 0
    for tok in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_ORDINAL_NESTING:
            raise InvalidInputError(
                f"ordinal nests parentheses deeper than {MAX_ORDINAL_NESTING} levels"
            )
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def expect(tok):
        nonlocal pos
        if peek() != tok:
            raise InvalidInputError(f"expected {tok!r} at token {pos} in {text!r}")
        pos += 1

    def parse_expr() -> Ordinal:
        nonlocal pos
        terms = []
        while True:
            terms.append(parse_term())
            if peek() == "+":
                pos += 1
                continue
            break
        flat = [t for term in terms for t in term.terms]
        return Ordinal(tuple(flat))  # CNF order re-validated here

    def parse_term() -> Ordinal:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise InvalidInputError(f"unexpected end of input in {text!r}")
        if tok.isdigit():
            pos += 1
            return Ordinal.from_int(from_decimal(tok))
        expect("w")
        exponent = Ordinal.from_int(1)
        if peek() == "^":
            pos += 1
            tok = peek()
            if tok == "(":
                pos += 1
                exponent = parse_expr()
                expect(")")
            elif tok == "w":
                pos += 1
                exponent = Ordinal.omega()
            elif tok is not None and tok.isdigit():
                pos += 1
                exponent = Ordinal.from_int(from_decimal(tok))
            else:
                raise InvalidInputError(f"bad exponent at token {pos} in {text!r}")
        coeff = 1
        if peek() == "*":
            pos += 1
            tok = peek()
            if tok is None or not tok.isdigit():
                raise InvalidInputError(f"bad coefficient at token {pos} in {text!r}")
            pos += 1
            coeff = from_decimal(tok)
        return Ordinal(((exponent, coeff),))

    result = parse_expr()
    if pos != len(tokens):
        raise InvalidInputError(f"trailing tokens in {text!r}")
    return result


def cb_rank(o: Ordinal) -> int | float:
    """Least number of derivations that empty the interval (0, o].

    Each derivation lowers every finite exponent by one and drops the
    finite part, so the leading exponent e empties the interval after
    e + 1 of them.  Returns INFINITE_RANK when e is omega or beyond: that
    term survives every derivation.
    """
    if o.is_zero:
        return 0
    lead = o.terms[0][0]
    return lead.as_int() + 1 if lead.is_finite else INFINITE_RANK


@dataclass(frozen=True)
class FiniteMeasurePartition:
    """Positive cell masses plus whether they exhaust the atoms.

    ``is_terminal`` is an assumption the caller supplies: True means the
    listed cells are all the atoms there are; False means infinitely
    many disjoint positive-measure sets exist beyond them.
    """

    masses: tuple[float, ...]
    is_terminal: bool

    def __post_init__(self):
        object.__setattr__(self, "masses", cell_masses(self.masses))
        if not self.masses:
            raise InvalidInputError("partition needs at least one cell")


@dataclass(frozen=True)
class Verdict:
    """A weak Banach-Saks verdict plus the criterion that produced it."""

    space_family: str  # "Calpha" | "Cb" | "Linf" | "C_of_ordinal"
    wbs: bool
    reason: str
    assumption: str | None = None

    def to_json(self) -> dict:
        out = {"space_family": self.space_family, "wbs": self.wbs, "reason": self.reason}
        if self.assumption is not None:
            out["assumption"] = self.assumption
        return out


def classify_c_of_ordinal(o: Ordinal) -> Verdict:
    """Continuous functions on the compact interval (0, o]."""
    rank = cb_rank(o)
    if rank is INFINITE_RANK:
        reason = (
            "iterated derived sets never vanish (an exponent is omega or "
            "beyond), so the space is not weakly Banach-Saks"
        )
        wbs = False
    else:
        reason = (
            f"iterated derived sets vanish after {to_decimal(rank)} step(s); finite "
            "Cantor-Bendixson rank makes the space weakly Banach-Saks"
        )
        wbs = True
    return Verdict(space_family="C_of_ordinal", wbs=wbs, reason=reason)


def classify_cb(
    ordinal: Ordinal | None = None, assume: str | None = None
) -> Verdict:
    """Bounded continuous functions over a metric space.

    Compactness cannot be read off a finite file, so either pass the
    ordinal model of a compact countable space or an explicit
    assumption ("compact" with an ordinal, or "noncompact").
    """
    if assume == "noncompact":
        return Verdict(
            space_family="Cb",
            wbs=False,
            reason=(
                "a non-compact space carries infinitely many disjoint bump "
                "supports, so bounded continuous functions are not weakly "
                "Banach-Saks"
            ),
            assumption="noncompact (no finite witness; caller-supplied)",
        )
    if ordinal is None:
        raise InvalidInputError(
            "classify_cb needs an ordinal model or assume='noncompact'"
        )
    base = classify_c_of_ordinal(ordinal)
    return Verdict(
        space_family="Cb",
        wbs=base.wbs,
        reason=base.reason,
        assumption="compact countable space modeled as an ordinal interval",
    )


def classify_linf(partition: FiniteMeasurePartition) -> Verdict:
    """Essentially bounded functions over a purely atomic description."""
    if partition.is_terminal:
        return Verdict(
            space_family="Linf",
            wbs=True,
            reason=(
                f"{len(partition.masses)} atoms and no further disjoint "
                "positive-measure sets: the space is finite-dimensional, "
                "hence weakly Banach-Saks"
            ),
        )
    return Verdict(
        space_family="Linf",
        wbs=False,
        reason=(
            "infinitely many disjoint positive-measure sets admit an "
            "isometric copy of the bounded-sequence space, which is not "
            "weakly Banach-Saks"
        ),
        assumption="non-terminal partition (caller asserts more disjoint sets exist)",
    )


def classify_calpha(point_count: int | float) -> Verdict:
    """Holder functions over a metric space of the given size.

    Pass math.inf for an infinite space; infiniteness of a user-supplied
    space has no finite witness, so the verdict records the assumption.
    Any other count is read by ``parse_int``, so floats are refused.
    """
    if point_count == math.inf:
        return Verdict(
            space_family="Calpha",
            wbs=False,
            reason=(
                "an infinite space carries a separated pair family whose "
                "bumps embed the bounded-sequence space into the Holder "
                "functions, so the property fails"
            ),
            assumption="infinite space (no finite witness; caller-supplied)",
        )
    count = parse_count(point_count, "point count")
    return Verdict(
        space_family="Calpha",
        wbs=True,
        reason=(
            f"{count} points span a finite-dimensional function space, "
            "which is weakly Banach-Saks"
        ),
    )
