"""The 0/1 sequence indexed by maximal Schreier sets and its certificates.

Fixing an enumeration T of the maximal Schreier sets defines a sequence
of bounded functions ``u_k(i) = 1 if k in T(i) else 0``.  Each coordinate
is eventually zero (every T(i) is finite), yet no subsequence has Cesaro
means converging to zero in the sup norm: for every strictly increasing
index sequence and every N there is an explicit witness coordinate where
the mean of the first 2N terms is at least 1/2.  This module computes
those witnesses exactly.

Two caveats are inherent to a finite artifact and documented here rather
than papered over:

* weak convergence itself is not decidable from finite data; what this
  module certifies is (a) coordinatewise nullity with an explicit
  threshold per coordinate and (b) refutations of finitely presented
  challenges in the challenge-response reading of the sequential
  criterion (see `find_weak_witness`);
* quantification over all infinite subsequences is replaced by finite
  prefixes plus optional closed-form extension rules, and every
  certificate records exactly how much prefix it consumed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from operator import lt, mul
from typing import Iterable, Iterator, Sequence

from ._lru import ByteLRU
from .errors import (
    CertificateViolationError,
    InvalidInputError,
    NeedsMoreDataError,
)
from .inputs import from_decimal, parse_count, parse_int, parse_ints, to_decimal
from .schreier import _MAX_GRADE, CanonicalEnumeration, SchreierSet, get_enumeration

__all__ = [
    "SequenceOracle",
    "Subsequence",
    "CesaroCertificate",
    "WeakConvergenceChallenge",
    "WeakWitness",
    "certify_not_cesaro_null",
    "find_weak_witness",
]

# materializing more terms than this is almost certainly a runaway rule
# (e.g. a geometric subsequence with a large N); fail loudly instead
DEFAULT_MAX_TERMS = 1_000_000

# the first chunk of a rule's terms (geometric:2,3 passes the largest grade at 16)
_FIRST_CHUNK = 32

# Bytes of unranked sets a SequenceOracle keeps: the cesaro-suite holds
# 428, 424 and 448 sets (1.17, 1.18 and 1.29 MB) at seeds 0-2, evicting
# none, and one affine:6 witness at N = 1000 takes 693 kB.
_SET_CACHE_BYTES = 64 << 20


class SequenceOracle:
    """Entries of the 0/1 sequence under a fixed enumeration.

    Deterministic: the same (k, i) always yields the same entry.  The
    unranked sets of the most recently queried coordinates are cached in
    LRU order under ``_SET_CACHE_BYTES``, each sized once, when stored,
    from the frozenset and its elements; so repeated entries along one
    coordinate cost one unranking total.
    """

    def __init__(self, enumeration: CanonicalEnumeration | str = "canonical"):
        if isinstance(enumeration, str):
            enumeration = get_enumeration(enumeration)
        self.enumeration = enumeration
        self._sets = ByteLRU(_SET_CACHE_BYTES)

    def coordinate_set(self, i: int) -> frozenset[int]:
        i = parse_count(i, "coordinate")
        members = self._sets.get(i)
        if members is None:
            members = frozenset(self.enumeration.unrank(i).elements)
            # no element exceeds the largest grade, nor takes more bytes
            self._sets.put(i, members, sys.getsizeof(members) + len(members) * sys.getsizeof(_MAX_GRADE))
        return members

    def entry(self, k: int, i: int) -> int:
        """1 iff k belongs to the i-th set of the enumeration."""
        k = parse_count(k, "index")
        return 1 if k in self.coordinate_set(i) else 0

    def coordinatewise_null_check(self, i: int) -> int:
        """Threshold t with entry(k, i) == 0 for every k > t.

        The i-th set is finite, so its maximum works.
        """
        return max(self.coordinate_set(i))


class Subsequence:
    """A strictly increasing sequence of positive integers.

    Represented by an explicit finite prefix plus an optional rule, an
    endless iterator of the terms after it, drawn on demand.  Without a
    rule, requests beyond the prefix raise NeedsMoreDataError carrying
    the required length.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        rule: Iterator[int] | None = None,
        description: str = "explicit",
    ):
        self._terms: list[int] = []
        self._rule = rule
        self.description = description
        self._extend(prefix)

    def _extend(self, values: Iterable[int]) -> None:
        """Append values, checked in one C-level pass to continue the sequence.

        Only when that pass fails does the per-value walk run: it appends
        the values before the first offender and names that one.
        """
        values = parse_ints(values)
        terms = self._terms
        if all(map(lt, chain(terms[-1:] or (0,), values), values)):
            terms.extend(values)
            return
        for value in values:
            if value < 1:
                raise InvalidInputError(f"terms must be positive, got {to_decimal(value)}")
            if terms and value <= terms[-1]:
                shown = f"{to_decimal(terms[-1])} then {to_decimal(value)}"
                raise InvalidInputError(f"terms must be strictly increasing: {shown}")
            terms.append(value)

    def __len__(self) -> int:
        return len(self._terms)

    def term(self, j: int, bound: int | None = None) -> int:
        """The j-th term, 1-based, extending via the rule if present.

        A rule's terms are drawn in chunks that double the terms held.
        Terms only grow, so the draw stops at the first chunk that ends
        past ``bound`` and returns that chunk's last term instead.
        """
        j = parse_count(j, "term index")
        if j > DEFAULT_MAX_TERMS:
            raise InvalidInputError(
                f"term index {to_decimal(j)} exceeds the materialization cap {DEFAULT_MAX_TERMS}"
            )
        terms = self._terms
        while len(terms) < j:
            if self._rule is None:
                raise NeedsMoreDataError(
                    "subsequence prefix too short and no extension rule",
                    required=j,
                    available=len(terms),
                )
            if bound is not None and terms and terms[-1] > bound:
                return terms[-1]
            held = len(terms)
            self._extend(islice(self._rule, min(j - held, held or _FIRST_CHUNK)))
            if len(terms) == held:  # an exhausted rule adds nothing more
                self._rule = None
        return terms[j - 1]

    def terms(self, n: int) -> tuple[int, ...]:
        """The first n terms as a tuple."""
        self.term(n)
        return tuple(self._terms[:n])

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, values: Sequence[int]) -> "Subsequence":
        return cls(prefix=values, description="explicit")

    @classmethod
    def identity(cls) -> "Subsequence":
        return cls(rule=count(1), description="identity")

    @classmethod
    def affine(cls, step: int, offset: int = 0) -> "Subsequence":
        """The terms step * j + offset."""
        step, offset = parse_int(step), parse_int(offset)
        s, o = to_decimal(step), to_decimal(offset)
        if step < 1 or offset < 0:
            raise InvalidInputError(f"affine rule needs step >= 1 and offset >= 0, got {s}, {o}")
        return cls(rule=count(step + offset, step), description=f"affine:{s},{o}")

    @classmethod
    def geometric(cls, base: int = 1, ratio: int = 2) -> "Subsequence":
        """The terms base * ratio ** (j - 1), as a running product."""
        base, ratio = parse_int(base), parse_int(ratio)
        b, r = to_decimal(base), to_decimal(ratio)
        if base < 1 or ratio < 2:
            raise InvalidInputError(f"geometric rule needs base >= 1 and ratio >= 2, got {b}, {r}")
        return cls(rule=accumulate(repeat(ratio), mul, initial=base), description=f"geometric:{b},{r}")

    @classmethod
    def seeded_increments(cls, seed: int, max_step: int = 3) -> "Subsequence":
        """Random strictly increasing sequence with steps in 1..max_step.

        The terms are the running sums of the steps, drawn one per term
        as the terms are requested.  A step is 1 + r for the first draw
        r = rng.getrandbits(max_step.bit_length()) with r < max_step: the
        rejection sampling of CPython's rng.randint(1, max_step), so the
        terms and the generator's state after them are those of a
        randint loop, but drawn without a Python frame per step.
        """
        import random

        seed, max_step = parse_int(seed), parse_count(max_step, "max_step")
        rng = random.Random(seed)
        draws = map(rng.getrandbits, repeat(max_step.bit_length()))
        steps = map((1).__add__, filter(max_step.__gt__, draws))
        return cls(rule=accumulate(steps), description=f"random:{to_decimal(seed)},{to_decimal(max_step)}")

    @classmethod
    def parse(cls, text: str) -> "Subsequence":
        """Parse a rule string or a comma-separated list of terms.

        Accepted rules: ``identity``, ``affine:STEP[,OFFSET]``,
        ``geometric:BASE,RATIO``, ``random:SEED[,MAX_STEP]``.
        """
        text = text.strip()
        if text == "identity":
            return cls.identity()
        rules = (("affine", cls.affine), ("geometric", cls.geometric), ("random", cls.seeded_increments))
        for name, maker in rules:
            if text.startswith(name + ":"):
                try:
                    args = [from_decimal(p) for p in text[len(name) + 1 :].split(",") if p.strip()]
                except ValueError:
                    args = []
                if not 1 <= len(args) <= 2:  # every rule takes one or two arguments
                    raise InvalidInputError(f"bad rule arguments in {text!r}")
                return maker(*args)
        try:
            values = [from_decimal(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise InvalidInputError(f"unrecognized subsequence spec {text!r}") from None
        if not values:
            raise InvalidInputError("empty subsequence spec")
        return cls.from_terms(values)


@dataclass(frozen=True)
class CesaroCertificate:
    """Witness that a subsequence's Cesaro means stay >= 1/2 in sup norm.

    ``witness_set`` has the first 2N tail terms of the subsequence inside
    it, ``witness_coordinate`` is its rank in the enumeration in use, and
    ``mean`` is the exact rational average of the first 2N entries along
    that coordinate.
    """

    N: int
    witness_set: SchreierSet
    witness_coordinate: int
    mean: Fraction
    prefix: tuple[int, ...]
    prefix_len: int
    enumeration: str

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "A_N": self.witness_set.to_json(),
            "i0": to_decimal(self.witness_coordinate),
            "mean": f"{self.mean.numerator}/{self.mean.denominator}",
            "prefix_len": self.prefix_len,
            "enumeration": self.enumeration,
        }


def certify_not_cesaro_null(
    sub: Subsequence,
    N: int,
    oracle: SequenceOracle | None = None,
) -> CesaroCertificate:
    """Build the exact Cesaro-mean certificate for the given N.

    The witness set collects the subsequence values at positions
    N+1 .. N+k_{N+1}; strict monotonicity forces k_{N+1} > N, so the set
    has cardinality equal to its minimum and is maximal Schreier.  Its
    rank is the witness coordinate, and the certified mean over the first
    2N positions is computed entrywise in exact rational arithmetic.

    The oracle unranks the witness coordinate again and the result must
    be the witness set itself; the hits are counted from that set.

    Raises NeedsMoreDataError when the prefix cannot cover index
    N + k_{N+1}, InvalidInputError when the witness passes the largest
    grade or needs more terms than the materialization cap (the error
    names how many), and CertificateViolationError carrying the witness if
    the round trip returns another set or the mean ever fell below 1/2
    (which no valid input can trigger).
    """
    N = parse_count(N, "N")
    if oracle is None:
        oracle = SequenceOracle()
    k_next = sub.term(N + 1, bound=_MAX_GRADE)
    need = N + k_next
    if k_next <= _MAX_GRADE and need > DEFAULT_MAX_TERMS:
        raise InvalidInputError(
            f"the certificate at N = {to_decimal(N)} needs N + k_(N+1) = {to_decimal(need)} terms, "
            f"past the materialization cap {DEFAULT_MAX_TERMS}"
        )
    # terms only grow, so a term past the largest grade, drawn up to k_(N+1)
    # or up to the witness's maximum k_(N + k_(N+1)), dooms the witness
    if k_next > _MAX_GRADE or sub.term(need, bound=_MAX_GRADE) > _MAX_GRADE:
        raise InvalidInputError(f"n exceeds the largest supported grade, {_MAX_GRADE}")
    terms = sub.terms(need)
    tail = terms[N:]
    witness = SchreierSet(tail)
    coord = oracle.enumeration.rank_of(witness)
    # the round trip is the certificate's only end-to-end check of the
    # enumeration; the oracle keeps the unranked set for later entries
    members = oracle.coordinate_set(coord)
    if members != frozenset(witness.elements):
        raise CertificateViolationError(
            f"unrank(rank_of(witness)) returned another set of {len(members)} elements",
            witness=witness,
        )

    first = terms[: 2 * N]
    hits = sum(map(members.__contains__, first))
    mean = Fraction(hits, 2 * N)
    if mean < Fraction(1, 2):
        raise CertificateViolationError(
            f"certified mean {mean} fell below 1/2", witness=witness
        )
    return CesaroCertificate(
        N=N,
        witness_set=witness,
        witness_coordinate=coord,
        mean=mean,
        prefix=first,
        prefix_len=need,
        enumeration=oracle.enumeration.name,
    )


@dataclass(frozen=True)
class WeakConvergenceChallenge:
    """A finitely presented challenge to coordinatewise smallness.

    Holds a positive threshold and finite prefixes of three strictly
    increasing index sequences.  A refutation is a pair (n, j) with
    j <= J_n whose entry is at most the threshold.
    """

    alpha: Fraction
    k_seq: tuple[int, ...]
    i_seq: tuple[int, ...]
    J_seq: tuple[int, ...]

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if alpha <= 0:
            raise InvalidInputError(f"threshold must be positive, got {alpha}")
        for name in ("k_seq", "i_seq", "J_seq"):
            seq = parse_ints(getattr(self, name))
            object.__setattr__(self, name, seq)
            if not seq:
                raise InvalidInputError(f"{name} must be nonempty")
            if seq[0] < 1 or any(a >= b for a, b in zip(seq, seq[1:])):
                raise InvalidInputError(f"{name} must be strictly increasing and positive")


@dataclass(frozen=True)
class WeakWitness:
    n: int
    j: int
    coordinate: int
    index: int
    value: int


def find_weak_witness(
    challenge: WeakConvergenceChallenge,
    oracle: SequenceOracle | None = None,
) -> WeakWitness:
    """Refute a challenge: find (n, j) with j <= J_n and a small entry.

    Search strategy: take the first n exceeding k_1.  If k_1 is outside
    the n-th set the refutation is (n, 1).  Otherwise that set has at
    most k_1 elements while the challenge supplies J_n > k_1 distinct
    candidates, so scanning j = 1..J_n must find an index outside the
    set.  Either way the witnessed entry is exactly 0.

    Raises NeedsMoreDataError when a prefix is too short to reach the
    required position, with the length that would suffice.
    """
    if oracle is None:
        oracle = SequenceOracle()
    k1 = challenge.k_seq[0]
    n = k1 + 1
    for name in ("i_seq", "J_seq"):
        seq = getattr(challenge, name)
        if len(seq) < n:
            raise NeedsMoreDataError(
                f"{name} prefix too short to pick n > k_1", required=n, available=len(seq)
            )
    coord = challenge.i_seq[n - 1]
    members = oracle.coordinate_set(coord)
    if k1 not in members:
        return WeakWitness(n=n, j=1, coordinate=coord, index=k1, value=0)
    J_n = challenge.J_seq[n - 1]
    if len(challenge.k_seq) < J_n:
        raise NeedsMoreDataError(
            "k_seq prefix too short to scan up to J_n",
            required=J_n,
            available=len(challenge.k_seq),
        )
    for j in range(1, J_n + 1):
        k_j = challenge.k_seq[j - 1]
        if k_j not in members:
            return WeakWitness(n=n, j=j, coordinate=coord, index=k_j, value=0)
    raise CertificateViolationError(
        f"no escaping index found although the set has {len(members)} <= {k1} "
        f"elements and {J_n} candidates were scanned"
    )
