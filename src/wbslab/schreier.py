"""Maximal Schreier sets and computable enumerations of their family.

A maximal Schreier set is a nonempty finite set A of positive integers
with ``|A| = min(A)``.  The family of all such sets is countable; this
module fixes a canonical bijection with the positive integers (and one
alternative, used to confirm that downstream certificates do not depend
on the enumeration choice).

Canonical order: sets are graded by their maximum, ascending; inside a
grade they are sorted lexicographically as increasing tuples.  Each grade
is finite, the grade sizes follow the Fibonacci recurrence, and both
ranking and unranking run in time polynomial in ``max(A)``.  Ranks grow
like ``phi**max(A)`` and are therefore plain Python integers, never
fixed-width.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from math import comb
from operator import lt
from typing import Iterable, Iterator

from ._lru import ByteLRU
from .errors import InvalidInputError
from .inputs import parse_count, parse_ints, to_decimal

__all__ = [
    "SchreierSet",
    "count_max_at_most",
    "CanonicalEnumeration",
    "ReversedGradeEnumeration",
    "get_enumeration",
    "ENUMERATION_NAMES",
]


@dataclass(frozen=True)
class SchreierSet:
    """A maximal Schreier set, stored as a strictly increasing tuple."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = parse_ints(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise InvalidInputError("a maximal Schreier set is nonempty")
        increasing = all(map(lt, elems, islice(elems, 1, None)))
        # an increasing tuple is positive iff its first element is
        if (elems[0] if increasing else min(elems)) < 1:
            raise InvalidInputError(f"elements must be positive integers: {_listed(elems)}")
        if not increasing:
            raise InvalidInputError(f"elements must be strictly increasing: {_listed(elems)}")
        if len(elems) != elems[0]:
            raise InvalidInputError(
                f"cardinality {len(elems)} != minimum {to_decimal(elems[0])}: not maximal Schreier"
            )

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "SchreierSet":
        return cls(tuple(sorted(set(parse_ints(values)))))

    @property
    def minimum(self) -> int:
        return self.elements[0]

    @property
    def maximum(self) -> int:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, k: int) -> bool:
        return k in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def to_json(self) -> list[int]:
        return list(self.elements)


def _listed(values: tuple[int, ...]) -> str:
    """repr(values), with integers of any length."""
    return f"({', '.join(map(to_decimal, values))}{',' * (len(values) == 1)})"


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by Fibonacci-Lucas doubling, with F(0)=0, F(1)=1.

    Walks the bits of n from the top, keeping (F(k), L(k)): doubling k
    takes F(2k) = F(k) L(k) and L(2k) = L(k)**2 - 2 (-1)**k, one product
    and one square; a set bit steps to k + 1 by shifts and additions.
    """
    f, lucas = 0, 2  # F(0), L(0)
    odd = 0
    for i in range(n.bit_length() - 1, -1, -1):
        f, lucas = f * lucas, lucas * lucas + (2 if odd else -2)
        odd = n >> i & 1
        if odd:
            f, lucas = (f + lucas) >> 1, (5 * f + lucas) >> 1
    return f, (f + lucas) >> 1


def _fib_pair_from(n: int, p: int, fp: int, fp1: int) -> tuple[int, int]:
    """(F(n), F(n+1)) from the pair (F(p), F(p+1)) = (fp, fp1).

    With k = n - p, F(n) = F(k) F(p+1) + F(k-1) F(p) and
    F(n+1) = F(k+1) F(p+1) + F(k) F(p); three products suffice.  For
    k < 0, F(-j) = (-1)**(j+1) F(j).
    """
    k = n - p
    if k >= 0:
        fk, fk1 = _fib_pair(k)
    else:
        below, fj = _fib_pair(-k - 1)  # F(j - 1), F(j) for j = -k
        fk, fk1 = (fj, -below) if k & 1 else (-fj, below)
    x, y = fk * fp, fk1 * fp1
    z = (fk + fk1) * (fp + fp1)
    return z - y - 2 * x, x + y


CountCacheInfo = namedtuple("CountCacheInfo", "hits misses currsize nbytes maxbytes")

# About 30 counts near grade 4e5 (35 kB each) or 11 near grade 1e6.
_COUNT_CACHE_BYTES = 1 << 20

# The largest grade counted.  F(10**7) has 6.9 million bits (904 KiB as
# a Python int, so it still fits the cache) and takes 2.9-3.0 s from
# scratch on a 2-core Xeon under Python 3.11 (4.1-4.3 s with the
# earlier product-and-two-squares doubling); the cost grows faster than
# linearly past it, and a witness of a fast-growing subsequence can ask
# for grades like 2**520, whose count would never finish.
_MAX_GRADE = 10**7


# A miss at grade n is derived from a cached pair at grade p when
# |n - p| <= n / _NEAR_PAIR_RATIO.  Deriving costs the doubling of
# F(|n - p|) plus three products of that short count with F(p).  On a
# 2-core Xeon at n = 4e5 it took 5 ms at |n - p| = n / 64 and 10-12 ms
# at n / 16, against 17 ms from scratch; at n / 8 it cost as much as
# from scratch, or more (at n = 1e6, 67-94 ms against 45 ms).
_NEAR_PAIR_RATIO = 16


class _FibonacciCache(ByteLRU):
    """F(n), kept in LRU order under a budget of bytes, each sized by sys.getsizeof.

    A miss evaluates (F(n), F(n + 1)) and keeps both: ranking or
    unranking in grade n + 1 needs exactly these two.
    The pair is derived from the nearest cached pair (F(p), F(p + 1)),
    both counts present, when |n - p| <= n / _NEAR_PAIR_RATIO, and by
    Fibonacci-Lucas doubling otherwise.  Reading that pair neither
    counts as a hit nor moves it in the LRU order.
    """

    def __call__(self, n: int) -> int:
        value = self.get(n)
        if value is None:
            value, after = self._pair(n)
            self.put(n + 1, after, sys.getsizeof(after))
            self.put(n, value, sys.getsizeof(value))
        return value

    def _pair(self, n: int) -> tuple[int, int]:
        entries = self._entries
        p = min((q for q in entries if q + 1 in entries), key=lambda q: abs(n - q), default=None)
        if p is not None and _NEAR_PAIR_RATIO * abs(n - p) <= n:
            return _fib_pair_from(n, p, entries[p][0], entries[p + 1][0])
        return _fib_pair(n)

    def cache_info(self) -> CountCacheInfo:
        return CountCacheInfo(self.hits, self.misses, len(self._entries), self.nbytes, self.maxbytes)


_COUNTS = _FibonacciCache(_COUNT_CACHE_BYTES)


def count_max_at_most(n: int) -> int:
    """Number of maximal Schreier sets whose maximum is at most n.

    Equals ``sum(comb(n - m, m - 1) for m in 1..n)``, which satisfies the
    Fibonacci recurrence; computed by doubling, or from a nearby cached
    pair of counts, so that ranking stays cheap even when n is large.
    Every rank, unrank and certificate goes through here, so n above
    ``_MAX_GRADE`` is rejected here, once.
    ``cache_info()`` and ``cache_clear()`` inspect and empty the
    memory-bounded cache behind it.
    """
    n = parse_count(n, "n")
    if n > _MAX_GRADE:
        raise InvalidInputError(f"n exceeds the largest supported grade, {_MAX_GRADE}")
    return _COUNTS(n)


count_max_at_most.cache_info = _COUNTS.cache_info
count_max_at_most.cache_clear = _COUNTS.clear


def count_with_max(n: int) -> int:
    """Number of maximal Schreier sets whose maximum is exactly n."""
    if n == 1:
        return 1
    below = count_max_at_most(n - 1)  # a miss here also keeps count(n)
    return count_max_at_most(n) - below


# Binomials are carried from one value to the next by ratio updates,
# each a multiply and an exact divide by products of word-sized factors.
# A gap longer than this is crossed with one math.comb instead: a comb
# of a multi-kilobit binomial costs about as much as 50-500 ratio steps.
_RATIO_STEPS = 64


def _comb_lex_rank(lo: int, hi: int, chosen: tuple[int, ...], count: int | None = None) -> int:
    """0-based lex rank of a sorted subset of the interval [lo, hi].

    count is C(hi - lo + 1, len(chosen)) when the caller has it.  The
    rank sums, over each skipped value u, the C(hi - u, r - 1) subsets
    that take u, r counting the elements still to choose.  That term is
    carried as term * num // den, num and den products of small factors:
    a skip multiplies it by (a - b) / a and a choice by b / a, where
    a = hi - u and b = r - 1, so only a skip touches the big integer, with
    one multiply and one exact divide.  A gap longer than _RATIO_STEPS is
    charged at once by the hockey-stick identity: skipping v .. c - 1
    skips C(hi - v + 1, r) - C(hi - c + 1, r) subsets.  An element right
    after the previous one skips nothing, so the walk stops at the first
    element of the final run of consecutive values, found by bisection:
    chosen[i] - i never decreases and is constant along that run.
    """
    k = len(chosen)
    if not k:
        return 0
    run = bisect_left(range(k), chosen[-1] - k + 1, key=lambda i: chosen[i] - i)
    if count is None:
        count = comb(hi - lo + 1, k)
    rank = 0
    term, num, den = count, k, hi - lo + 1  # C(hi - v, r - 1) = term * num // den
    v = lo
    for r, c in zip(range(k, 0, -1), islice(chosen, run + 1)):
        if c - v > _RATIO_STEPS:
            cur = comb(hi - c + 1, r)
            rank += term * (num * (hi - v + 1)) // (den * r) - cur  # C(hi - v + 1, r) - cur
            term, num, den = cur, r, hi - c + 1
        else:
            for a in range(hi - v, hi - c, -1):  # a = hi - u for the skipped u
                term = term * num // den
                rank += term
                num, den = a - r + 1, a
        num *= r - 1
        den *= hi - c
        v = c + 1
    return rank


def _first_below(v: int, hi: int, r: int, target: int) -> int:
    """Smallest c >= v with C(hi - c, r) < target, given C(hi - v + 1, r) >= target.

    Gallops on doubling offsets, then bisects the last doubling.
    """
    good, bad, step = v - 1, hi - r + 1, 1  # C(hi - bad, r) == 0
    while good + step < bad:
        if comb(hi - good - step, r) < target:
            bad = good + step
            break
        good, step = good + step, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if comb(hi - mid, r) < target:
            bad = mid
        else:
            good = mid
    return bad


def _comb_lex_unrank(lo: int, hi: int, k: int, index: int, count: int | None = None) -> tuple[int, ...]:
    """Inverse of _comb_lex_rank; count is C(hi - lo + 1, k) when the caller has it.

    top = C(hi - v + 1, r) counts the subsets still in play, and
    first = top * r // (hi - v + 1) = C(hi - v, r - 1) of them take v:
    v is chosen when index < first, leaving top = first, and skipped
    otherwise, leaving index - first and top - first.  Each value costs
    one binomial step.  After _RATIO_STEPS skips in a row the chosen
    value is found by galloping instead: the smallest c with
    C(hi - c, r) < top - index.  Once index is 0 the rest is the first
    subset in play, the run v .. v + r - 1.
    """
    top = comb(hi - lo + 1, k) if count is None else count
    if not 0 <= index < top:
        raise InvalidInputError("combination index out of range")
    out = []
    v = lo
    for r in range(k, 0, -1):
        if not index:
            out.extend(range(v, v + r))
            break
        for _ in range(_RATIO_STEPS):
            first = top * r // (hi - v + 1)
            if index < first:
                break
            index -= first
            top -= first
            v += 1
        else:
            v = _first_below(v, hi, r, top - index)
            cur = comb(hi - v + 1, r)
            index -= top - cur
            first = cur * r // (hi - v + 1)
        out.append(v)
        top = first
        v += 1
    return tuple(out)


_LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
_LOG_SQRT5 = math.log(5) / 2


def _grade_of_rank(rank: int) -> int:
    """Smallest n with count_max_at_most(n) >= rank.

    F(n) is the integer nearest phi**n / sqrt(5), so when
    F(n - 1) < rank <= F(n), x = log_phi(rank * sqrt(5)) lies in
    (n - 1, n] up to rounding.  The first count looked up is at
    floor(x + 1e-6): n - 1 except for the last sets of a grade, since the
    margin exceeds the float error of x (about 1e-10 at grade 1e6).  The
    loops then step to n through counts of the pair (F(n - 1), F(n)),
    which one cache miss evaluates and which rank_of of any set of the
    grade has already looked up.
    """
    n = max(1, math.floor((math.log(rank) + _LOG_SQRT5) / _LOG_PHI + 1e-6))
    while count_max_at_most(n) < rank:
        n += 1
    while n > 1 and count_max_at_most(n - 1) >= rank:
        n -= 1
    return n


def _max_min_in_grade(n: int) -> int:
    # a set {m, ..., n} with min m needs m - 2 elements strictly between
    return (n + 1) // 2


def _blocks_up(n: int) -> Iterator[int]:
    """C(n - 1 - m, m - 2), the number of sets of grade n with minimum m, for m = 2, 3, ...

    Each block size follows from the last by C(a - 1, b + 1) =
    C(a, b) * ((a - b) * (a - b - 1)) // (a * (b + 1)), the small factors
    grouped so that each step is one big multiply and one divide.
    """
    block = 1  # C(n - 3, 0)
    yield block
    for m in range(3, _max_min_in_grade(n) + 1):
        a, b = n - m, m - 3  # the block of m - 1 is C(a, b)
        block = block * ((a - b) * (a - b - 1)) // (a * (b + 1))
        yield block


def _blocks_down(n: int) -> Iterator[int]:
    """The blocks of _blocks_up from the largest minimum down.

    Each block size follows from the last by C(a + 1, b - 1) =
    C(a, b) * ((a + 1) * b) // ((a - b + 1) * (a - b + 2)).
    """
    top = _max_min_in_grade(n)
    block = comb(n - 1 - top, top - 2)  # 1 or (n - 2) / 2
    yield block
    for m in range(top - 1, 1, -1):
        a, b = n - 2 - m, m - 1  # the block of m + 1 is C(a, b)
        block = block * ((a + 1) * b) // ((a - b + 1) * (a - b + 2))
        yield block


# The blocks before a minimum are summed from whichever end of the grade
# is nearer, so a set whose minimum is close to the largest one (every
# identity-rule witness) costs a few blocks, not n / 2 of them.  Either
# walk ends on the set's own block, C(n - 1 - m, m - 2): the number of
# subsets its middle is ranked or unranked among.


def _rank_in_grade(s: SchreierSet) -> int:
    """0-based position of s among sets sharing its maximum, in lex order."""
    n = s.maximum
    if n == 1:
        return 0
    m = s.minimum
    top = _max_min_in_grade(n)
    if m - 2 <= top - m:
        blocks = _blocks_up(n)
        prior = sum(islice(blocks, m - 2))
        block = next(blocks)
    else:
        from_m = 0
        for block in islice(_blocks_down(n), top - m + 1):
            from_m += block
        prior = count_with_max(n) - from_m
    return prior + _comb_lex_rank(m + 1, n - 1, s.elements[1:-1], block)


def _unrank_in_grade(n: int, index: int) -> SchreierSet:
    """The set at 0-based position index of grade n; every caller derives an index in range."""
    if n == 1:
        return SchreierSet((1,))
    size = count_with_max(n)
    if 2 * index < size:
        for m, block in enumerate(_blocks_up(n), 2):
            if index < block:
                break
            index -= block
    else:
        from_end = size - 1 - index
        for m, block in zip(range(_max_min_in_grade(n), 1, -1), _blocks_down(n)):
            if from_end < block:
                index = block - 1 - from_end
                break
            from_end -= block
    middle = _comb_lex_unrank(m + 1, n - 1, m - 2, index, block)
    return SchreierSet((m,) + middle + (n,))


class CanonicalEnumeration:
    """Grade by maximum ascending, lexicographic inside each grade."""

    name = "canonical"

    def unrank(self, rank: int) -> SchreierSet:
        """The rank-th maximal Schreier set (1-based)."""
        rank = parse_count(rank, "rank")
        n = _grade_of_rank(rank)
        within = rank - 1 if n == 1 else rank - count_max_at_most(n - 1) - 1
        return self._unrank_in_grade(n, within)

    def rank_of(self, s: SchreierSet) -> int:
        """1-based position of s in this enumeration; inverse of unrank."""
        n = s.maximum
        below = 0 if n == 1 else count_max_at_most(n - 1)
        return below + self._rank_in_grade(s) + 1

    # grade-local pieces, overridden by the alternative order below
    def _rank_in_grade(self, s: SchreierSet) -> int:
        return _rank_in_grade(s)

    def _unrank_in_grade(self, n: int, index: int) -> SchreierSet:
        return _unrank_in_grade(n, index)


class ReversedGradeEnumeration(CanonicalEnumeration):
    """Same grading by maximum, but each grade is walked in reverse.

    Any bijection with the positive integers is admissible; keeping the
    grades but flipping their interior order is the cheapest genuinely
    different choice, and it relocates every witness coordinate in grades
    with more than one set.
    """

    name = "alt"

    def _rank_in_grade(self, s: SchreierSet) -> int:
        return count_with_max(s.maximum) - 1 - _rank_in_grade(s)

    def _unrank_in_grade(self, n: int, index: int) -> SchreierSet:
        return _unrank_in_grade(n, count_with_max(n) - 1 - index)


_ENUMERATIONS = {
    "canonical": CanonicalEnumeration(),
    "alt": ReversedGradeEnumeration(),
}

ENUMERATION_NAMES = tuple(_ENUMERATIONS)


def get_enumeration(name: str) -> CanonicalEnumeration:
    try:
        return _ENUMERATIONS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown enumeration {name!r}; choose from {ENUMERATION_NAMES}"
        ) from None
