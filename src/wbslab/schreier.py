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
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from itertools import islice, takewhile
from math import comb
from operator import lt
from typing import Iterable, Iterator

from .errors import InvalidInputError
from .inputs import parse_int, parse_ints, to_decimal

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


class _FibonacciCache:
    """F(n), kept in LRU order under a budget of bytes.

    Counts grow by 0.7 bits per grade, so a cap on the number of entries
    would not bound memory.  A miss evaluates (F(n), F(n + 1)) and keeps
    both: ranking or unranking in grade n + 1 needs exactly these two.
    The pair is derived from the nearest cached pair (F(p), F(p + 1)),
    both counts present, when |n - p| <= n / _NEAR_PAIR_RATIO, and by
    Fibonacci-Lucas doubling otherwise.  Reading that pair neither
    counts as a hit nor moves it in the LRU order.  A value larger than
    the whole budget is returned but not kept.
    """

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.cache_clear()

    def __call__(self, n: int) -> int:
        value = self._entries.get(n)
        if value is not None:
            self._hits += 1
            self._entries.move_to_end(n)
            return value
        self._misses += 1
        value, after = self._pair(n)
        self._keep(n + 1, after)
        self._keep(n, value)
        return value

    def _pair(self, n: int) -> tuple[int, int]:
        entries = self._entries
        p = min((q for q in entries if q + 1 in entries), key=lambda q: abs(n - q), default=None)
        if p is not None and _NEAR_PAIR_RATIO * abs(n - p) <= n:
            return _fib_pair_from(n, p, entries[p], entries[p + 1])
        return _fib_pair(n)

    def _keep(self, n: int, value: int) -> None:
        old = self._entries.pop(n, None)
        if old is not None:
            self._nbytes -= sys.getsizeof(old)
        self._entries[n] = value
        self._nbytes += sys.getsizeof(value)
        while self._nbytes > self.maxbytes:
            self._nbytes -= sys.getsizeof(self._entries.popitem(last=False)[1])

    def cache_info(self) -> CountCacheInfo:
        return CountCacheInfo(
            self._hits, self._misses, len(self._entries), self._nbytes, self.maxbytes
        )

    def cache_clear(self) -> None:
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._hits = self._misses = self._nbytes = 0


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
    n = parse_int(n)
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {to_decimal(n)}")
    if n > _MAX_GRADE:
        raise InvalidInputError(f"n exceeds the largest supported grade, {_MAX_GRADE}")
    return _COUNTS(n)


count_max_at_most.cache_info = _COUNTS.cache_info
count_max_at_most.cache_clear = _COUNTS.cache_clear


def count_with_max(n: int) -> int:
    """Number of maximal Schreier sets whose maximum is exactly n."""
    if n == 1:
        return 1
    below = count_max_at_most(n - 1)  # a miss here also keeps count(n)
    return count_max_at_most(n) - below


# Binomials are carried from one value to the next by ratio updates,
# each a multiply and an exact divide by word-sized factors.  A gap
# longer than this is crossed with one math.comb instead: a comb of a
# multi-kilobit binomial costs about as much as 50-500 ratio steps.
_RATIO_STEPS = 64


def _comb_lex_rank(lo: int, hi: int, chosen: tuple[int, ...]) -> int:
    """0-based lex rank of a sorted subset of the interval [lo, hi].

    Uses the hockey-stick identity to charge each gap between chosen
    elements with two binomials instead of one per skipped value:
    choosing c after the values below v are settled skips
    C(hi - v + 1, r) - C(hi - c + 1, r) subsets, r counting c itself.
    An element right after the previous one skips nothing, so the walk
    stops at the first element of the final run of consecutive values,
    found by bisection: chosen[i] - i never decreases and is constant
    along that run.
    """
    k = len(chosen)
    if not k:
        return 0
    run = bisect_left(range(k), chosen[-1] - k + 1, key=lambda i: chosen[i] - i)
    rank = 0
    v = lo
    top = comb(hi - lo + 1, k)  # C(hi - v + 1, r)
    for r, c in zip(range(k, 0, -1), islice(chosen, run + 1)):
        if c - v > _RATIO_STEPS:
            cur = comb(hi - c + 1, r)
        else:
            cur = top
            for t in range(hi - v + 1, hi - c + 1, -1):
                cur = cur * (t - r) // t  # C(t - 1, r) from C(t, r)
        rank += top - cur
        top = cur * r // (hi - c + 1)  # C(hi - c, r - 1)
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


def _comb_lex_unrank(lo: int, hi: int, k: int, index: int) -> tuple[int, ...]:
    """Inverse of _comb_lex_rank.

    The next element is the smallest c with C(hi - c, r) < top - index,
    where top = C(hi - v + 1, r) counts the subsets still in play.  Once
    index is 0 the rest is the first subset in play, the run v .. v + r - 1.
    """
    top = comb(hi - lo + 1, k)
    if not 0 <= index < top:
        raise InvalidInputError("combination index out of range")
    out = []
    v = lo
    for r in range(k, 0, -1):
        if not index:
            out.extend(range(v, v + r))
            break
        target = top - index
        cur = top  # C(hi - v + 1, r) >= target
        for _ in range(_RATIO_STEPS):
            t = hi - v + 1
            after = cur * (t - r) // t  # C(hi - v, r)
            if after < target:
                break
            cur, v = after, v + 1
        else:
            v = _first_below(v, hi, r, target)
            cur = comb(hi - v + 1, r)
        out.append(v)
        index -= top - cur
        top = cur * r // (hi - v + 1)  # C(hi - v, r - 1)
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


def _blocks_up(n: int) -> Iterator[tuple[int, int]]:
    """(m, C(n - 1 - m, m - 2)) for each minimum m of grade n, ascending.

    C(n - 1 - m, m - 2) sets of grade n have minimum m.  Each block size
    follows from the last by C(a - 1, b + 1) =
    C(a, b) * (a - b) * (a - b - 1) / (a * (b + 1)).
    """
    block = 1  # C(n - 3, 0)
    for m in range(2, _max_min_in_grade(n) + 1):
        if m > 2:
            a, b = n - m, m - 3  # the block of m - 1 is C(a, b)
            block = block * (a - b) * (a - b - 1) // (a * (b + 1))
        yield m, block


def _blocks_down(n: int) -> Iterator[tuple[int, int]]:
    """The pairs of _blocks_up from the largest minimum down.

    Each block size follows from the last by C(a + 1, b - 1) =
    C(a, b) * (a + 1) * b / ((a - b + 1) * (a - b + 2)).
    """
    top = _max_min_in_grade(n)
    block = comb(n - 1 - top, top - 2)  # 1 or (n - 2) / 2
    for m in range(top, 1, -1):
        if m < top:
            a, b = n - 2 - m, m - 1  # the block of m + 1 is C(a, b)
            block = block * (a + 1) * b // ((a - b + 1) * (a - b + 2))
        yield m, block


# The blocks before a minimum are summed from whichever end of the grade
# is nearer, so a set whose minimum is close to the largest one (every
# identity-rule witness) costs a few blocks, not n / 2 of them.


def _rank_in_grade(s: SchreierSet) -> int:
    """0-based position of s among sets sharing its maximum, in lex order."""
    n = s.maximum
    if n == 1:
        return 0
    m = s.minimum
    if m - 2 <= _max_min_in_grade(n) - m:
        prior = sum(block for _, block in takewhile(lambda p: p[0] < m, _blocks_up(n)))
    else:
        from_m = sum(block for _, block in takewhile(lambda p: p[0] >= m, _blocks_down(n)))
        prior = count_with_max(n) - from_m
    middle = s.elements[1:-1]
    return prior + _comb_lex_rank(m + 1, n - 1, middle)


def _unrank_in_grade(n: int, index: int) -> SchreierSet:
    if n == 1:
        if index != 0:
            raise InvalidInputError("grade 1 holds a single set")
        return SchreierSet((1,))
    size = count_with_max(n)
    if not 0 <= index < size:
        raise InvalidInputError(f"index exceeds grade {n}")
    if 2 * index < size:
        for m, block in _blocks_up(n):
            if index < block:
                break
            index -= block
    else:
        from_end = size - 1 - index
        for m, block in _blocks_down(n):
            if from_end < block:
                index = block - 1 - from_end
                break
            from_end -= block
    middle = _comb_lex_unrank(m + 1, n - 1, m - 2, index)
    return SchreierSet((m,) + middle + (n,))


class CanonicalEnumeration:
    """Grade by maximum ascending, lexicographic inside each grade."""

    name = "canonical"

    def unrank(self, rank: int) -> SchreierSet:
        """The rank-th maximal Schreier set (1-based)."""
        rank = parse_int(rank)
        if rank < 1:
            raise InvalidInputError(f"rank must be >= 1, got {to_decimal(rank)}")
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
