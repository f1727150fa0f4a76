"""Fibonacci sets and the Young-Fibonacci lattice.

A Fibonacci set of rank ``n`` is a subset ``{s_1 < ... < s_k}`` of
``{1, ..., n}`` such that ``k`` has the same parity as ``n`` and the
``l``-th smallest element has the same parity as ``l``.  The number of
rank-``n`` Fibonacci sets satisfies the Fibonacci recurrence, and the
covering relation "add a new largest element / delete the largest
element" turns the ranked family into the Young-Fibonacci lattice.

This module also implements Stanley's bijection with binary words over
``{1, 2}``, saturated chains (which index the irreducible modules of the
rank-``n`` Okada algebra), the dominance order on each rank, and the
bijection between Fibonacci sets and free subsets of ``{1, ..., n-1}``.
Half diagrams, the chains read as arcs, are built in :mod:`okada.diagrams`.
The dominance lattice is given in closed form: meets and joins are
aligned minima and maxima, the rank function is a formula in the size
and the sum of a set, and the covers are two kinds of local moves.

Everything here is an immutable value; all enumerations are returned in
a deterministic order (lexicographic on element sequences).
"""

from __future__ import annotations

import reprlib
from functools import lru_cache
from typing import Iterable, Sequence

from ._immutable import Immutable
from .errors import InternalInvariantError, RankMismatchError

__all__ = [
    "FibonacciSet",
    "Chain",
    "is_fibonacci_set",
    "enumerate_yfs",
    "yf_covers",
    "yf_down_covers",
    "is_yf_cover",
    "word_to_set",
    "set_to_word",
    "saturated_chains",
    "chain_count",
    "dominance_leq",
    "dominance_lt",
    "dominance_meet",
    "dominance_join",
    "dominance_rank",
    "dominance_bottom",
    "dominance_top",
    "dominance_covers",
    "free_set",
    "free_set_inverse",
]


def _check_structure(rank: int, elements: Sequence[int]) -> None:
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {reprlib.repr(rank)}")
    for prev, cur in zip((0,) + tuple(elements), elements):
        if cur <= prev:
            raise ValueError(f"elements must be strictly increasing, got {reprlib.repr(tuple(elements))}")
    if elements and (elements[0] < 1 or elements[-1] > rank):
        raise ValueError(f"elements must lie in [1, {reprlib.repr(rank)}], got {reprlib.repr(tuple(elements))}")


def _parities_ok(rank: int, elements: Sequence[int]) -> bool:
    if len(elements) % 2 != rank % 2:
        return False
    return all(s % 2 == l % 2 for l, s in enumerate(elements, start=1))


def is_fibonacci_set(rank: int, elements: Sequence[int]) -> bool:
    """True iff ``elements`` is a Fibonacci set of the given rank.

    The input must already be strictly increasing and contained in
    ``[1, rank]``; structurally bad input raises ``ValueError``.

    >>> is_fibonacci_set(5, [1, 2, 5])
    True
    >>> is_fibonacci_set(5, [2])
    False
    """
    elements = tuple(elements)
    _check_structure(rank, elements)
    return _parities_ok(rank, elements)


class FibonacciSet(Immutable):
    """A Fibonacci set; equality and ordering compare ``(rank, elements)``.

    The same element set at two different ranks gives two different
    values: ``FibonacciSet(5, (1, 2, 5)) != FibonacciSet(7, (1, 2, 5))``.
    """

    __slots__ = _fields = ("rank", "elements")
    _ordered = True

    rank: int
    elements: tuple[int, ...]

    def __init__(self, rank: int, elements: tuple[int, ...]) -> None:
        elements = tuple(elements)
        _check_structure(rank, elements)
        if not _parities_ok(rank, elements):
            raise ValueError(f"{reprlib.repr(elements)} is not a Fibonacci set of rank {reprlib.repr(rank)}")
        self._fill(rank, elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # {1,2,5}_5, matching the usual notation
        inner = ",".join(str(s) for s in self.elements)
        return "{%s}_%d" % (inner, self.rank)


@lru_cache(maxsize=None)
def enumerate_yfs(n: int) -> tuple[FibonacciSet, ...]:
    """All rank-``n`` Fibonacci sets, lexicographic on element sequences.

    Built by the Fibonacci recurrence: the rank-``k`` sets are the
    rank-``k-1`` sets with ``k`` added and the rank-``k-2`` sets.  Dropping
    ``k`` keeps every parity right at rank ``k-1``, and a set without ``k``
    cannot end at ``k-1``, whose parity differs from the set's size.

    >>> [s.elements for s in enumerate_yfs(3)]
    [(1,), (1, 2, 3), (3,)]
    """
    if n < 0:
        raise ValueError("rank must be non-negative")
    below, sets = [], [()]
    for k in range(1, n + 1):
        below, sets = sets, sorted(below + [e + (k,) for e in sets])
    return tuple(FibonacciSet(n, elems) for elems in sets)


def _yf_steps(elems: tuple[int, ...], rank: int) -> list[tuple[int, ...]]:
    """The rank-``rank`` neighbours of ``elems``, sorted: less its largest
    element (a prefix), then with each new largest element, whose parity
    is that of the largest plus one."""
    if not elems:
        return [(u,) for u in range(1, rank + 1, 2)]
    return [elems[:-1]] + [elems + (u,) for u in range(elems[-1] + 1, rank + 1, 2)]


def yf_covers(s: FibonacciSet) -> tuple[FibonacciSet, ...]:
    """The rank ``n+1`` sets covering ``s`` in the Young-Fibonacci lattice.

    ``t`` covers ``s`` when one of the two is the other with its largest
    element removed.  Results come sorted lexicographically.
    """
    return tuple(FibonacciSet(s.rank + 1, e) for e in _yf_steps(s.elements, s.rank + 1))


def yf_down_covers(s: FibonacciSet) -> tuple[FibonacciSet, ...]:
    """The rank ``n-1`` sets covered by ``s``; empty for rank 0."""
    return tuple(FibonacciSet(s.rank - 1, e) for e in _yf_steps(s.elements, s.rank - 1)) if s.rank else ()


def is_yf_cover(s: FibonacciSet, t: FibonacciSet) -> bool:
    """True iff ``s`` is covered by ``t`` (consecutive ranks)."""
    if t.rank != s.rank + 1:
        return False
    return t.elements == s.elements[:-1] or t.elements[:-1] == s.elements


class Chain(Immutable):
    """A saturated chain ``empty = C_0 < C_1 < ... < C_n`` of covers.

    Equality and ordering compare the tuples of sets.
    """

    __slots__ = _fields = ("sets",)
    _ordered = True

    sets: tuple[FibonacciSet, ...]

    def __init__(self, sets: tuple[FibonacciSet, ...]) -> None:
        sets = tuple(sets)
        if not sets or sets[0] != FibonacciSet(0, ()):
            raise ValueError("chain must start at the empty set of rank 0")
        for i, (a, b) in enumerate(zip(sets, sets[1:])):
            if not is_yf_cover(a, b):
                raise ValueError(f"non-covering step at position {i}: {reprlib.repr(a.elements)} -> {reprlib.repr(b.elements)}")
        self._fill(sets)

    @property
    def rank(self) -> int:
        return len(self.sets) - 1

    @property
    def top(self) -> FibonacciSet:
        return self.sets[-1]

    def __repr__(self) -> str:
        return "Chain(" + " < ".join(repr(s) for s in self.sets) + ")"


@lru_cache(maxsize=None)
def saturated_chains(s: FibonacciSet) -> tuple[Chain, ...]:
    """All saturated chains from the rank-0 empty set up to ``s``.

    The number of chains is the dimension of the irreducible module
    indexed by ``s``; summing the squares over a full rank gives ``n!``.
    """
    if s.rank == 0:
        return (Chain((s,)),)
    chains = [
        Chain(c.sets + (s,))
        for p in yf_down_covers(s)
        for c in saturated_chains(p)
    ]
    return tuple(sorted(chains))


def chain_count(s: FibonacciSet) -> int:
    """Number of saturated chains ending at ``s`` (module dimension)."""
    return _chain_count(s)


@lru_cache(maxsize=None)
def _chain_count(s: FibonacciSet) -> int:
    if s.rank == 0:
        return 1
    return sum(_chain_count(p) for p in yf_down_covers(s))


# ---------------------------------------------------------------------------
# Stanley's bijection with binary words over {1, 2}


def word_to_set(word: str | Iterable[int]) -> FibonacciSet:
    """Binary word over {1,2} -> Fibonacci set of rank = sum of letters.

    The set collects the sums of the suffixes whose first letter is 1.

    >>> word_to_set("121").elements
    (1, 4)
    >>> word_to_set("22").elements
    ()
    """
    letters = [int(c) for c in word]
    if any(c not in (1, 2) for c in letters):
        raise ValueError(f"word letters must be 1 or 2, got {letters}")
    remaining = sum(letters)
    rank = remaining
    elems = []
    for c in letters:
        if c == 1:
            elems.append(remaining)
        remaining -= c
    return FibonacciSet(rank, tuple(sorted(elems)))


def set_to_word(s: FibonacciSet) -> str:
    """Inverse of :func:`word_to_set`, returned as a string over "12"."""
    out = []
    r = s.rank
    members = set(s.elements)
    while r > 0:
        if r in members:
            out.append("1")
            r -= 1
        else:
            if r - 1 in members:  # cannot happen for a valid Fibonacci set
                raise InternalInvariantError(f"word bijection stuck at {r} for {s}")
            out.append("2")
            r -= 2
    return "".join(out)


# ---------------------------------------------------------------------------
# Dominance order
#
# Every answer is read off the sets.  Align two rank-``n`` sets at their
# largest elements: the ``i``-th largest (``i = 0, 1, ...``) always has the
# parity of ``n - i``, so aligned elements share a parity.


def dominance_leq(s: FibonacciSet, t: FibonacciSet) -> bool:
    """True iff ``s`` is dominated by ``t``.

    With ``s = {s_1 < ... < s_k}`` and ``t = {t_1 < ... < t_l}`` of equal
    rank this means ``k <= l`` and ``s_{k-i} <= t_{l-i}`` for ``0 <= i < k``
    (elements compared from the largest downward).
    """
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot compare ranks {s.rank} and {t.rank}")
    a, b = s.elements, t.elements
    return len(a) <= len(b) and all(x <= y for x, y in zip(reversed(a), reversed(b)))


def dominance_lt(s: FibonacciSet, t: FibonacciSet) -> bool:
    """Strict dominance: ``s`` dominated by ``t`` and ``s != t``."""
    return s != t and dominance_leq(s, t)


def dominance_meet(s: FibonacciSet, t: FibonacciSet) -> FibonacciSet:
    """Greatest lower bound: the aligned minima of the top ``min(|s|, |t|)``.

    A set lies below both iff it is no longer than either and each of its
    elements is at most both aligned ones, so at most their minimum; and
    the minima increase and keep the parities, so they form a lower bound.

    >>> dominance_meet(FibonacciSet(5, (1, 2, 3)), FibonacciSet(5, (5,)))
    {3}_5
    """
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot meet ranks {s.rank} and {t.rank}")
    a, b = s.elements, t.elements
    m = min(len(a), len(b))
    return FibonacciSet(s.rank, tuple(map(min, a[len(a) - m:], b[len(b) - m:])))


def dominance_join(s: FibonacciSet, t: FibonacciSet) -> FibonacciSet:
    """Least upper bound: the longer set, its top raised to the aligned maxima.

    A set lies above both iff it is at least as long as the longer one and
    each aligned element is at least both, so at least their maximum; the
    longer set's untouched lower elements stay below the raised ones.

    >>> dominance_join(FibonacciSet(5, (1, 2, 3)), FibonacciSet(5, (5,)))
    {1,2,5}_5
    """
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot join ranks {s.rank} and {t.rank}")
    a, b = s.elements, t.elements
    if len(a) > len(b):
        a, b = b, a
    cut = len(b) - len(a)
    return FibonacciSet(s.rank, b[:cut] + tuple(map(max, a, b[cut:])))


def dominance_bottom(n: int) -> FibonacciSet:
    """The least element: ``{1}`` for odd ``n``, the empty set for even ``n``."""
    return FibonacciSet(n, (1,) if n % 2 else ())


def dominance_top(n: int) -> FibonacciSet:
    """The greatest element; always the full interval ``{1, ..., n}``."""
    return FibonacciSet(n, tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def _dominance_tables(n: int) -> tuple[tuple[FibonacciSet, FibonacciSet], ...]:
    """The sorted cover pairs of rank ``n``; see :func:`dominance_covers`."""
    pairs = []
    for s in enumerate_yfs(n):
        e = s.elements
        if n >= 2 and (not e or e[0] > 2):
            pairs.append((s, FibonacciSet(n, (1, 2) + e)))
        for i, x in enumerate(e):
            if x + 2 < (e[i + 1] if i + 1 < len(e) else n + 1):
                pairs.append((s, FibonacciSet(n, e[:i] + (x + 2,) + e[i + 1:])))
    pairs.sort(key=lambda p: (p[0].elements, p[1].elements))
    return tuple(pairs)


def dominance_covers(n: int) -> tuple[tuple[FibonacciSet, FibonacciSet], ...]:
    """All cover pairs ``(s, t)`` with ``s`` covered by ``t``, sorted.

    ``t`` covers ``s`` iff it is ``{1, 2} | s`` (``n >= 2``, no element of
    ``s`` at most 2) or raises one element of ``s`` by 2 while staying
    below the next one and at most ``n``.  Each such move adds exactly 1
    to :func:`dominance_rank`.  If ``s < t``, some move stays below ``t``:
    raise the largest element of ``s`` below its aligned element of ``t``
    (which is 2 or more larger, by parity, while the elements above agree
    with ``t``'s), or, if there is none, add ``{1, 2}``.  Moves thus reach
    ``t`` from ``s``, so the rank grows strictly along the order, and a
    cover is exactly one move.
    """
    return _dominance_tables(n)


def dominance_rank(s: FibonacciSet) -> int:
    """Height of ``s`` above the bottom: ``k^2 // 4 + (sum(s) - k(k+1)/2) / 2``.

    Here ``k = |s|``; the halved term is an integer because the ``l``-th
    smallest element has the parity of ``l``.  The bottom has rank 0 and
    every cover adds exactly 1 (see :func:`dominance_covers`).

    >>> dominance_rank(FibonacciSet(5, (1, 2, 5)))
    3
    """
    e = s.elements
    k = len(e)
    return k * k // 4 + (sum(e) - k * (k + 1) // 2) // 2


# ---------------------------------------------------------------------------
# Free sets


def free_set(s: FibonacciSet) -> tuple[int, ...]:
    """The free subset of ``{1, ..., n-1}`` attached to ``s``.

    ``i`` belongs to the image iff ``i - max{x in s : x <= i}`` is odd
    (with ``max`` of the empty set read as 0).  The result never contains
    two consecutive integers and satisfies ``|s| + 2*len(result) = n``.

    >>> free_set(FibonacciSet(4, ()))
    (1, 3)
    >>> free_set(FibonacciSet(3, (1,)))
    (2,)
    """
    out = []
    below = 0
    members = set(s.elements)
    for i in range(1, s.rank):
        if i in members:
            below = i
        if (i - below) % 2 == 1:
            out.append(i)
    return tuple(out)


def free_set_inverse(fset: Sequence[int], n: int) -> FibonacciSet:
    """Recover the Fibonacci set whose free set is ``fset``.

    The elements are the points of ``{1, ..., n}`` not covered by the
    dominoes ``{i, i+1}`` for ``i`` in ``fset``.
    """
    fset = tuple(sorted(fset))
    for a, b in zip(fset, fset[1:]):
        if b - a < 2:
            raise ValueError(f"not a free set (adjacent {a}, {b}): {fset}")
    if fset and (fset[0] < 1 or fset[-1] > n - 1):
        raise ValueError(f"free set must lie in [1, {n - 1}]: {fset}")
    covered = {j for i in fset for j in (i, i + 1)}
    s = FibonacciSet(n, tuple(x for x in range(1, n + 1) if x not in covered))
    if free_set(s) != fset:
        raise InternalInvariantError(f"free-set bijection failed on {fset} at rank {n}")
    return s
