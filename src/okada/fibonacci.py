"""Fibonacci sets and the Young-Fibonacci lattice.

A Fibonacci set of rank ``n`` is a subset ``{s_1 < ... < s_k}`` of
``{1, ..., n}`` such that ``k`` has the same parity as ``n`` and the
``l``-th smallest element has the same parity as ``l``.  The number of
rank-``n`` Fibonacci sets satisfies the Fibonacci recurrence, and the
covering relation "add a new largest element / delete the largest
element" turns the ranked family into the Young-Fibonacci lattice.

This module also implements Stanley's bijection with binary words over
``{1, 2}``, saturated chains (which index the irreducible modules of the
rank-``n`` Okada algebra), the dominance order on each rank together
with its lattice operations, and the bijection between Fibonacci sets
and free subsets of ``{1, ..., n-1}``.

Everything here is an immutable value; all enumerations are returned in
a deterministic order (lexicographic on element sequences).
"""

from __future__ import annotations

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
        raise ValueError(f"rank must be non-negative, got {rank}")
    for prev, cur in zip((0,) + tuple(elements), elements):
        if cur <= prev:
            raise ValueError(f"elements must be strictly increasing, got {tuple(elements)}")
    if elements and (elements[0] < 1 or elements[-1] > rank):
        raise ValueError(f"elements must lie in [1, {rank}], got {tuple(elements)}")


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

    __slots__ = ("rank", "elements")

    rank: int
    elements: tuple[int, ...]

    def __init__(self, rank: int, elements: tuple[int, ...]) -> None:
        elements = tuple(elements)
        _check_structure(rank, elements)
        if not _parities_ok(rank, elements):
            raise ValueError(f"{elements} is not a Fibonacci set of rank {rank}")
        _set_fs_rank(self, rank)
        _set_fs_elements(self, elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FibonacciSet:
            return NotImplemented
        return self.rank == other.rank and self.elements == other.elements

    def __lt__(self, other) -> bool:
        if other.__class__ is not FibonacciSet:
            return NotImplemented
        return (self.rank, self.elements) < (other.rank, other.elements)

    def __le__(self, other) -> bool:
        if other.__class__ is not FibonacciSet:
            return NotImplemented
        return (self.rank, self.elements) <= (other.rank, other.elements)

    def __gt__(self, other) -> bool:
        if other.__class__ is not FibonacciSet:
            return NotImplemented
        return (self.rank, self.elements) > (other.rank, other.elements)

    def __ge__(self, other) -> bool:
        if other.__class__ is not FibonacciSet:
            return NotImplemented
        return (self.rank, self.elements) >= (other.rank, other.elements)

    def __hash__(self) -> int:
        return hash((self.rank, self.elements))

    def __reduce__(self):
        return FibonacciSet, (self.rank, self.elements)

    def __repr__(self) -> str:  # {1,2,5}_5, matching the usual notation
        inner = ",".join(str(s) for s in self.elements)
        return "{%s}_%d" % (inner, self.rank)


_set_fs_rank = FibonacciSet.rank.__set__
_set_fs_elements = FibonacciSet.elements.__set__


@lru_cache(maxsize=None)
def enumerate_yfs(n: int) -> tuple[FibonacciSet, ...]:
    """All rank-``n`` Fibonacci sets, lexicographic on element sequences.

    >>> [s.elements for s in enumerate_yfs(3)]
    [(1,), (1, 2, 3), (3,)]
    """
    if n < 0:
        raise ValueError("rank must be non-negative")
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], last: int) -> None:
        if (len(prefix) - n) % 2 == 0:
            found.append(tuple(prefix))
        want = (len(prefix) + 1) % 2
        for s in range(last + 1, n + 1):
            if s % 2 == want:
                prefix.append(s)
                extend(prefix, s)
                prefix.pop()

    extend([], 0)
    return tuple(FibonacciSet(n, elems) for elems in sorted(found))


def yf_covers(s: FibonacciSet) -> tuple[FibonacciSet, ...]:
    """The rank ``n+1`` sets covering ``s`` in the Young-Fibonacci lattice.

    ``t`` covers ``s`` when one of the two is the other with its largest
    element removed.  Results come sorted lexicographically.
    """
    n, elems = s.rank, s.elements
    out = []
    if elems:
        out.append(FibonacciSet(n + 1, elems[:-1]))
    lo = elems[-1] if elems else 0
    want = (len(elems) + 1) % 2
    for t in range(lo + 1, n + 2):
        if t % 2 == want:
            out.append(FibonacciSet(n + 1, elems + (t,)))
    return tuple(sorted(out))


def yf_down_covers(s: FibonacciSet) -> tuple[FibonacciSet, ...]:
    """The rank ``n-1`` sets covered by ``s``; empty for rank 0."""
    n, elems = s.rank, s.elements
    if n == 0:
        return ()
    out = []
    if elems:
        out.append(FibonacciSet(n - 1, elems[:-1]))
    lo = elems[-1] if elems else 0
    want = (len(elems) + 1) % 2
    for t in range(lo + 1, n):
        if t % 2 == want:
            out.append(FibonacciSet(n - 1, elems + (t,)))
    return tuple(sorted(out))


def is_yf_cover(s: FibonacciSet, t: FibonacciSet) -> bool:
    """True iff ``s`` is covered by ``t`` (consecutive ranks)."""
    if t.rank != s.rank + 1:
        return False
    return t.elements == s.elements[:-1] or t.elements[:-1] == s.elements


class Chain(Immutable):
    """A saturated chain ``empty = C_0 < C_1 < ... < C_n`` of covers.

    Equality and ordering compare the tuples of sets.
    """

    __slots__ = ("sets",)

    sets: tuple[FibonacciSet, ...]

    def __init__(self, sets: tuple[FibonacciSet, ...]) -> None:
        sets = tuple(sets)
        if not sets or sets[0] != FibonacciSet(0, ()):
            raise ValueError("chain must start at the empty set of rank 0")
        for i, (a, b) in enumerate(zip(sets, sets[1:])):
            if not is_yf_cover(a, b):
                raise ValueError(f"non-covering step at position {i}: {a} -> {b}")
        _set_chain_sets(self, sets)

    @property
    def rank(self) -> int:
        return len(self.sets) - 1

    @property
    def top(self) -> FibonacciSet:
        return self.sets[-1]

    def __eq__(self, other) -> bool:
        if other.__class__ is not Chain:
            return NotImplemented
        return self.sets == other.sets

    def __lt__(self, other) -> bool:
        if other.__class__ is not Chain:
            return NotImplemented
        return self.sets < other.sets

    def __le__(self, other) -> bool:
        if other.__class__ is not Chain:
            return NotImplemented
        return self.sets <= other.sets

    def __gt__(self, other) -> bool:
        if other.__class__ is not Chain:
            return NotImplemented
        return self.sets > other.sets

    def __ge__(self, other) -> bool:
        if other.__class__ is not Chain:
            return NotImplemented
        return self.sets >= other.sets

    def __hash__(self) -> int:
        return hash((self.sets,))

    def __reduce__(self):
        return Chain, (self.sets,)

    def __repr__(self) -> str:
        return "Chain(" + " < ".join(repr(s) for s in self.sets) + ")"


_set_chain_sets = Chain.sets.__set__


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


def _dominance_leq_elems(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    k, l = len(s), len(t)
    if k > l:
        return False
    return all(s[k - 1 - i] <= t[l - 1 - i] for i in range(k))


def dominance_leq(s: FibonacciSet, t: FibonacciSet) -> bool:
    """True iff ``s`` is dominated by ``t``.

    With ``s = {s_1 < ... < s_k}`` and ``t = {t_1 < ... < t_l}`` of equal
    rank this means ``k <= l`` and ``s_{k-i} <= t_{l-i}`` for ``0 <= i < k``
    (elements compared from the largest downward).
    """
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot compare ranks {s.rank} and {t.rank}")
    return _dominance_leq_elems(s.elements, t.elements)


def dominance_lt(s: FibonacciSet, t: FibonacciSet) -> bool:
    """Strict dominance: ``s`` dominated by ``t`` and ``s != t``."""
    return s != t and dominance_leq(s, t)


@lru_cache(maxsize=None)
def _dominance_tables(n: int):
    """Per-rank tables: sets, index, down/up bitmasks, covers, rank function."""
    sets = enumerate_yfs(n)
    index = {s: i for i, s in enumerate(sets)}
    m = len(sets)
    down = [0] * m  # down[i] = bitmask of j with sets[j] <= sets[i]
    up = [0] * m
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets):
            if _dominance_leq_elems(sj.elements, si.elements):
                down[i] |= 1 << j
                up[j] |= 1 << i
    full = (1 << m) - 1
    bottoms = [i for i in range(m) if up[i] == full]
    tops = [i for i in range(m) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise InternalInvariantError(f"dominance order at rank {n} is not bounded")
    covers = []
    for i in range(m):
        for j in range(m):
            if i != j and down[j] >> i & 1:
                if (down[j] & up[i]) == (1 << i) | (1 << j):
                    covers.append((i, j))
    # grade the poset from the bottom; every cover must raise the rank by 1
    rank = [-1] * m
    rank[bottoms[0]] = 0
    pending = [bottoms[0]]
    while pending:
        i = pending.pop()
        for a, b in covers:
            if a == i:
                if rank[b] == -1:
                    rank[b] = rank[i] + 1
                    pending.append(b)
                elif rank[b] != rank[i] + 1:
                    raise InternalInvariantError(
                        f"dominance order at rank {n} is not graded"
                    )
    if min(rank) < 0:
        raise InternalInvariantError(f"dominance order at rank {n} is disconnected")
    for a, b in covers:
        if rank[b] != rank[a] + 1:
            raise InternalInvariantError(f"dominance order at rank {n} is not graded")
    return sets, index, tuple(down), tuple(up), bottoms[0], tops[0], tuple(covers), tuple(rank)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unique_bound(n: int, a: FibonacciSet, b: FibonacciSet, which: str) -> FibonacciSet:
    sets, index, down, up, _, _, _, _ = _dominance_tables(n)
    masks = down if which == "meet" else up
    common = masks[index[a]] & masks[index[b]]
    # the bound is the element of `common` whose own down/up set is `common`
    candidates = [i for i in _iter_bits(common) if masks[i] == common]
    if len(candidates) != 1:
        raise InternalInvariantError(
            f"non-unique dominance {which} for {a} and {b}: {candidates}"
        )
    return sets[candidates[0]]


def dominance_meet(s: FibonacciSet, t: FibonacciSet) -> FibonacciSet:
    """Greatest lower bound in the dominance order (must be unique)."""
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot meet ranks {s.rank} and {t.rank}")
    return _unique_bound(s.rank, s, t, "meet")


def dominance_join(s: FibonacciSet, t: FibonacciSet) -> FibonacciSet:
    """Least upper bound in the dominance order (must be unique)."""
    if s.rank != t.rank:
        raise RankMismatchError(f"cannot join ranks {s.rank} and {t.rank}")
    return _unique_bound(s.rank, s, t, "join")


def dominance_bottom(n: int) -> FibonacciSet:
    """The least element of the rank-``n`` dominance lattice (computed)."""
    sets, _, _, _, bot, _, _, _ = _dominance_tables(n)
    return sets[bot]


def dominance_top(n: int) -> FibonacciSet:
    """The greatest element; always the full interval ``{1, ..., n}``."""
    sets, _, _, _, _, top, _, _ = _dominance_tables(n)
    return sets[top]


def dominance_covers(n: int) -> tuple[tuple[FibonacciSet, FibonacciSet], ...]:
    """All cover pairs ``(s, t)`` with ``s`` covered by ``t``, sorted."""
    sets, _, _, _, _, _, covers, _ = _dominance_tables(n)
    return tuple(sorted((sets[a], sets[b]) for a, b in covers))


def dominance_rank(s: FibonacciSet) -> int:
    """Height of ``s`` above the bottom of its dominance lattice.

    Well defined because the lattice is ranked; gradedness is verified
    when the per-rank tables are built.
    """
    sets, index, _, _, _, _, _, rank = _dominance_tables(s.rank)
    return rank[index[s]]


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
