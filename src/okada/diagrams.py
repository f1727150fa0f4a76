"""Height-labeled non-crossing arc diagrams and half diagrams.

A rank-``n`` diagram is a perfect matching of the ``2n`` boundary nodes
``1, ..., n, -n, ..., -1`` (positives up the left edge, negatives down
the right edge; the linear order is ``1 < ... < n < -n < ... < -1``) by
non-crossing arcs.  Every arc carries a height label ``h`` with

1. ``1 <= h <= min(|a|, |b|)``,
2. ``h = min(|a|, |b|) (mod 2)``,
3. strictly larger labels on nested arcs.

Composition merges the right boundary of the first diagram with the left
boundary of the second; closed loops are removed and reported with their
heights (a loop or merged arc inherits the minimum label of its
fragments).  Cutting a diagram down the middle gives two half diagrams
whose propagating (cut) arcs keep their labels; the labels form a
Fibonacci set, halves with equal label sets glue back uniquely, and rank
restrictions of a half diagram trace out a saturated chain in the
Young-Fibonacci lattice.

An :class:`ArcDiagram` is stored flat: boundary position ``p`` in
``0 .. 2n-1`` is node ``p + 1`` for ``p < n`` and node ``p - 2n``
otherwise, so positions follow the boundary order.  ``partner[p]`` is
the position matched to ``p`` and ``height[p]`` the label of that arc.
Equality and hashing use ``(rank, partner, height)``; ``arcs`` is
derived on demand in the canonical order (sorted by the earlier end).
A :class:`HalfArcDiagram` is stored the same way over its ``n`` nodes:
node ``p + 1`` is position ``p``, ``partner[p]`` is the position joined
to it by a full arc or ``-1`` at a half arc, and ``height[p]`` is the
label at that node; ``full_arcs`` and ``half_arcs`` are derived on
demand, sorted by node.  Values are immutable and hashable.

Input is checked once, where it enters: the public ``ArcDiagram(rank,
arcs)`` and ``HalfArcDiagram(rank, full_arcs, half_arcs)`` constructors
check the matching and the label types, and the parsers in
:mod:`okada.serialize` also run :func:`validate` or
:func:`validate_half`.  Diagrams and halves built here from other ones
(:func:`compose`, :func:`glue`, :func:`mirror`, :func:`peel`,
:func:`bra`, :func:`ket`, :func:`restrict`, :func:`chain_inverse`, ...)
skip those checks and only assert that every position was matched and
labelled.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from ._immutable import Immutable
from .errors import (
    InternalInvariantError,
    PropagatingMismatchError,
    RankMismatchError,
)
from .fibonacci import Chain, FibonacciSet, enumerate_yfs, saturated_chains
from .polynomials import Polynomial, x_var

__all__ = [
    "Arc",
    "HalfArc",
    "LoopRecord",
    "ArcDiagram",
    "HalfArcDiagram",
    "order_key",
    "violations",
    "validate",
    "half_violations",
    "validate_half",
    "identity",
    "generator",
    "has_iota_arc",
    "iota",
    "iota_inverse",
    "mirror",
    "bra",
    "ket",
    "prop_lab",
    "glue",
    "restrict",
    "chain_of",
    "chain_inverse",
    "compose",
    "product_y1",
    "peel",
    "iter_diagrams",
    "enumerate_diagrams",
    "enumerate_half",
]


class Arc(NamedTuple):
    lo: int  # endpoint earlier in the boundary order
    hi: int
    height: int


class HalfArc(NamedTuple):
    end: int
    height: int


class LoopRecord(NamedTuple):
    height: int
    count: int


def order_key(e: int, n: int) -> int:
    """Position of endpoint ``e`` in the boundary order ``1 < .. < n < -n < .. < -1``."""
    return e if e > 0 else 2 * n + 1 + e


class ArcDiagram(Immutable):
    """Immutable arc diagram in the flat partner/height form.

    ``ArcDiagram(rank, arcs)`` checks that the arcs form a perfect
    matching with positive integer labels; the height and crossing
    conditions are checked by :func:`validate` so that invalid labelings
    can still be represented and diagnosed.
    """

    __slots__ = ("rank", "partner", "height")

    rank: int
    partner: tuple[int, ...]
    height: tuple[int, ...]

    def __init__(self, rank: int, arcs) -> None:
        n = rank
        if n < 0:
            raise ValueError("rank must be non-negative")
        arcs = tuple(arcs)
        if len(arcs) != n:  # before allocating: the rank may be absurd
            raise ValueError(f"not a perfect matching of {2 * n} endpoints")
        partner: list[int | None] = [None] * (2 * n)
        height: list[int | None] = [None] * (2 * n)
        seen = set()
        for a, b, h in arcs:
            for e in (a, b):
                if e == 0 or not -n <= e <= n:
                    raise ValueError(f"endpoint {e} out of range for rank {n}")
                if e in seen:
                    raise ValueError(f"endpoint {e} matched twice")
                seen.add(e)
            if not (isinstance(h, int) and h >= 1):
                raise ValueError(f"height must be a positive integer, got {h!r}")
            p, q = order_key(a, n) - 1, order_key(b, n) - 1
            partner[p], partner[q] = q, p
            height[p] = height[q] = h
        if len(seen) != 2 * n:
            raise ValueError(f"not a perfect matching of {2 * n} endpoints")
        _set_rank(self, n)
        _set_partner(self, tuple(partner))
        _set_height(self, tuple(height))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs in canonical order: sorted by their earlier end."""
        n = self.rank
        return tuple(
            Arc(_node(p, n), _node(q, n), self.height[p])
            for p, q in enumerate(self.partner)
            if p < q
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not ArcDiagram:
            return NotImplemented
        return (
            self.rank == other.rank
            and self.partner == other.partner
            and self.height == other.height
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.partner, self.height))

    def __reduce__(self):
        return _from_arrays, (self.rank, self.partner, self.height)

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})h{h}" for a, b, h in self.arcs)
        return f"ArcDiagram({self.rank}: {body})"


_set_rank = ArcDiagram.rank.__set__
_set_partner = ArcDiagram.partner.__set__
_set_height = ArcDiagram.height.__set__


def _node(p: int, n: int) -> int:
    """Boundary node at position ``p`` (inverse of ``order_key(e, n) - 1``)."""
    return p + 1 if p < n else p - 2 * n


def _from_arrays(n: int, partner, height) -> ArcDiagram:
    """Trusted constructor for diagrams the library builds itself.

    Skips the checks of ``ArcDiagram(rank, arcs)`` and only asserts that
    every one of the ``2n`` positions was matched and labelled.
    """
    if len(partner) != 2 * n or None in partner or None in height:
        raise InternalInvariantError(
            f"rank-{n} diagram built with unmatched positions: {partner} {height}"
        )
    d = object.__new__(ArcDiagram)
    _set_rank(d, n)
    _set_partner(d, tuple(partner))
    _set_height(d, tuple(height))
    return d


class HalfArcDiagram(Immutable):
    """Positive half of an arc diagram, flat like :class:`ArcDiagram`.

    Full arcs join two nodes of ``[n]``; half arcs keep one node and the
    label of the propagating arc they came from.  ``partner[p]`` is the
    position joined to node ``p + 1`` by a full arc, or ``-1`` at a half
    arc, and ``height[p]`` is its label.  Equality uses these tuples; the
    hash is that of ``(rank, full_arcs, half_arcs)``, derived and sorted.

    ``HalfArcDiagram(rank, full_arcs, half_arcs)`` checks the partition
    and the label types; halves the library builds itself go through
    :func:`_half_from_arrays`, which only asserts that every node is
    labelled.
    """

    __slots__ = ("rank", "partner", "height")

    rank: int
    partner: tuple[int, ...]
    height: tuple[int, ...]

    def __init__(
        self, rank: int, full_arcs: tuple[Arc, ...], half_arcs: tuple[HalfArc, ...]
    ) -> None:
        n = rank
        if n < 0:
            raise ValueError("rank must be non-negative")
        at: dict[int, tuple[int, int]] = {}  # node -> (partner position or -1, label)
        for a, b, h in full_arcs:
            for e in sorted((a, b)):
                if not 1 <= e <= n:
                    raise ValueError(f"endpoint {e} out of range for rank {n}")
                if e in at:
                    raise ValueError(f"endpoint {e} used twice")
                at[e] = (a + b - e - 1, h)
            if not (isinstance(h, int) and h >= 1):
                raise ValueError(f"height must be a positive integer, got {h!r}")
        for e, h in half_arcs:
            if not 1 <= e <= n:
                raise ValueError(f"endpoint {e} out of range for rank {n}")
            if e in at:
                raise ValueError(f"endpoint {e} used twice")
            at[e] = (-1, h)
            if not (isinstance(h, int) and h >= 1):
                raise ValueError(f"height must be a positive integer, got {h!r}")
        if len(at) != n:
            raise ValueError(f"arcs must cover all of [1, {n}]")
        _set_half_rank(self, n)
        _set_half_partner(self, tuple(at[e][0] for e in range(1, n + 1)))
        _set_half_height(self, tuple(at[e][1] for e in range(1, n + 1)))

    @property
    def full_arcs(self) -> tuple[Arc, ...]:
        """The full arcs, sorted by their left end."""
        pairs = enumerate(zip(self.partner, self.height))
        return tuple(Arc(p + 1, q + 1, h) for p, (q, h) in pairs if p < q)

    @property
    def half_arcs(self) -> tuple[HalfArc, ...]:
        """The half arcs, sorted by node."""
        pairs = enumerate(zip(self.partner, self.height))
        return tuple(HalfArc(p + 1, h) for p, (q, h) in pairs if q < 0)

    def __eq__(self, other) -> bool:
        if other.__class__ is not HalfArcDiagram:
            return NotImplemented
        return (
            self.rank == other.rank
            and self.partner == other.partner
            and self.height == other.height
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.full_arcs, self.half_arcs))

    def __reduce__(self):
        return _half_from_arrays, (self.rank, self.partner, self.height)

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})h{h}" for a, b, h in self.full_arcs)
        tail = ", ".join(f"{e}|h{h}" for e, h in self.half_arcs)
        return f"HalfArcDiagram({self.rank}: {body}; {tail})"


_set_half_rank = HalfArcDiagram.rank.__set__
_set_half_partner = HalfArcDiagram.partner.__set__
_set_half_height = HalfArcDiagram.height.__set__


def _half_from_arrays(n: int, partner, height) -> HalfArcDiagram:
    """Trusted constructor for halves the library builds itself.

    Skips the checks of ``HalfArcDiagram(rank, full_arcs, half_arcs)``
    and only asserts that there are ``n`` nodes and every one of them
    has a partner (``-1`` at a half arc) and a label.
    """
    if len(partner) != n or len(height) != n or None in partner or None in height:
        raise InternalInvariantError(
            f"rank-{n} half diagram built with unlabelled nodes: {partner} {height}"
        )
    h = object.__new__(HalfArcDiagram)
    _set_half_rank(h, n)
    _set_half_partner(h, tuple(partner))
    _set_half_height(h, tuple(height))
    return h


# ---------------------------------------------------------------------------
# validation


def violations(d: ArcDiagram) -> tuple[str, ...]:
    """Crossing and label-condition failures of ``d`` (empty iff valid)."""
    n = d.rank
    out = []
    spans = [(order_key(a, n), order_key(b, n), a, b, h) for a, b, h in d.arcs]
    for i, (lo1, hi1, a1, b1, h1) in enumerate(spans):
        m = min(abs(a1), abs(b1))
        if h1 > m:
            out.append(f"label: h({a1},{b1})={h1} exceeds min(|a|,|b|)={m}")
        if (h1 - m) % 2 != 0:
            out.append(f"label: h({a1},{b1})={h1} has wrong parity (min={m})")
        for lo2, hi2, a2, b2, h2 in spans[i + 1 :]:
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                out.append(f"crossing: ({a1},{b1}) and ({a2},{b2})")
            elif lo1 < lo2 and hi2 < hi1 and h2 <= h1:
                out.append(f"nesting: h({a2},{b2})={h2} not above h({a1},{b1})={h1}")
            elif lo2 < lo1 and hi1 < hi2 and h1 <= h2:
                out.append(f"nesting: h({a1},{b1})={h1} not above h({a2},{b2})={h2}")
    return tuple(out)


def validate(d: ArcDiagram) -> bool:
    """True iff all crossing and label invariants hold."""
    return not violations(d)


def half_violations(h: HalfArcDiagram) -> tuple[str, ...]:
    """Label/crossing failures of a half diagram (empty iff valid).

    A half arc blocks everything between its node and the right
    boundary, so a full arc may not straddle it; labels on the half arcs
    must be strictly increasing with the node (total nesting) and match
    the node parity, and they must assemble into a Fibonacci set.
    """
    n = h.rank
    fulls, halves = h.full_arcs, h.half_arcs  # derived on each access
    out = []
    for a, b, ht in fulls:
        if ht > a:
            out.append(f"label: h({a},{b})={ht} exceeds {a}")
        if (ht - a) % 2 != 0:
            out.append(f"label: h({a},{b})={ht} has wrong parity at {a}")
    for e, ht in halves:
        if ht > e:
            out.append(f"label: half arc at {e} labeled {ht} > {e}")
        if (ht - e) % 2 != 0:
            out.append(f"label: half arc at {e} labeled {ht}, wrong parity")
    for i, (a1, b1, h1) in enumerate(fulls):
        for a2, b2, h2 in fulls[i + 1 :]:
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                out.append(f"crossing: ({a1},{b1}) and ({a2},{b2})")
            elif a1 < a2 and b2 < b1 and h2 <= h1:
                out.append(f"nesting: h({a2},{b2})={h2} not above h({a1},{b1})={h1}")
            elif a2 < a1 and b1 < b2 and h1 <= h2:
                out.append(f"nesting: h({a1},{b1})={h1} not above h({a2},{b2})={h2}")
        for e, h2 in halves:
            if a1 < e < b1:
                out.append(f"crossing: half arc at {e} under full arc ({a1},{b1})")
            elif e < a1 and h1 <= h2:
                out.append(
                    f"nesting: h({a1},{b1})={h1} not above half arc {e} labeled {h2}"
                )
    heights = [ht for _, ht in halves]
    if any(h2 <= h1 for h1, h2 in zip(heights, heights[1:])):
        out.append(f"nesting: half-arc labels not increasing: {heights}")
    else:
        try:
            FibonacciSet(n, tuple(sorted(heights)))
        except ValueError:
            out.append(f"labels: half-arc labels {heights} are not a Fibonacci set")
    return tuple(out)


def validate_half(h: HalfArcDiagram) -> bool:
    return not half_violations(h)


# ---------------------------------------------------------------------------
# basic constructions


def identity(n: int) -> ArcDiagram:
    """Unit of the rank-``n`` monoid: propagating arcs ``h(a, -a) = a``."""
    if n < 0:
        raise ValueError("rank must be non-negative")
    labels = tuple(range(1, n + 1))
    return _from_arrays(n, range(2 * n - 1, -1, -1), labels + labels[::-1])


@lru_cache(maxsize=None)
def generator(i: int, n: int) -> ArcDiagram:
    """The elementary diagram with cups ``(i, i+1)`` and ``(-i, -(i+1))`` at height ``i``."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    last = 2 * n - 1
    unit = identity(n)
    partner, height = list(unit.partner), list(unit.height)
    partner[i - 1], partner[i] = i, i - 1
    partner[last - i], partner[last - i + 1] = last - i + 1, last - i
    height[i - 1] = height[i] = height[last - i] = height[last - i + 1] = i
    return _from_arrays(n, partner, height)


def has_iota_arc(d: ArcDiagram) -> bool:
    """True iff ``d`` contains the outer propagating arc ``h(n, -n) = n``."""
    n = d.rank
    return n >= 1 and d.partner[n - 1] == n and d.height[n - 1] == n


def iota(d: ArcDiagram) -> ArcDiagram:
    """Embed rank ``n`` into rank ``n+1`` by adding ``h(n+1, -(n+1)) = n+1``."""
    n = d.rank
    partner = [q if q < n else q + 2 for q in d.partner]
    partner[n:n] = (n + 1, n)
    return _from_arrays(n + 1, partner, d.height[:n] + (n + 1, n + 1) + d.height[n:])


def iota_inverse(d: ArcDiagram) -> ArcDiagram:
    """Remove the outer propagating arc ``h(n, -n) = n`` (must be present)."""
    n = d.rank
    if not has_iota_arc(d):
        raise ValueError(f"diagram has no arc h({n},{-n})={n} to strip")
    return _drop_pair(d, n - 1)


def _drop_pair(d: ArcDiagram, a: int) -> ArcDiagram:
    """Delete the arc joining positions ``a`` and ``a + 1`` and close the gap."""
    partner = [q if q < a else q - 2 for q in d.partner]
    del partner[a : a + 2]
    return _from_arrays(d.rank - 1, partner, d.height[:a] + d.height[a + 2 :])


def mirror(d: ArcDiagram) -> ArcDiagram:
    """Horizontal reflection: negate every endpoint, keep the labels."""
    last = 2 * d.rank - 1
    return _from_arrays(d.rank, [last - q for q in reversed(d.partner)], d.height[::-1])


# ---------------------------------------------------------------------------
# halves, gluing, restriction, chains


def bra(d: ArcDiagram) -> HalfArcDiagram:
    """Positive half: full arcs keep both ends, propagating arcs keep labels."""
    n = d.rank
    return _half_from_arrays(n, [q if q < n else -1 for q in d.partner[:n]], d.height[:n])


def ket(d: ArcDiagram) -> HalfArcDiagram:
    """Negative half, read as the bra of the mirror: node ``-k`` becomes node ``k``."""
    n = d.rank
    last = 2 * n - 1
    return _half_from_arrays(
        n, [last - q if q >= n else -1 for q in d.partner[:n - 1:-1]], d.height[:n - 1:-1]
    )


def prop_lab(obj: ArcDiagram | HalfArcDiagram) -> FibonacciSet:
    """Propagating label set; a Fibonacci set of the object's rank."""
    n = obj.rank
    if isinstance(obj, ArcDiagram):
        labels = [h for q, h in zip(obj.partner[:n], obj.height) if q >= n]
    else:
        labels = [h for q, h in zip(obj.partner, obj.height) if q < 0]
    return FibonacciSet(n, tuple(labels))


def glue(left: HalfArcDiagram, right: HalfArcDiagram) -> ArcDiagram:
    """The unique diagram with the given bra and ket.

    Requires equal propagating label sets; the propagating arcs are
    matched by their labels (the nesting order is total on them, so the
    matching is forced).  Node ``k`` of ``right`` is position
    ``2n - k`` of the result, so the heights are those of ``left``
    followed by those of ``right`` reversed.
    """
    if left.rank != right.rank:
        raise RankMismatchError(f"ranks {left.rank} and {right.rank} differ")
    n = left.rank
    last = 2 * n - 1
    lp, lh, rp, rh = left.partner, left.height, right.partner, right.height
    partner = [*lp, *[last - q for q in reversed(rp)]]
    ends = [p for p, q in enumerate(lp) if q < 0]  # half arcs of left, by node
    k = 0
    for p, q in enumerate(rp):
        if q < 0:  # the k-th half arc of right meets the k-th of left
            if k == len(ends) or lh[ends[k]] != rh[p]:
                break
            a, b = ends[k], last - p
            partner[a], partner[b] = b, a
            k += 1
    else:
        if k == len(ends):
            return _from_arrays(n, partner, lh + rh[::-1])
    raise PropagatingMismatchError(
        f"propagating labels differ: {[h for _, h in left.half_arcs]}"
        f" vs {[h for _, h in right.half_arcs]}"
    )


def restrict(h: HalfArcDiagram, r: int) -> HalfArcDiagram:
    """Keep nodes ``<= r``; arcs cut by the restriction become half arcs."""
    if not 0 <= r <= h.rank:
        raise ValueError(f"restriction rank {r} out of range")
    return _half_from_arrays(r, [q if q < r else -1 for q in h.partner[:r]], h.height[:r])


def chain_of(h: HalfArcDiagram) -> Chain:
    """Saturated chain of the propagating labels of all restrictions.

    One pass over the nodes: a half arc or the left end of a full arc
    opens its label, the right end of a full arc closes it, and the
    labels open after node ``i`` are those of ``restrict(h, i)``.  In a
    valid half diagram a new label is the largest open one, so the list
    stays increasing.
    """
    labels: list[int] = []
    sets = [FibonacciSet(0, ())]
    for p, (q, ht) in enumerate(zip(h.partner, h.height)):
        if 0 <= q < p:
            labels.remove(ht)
        else:
            labels.append(ht)
        sets.append(FibonacciSet(p + 1, tuple(labels)))
    return Chain(tuple(sets))


def chain_inverse(chain: Chain) -> HalfArcDiagram:
    """The unique half diagram whose restriction chain is ``chain``.

    Walking up the chain, adding a new largest label opens a half arc at
    the current node with that label; deleting the largest label closes
    the open half arc carrying it into a full arc.
    """
    open_at: dict[int, int] = {}  # label -> position of its open half arc
    partner: list[int] = []
    height: list[int] = []
    for prev, cur in zip(chain.sets, chain.sets[1:]):
        p = len(partner)
        if cur.elements == prev.elements[:-1]:
            h = prev.elements[-1]
            q = open_at.pop(h)
            partner[q] = p
            partner.append(q)
        else:  # covering step that appends a new largest element
            h = cur.elements[-1]
            open_at[h] = p
            partner.append(-1)
        height.append(h)
    return _half_from_arrays(chain.rank, partner, height)


# ---------------------------------------------------------------------------
# composition


def compose(c: ArcDiagram, d: ArcDiagram) -> tuple[ArcDiagram, tuple[LoopRecord, ...]]:
    """Stack ``c`` against ``d`` and remove loops.

    Returns the composite diagram together with the multiset of loop
    heights (aggregated per height, sorted).  Arc and loop heights are
    the minimum over their constituent fragments.

    Middle node ``k`` is position ``k - 1`` of ``d`` and position
    ``2n - k`` of ``c``; the result keeps the positions ``< n`` of ``c``
    and ``>= n`` of ``d``.  Every arc of ``c`` and ``d`` is walked once:
    strands from the left boundary, then from the right, then the
    closed loops through the middle nodes not yet seen.
    """
    if c.rank != d.rank:
        raise RankMismatchError(f"ranks {c.rank} and {d.rank} differ")
    n = c.rank
    last = 2 * n - 1
    cp, ch = c.partner, c.height
    dp, dh = d.partner, d.height
    partner: list[int | None] = [None] * (2 * n)
    height: list[int | None] = [None] * (2 * n)
    seen = [False] * n  # middle nodes, by position in d

    for p in range(n):
        if partner[p] is not None:
            continue
        q, h = cp[p], ch[p]
        while q >= n:  # through middle node last - q into d
            m = last - q
            seen[m] = True
            r = dp[m]
            if dh[m] < h:
                h = dh[m]
            if r >= n:
                q = r
                break
            seen[r] = True
            q = cp[last - r]
            if ch[last - r] < h:
                h = ch[last - r]
        partner[p], partner[q] = q, p
        height[p] = height[q] = h
    for p in range(n, 2 * n):
        if partner[p] is not None:
            continue
        r, h = dp[p], dh[p]
        while r < n:  # through middle node r into c
            seen[r] = True
            q = cp[last - r]
            if ch[last - r] < h:
                h = ch[last - r]
            if q < n:
                raise InternalInvariantError("strand from the right exited left")
            m = last - q
            seen[m] = True
            r = dp[m]
            if dh[m] < h:
                h = dh[m]
        partner[p], partner[r] = r, p
        height[p] = height[r] = h

    loops: dict[int, int] = {}
    for m in range(n):
        if seen[m]:
            continue
        seen[m] = True
        h, r = dh[m], dp[m]
        while True:
            seen[r] = True
            if ch[last - r] < h:
                h = ch[last - r]
            k = last - cp[last - r]
            if k == m:
                break
            seen[k] = True
            if dh[k] < h:
                h = dh[k]
            r = dp[k]
        loops[h] = loops.get(h, 0) + 1

    records = tuple(LoopRecord(h, loops[h]) for h in sorted(loops))
    return _from_arrays(n, partner, height), records


def product_y1(c: ArcDiagram, d: ArcDiagram) -> tuple[Polynomial, ArcDiagram]:
    """Diagram product at ``y = 1``: loop heights become ``x`` factors."""
    result, loops = compose(c, d)
    coeff = Polynomial.one()
    for h, cnt in loops:
        coeff = coeff * x_var(h) ** cnt
    return coeff, result


# ---------------------------------------------------------------------------
# peeling


def peel(d: ArcDiagram) -> tuple[ArcDiagram, int]:
    """Strip the factor ``G_{n-1} ... G_I`` off the right of ``d``.

    Requires that ``d`` does not contain the arc ``h(n, -n) = n`` (strip
    that with :func:`iota_inverse` instead).  ``I`` is the largest index
    with ``h(-I, -(I+1)) = I`` present; the returned diagram ``flat``
    of rank ``n - 1`` is the unique one with
    ``d = iota(flat) * G_{n-1} * ... * G_I``.  In positions this drops
    the cap and renumbers the rest in order, which sends node ``n`` to
    node ``-(n-1)``.
    """
    n = d.rank
    if has_iota_arc(d):
        raise ValueError(f"diagram contains h({n},{-n})={n}; apply iota_inverse")
    for i in range(n - 1, 0, -1):
        a = 2 * n - i - 1  # position of node -(i+1)
        if d.partner[a] == a + 1 and d.height[a] == i:
            return _drop_pair(d, a), i
    raise InternalInvariantError(f"no peelable arc in {d!r}")


# ---------------------------------------------------------------------------
# enumeration


def enumerate_half(
    n: int, s: FibonacciSet | None = None
) -> tuple[HalfArcDiagram, ...]:
    """All rank-``n`` half diagrams, optionally with propagating labels ``s``.

    Ordered by propagating label set, then by the restriction chain; the
    count per label set equals the number of saturated chains.
    """
    targets = (s,) if s is not None else enumerate_yfs(n)
    out = []
    for t in targets:
        if t.rank != n:
            raise RankMismatchError(f"label set {t} does not have rank {n}")
        out.extend(chain_inverse(c) for c in saturated_chains(t))
    return tuple(out)


def iter_diagrams(n: int) -> Iterator[ArcDiagram]:
    """Stream all rank-``n`` diagrams (``n!`` of them) in canonical order.

    Diagrams are produced by gluing pairs of half diagrams with equal
    propagating labels, so no deduplication is needed and memory stays
    proportional to the number of half diagrams.
    """
    for s in enumerate_yfs(n):
        halves = enumerate_half(n, s)
        for left in halves:
            for right in halves:
                yield glue(left, right)


def enumerate_diagrams(n: int) -> tuple[ArcDiagram, ...]:
    """All rank-``n`` diagrams as a tuple; see :func:`iter_diagrams`."""
    return tuple(iter_diagrams(n))
