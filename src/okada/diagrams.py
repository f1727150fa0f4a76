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
:func:`validate_half`, each one linear walk with a stack of open arcs.
Diagrams and halves built here from other ones (:func:`compose`,
:func:`glue`, :func:`mirror`, :func:`peel`, :func:`bra`, :func:`ket`,
:func:`restrict`, :func:`chain_inverse`, ...) or from a label set (the
free half, :func:`free_half_diagram`) skip those checks and only assert
that every position was matched and labelled.

A half diagram is a saturated chain of the Young-Fibonacci lattice read
as arcs (Fomin's Fibonacci tableau); :func:`_cells` is the one walk of
the lattice that builds halves.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from ._immutable import Immutable
from .errors import (
    InternalInvariantError,
    PropagatingMismatchError,
    RankMismatchError,
)
from .fibonacci import Chain, FibonacciSet, _yf_steps, enumerate_yfs, free_set, is_fibonacci_set

if TYPE_CHECKING:
    from .polynomials import Polynomial

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
    "free_half_diagram",
    "free_diagram",
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

    __slots__ = _fields = ("rank", "partner", "height")

    rank: int
    partner: tuple[int, ...]
    height: tuple[int, ...]

    def __init__(self, rank: int, arcs) -> None:
        n = rank
        if n < 0:
            raise ValueError("rank must be non-negative")
        arcs = tuple(arcs)
        if len(arcs) != n:  # before allocating: the rank may be absurd
            raise ValueError(f"not a perfect matching of {reprlib.repr(2 * n)} endpoints")
        partner: list[int | None] = [None] * (2 * n)
        height: list[int | None] = [None] * (2 * n)
        seen = set()
        for a, b, h in arcs:
            for e in (a, b):
                if e == 0 or not -n <= e <= n:
                    raise ValueError(f"endpoint {reprlib.repr(e)} out of range for rank {reprlib.repr(n)}")
                if e in seen:
                    raise ValueError(f"endpoint {e} matched twice")
                seen.add(e)
            if not (isinstance(h, int) and h >= 1):
                raise ValueError(f"height must be a positive integer, got {reprlib.repr(h)}")
            p, q = order_key(a, n) - 1, order_key(b, n) - 1
            partner[p], partner[q] = q, p
            height[p] = height[q] = h
        self._fill(n, tuple(partner), tuple(height))  # n arcs, 2n distinct ends: all matched

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs in canonical order: sorted by their earlier end."""
        n = self.rank
        return tuple(
            Arc(_node(p, n), _node(q, n), self.height[p])
            for p, q in enumerate(self.partner)
            if p < q
        )

    def __reduce__(self):
        return _from_arrays, (self.rank, self.partner, self.height)

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})h{h}" for a, b, h in self.arcs)
        return f"ArcDiagram({self.rank}: {body})"


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
    d._fill(n, tuple(partner), tuple(height))
    return d


class HalfArcDiagram(Immutable):
    """Positive half of an arc diagram, flat like :class:`ArcDiagram`.

    Full arcs join two nodes of ``[n]``; half arcs keep one node and the
    label of the propagating arc they came from.  ``partner[p]`` is the
    position joined to node ``p + 1`` by a full arc, or ``-1`` at a half
    arc, and ``height[p]`` is its label.  Equality and hashing use these
    tuples.

    ``HalfArcDiagram(rank, full_arcs, half_arcs)`` checks the partition
    and the label types; halves the library builds itself go through
    :func:`_half_from_arrays`, which only asserts that every node is
    labelled.
    """

    __slots__ = _fields = ("rank", "partner", "height")

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
        ends = [(e, a + b - e - 1, h) for a, b, h in full_arcs for e in sorted((a, b))]
        for e, q, h in ends + [(e, -1, h) for e, h in half_arcs]:
            if not 1 <= e <= n:
                raise ValueError(f"endpoint {reprlib.repr(e)} out of range for rank {reprlib.repr(n)}")
            if e in at:
                raise ValueError(f"endpoint {e} used twice")
            if not (isinstance(h, int) and h >= 1):
                raise ValueError(f"height must be a positive integer, got {reprlib.repr(h)}")
            at[e] = (q, h)
        if len(at) != n:
            raise ValueError(f"arcs must cover all of [1, {reprlib.repr(n)}]")
        nodes = range(1, n + 1)
        self._fill(n, tuple(at[e][0] for e in nodes), tuple(at[e][1] for e in nodes))

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

    def __reduce__(self):
        return _half_from_arrays, (self.rank, self.partner, self.height)

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})h{h}" for a, b, h in self.full_arcs)
        tail = ", ".join(f"{e}|h{h}" for e, h in self.half_arcs)
        return f"HalfArcDiagram({self.rank}: {body}; {tail})"


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
    h._fill(n, tuple(partner), tuple(height))
    return h


# ---------------------------------------------------------------------------
# validation


def _walk(partner, height, nodes) -> list[str]:
    """Labels are checked where an arc opens, crossing and nesting where it
    closes.  A half arc (partner ``-1``) closes past the end, so it is bounded
    by its node and stays open.  Matching stops at the first crossing.
    """

    def arc(p: int) -> str:
        q = partner[p]
        if q < 0:
            return f"half arc at {nodes[p]} labeled {reprlib.repr(height[p])}"
        return f"h({nodes[p]},{nodes[q]})={reprlib.repr(height[p])}"

    out, stack, crossed = [], [], False
    for p, q in enumerate(partner):
        if q < 0 or p < q:
            m = abs(nodes[p]) if q < 0 else min(abs(nodes[p]), abs(nodes[q]))
            if height[p] > m:
                out.append(f"label: {arc(p)} exceeds min(|a|,|b|)={m}")
            if (height[p] - m) % 2:
                out.append(f"label: {arc(p)} has wrong parity (min={m})")
            stack.append(p)
        elif not crossed and stack[-1] != q:
            out.append(f"crossing: {arc(q)} and {arc(stack[-1])}")
            crossed = True
        elif not crossed:
            stack.pop()
            if stack and height[q] <= height[stack[-1]]:  # the new top encloses q
                out.append(f"nesting: {arc(q)} not above {arc(stack[-1])}")
    halves = () if crossed else zip(stack, stack[1:])  # still open: the half arcs, outermost first
    out += [f"nesting: {arc(b)} not above {arc(a)}" for a, b in halves if height[b] <= height[a]]
    return out


def violations(d: ArcDiagram) -> tuple[str, ...]:
    """Crossing and label-condition failures of ``d`` (empty iff valid).

    >>> violations(identity(2)), violations(ArcDiagram(2, [(1, -2, 1), (2, -1, 1)]))
    ((), ('crossing: h(1,-2)=1 and h(2,-1)=1',))
    """
    return tuple(_walk(d.partner, d.height, (*range(1, d.rank + 1), *range(-d.rank, 0))))


def validate(d: ArcDiagram) -> bool:
    """True iff all crossing and label invariants hold."""
    return not violations(d)


def half_violations(h: HalfArcDiagram) -> tuple[str, ...]:
    """Failures of ``h`` walked as the left side of ``glue(h, h)``, or of a
    half-arc label set that is not a Fibonacci set (empty iff valid).

    >>> half_violations(bra(identity(3)))
    ()
    >>> half_violations(HalfArcDiagram(3, [(1, 3, 1)], [(2, 2)]))
    ('crossing: h(1,3)=1 and half arc at 2 labeled 2',)
    """
    out = _walk(h.partner, h.height, range(1, h.rank + 1))
    labels = [ht for q, ht in zip(h.partner, h.height) if q < 0]
    if not out and not is_fibonacci_set(h.rank, labels):
        out.append(f"labels: half-arc labels {labels} are not a Fibonacci set")
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


def free_half_diagram(s: FibonacciSet) -> HalfArcDiagram:
    """Half diagram of the free element: half arcs ``h(x) = x`` on ``s``,
    cups ``h(i, i+1) = i`` on the free set."""
    partner = [-1] * s.rank
    height: list[int | None] = [None] * s.rank
    for x in s.elements:
        height[x - 1] = x
    for i in free_set(s):
        partner[i - 1], partner[i] = i, i - 1
        height[i - 1] = height[i] = i
    return _half_from_arrays(s.rank, partner, height)


def free_diagram(s: FibonacciSet) -> ArcDiagram:
    """Diagram of the free element: bra and ket both equal the free half."""
    h = free_half_diagram(s)
    return glue(h, h)


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


def _glue_cell(halves: Sequence[HalfArcDiagram], ends: Sequence[Sequence[int]],
               pairs: Iterable[tuple[int, int]]) -> Iterator[ArcDiagram]:
    """``glue(halves[i], halves[j])`` for each ``(i, j)`` of ``pairs``, in order.

    ``ends[i]`` lists the half-arc positions of ``halves[i]`` (see
    :func:`_rank_cells`); a cell has few distinct end tuples (one at
    ``{}``, at most six at rank 6).  Each half's rank and half-arc labels
    are checked against the first half: a half from another cell is a
    library bug and raises ``InternalInvariantError``.  Each half is then
    tied once per end tuple ``g`` of the cell: its left part with its half
    arcs pointing at ``g`` reflected, where :func:`glue` places the right
    half, and its right part, reflected into positions ``n .. 2n-1``, with
    its half arcs pointing at ``g``.  A tied part must have ``n`` entries
    and no half arc left open.  Each pair then only joins two tied parts,
    so a caller builds only what it keeps.
    """
    if not halves:
        return
    first = halves[0]
    n, last = first.rank, 2 * first.rank - 1
    labels = [first.height[p] for p in ends[0]]
    tuples: dict[tuple[int, ...], int] = {}
    gid = [tuples.setdefault(tuple(e), len(tuples)) for e in ends]
    lefts, rights = [], []
    for h, e in zip(halves, ends):
        if h.rank != n or [h.height[p] for p in e] != labels:
            raise InternalInvariantError(f"{h!r} is not in the cell of {first!r}")
        lp, rp = list(h.partner), [last - q for q in reversed(h.partner)]
        lefts.append([])
        rights.append([])
        for g in tuples:
            for p, a in zip(e, g):  # position last - p is entry n - 1 - p of the right part
                lp[p], rp[n - 1 - p] = last - a, a
            if len(lp) != n or -1 in lp or last + 1 in rp:
                raise InternalInvariantError(f"{h!r} tied with half arcs left open")
            lefts[-1].append(tuple(lp))
            rights[-1].append(tuple(rp))
    lh = [h.height for h in halves]
    rh = [h.height[::-1] for h in halves]
    new = object.__new__
    for i, j in pairs:
        d = new(ArcDiagram)
        d._fill(n, lefts[i][gid[j]] + rights[j][gid[i]], lh[i] + rh[j])
        yield d


def _passes(left: HalfArcDiagram, right: HalfArcDiagram, ends: tuple[int, ...]) -> bool:
    """True iff ``e = glue(L, R)`` satisfies ``e·e = e``; no product is formed.

    ``ends`` lists the positions of the half arcs of ``R``.  In ``e·e``
    the right boundary of the first factor (the nodes of ``R``) meets
    the left boundary of the second (the nodes of ``L``).  The full
    arcs of ``L`` on the far left and of ``R`` on the far right survive
    unchanged.  The propagating arc of ``e`` with label ``h``
    enters the middle at the half arc of ``R`` labelled ``h`` and walks
    on, alternating full arcs of ``L`` and of ``R``, until it meets a
    half arc.  If that is a half arc of ``R``, the strand turns back
    into a new cup; if it is a half arc of ``L`` with a label other than
    ``h``, the strand leaves at another node; if an arc on the way is
    lower than ``h``, the strand's label drops (a strand takes the
    minimum label of its pieces).  Each of these changes an arc of
    ``e``.  Otherwise every propagating arc comes back with its ends
    and label, and ``e·e = e``.  The walk stops at its first failure.

    Two callers read it: the idempotent scans of :mod:`okada.monoid`,
    and :func:`okada.algebra.gram_matrix`, whose entry ``phi(R, L)`` is
    non-zero exactly when ``glue(L, R)`` passes.
    """
    lp, lh = left.partner, left.height
    rp, rh = right.partner, right.height
    for p in ends:
        h = rh[p]
        while True:
            q = lp[p]
            if q < 0:
                if lh[p] != h:
                    return False
                break
            if lh[p] < h or rh[q] < h:
                return False
            p = rp[q]
            if p < 0:
                return False
    return True


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
    # Imported here: only this product needs the polynomial ring.
    from .polynomials import Polynomial, x_var

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

    Ordered by label set, then by restriction chain as in
    :func:`~okada.fibonacci.saturated_chains`.  Without ``s`` the halves
    are read off the rank's one cell layout (:func:`_rank_cells`); with
    ``s`` the walk of :func:`_cells` keeps that one cell alone.
    """
    if s is None:
        return tuple(h for _, halves, _ in _rank_cells(n) for h in halves)
    if s.rank != n:
        raise RankMismatchError(f"label set {s} does not have rank {n}")
    return _cells(n, s)[0][1]


def _cells(n: int, s: FibonacciSet | None = None) -> tuple[tuple[FibonacciSet, tuple[HalfArcDiagram, ...], tuple[tuple[int, ...], ...]], ...]:
    """Each rank-``n`` label set (``s`` alone if given) with its halves,
    in chain order, and their half-arc positions: one walk of the
    Young-Fibonacci lattice that builds no :class:`Chain`.

    A half's arrays are the step code of its chain, as in
    :func:`chain_inverse`.  They grow a rank at a time, each prefix
    extended by the covers of its last set in increasing order, which is
    the chain order; with ``s`` only the sets below ``s`` are kept.  The
    steps still open at rank ``n`` are the half's ``ends``.
    """
    tops = enumerate_yfs(n) if s is None else (s,)
    below = None  # with s: the element tuples below s, by rank
    if s is not None:
        below = [{s.elements}]
        for r in range(n, 0, -1):
            below.insert(0, {e for t in below[0] for e in _yf_steps(t, r - 1)})
    level = [((), (), (), ())]  # chain prefixes in chain order: set, partner, height, open steps
    for p in range(n):
        nxt = []
        for elems, partner, height, opens in level:
            for t in _yf_steps(elems, p + 1):
                if below is not None and t not in below[p + 1]:
                    continue
                if len(t) < len(elems):  # remove the largest label, added at step q
                    q = opens[-1]
                    nxt.append((t, partner[:q] + (p,) + partner[q + 1 :] + (q,), height + (elems[-1],), opens[:-1]))
                else:  # add a new largest label
                    nxt.append((t, partner + (-1,), height + (t[-1],), opens + (p,)))
        level = nxt
    cells = {t.elements: [] for t in tops}
    for elems, partner, height, opens in level:
        cells[elems].append((_half_from_arrays(n, partner, height), opens))
    return tuple((t, *zip(*cells[t.elements])) for t in tops)


@lru_cache(maxsize=1)
def _rank_cells(n: int) -> tuple[tuple[FibonacciSet, tuple[HalfArcDiagram, ...], tuple[tuple[int, ...], ...]], ...]:
    """The cell layout of rank ``n`` that every cell builder reads:
    :func:`_cells` of the whole rank, walked once.

    The memo holds one rank (9496 halves at rank 10), so that a process
    walks it once for all it asks of that rank."""
    return _cells(n)


def iter_diagrams(n: int) -> Iterator[ArcDiagram]:
    """Stream all rank-``n`` diagrams (``n!`` of them) in canonical order.

    Diagrams are produced by gluing pairs of half diagrams with equal
    propagating labels, so no deduplication is needed and memory stays
    proportional to the number of half diagrams.  Each cell's ``k²``
    diagrams are built from its ``k`` halves tied once per end tuple
    (:func:`_glue_cell`).
    """
    for _, halves, ends in _rank_cells(n):
        yield from _glue_cell(halves, ends, product(range(len(halves)), repeat=2))


def enumerate_diagrams(n: int) -> tuple[ArcDiagram, ...]:
    """All rank-``n`` diagrams as a tuple; see :func:`iter_diagrams`."""
    return tuple(iter_diagrams(n))
