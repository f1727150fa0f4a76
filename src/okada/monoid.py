"""The Okada monoid: all parameters specialized to 1.

Elements are arc diagrams in canonical form; the product composes and
discards loops.  The monoid has ``n!`` elements, is aperiodic, and its
Green relations are governed by the dominance order: each R-class holds
exactly one involutive element (fixed by the mirror) and each J-class
exactly one free element, the one sharing the propagating label set.

Every element is ``glue(L, R)`` of two half diagrams with the same
propagating labels, and :func:`~okada.diagrams.iter_diagrams` lists the
elements cell by cell (one cell per label set ``s``), each cell row by
row (``L``) and column by column (``R``).  Both structural computations
read this pairing and form no product:

* the idempotent census tests each pair ``(L, R)`` by walking the half
  arcs of ``R`` through the arcs of ``L`` and ``R`` (:func:`_passes`);
* the R-, L- and J-classes are the fibres of ``bra``, ``ket`` and
  ``prop_lab``, so in the enumeration order they are the rows, the
  columns and the whole of each cell.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from . import diagrams as dg
from ._immutable import Immutable
from .errors import InternalInvariantError
from .fibonacci import FibonacciSet, enumerate_yfs, saturated_chains

# ``algebra.free_diagram`` is imported where it is used, so that the
# monoid product does not load the algebra and rewriting layers.

__all__ = [
    "mproduct",
    "is_idempotent",
    "is_involutive",
    "aperiodicity_index",
    "aperiodicity_max",
    "iter_idempotents",
    "census_counts",
    "idempotent_count",
    "involutive_count",
    "KNOWN_IDEMPOTENT_COUNTS",
    "EXTENDED_IDEMPOTENT_COUNTS",
    "GreenClasses",
    "green_classes",
    "r_class_rep",
    "j_class_rep",
]

# Idempotent census for ranks 0..8; ranks 9 and 10 are the extended run.
KNOWN_IDEMPOTENT_COUNTS = (1, 1, 2, 6, 22, 108, 594, 4116, 30500)
EXTENDED_IDEMPOTENT_COUNTS = {9: 274006, 10: 2560400}


def mproduct(e: dg.ArcDiagram, f: dg.ArcDiagram) -> dg.ArcDiagram:
    """Monoid product: compose and forget the loops."""
    result, _ = dg.compose(e, f)
    return result


def is_idempotent(e: dg.ArcDiagram) -> bool:
    return mproduct(e, e) == e


def is_involutive(e: dg.ArcDiagram) -> bool:
    """True iff ``e`` equals its mirror; involutives are always idempotent."""
    return dg.mirror(e) == e


def aperiodicity_index(e: dg.ArcDiagram) -> int:
    """Least ``k`` with ``e^k = e^{k+1}`` (exists; the monoid is aperiodic)."""
    k = 1
    cur = e
    while True:
        nxt = mproduct(cur, e)
        if nxt == cur:
            return k
        cur = nxt
        k += 1
        if k > 4 * (e.rank + 1):
            raise InternalInvariantError(f"power tower of {e!r} did not stabilize")


def aperiodicity_max(n: int) -> int:
    """Largest aperiodicity index over the whole rank-``n`` monoid."""
    return max((aperiodicity_index(e) for e in dg.iter_diagrams(n)), default=1)


# ---------------------------------------------------------------------------
# Idempotents from pairs of half diagrams


def _cell(n: int, s: FibonacciSet) -> tuple[tuple[dg.HalfArcDiagram, ...], list[list[int]]]:
    """The halves of cell ``s`` in enumeration order, and the positions of their half arcs."""
    halves = dg.enumerate_half(n, s)
    return halves, [[p for p, q in enumerate(h.partner) if q < 0] for h in halves]


def _passes(left: dg.HalfArcDiagram, right: dg.HalfArcDiagram, ends: list[int]) -> bool:
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


def _idempotent_row(
    halves: tuple[dg.HalfArcDiagram, ...], ends: list[list[int]], i: int
) -> list[int]:
    """Indices ``j`` with ``glue(halves[i], halves[j])`` idempotent."""
    left = halves[i]
    return [j for j, right in enumerate(halves) if _passes(left, right, ends[j])]


def iter_idempotents(n: int) -> Iterator[dg.ArcDiagram]:
    """Stream the idempotents of rank ``n`` in :func:`~okada.diagrams.iter_diagrams` order."""
    for s in enumerate_yfs(n):
        halves, ends = _cell(n, s)
        for i, left in enumerate(halves):
            for j in _idempotent_row(halves, ends, i):
                yield dg.glue(left, halves[j])


def _census_rows(args: tuple[int, tuple[int, ...], int, int]) -> tuple[int, int]:
    """(idempotents, involutives) among the rows ``start .. stop-1`` of one cell.

    The involutive elements are the diagonal pairs ``L == R``.
    """
    n, elements, start, stop = args
    halves, ends = _cell(n, FibonacciSet(n, elements))
    idem = invol = 0
    for i in range(start, stop):
        row = _idempotent_row(halves, ends, i)
        idem += len(row)
        invol += i in row
    return idem, invol


def census_counts(n: int, threads: int = 1) -> tuple[int, int, int]:
    """Totals ``(elements, idempotents, involutives)`` for rank ``n``.

    With ``threads > 1`` the rows of every cell are split into blocks of
    about equal work and the blocks run in worker processes, so the
    largest cell does not bound the speed-up.
    """
    cells = [(s.elements, len(saturated_chains(s))) for s in enumerate_yfs(n)]
    total = sum(k * k for _, k in cells)
    if threads > 1:
        # Imported here: only the threaded census starts processes.
        from concurrent.futures import ProcessPoolExecutor

        block = max(1, total // (4 * threads))  # pairs per job
        jobs = []
        for elements, k in cells:
            rows = max(1, block // k)
            jobs.extend(
                (n, elements, start, min(start + rows, k)) for start in range(0, k, rows)
            )
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_census_rows, jobs))
    else:
        parts = [_census_rows((n, elements, 0, k)) for elements, k in cells]
    return total, sum(p[0] for p in parts), sum(p[1] for p in parts)


def idempotent_count(n: int, threads: int = 1) -> int:
    """Number of idempotents in the rank-``n`` monoid (streamed census)."""
    return census_counts(n, threads)[1]


def involutive_count(n: int, threads: int = 1) -> int:
    """Number of mirror-fixed elements (equals the involutions of S_n)."""
    return census_counts(n, threads)[2]


# ---------------------------------------------------------------------------
# Green relations


_GREEN_FIELDS = ("rank", "elements", "r_classes", "l_classes", "j_classes", "r_reps", "j_reps")


class GreenClasses(Immutable):
    """R/L/J-partitions of the rank-``n`` monoid with canonical representatives.

    ``elements`` fixes the indexing; classes are tuples of sorted element
    indices, themselves sorted by smallest member.  ``r_reps[c]`` is the
    unique involutive element of R-class ``c``; ``j_reps[c]`` the unique
    free element of J-class ``c``.  Equality, hashing and ``repr`` use
    these seven fields.
    """

    __slots__ = _GREEN_FIELDS + ("_lookup",)

    rank: int
    elements: tuple[dg.ArcDiagram, ...]
    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    r_reps: tuple[int, ...]
    j_reps: tuple[int, ...]

    def __init__(
        self,
        rank: int,
        elements: tuple[dg.ArcDiagram, ...],
        r_classes: tuple[tuple[int, ...], ...],
        l_classes: tuple[tuple[int, ...], ...],
        j_classes: tuple[tuple[int, ...], ...],
        r_reps: tuple[int, ...],
        j_reps: tuple[int, ...],
    ) -> None:
        values = (rank, elements, r_classes, l_classes, j_classes, r_reps, j_reps)
        for name, value in zip(_GREEN_FIELDS, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_lookup", None)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in _GREEN_FIELDS)

    def class_of(self, e: dg.ArcDiagram, kind: str) -> tuple[int, ...]:
        """The ``kind`` (``"R"``, ``"L"`` or ``"J"``) class holding ``e``.

        The element -> index table and the index -> class tables are
        built on the first call.
        """
        if self._lookup is None:
            index = {d: i for i, d in enumerate(self.elements)}
            owners = {}
            for key, classes in (("R", self.r_classes), ("L", self.l_classes), ("J", self.j_classes)):
                owner: list[tuple[int, ...]] = [()] * len(self.elements)
                for cls in classes:
                    for i in cls:
                        owner[i] = cls
                owners[key] = owner
            object.__setattr__(self, "_lookup", (index, owners))
        index, owners = self._lookup
        owner = owners[kind]
        if e not in index:
            raise ValueError(f"{e!r} is not an element of the rank-{self.rank} monoid")
        return owner[index[e]]

    def __eq__(self, other) -> bool:
        if other.__class__ is not GreenClasses:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return GreenClasses, self._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in _GREEN_FIELDS)
        return f"GreenClasses({body})"


@lru_cache(maxsize=None)
def green_classes(n: int) -> GreenClasses:
    """Compute the full Green-relation structure of the rank-``n`` monoid.

    R-classes are the fibres of ``bra``, L-classes those of ``ket`` and
    J-classes those of ``prop_lab``.  In the order of
    :func:`~okada.diagrams.iter_diagrams`, a cell with ``k`` halves that
    starts at index ``off`` holds element ``glue(L_i, R_j)`` at
    ``off + i*k + j``, so its R-classes are the blocks of ``k``
    consecutive indices, its L-classes the strides of step ``k`` and its
    J-class the whole cell.  Listed cell by cell, each list is already
    sorted by smallest member.
    """
    elements = dg.enumerate_diagrams(n)
    r_classes: list[tuple[int, ...]] = []
    l_classes: list[tuple[int, ...]] = []
    j_classes: list[tuple[int, ...]] = []
    off = 0
    for s in enumerate_yfs(n):
        k = len(saturated_chains(s))
        end = off + k * k
        r_classes.extend(tuple(range(row, row + k)) for row in range(off, end, k))
        l_classes.extend(tuple(range(col, end, k)) for col in range(off, off + k))
        j_classes.append(tuple(range(off, end)))
        off = end

    r_reps = []
    for cls in r_classes:
        reps = [i for i in cls if is_involutive(elements[i])]
        if len(reps) != 1:
            raise InternalInvariantError(
                f"R-class {cls} at rank {n} has {len(reps)} involutive elements"
            )
        r_reps.append(reps[0])
    from .algebra import free_diagram

    frees = {free_diagram(s) for s in enumerate_yfs(n)}
    j_reps = []
    for cls in j_classes:
        reps = [i for i in cls if elements[i] in frees]
        if len(reps) != 1:
            raise InternalInvariantError(
                f"J-class {cls} at rank {n} has {len(reps)} free elements"
            )
        j_reps.append(reps[0])
    return GreenClasses(
        n,
        elements,
        tuple(r_classes),
        tuple(l_classes),
        tuple(j_classes),
        tuple(r_reps),
        tuple(j_reps),
    )


def r_class_rep(e: dg.ArcDiagram) -> dg.ArcDiagram:
    """The unique involutive element of the R-class of ``e``.

    The R-class is the fibre of ``bra``, and ``glue(L, L)`` is its one
    mirror-fixed element.
    """
    left = dg.bra(e)
    return dg.glue(left, left)


def j_class_rep(e: dg.ArcDiagram) -> dg.ArcDiagram:
    """The unique free element of the J-class of ``e``: the free element
    with the same propagating label set."""
    from .algebra import free_diagram

    return free_diagram(dg.prop_lab(e))
