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
  arcs of ``R`` through the arcs of ``L`` and ``R``, a row ``L`` against
  its cell in one call (:func:`~okada.diagrams._passing`), in one list
  of row blocks (:func:`census_counts`, the one count);
* the R-, L- and J-classes are the fibres of ``bra``, ``ket`` and
  ``prop_lab``: the rows, columns and whole of each cell, whose diagonal
  holds the representatives ``glue(L, L)``, the free one among them.

Every scan reads the rank's one cell layout (:func:`~okada.diagrams._rank_cells`)
and builds only the elements it keeps, each two parts of halves tied once
per end tuple of its cell: all of them for :func:`green_classes`, those that
pass for :func:`iter_idempotents`, those that fail for :func:`aperiodicity_profile`.
The census reads its cell sizes off the layout too, before it starts any
worker process, so that forked workers inherit the walk.

The mirror is an anti-automorphism, ``mirror(c·d) = mirror(d)·mirror(c)``
(reflecting a stack reverses it and keeps every label), and it swaps the
halves, ``mirror(glue(L, R)) = glue(R, L)``.  So ``glue(L, R)`` and
``glue(R, L)`` are idempotent together and share their aperiodicity index.
Two scans therefore read only the pairs ``i <= j`` of each cell, ``glue(L, L)``
being idempotent: the census (:func:`census_counts`) and the aperiodicity
profile (:func:`aperiodicity_profile`, whose largest index is
:func:`aperiodicity_max`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterator

from . import diagrams as dg
from ._immutable import Immutable
from .diagrams import _passing
from .errors import InternalInvariantError, _shown
from .fibonacci import chain_count, enumerate_yfs

__all__ = [
    "mproduct",
    "is_idempotent",
    "is_involutive",
    "aperiodicity_index",
    "aperiodicity_profile",
    "aperiodicity_max",
    "iter_idempotents",
    "census_counts",
    "involutive_count",
    "KNOWN_IDEMPOTENT_COUNTS",
    "EXTENDED_IDEMPOTENT_COUNTS",
    "GreenClasses",
    "green_classes",
    "r_class_rep",
    "j_class_rep",
]

# Idempotent census for ranks 0..8; ranks 9 to 11 are the extended run.
KNOWN_IDEMPOTENT_COUNTS = (1, 1, 2, 6, 22, 108, 594, 4116, 30500)
EXTENDED_IDEMPOTENT_COUNTS = {9: 274006, 10: 2560400, 11: 28272984}


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


def aperiodicity_profile(n: int) -> dict[int, int]:
    """Number of rank-``n`` elements at each aperiodicity index, by index.

    One scan of the pairs ``i < j`` of each cell: ``glue(L_i, L_j)`` is powered
    when row ``i`` of :func:`~okada.diagrams._passing` misses ``j``, and counts twice, for its mirror
    ``glue(L_j, L_i)`` has the same index.  The other elements, the
    diagonal ``glue(L_i, L_i)`` among them, are the idempotents, at index
    1.  The monoid is aperiodic, so every power tower stabilizes, but no
    a-priori bound on the index is known.

    >>> aperiodicity_profile(4)
    {1: 22, 2: 2}
    """
    profile: Counter[int] = Counter()
    elements = 0
    for _, halves, ends in dg._rank_cells(n):
        k = len(halves)
        elements += k * k
        failing = ((i, j) for i in range(k)
                   for j in sorted(set(range(i + 1, k)).difference(_passing(halves[i], halves, ends, i + 1))))
        for e in dg._glue_cell(halves, ends, failing):
            profile[aperiodicity_index(e)] += 2
    profile[1] = elements - sum(profile.values())
    return dict(sorted(profile.items()))


def aperiodicity_max(n: int) -> int:
    """Largest aperiodicity index over the whole rank-``n`` monoid."""
    return max(aperiodicity_profile(n))


# ---------------------------------------------------------------------------
# Idempotents from pairs of half diagrams


def iter_idempotents(n: int) -> Iterator[dg.ArcDiagram]:
    """Stream the rank-``n`` idempotents in :func:`~okada.diagrams.iter_diagrams` order; only they are built."""
    for _, halves, ends in dg._rank_cells(n):
        k = len(halves)
        keep = ((i, j) for i in range(k) for j in _passing(halves[i], halves, ends))
        yield from dg._glue_cell(halves, ends, keep)


def _census_rows(job: tuple[int, int, int, int]) -> int:
    """Idempotents among the pairs ``i <= j`` of the rows ``start .. stop-1``
    of cell ``c`` of rank ``n``, a pair ``i < j`` counting for its mirror too."""
    n, c, start, stop = job
    _, cell, ends = dg._rank_cells(n)[c]
    return sum(1 + 2 * len(_passing(cell[i], cell, ends, i + 1)) for i in range(start, stop))


def census_counts(n: int, threads: int = 1) -> tuple[int, int, int]:
    """Totals ``(elements, idempotents, involutives)`` for rank ``n``.

    The involutives are the pairs ``glue(L, L)``, all idempotent: one
    per half diagram.  The idempotents come from one job list over the
    pairs ``i <= j`` of every cell, in row blocks of about
    ``pairs // (4 * threads)`` pairs (row ``i`` of ``k`` holds ``k - i``),
    run in turn or, with ``threads > 1``, in worker processes.  The cell
    sizes are read off the layout (:func:`~okada.diagrams._rank_cells`), so the
    parent walks it before the pool starts, and forked workers inherit it.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    sizes = [len(halves) for _, halves, _ in dg._rank_cells(n)]
    block = max(1, sum(k * (k + 1) // 2 for k in sizes) // (4 * threads))  # pairs per job
    jobs = []
    for c, k in enumerate(sizes):
        start = pairs = 0
        for i in range(k):
            pairs += k - i
            if pairs >= block or i == k - 1:
                jobs.append((n, c, start, i + 1))
                start, pairs = i + 1, 0
    if threads == 1:
        idem = sum(map(_census_rows, jobs))
    else:
        # Imported here: only the threaded census starts processes.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            idem = sum(pool.map(_census_rows, jobs))
    return sum(k * k for k in sizes), idem, sum(sizes)


def involutive_count(n: int) -> int:
    """Number of mirror-fixed elements ``glue(L, L)``, one per half diagram."""
    return sum(chain_count(s) for s in enumerate_yfs(n))


# ---------------------------------------------------------------------------
# Green relations


class GreenClasses(Immutable):
    """R/L/J-partitions of the rank-``n`` monoid with canonical representatives.

    ``elements`` fixes the indexing; classes are tuples of sorted element
    indices, themselves sorted by smallest member.  ``r_reps[c]`` is the
    unique involutive element of R-class ``c``; ``j_reps[c]`` the unique
    free element of J-class ``c``.  Equality, hashing and ``repr`` use
    these seven fields; ``_lookup`` caches the tables of :meth:`class_of`.
    """

    _fields = ("rank", "elements", "r_classes", "l_classes", "j_classes", "r_reps", "j_reps")
    __slots__ = _fields + ("_lookup",)

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
        self._fill(rank, elements, r_classes, l_classes, j_classes, r_reps, j_reps)
        object.__setattr__(self, "_lookup", None)

    def class_of(self, e: dg.ArcDiagram, kind: str) -> tuple[int, ...]:
        """The ``kind`` (``"R"``, ``"L"`` or ``"J"``) class holding ``e``;
        another kind, or an ``e`` not in the monoid, raises ``ValueError``.

        The element -> index table and the index -> class tables are
        built on the first call.
        """
        if kind not in ("R", "L", "J"):
            raise ValueError(f"class kind must be 'R', 'L' or 'J', got {_shown(kind)}")
        if self._lookup is None:
            index = {d: i for i, d in enumerate(self.elements)}
            owners = {key: {i: cls for cls in classes for i in cls}
                      for key, classes in (("R", self.r_classes), ("L", self.l_classes), ("J", self.j_classes))}
            object.__setattr__(self, "_lookup", (index, owners))
        index, owners = self._lookup
        owner = owners[kind]
        if e not in index:
            raise ValueError(f"{e!r} is not an element of the rank-{self.rank} monoid")
        return owner[index[e]]


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
    sorted by smallest member.  The representatives are read off the
    diagonal of each cell: ``glue(L_i, L_i)``, at ``off + i*(k + 1)``, is
    the one involutive element of row ``i``, and the one free element of
    the cell where ``L_i`` is the free half.  Each cell's elements are
    built from its halves tied once per end tuple, in that order.

    >>> gc = green_classes(3)
    >>> gc.r_reps, gc.j_reps
    ((0, 3, 4, 5), (3, 4, 5))
    """
    elements: list[dg.ArcDiagram] = []
    r_classes: list[tuple[int, ...]] = []
    l_classes: list[tuple[int, ...]] = []
    j_classes: list[tuple[int, ...]] = []
    r_reps: list[int] = []
    j_reps: list[int] = []
    for s, halves, ends in dg._rank_cells(n):
        k, off = len(halves), len(elements)
        end = off + k * k
        elements.extend(dg._glue_cell(halves, ends, product(range(k), repeat=2)))
        r_classes.extend(tuple(range(row, row + k)) for row in range(off, end, k))
        l_classes.extend(tuple(range(col, end, k)) for col in range(off, off + k))
        j_classes.append(tuple(range(off, end)))
        r_reps.extend(range(off, end, k + 1))
        j_reps.append(off + halves.index(dg._free_half(s)) * (k + 1))
    return GreenClasses(n, *map(tuple, (elements, r_classes, l_classes, j_classes, r_reps, j_reps)))


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
    return dg.free_diagram(dg.prop_lab(e))
