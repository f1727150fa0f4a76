"""Generator words, permutation codes, heaps, and exact normalization.

The rank-``n`` Okada algebra is generated by ``E_1, ..., E_{n-1}`` with

* ``E_i E_i      = x_i E_i``
* ``E_i E_j      = E_j E_i``          for ``|i - j| >= 2``
* ``E_{i+1} E_i E_{i+1} = y_i E_{i+1}``

(there is no rule for ``E_i E_{i+1} E_i``; that asymmetry is what
separates this algebra from Temperley-Lieb).  Words in the generators
are rewritten modulo the commutations, so the real objects are traces
(commutation classes); a reduction fires whenever some representative
contains the square or the zigzag pattern as a factor.  Each reduction
shortens the word, every irreducible trace turns out to be the trace of
the code word of a unique permutation, and :func:`normalize` returns
that code word with the collected monomial in the ``x``/``y`` parameters.

Trace-adjacency is decided exactly:

* two occurrences of ``v`` are adjacent iff no letter between them has a
  value within 1 of ``v``;
* ``v, v-1, v`` can be brought together iff the letters between the two
  ``v``'s include exactly one letter from ``{v-1, v, v+1}``, namely a
  single ``v-1`` (anything further away commutes past the pattern).

Rewriting rests on one invariant: a letter appended to an irreducible
word is the only one that can start a reduction.  An irreducible word is
the code word of a permutation ``p`` up to commutation, a run
``k, k-1, ..., bot[k]`` for each ``k``, so :func:`_push` keeps ``p`` and
the run bottoms ``bot`` and finds the one reduction, if any, by scanning
at most ``n`` runs, not the up to ``n(n-1)/2`` letters of the word.
``E_p E_q`` pushes the code word of ``q`` onto the runs of ``p``.

Every result of :func:`normalize` and of :func:`multiply_perms` carries
one certificate.  A letter ``j`` that extends run ``k`` must swap an
ascent of ``p`` whose upper entry is ``k + 1``, the value run ``k``
carries, and at the end ``bot`` must be the run bottoms of the code of
``p``, read afresh by :func:`code`; otherwise ``InternalInvariantError``
is raised.  So a step that leaves the state of one code word cannot
escape.  A step that keeps it, such as a zigzag that drops its cut
letters, is the tests' to catch, against the random reference engine,
whose reduced word is certified by pushing it onto the empty code word,
where no reduction may fire.

The dictionary with the arc-diagram model is one rule, stated only
here: rank ``r`` with code entry ``c`` owns the arc of height ``r - c``
at position ``r - 1 + c`` of the rank-``r`` part (at ``c = 0`` the arc
``h(r, -r) = r``, else the cap ``h(-(I+1), -I) = I`` with ``I = r - c``).
:func:`perm_to_diagram` inserts these arcs from rank 1 up, and
:func:`diagram_to_perm` deletes them from rank ``n`` down.
"""

from __future__ import annotations

import bisect
import itertools
import reprlib
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from ._immutable import Immutable
from .errors import InternalInvariantError
from .polynomials import Polynomial, Var

if TYPE_CHECKING:
    import random

    from .fibonacci import Chain

__all__ = [
    "Perm",
    "identity_perm",
    "perm_inverse",
    "perm_compose",
    "perm_length",
    "all_perms",
    "code",
    "word_from_code",
    "perm_from_word",
    "check_word",
    "Heap",
    "heap_from_word",
    "reading",
    "is_packed",
    "cartier_foata",
    "trace_equal",
    "NormalizationResult",
    "normalize",
    "multiply_words",
    "multiply_perms",
    "perm_to_diagram",
    "diagram_to_perm",
    "rs",
    "rs_inverse",
]

Perm = tuple[int, ...]  # one-line notation on {1, ..., n}


# ---------------------------------------------------------------------------
# permutations and codes


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """One-line product ``(p*q)(i) = p(q(i))``.

    Matches word evaluation: the word ``w1 + w2`` evaluates to
    ``perm_compose(perm_from_word(w1), perm_from_word(w2))``.
    """
    return tuple(p[v - 1] for v in q)


def perm_length(p: Perm) -> int:
    """Number of inversions (Coxeter length): the sum of the :func:`code`."""
    return sum(code(p))


def all_perms(n: int) -> tuple[Perm, ...]:
    """All permutations of ``{1..n}`` in lexicographic one-line order."""
    return tuple(itertools.permutations(range(1, n + 1)))


def code(p: Perm) -> tuple[int, ...]:
    """Lehmer-style code: ``c_i = #{j < i : p^-1(j) > p^-1(i)}``.

    Raises ``ValueError`` unless ``p`` is a permutation of ``1..n``,
    also for entries that are not integers (a ``bool`` counts); it is
    the one permutation check, and the parsers call it too.
    """
    # c_v counts the smaller values right of v: read p from the right,
    # keeping the values passed so far sorted.
    n = len(p)
    out = [0] * n
    passed: list[int] = []
    try:
        for v in reversed(p):
            if not 1 <= v <= n:
                break
            c = bisect.bisect_left(passed, v)
            out[v - 1] = c
            passed.insert(c, v)
    except TypeError:  # a value that neither compares nor indexes as an int
        passed = []
    if passed != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}")
    return tuple(out)


def _runs(p: Perm) -> list[int]:
    """The run bottoms of the code word of ``p``: its run ``k`` is
    ``k, k-1, ..., bot[k]``, empty when ``bot[k] = k + 1``."""
    return [v - c for v, c in enumerate(code(p), start=1)]


def _code_word(bot: Sequence[int]) -> tuple[int, ...]:
    """The code word with run bottoms ``bot``."""
    return tuple(itertools.chain.from_iterable(range(k, b - 1, -1) for k, b in enumerate(bot)))


def word_from_code(p: Perm) -> tuple[int, ...]:
    """The canonical reduced word ``prod_i (i-1, i-2, ..., i-c_i)``.

    Concatenating the descending runs for increasing ``i`` gives the
    lexicographically minimal reduced factorization of ``p`` into simple
    transpositions; its length is the Coxeter length.
    """
    word: list[int] = []
    for i, c in enumerate(code(p)):
        if c:
            word += range(i, i - c, -1)
    return tuple(word)


def perm_from_word(word: Sequence[int], n: int) -> Perm:
    """Evaluate a generator word as a product of simple transpositions.

    Letters outside ``1 .. n-1`` raise ``ValueError`` (:func:`check_word`).
    """
    p = list(range(1, n + 1))
    for i in check_word(word, n):
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def check_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    """``word`` as a tuple; ``ValueError`` unless each letter is an integer in ``1 .. n-1``."""
    if n < 0:
        raise ValueError("rank must be non-negative")
    word = tuple(word)
    for v in word:
        if not (isinstance(v, int) and 1 <= v <= n - 1):
            raise ValueError(f"letter {reprlib.repr(v)} out of range for rank {n}")
    return word


# ---------------------------------------------------------------------------
# heaps (diamond-diagram packings)


class Heap(Immutable):
    """Black-box occupancy of a diamond diagram.

    ``rows[i-1]`` lists the occupied diagonals of row ``i`` (rows are
    indexed from the bottom starting at 1, diagonals from the left
    starting at 1).  Reading the diagonals left to right, each from top
    to bottom, recovers a word; trailing empty diagonals are never
    stored, which realizes the identification of diagrams differing by
    empty diagonals on the right.
    """

    __slots__ = _fields = ("n", "rows")

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if n < 0:
            raise ValueError("rank must be non-negative")
        if len(rows) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} rows, got {len(rows)}")
        for i, cols in enumerate(rows, start=1):
            for prev, cur in zip((0,) + tuple(cols), cols):
                if cur <= prev:
                    raise ValueError(f"row {i} columns must increase: {cols}")
            if cols and cols[0] < i:
                raise ValueError(f"row {i} starts left of the boundary: {cols}")
        self._fill(n, rows)


def heap_from_word(word: Sequence[int], n: int) -> Heap:
    """Drop the letters of ``word`` into a diamond diagram.

    Letters are packed diagonal by diagonal: a letter joins the current
    diagonal when it continues a strictly decreasing run, otherwise it
    starts the next one, and a letter ``i`` can never sit left of
    diagonal ``i``.  The packing reproduces the reading exactly.
    """
    word = check_word(word, n)
    rows: list[list[int]] = [[] for _ in range(max(n - 1, 0))]
    col = 0
    prev = None
    for v in word:
        if prev is None or v >= prev:
            col += 1
        col = max(col, v)
        rows[v - 1].append(col)
        prev = v
    return Heap(n, tuple(tuple(r) for r in rows))


def reading(heap: Heap) -> tuple[int, ...]:
    """Row indices of the black boxes, diagonals left to right, each top-down."""
    boxes = [
        (col, -row)
        for row, cols in enumerate(heap.rows, start=1)
        for col in cols
    ]
    return tuple(-r for _, r in sorted(boxes))


def is_packed(heap: Heap) -> bool:
    """True iff every box is supported, i.e. repacking the reading is a no-op."""
    return heap == heap_from_word(reading(heap), heap.n)


# ---------------------------------------------------------------------------
# traces


def cartier_foata(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cartier-Foata layers of the trace of ``word``.

    Letters commute iff their values differ by at least 2.  Two words
    have equal layers iff they are equal modulo commutations.  A letter
    ``v`` sits one layer above the highest of the latest ``v-1``, ``v``
    and ``v+1`` before it (earlier ones lie lower still), so one pass
    assigns every layer, and each layer is sorted at the end.
    """
    depth: dict[int, int] = {}  # value -> layer of its latest occurrence
    layers: list[list[int]] = []
    for v in word:
        d = max(depth.get(v - 1, 0), depth.get(v, 0), depth.get(v + 1, 0))
        depth[v] = d + 1
        if d == len(layers):
            layers.append([])
        layers[d].append(v)
    return tuple(tuple(sorted(layer)) for layer in layers)


def trace_equal(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """Equality of words modulo commutation of distant letters."""
    return cartier_foata(w1) == cartier_foata(w2)


# ---------------------------------------------------------------------------
# normalization


class NormalizationResult(Immutable):
    """Outcome of rewriting a word to its canonical code-word form."""

    __slots__ = _fields = ("n", "coefficient", "word", "perm")

    n: int
    coefficient: Polynomial  # a monomial in the x and y parameters
    word: tuple[int, ...]  # the code word of `perm`
    perm: Perm

    def __init__(self, n: int, coefficient: Polynomial, word: tuple[int, ...], perm: Perm) -> None:
        self._fill(n, coefficient, word, perm)


def _reduction_candidates(word: Sequence[int]):
    """All one-step reductions of the trace of ``word``.

    Yields ``(v, p, 0, q, q)`` for a square ``E_v E_v`` at positions
    ``p < q`` and ``(v, p, 1, q, r)`` for a zigzag ``E_v E_{v-1} E_v`` at
    ``p < q < r``.  Only consecutive occurrences of a value can be
    adjacent in the trace.  One pass keeps the latest position of each
    value and, per position, the previous position of the same value:
    between the occurrences ``p < r`` of ``v`` there is no ``v+1`` iff the
    latest ``v+1`` lies before ``p``, and exactly one ``v-1`` iff the
    latest ``v-1`` lies after ``p`` and its predecessor before ``p``
    (letters are at least 1, so a ``v-1`` exists only for ``v >= 2``).
    """
    cands = []
    last = [-1] * (max(word, default=0) + 2)  # value -> latest position
    prev = []  # position -> previous position of the same value
    for r, v in enumerate(word):
        p = last[v]
        prev.append(p)
        last[v] = r
        if p < 0 or last[v + 1] > p:
            continue
        q = last[v - 1]
        if q < p:
            cands.append((v, p, 0, r, r))
        elif prev[q] < p:
            cands.append((v, p, 1, q, r))
    return sorted(cands)


def _push(p: list[int], bot: list[int], letters: Sequence[int], exps: dict[Var, int]) -> None:
    """Append ``E_j`` for each ``j`` of ``letters`` to the code word of
    ``p``, with run bottoms ``bot``, in place, counting the reductions
    into ``exps``.

    The runs after the last run ``k`` with ``bot[k] <= j + 1`` hold only
    letters above ``j + 1``, so ``j`` commutes back to the end of run
    ``k``.  As ``bot[j] <= j + 1``, ``k >= j``, and a step scans at most
    ``n`` runs.  With ``b = bot[k]``:

    * ``b == j``: run ``k`` ends in ``j``, a square; record ``x_j``.
    * ``b < j``: run ``k`` ends in ``j, j-1, ..., b``, and ``j`` commutes
      back past ``j-2, ..., b`` into the zigzag ``j, j-1, j``; record
      ``y_{j-1}`` and cut run ``k`` after ``j``.  ``p`` loses
      ``s_{j-1}...s_b``: ``p[b-1:j]`` rotates left by one.  The cut
      letters ``j-2, ..., b`` commute with the later runs, so they are
      pushed again.
    * otherwise ``b == j + 1``: run ``k`` grows by ``j``.  Then ``p``
      holds ``k + 1`` at index ``j`` and rises there, and ``p[j-1:j+1]``
      swaps.
    """
    todo = list(reversed(letters))
    pop = todo.pop
    last = len(bot) - 1
    while todo:
        j = pop()
        k, hi = last, j + 1
        while bot[k] > hi:
            k -= 1
        b = bot[k]
        if b == j:  # square
            var = ("x", j)
        elif b < j:  # zigzag
            var = ("y", j - 1)
            bot[k] = j
            p[b - 1 : j] = p[b:j] + p[b - 1 : b]
            todo += range(b, j - 1)
        else:
            if p[j - 1] > p[j] or p[j] != k + 1:
                raise InternalInvariantError(f"{j} does not extend run {k} of {tuple(p)}")
            p[j - 1], p[j] = p[j], p[j - 1]
            bot[k] = j
            continue
        exps[var] = exps.get(var, 0) + 1


def _push_certified(p: list[int], bot: list[int], letters: Sequence[int], exps: dict[Var, int]) -> Perm:
    """Push ``letters`` onto the code word of ``p`` with run bottoms
    ``bot``, then certify it: raises :class:`InternalInvariantError`
    unless ``bot`` ends as the run bottoms of the permutation reached.
    """
    _push(p, bot, letters, exps)
    perm = tuple(p)
    if _runs(perm) != bot:
        raise InternalInvariantError(f"runs down to {bot} are not the code word of {perm}")
    return perm


def _monomial(exps: dict[Var, int]) -> Polynomial:
    return Polynomial._from_sorted({tuple(sorted(exps.items())): 1})


def _multiply_code_words(p: Perm, bot: Sequence[int], wq: Sequence[int]) -> tuple[Polynomial, Perm]:
    """``E_p E_q`` from ``p``, the run bottoms ``bot`` of its code word
    and the code word ``wq`` of ``q``.

    The product of :func:`multiply_perms`, with its certificate, for a
    caller that multiplies each operand many times and so reads its runs
    or code word once.
    """
    exps: dict[Var, int] = {}
    perm = _push_certified(list(p), list(bot), wq, exps)
    return _monomial(exps), perm


def normalize(
    word: Sequence[int],
    n: int | None = None,
    rng: random.Random | None = None,
) -> NormalizationResult:
    """Rewrite ``word`` to the code word of a permutation, exactly.

    Squares contribute ``x_v`` factors, zigzags ``y_{v-1}`` factors, and
    commutations are free.  Without ``rng`` the letters are pushed one
    by one onto the empty code word (:func:`_push`), each step scanning
    at most ``n`` runs.  With a seeded ``random.Random`` the reference
    engine picks at random among all reductions of the whole word
    (:func:`_reduction_candidates`), and its reduced word is certified by
    pushing it onto the empty code word, where no reduction may fire.
    Confluence makes the result independent of the engine.

    >>> normalize((1, 1)).coefficient
    x1
    >>> normalize((2, 1, 2)).word
    (2,)
    """
    if n is None:
        n = max((0, *word)) + 1
    word = check_word(word, n)
    exps: dict[Var, int] = {}
    bot = list(range(1, n + 1))
    if rng is None:
        perm = _push_certified(list(bot), bot, word, exps)
    else:
        w = list(word)
        while cands := _reduction_candidates(w):
            v, p, kind, q, r = rng.choice(cands)
            var = ("x", v) if kind == 0 else ("y", v - 1)
            exps[var] = exps.get(var, 0) + 1
            del w[r]
            if kind == 1:
                del w[q]
        fired: dict[Var, int] = {}
        perm = _push_certified(list(bot), bot, w, fired)
        if fired:
            raise InternalInvariantError(f"the reduced word {tuple(w)} still reduces")
    return NormalizationResult(n, _monomial(exps), _code_word(bot), perm)


def multiply_words(
    w1: Sequence[int], w2: Sequence[int], n: int | None = None
) -> NormalizationResult:
    """Normal form of the concatenation; the structure-constant oracle."""
    return normalize(tuple(w1) + tuple(w2), n)


def multiply_perms(p: Perm, q: Perm) -> tuple[Polynomial, Perm]:
    """Structure constants of the basis: ``E_p E_q = coeff * E_result``.

    Pushes ``q``'s code word onto the runs of ``p``'s, as
    :func:`normalize` pushes a word onto the empty code word, each step
    scanning at most ``n`` runs; by confluence the push agrees with
    :func:`multiply_words`.  The result carries one certificate for the
    whole product.

    >>> multiply_perms((2, 1, 3), (2, 1, 3))
    (x1, (2, 1, 3))
    >>> multiply_perms((1, 3, 2), (2, 3, 1))  # E_2 E_1 E_2 = y_1 E_2
    (y1, (1, 3, 2))
    """
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    return _multiply_code_words(p, _runs(p), word_from_code(q))


@lru_cache(maxsize=0)
def _mult_perm_by_generator(p: Perm, i: int) -> tuple[Polynomial, Perm]:
    """``E_p E_i``: :func:`multiply_perms` by the permutation whose code
    word is ``(i,)``, so one letter is pushed onto ``p``'s code word.

    The library multiplies whole code words and does not call it.  It
    keeps the name of the former generator-step cache because the
    benchmark's per-layer metrics ``cache._mult_perm_by_generator.*``
    read a cache by that name; with ``maxsize=0`` it stores nothing and
    only counts calls.

    >>> _mult_perm_by_generator((2, 1, 3), 1)
    (x1, (2, 1, 3))
    """
    return multiply_perms(p, perm_from_word((i,), len(p)))


# ---------------------------------------------------------------------------
# dictionary with the arc-diagram model


def perm_to_diagram(p: Perm):
    """The diagram of the code word of ``p``: the dictionary arcs inserted
    from rank 1 up.  Code words are reduced, so evaluating one in the
    diagram monoid closes no loop and this is its product exactly.
    """
    from . import diagrams

    partner: list[int] = []
    height: list[int] = []
    for r, c in enumerate(code(p), start=1):
        a = r + c - 1
        partner = [q if q < a else q + 2 for q in partner]
        partner[a:a] = (a + 1, a)
        height[a:a] = (r - c, r - c)
    return diagrams._from_arrays(len(p), partner, height)


def diagram_to_perm(d) -> Perm:
    """Invert :func:`perm_to_diagram`: ``rest`` holds the positions not yet
    deleted, and the arc of rank ``r`` is the first adjacent pair from
    index ``a = r - 1`` on joined with height ``2r - 1 - a``; its code
    entry is ``a - r + 1``.  Then ``v`` goes in at index ``v - 1 - c_v``.
    """
    n, partner, height = d.rank, d.partner, d.height
    rest = list(range(2 * n))
    cvec = [0] * n
    for r in range(n, 0, -1):
        for a in range(r - 1, 2 * r - 1):
            if partner[rest[a]] == rest[a + 1] and height[rest[a]] == 2 * r - 1 - a:
                break
        else:
            raise InternalInvariantError(f"no arc to peel at rank {r} of a rank-{n} diagram")
        cvec[r - 1] = a - r + 1
        del rest[a : a + 2]
    p: list[int] = []
    for v, c in enumerate(cvec, start=1):
        p.insert(v - 1 - c, v)
    return tuple(p)


def rs(p: Perm) -> tuple[Chain, Chain]:
    """Robinson-Schensted pair of saturated chains of ``p``.

    The left chain reads the bra of the arc diagram of ``p``, the right
    chain the ket; both end at the propagating label set.  Inverting the
    permutation swaps the pair, so involutions give twin chains.
    """
    from . import diagrams

    d = perm_to_diagram(p)
    return diagrams.chain_of(diagrams.bra(d)), diagrams.chain_of(diagrams.ket(d))


def rs_inverse(left: Chain, right: Chain) -> Perm:
    """Recover the permutation from a pair of chains with a common top."""
    from . import diagrams

    if left.rank != right.rank:
        raise ValueError(f"chain ranks differ: {left.rank} vs {right.rank}")
    if left.top != right.top:
        raise ValueError(f"chains end at {reprlib.repr(left.top.elements)} and {reprlib.repr(right.top.elements)}")
    d = diagrams.glue(diagrams.chain_inverse(left), diagrams.chain_inverse(right))
    return diagram_to_perm(d)
