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
carries, and at the end ``p`` must be the permutation rebuilt from
``bot`` (:func:`_perm_of_runs`); the code is a bijection, so that holds
exactly when ``bot`` is the run bottoms of ``p``.  A product of known
landing, as in :func:`okada.algebra.gram_matrix`, instead compares ``p``
and ``bot`` with it and its runs.  Otherwise ``InternalInvariantError``
is raised.  So a step that leaves the state of one code word cannot
escape.  A step that keeps it, such as a zigzag that drops its cut
letters, is the tests' to catch, against the random reference engine,
whose reduced word is certified by pushing it onto the empty code word,
where no reduction may fire, and against the diagram model.

The dictionary with the arc-diagram model is one rule, stated only
here: rank ``r`` with code entry ``c`` owns the arc of height ``r - c``
at position ``r - 1 + c`` of the rank-``r`` part (at ``c = 0`` the arc
``h(r, -r) = r``, else the cap ``h(-(I+1), -I) = I`` with ``I = r - c``).
From rank ``n`` down, :func:`perm_to_diagram` places these arcs on the
positions not yet taken, and :func:`diagram_to_perm` deletes them.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from ._immutable import Immutable
from .errors import InternalInvariantError, _checked_letters, _checked_rank, _shown
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
    """Lehmer-style code: ``c_i = #{j < i : p^-1(j) > p^-1(i)}``, read off
    the run bottoms of :func:`_runs`, whose walk is the one permutation
    check: ``ValueError`` unless ``p`` is a permutation of ``1..n``."""
    return tuple(v - b for v, b in enumerate(_runs(p), start=1))


def _runs(p: Perm) -> list[int]:
    """The run bottoms of the code word of ``p``: its run ``k`` is
    ``k, k-1, ..., bot[k]``, empty when ``bot[k] = k + 1``.  The one
    permutation check: ``ValueError`` unless ``p`` is a permutation of
    ``1..n``, also for entries that are not integers (a ``bool`` counts).
    """
    # bot[v-1] is v less the smaller values right of v: read p from the
    # right, keeping the values passed so far sorted.
    n = len(p)
    bot = [0] * n
    passed: list[int] = []
    try:
        for v in reversed(p):
            if not 1 <= v <= n:
                break
            c = bisect.bisect_left(passed, v)
            bot[v - 1] = v - c
            passed.insert(c, v)
    except TypeError:  # a value that neither compares nor indexes as an int
        passed = []
    if passed != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}")
    return bot


def _pending(bot: Sequence[int]) -> list[int]:
    """The code word with run bottoms ``bot`` as a stack of pending
    letters, last letter first, as :func:`_push` takes it."""
    todo: list[int] = []
    for k in range(len(bot) - 1, 0, -1):
        todo += range(bot[k], k + 1)
    return todo


def _perm_of_runs(bot: Sequence[int]) -> list[int]:
    """The permutation whose code word has run bottoms ``bot``, each ``v``
    in at index ``bot[v-1] - 1``; short if a bottom is out of ``1..v``."""
    p: list[int] = []
    for v, b in enumerate(bot, start=1):
        if not 1 <= b <= v:
            break
        p.insert(b - 1, v)
    return p


def word_from_code(p: Perm) -> tuple[int, ...]:
    """The canonical reduced word ``prod_i (i-1, i-2, ..., i-c_i)``.

    Concatenating the descending runs for increasing ``i`` gives the
    lexicographically minimal reduced factorization of ``p`` into simple
    transpositions; its length is the Coxeter length.
    """
    return tuple(reversed(_pending(_runs(p))))


def perm_from_word(word: Sequence[int], n: int) -> Perm:
    """Evaluate a generator word as a product of simple transpositions.

    Letters outside ``1 .. n-1`` raise ``ValueError`` (:func:`check_word`).
    """
    word = check_word(word, n)
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def check_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    """``word`` as a tuple; ``ValueError`` unless each letter is an integer in ``1 .. n-1``."""
    return _checked_letters(word, _checked_rank(n))


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
        _checked_rank(n)
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
    return Heap._trusted(n, tuple(tuple(r) for r in rows))


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


def _push(p: list[int], bot: list[int], todo: list[int], exps: dict[Var, int]) -> None:
    """Append ``E_j`` for each letter ``j`` of the stack ``todo``, last
    letter first, to the code word of ``p``, with run bottoms ``bot``, in
    place, counting the reductions into ``exps``; ``todo`` ends empty.

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
            p.insert(j - 1, p.pop(b - 1))
            todo += range(b, j - 1)
        else:
            if p[j - 1] > p[j] or p[j] != k + 1:
                raise InternalInvariantError(f"{j} does not extend run {k} of {tuple(p)}")
            p[j - 1], p[j] = p[j], p[j - 1]
            bot[k] = j
            continue
        exps[var] = exps.get(var, 0) + 1


def _monomial(exps: dict[Var, int]) -> Polynomial:
    """The one-term monomial of ``exps``, built directly: its term is sorted."""
    out = Polynomial.__new__(Polynomial)
    out._terms = {tuple(sorted(exps.items())): 1}
    return out


def _multiply_code_words(p: Sequence[int], bot: list[int], todo: list[int]) -> tuple[Polynomial, Perm]:
    """``E_p E_q``: the code word of ``q`` as the stack ``todo``
    (:func:`_pending`) pushed onto ``p`` with run bottoms ``bot``, and
    certified.  Both lists are used up, so a caller that reuses an
    operand copies its runs and stack for each product."""
    exps: dict[Var, int] = {}
    p = list(p)
    _push(p, bot, todo, exps)
    if _perm_of_runs(bot) != p:
        raise InternalInvariantError(f"runs down to {bot} are not the code word of {tuple(p)}")
    return _monomial(exps), tuple(p)


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
    bot = list(range(1, n + 1))  # the empty code word, whose permutation is this identity too
    if rng is None:
        coeff, perm = _multiply_code_words(bot, bot, list(word[::-1]))
    else:
        exps: dict[Var, int] = {}
        w = list(word)
        while cands := _reduction_candidates(w):
            v, p, kind, q, r = rng.choice(cands)
            var = ("x", v) if kind == 0 else ("y", v - 1)
            exps[var] = exps.get(var, 0) + 1
            del w[r]
            if kind == 1:
                del w[q]
        fired, perm = _multiply_code_words(bot, bot, w[::-1])
        if fired != Polynomial.one():
            raise InternalInvariantError(f"the reduced word {tuple(w)} still reduces")
        coeff = _monomial(exps)
    return NormalizationResult(n, coeff, tuple(reversed(_pending(bot))), perm)


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
    return _multiply_code_words(p, _runs(p), _pending(_runs(q)))


@lru_cache(maxsize=0)
def _mult_perm_by_generator(p: Perm, i: int) -> tuple[Polynomial, Perm]:
    """``E_p E_i`` by :func:`multiply_perms`.  Nothing in the library calls
    it; the benchmark reads the statistics of a cache by this name, and
    with ``maxsize=0`` it stores nothing and only counts calls.

    >>> _mult_perm_by_generator((2, 1, 3), 1)
    (x1, (2, 1, 3))
    """
    return multiply_perms(p, perm_from_word((i,), len(p)))


# ---------------------------------------------------------------------------
# dictionary with the arc-diagram model


def perm_to_diagram(p: Perm):
    """The diagram of the code word of ``p``, built from its run bottoms.
    Code words are reduced, so evaluating one in the diagram monoid closes
    no loop and this is its product exactly."""
    return _diagram_of_runs(_runs(p))


def _diagram_of_runs(bot: Sequence[int]):
    """The mirror of :func:`diagram_to_perm`: from rank ``n`` down, the arc
    of rank ``r`` with bottom ``b`` joins the positions ``rest[a]`` and
    ``rest[a + 1]`` not yet taken, ``a = 2r - 1 - b``, at height ``b``."""
    from . import diagrams

    n = len(bot)
    rest = list(range(2 * n))
    partner, height = [0] * (2 * n), [0] * (2 * n)
    for r in range(n, 0, -1):
        b = bot[r - 1]
        a = 2 * r - 1 - b
        i, j = rest[a], rest[a + 1]
        partner[i], partner[j] = j, i
        height[i] = height[j] = b
        del rest[a : a + 2]
    return diagrams._from_arrays(n, partner, height)


def diagram_to_perm(d) -> Perm:
    """Invert :func:`perm_to_diagram`: rebuild from :func:`_runs_of_diagram`."""
    return tuple(_perm_of_runs(_runs_of_diagram(d)))


def _runs_of_diagram(d) -> list[int]:
    """The run bottoms of the permutation of ``d``: with ``rest`` the
    positions not yet deleted, the arc of rank ``r`` is the first adjacent
    pair from ``a = r - 1`` on with height ``2r - 1 - a``, run ``r - 1``'s bottom."""
    n, partner, height = d.rank, d.partner, d.height
    rest = list(range(2 * n))
    bot = [0] * n
    for r in range(n, 0, -1):
        for a in range(r - 1, 2 * r - 1):
            if partner[rest[a]] == rest[a + 1] and height[rest[a]] == 2 * r - 1 - a:
                break
        else:
            raise InternalInvariantError(f"no arc to peel at rank {r} of a rank-{n} diagram")
        bot[r - 1] = 2 * r - 1 - a
        del rest[a : a + 2]
    return bot


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
        raise ValueError(f"chains end at {_shown(left.top.elements)} and {_shown(right.top.elements)}")
    d = diagrams.glue(diagrams.chain_inverse(left), diagrams.chain_inverse(right))
    return diagram_to_perm(d)
