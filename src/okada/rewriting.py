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
word is the only one that can start a reduction, which :func:`_push`
finds by a scan back from the end.  An irreducible word is a code word
up to commutation, of at most ``n(n-1)/2`` letters, so :func:`normalize`
is linear in the word length, and ``E_p E_q`` pushes the code word of
``q`` onto the code word of ``p``.

Every result of :func:`normalize` and of :func:`multiply_perms` carries
one certificate: the reduced word is cross-checked against the code word
of its permutation, and the two must be equal as traces.  Trace equality
compares Cartier-Foata normal forms, encoded as one sorted key per word
(see :func:`_trace_key`), so a silently wrong reduction cannot escape.
The certificate uses the rank-indexed key ``_trace_key(word, n)``: both
words have letters in ``1..n-1`` (the pushed letters are checked, and
every run of a code word lies there), so the layers fit a list of
``n + 1`` entries indexed by letter, and ``layer * (n + 1) + letter``
encodes each pair one to one.

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
from collections import defaultdict
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
    """Lehmer-style code: ``c_i = #{j < i : p^-1(j) > p^-1(i)}``."""
    # c_v counts the smaller values right of v: read p from the right,
    # keeping the values passed so far sorted.
    out = [0] * len(p)
    passed: list[int] = []
    for v in reversed(p):
        c = bisect.bisect_left(passed, v)
        out[v - 1] = c
        passed.insert(c, v)
    return tuple(out)


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
    """Evaluate a generator word as a product of simple transpositions."""
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def check_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    word = tuple(word)
    for v in word:
        if not 1 <= v <= n - 1:
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
    assigns every layer; the layers are read off :func:`_trace_key`.
    """
    if not word:
        return ()
    lo, span, codes = _trace_key(word)
    layers: list[list[int]] = []
    for code in codes:  # sorted by layer, then by letter
        d, v = divmod(code - lo - 1, span)
        if d > len(layers):
            layers.append([])
        layers[-1].append(lo + 1 + v)
    return tuple(map(tuple, layers))


def _trace_key(word: Sequence[int], n: int | None = None):
    """A key equal for two words iff their Cartier-Foata layers are.

    One pass assigns each letter its layer as :func:`cartier_foata` does,
    and one sort orders the ``(layer, letter)`` pairs, each encoded as
    ``layer * span + letter``.  A layer never holds a letter twice, so
    the sorted pairs are the layers.

    With a rank ``n`` the letters must lie in ``1..n-1``, as in every
    word the certificate of :func:`_push_certified` compares.  The depths
    are then a list of ``n + 1`` entries indexed by letter (``v - 1`` and
    ``v + 1`` stay in ``0..n``), ``span`` is ``n + 1``, so the encoding is
    one to one, and the key is the sorted codes alone; keys of one ``n``
    compare.  Without ``n``, the case of the public :func:`cartier_foata`
    and :func:`trace_equal`, the letters may be any integers: the depths
    are a dict, the letters lie in ``(lo, lo + span]``, and the key keeps
    ``lo`` and ``span``, so the encoding is one to one for letters of any
    size.
    """
    if n is None:
        if not word:
            return ()
        lo = min(word) - 1
        span = max(word) - lo
        depth = defaultdict(int)  # value -> layer of its latest occurrence
    else:
        span = n + 1
        depth = [0] * span
    pairs = []
    for v in word:
        d = depth[v - 1]
        e = depth[v]
        if e > d:
            d = e
        e = depth[v + 1]
        if e > d:
            d = e
        d += 1
        depth[v] = d
        pairs.append(d * span + v)
    pairs.sort()
    return pairs if n is not None else (lo, span, tuple(pairs))


def trace_equal(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """Equality of words modulo commutation of distant letters.

    Compares one sorted key per word (:func:`_trace_key`), which is
    equivalent to comparing :func:`cartier_foata` layers.
    """
    return _trace_key(w1) == _trace_key(w2)


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


def _push(w: list[int], letters: Sequence[int], exps: dict[Var, int]) -> None:
    """Append ``E_i`` for each ``i`` of ``letters`` to the irreducible word
    ``w`` in place, counting the reductions into ``exps``.

    Only the appended ``i`` can start a reduction; the last letter ``u``
    of ``w`` within 1 of ``i`` decides which.  ``u = i`` is a square:
    record ``x_i``, drop ``i``.  ``u = i-1`` after a nearest such letter
    ``i`` is a zigzag: record ``y_{i-1}`` and drop ``i`` and ``u``.  No
    letter after ``u`` lies within 1 of ``i``, so the letters after ``u``
    up to the first ``i-2`` commute with ``u``, and dropping ``u`` leaves
    them irreducible; only the later ones can now reduce, so they are
    pushed again.  Otherwise append ``i``.
    """
    todo = list(reversed(letters))
    while todo:
        i = todo.pop()
        lo, hi = i - 1, i + 1
        q = len(w) - 1  # the last letter within 1 of i, or -1
        while q >= 0 and not lo <= w[q] <= hi:
            q -= 1
        u = w[q] if q >= 0 else None
        if u == lo:  # a zigzag needs the letter before u within 1 of i to be i
            r = q - 1
            while r >= 0 and not lo <= w[r] <= hi:
                r -= 1
            if r < 0 or w[r] != i:
                u = None
        if u == i:  # square
            var = ("x", i)
        elif u == lo:  # zigzag
            var = ("y", lo)
            try:
                k = w.index(lo - 1, q + 1)
            except ValueError:
                k = len(w)
            todo += reversed(w[k:])
            del w[k:]
            del w[q]
        else:
            w.append(i)
            continue
        exps[var] = exps.get(var, 0) + 1


def _push_certified(
    w: list[int], letters: Sequence[int], n: int, exps: dict[Var, int]
) -> tuple[Polynomial, Perm, tuple[int, ...]]:
    """Push ``letters`` onto the irreducible word ``w``, then certify it.

    Returns the monomial counted into ``exps``, the permutation of ``w``
    and its code word.  Raises :class:`InternalInvariantError` unless
    ``w`` and the code word are equal as traces; equal words need no
    trace keys.  Both words have letters in ``1..n-1``, the pushed ones
    checked by the caller and the code word's by construction, so the
    rank-indexed :func:`_trace_key` is exact on them.
    """
    _push(w, letters, exps)
    perm = perm_from_word(w, n)
    canonical = word_from_code(perm)
    if list(canonical) != w and _trace_key(w, n) != _trace_key(canonical, n):
        raise InternalInvariantError(
            f"irreducible word {tuple(w)} is not the code word of {perm}"
        )
    return Polynomial._from_sorted({tuple(sorted(exps.items())): 1}), perm, canonical


def _multiply_code_words(
    wp: Sequence[int], wq: Sequence[int], n: int
) -> tuple[Polynomial, Perm]:
    """``E_p E_q`` from the code words ``wp`` of ``p`` and ``wq`` of ``q``.

    The product of :func:`multiply_perms`, with its certificate, for a
    caller that multiplies each operand many times and so reads its code
    word once.
    """
    coeff, perm, _ = _push_certified(list(wp), wq, n, {})
    return coeff, perm


def normalize(
    word: Sequence[int],
    n: int | None = None,
    rng: random.Random | None = None,
) -> NormalizationResult:
    """Rewrite ``word`` to the code word of a permutation, exactly.

    Squares contribute ``x_v`` factors, zigzags ``y_{v-1}`` factors, and
    commutations are free.  Without ``rng`` the letters are pushed one
    by one onto the empty word (:func:`_push`), in linear time; with a
    seeded ``random.Random`` the reference engine picks at random among
    all reductions of the whole word (:func:`_reduction_candidates`).
    Confluence makes the result independent of the engine, and the final
    trace is verified to equal the trace of the returned code word.

    >>> normalize((1, 1)).coefficient
    x1
    >>> normalize((2, 1, 2)).word
    (2,)
    """
    if n is None:
        n = max(word, default=0) + 1
    word = check_word(word, n)
    exps: dict[Var, int] = {}
    if rng is None:
        w: list[int] = []
        letters = word
    else:
        w, letters = list(word), ()
        while cands := _reduction_candidates(w):
            v, p, kind, q, r = rng.choice(cands)
            var = ("x", v) if kind == 0 else ("y", v - 1)
            exps[var] = exps.get(var, 0) + 1
            del w[r]
            if kind == 1:
                del w[q]
    coeff, perm, canonical = _push_certified(w, letters, n, exps)
    return NormalizationResult(n, coeff, canonical, perm)


def multiply_words(
    w1: Sequence[int], w2: Sequence[int], n: int | None = None
) -> NormalizationResult:
    """Normal form of the concatenation; the structure-constant oracle."""
    return normalize(tuple(w1) + tuple(w2), n)


def multiply_perms(p: Perm, q: Perm) -> tuple[Polynomial, Perm]:
    """Structure constants of the basis: ``E_p E_q = coeff * E_result``.

    Pushes ``q``'s code word onto ``p``'s, as :func:`normalize` pushes a
    word onto the empty one; ``p``'s code word is irreducible, so the
    push agrees with :func:`multiply_words` by confluence.  The result
    carries one certificate for the whole product.

    >>> multiply_perms((2, 1, 3), (2, 1, 3))
    (x1, (2, 1, 3))
    >>> multiply_perms((1, 3, 2), (2, 3, 1))  # E_2 E_1 E_2 = y_1 E_2
    (y1, (1, 3, 2))
    """
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    return _multiply_code_words(word_from_code(p), word_from_code(q), len(p))


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
