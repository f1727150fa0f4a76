"""The rank-``n`` Okada algebra over the exact polynomial ring.

Elements are finite sums ``sum_p c_p E_p`` indexed by permutations (the
monomial basis; equivalently arc diagrams through the evaluation map).
Multiplication extends the word-level structure constants bilinearly and
stays exact: every structure constant is a single monomial in the
``x``/``y`` parameters.

On top of the product this module builds the structure theory: free
elements indexed by Fibonacci sets, the two-sided ideals they generate,
the triangular factorization ``E_s = E_r E_S E_t``, the cellular basis
``glue(L, R)`` over the dominance poset with the mirror involution, cell
modules, and Gram matrices of the invariant bilinear forms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from . import diagrams as dg
from ._immutable import Immutable
from .diagrams import free_diagram, free_half_diagram
from .errors import InternalInvariantError, PropagatingMismatchError, RankMismatchError
from .fibonacci import FibonacciSet, chain_count, dominance_leq, free_set
from .polynomials import Polynomial, Var
from .rewriting import (
    Perm,
    _multiply_code_words,
    _runs,
    diagram_to_perm,
    identity_perm,
    multiply_perms,  # noqa: F401  (perfbench's tracer test wraps it as algebra.multiply_perms)
    normalize,
    perm_compose,
    perm_from_word,
    perm_inverse,
    perm_length,
    perm_to_diagram,
    word_from_code,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "AlgebraElement",
    "free_element",
    "free_involution",
    "ideal_basis",
    "triangular_factorization",
    "CellDatum",
    "cell_datum",
    "cell_action",
    "gram_matrix",
    "gram_det",
    "gram_det_specialized",
    "specialization_point",
]


class AlgebraElement(Immutable):
    """A finite formal sum of basis permutations with polynomial coefficients.

    Equal when rank and coefficients agree; not hashable, since the
    coefficients are a dict.
    """

    __slots__ = _fields = ("rank", "_coeffs")

    def __init__(self, rank: int, coeffs: Mapping[Perm, Polynomial] | None = None):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        clean: dict[Perm, Polynomial] = {}
        if coeffs:
            for p, c in coeffs.items():
                if len(p) != rank:
                    raise RankMismatchError(f"basis index of length {len(p)} does not have rank {rank}")
                c = c if isinstance(c, Polynomial) else Polynomial.integer(c)
                if c:
                    clean[p] = c
        self._fill(rank, clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "AlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "AlgebraElement":
        return cls.from_perm(identity_perm(rank))

    @classmethod
    def from_perm(cls, p: Perm, coeff: Polynomial | int = 1) -> "AlgebraElement":
        return cls(len(p), {tuple(p): coeff})

    @classmethod
    def generator(cls, i: int, rank: int) -> "AlgebraElement":
        if not 1 <= i <= rank - 1:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        return cls.from_perm(perm_from_word((i,), rank))

    @classmethod
    def from_word(cls, word: Iterable[int], rank: int) -> "AlgebraElement":
        r = normalize(tuple(word), rank)
        return cls.from_perm(r.perm, r.coefficient)

    @classmethod
    def from_diagram(cls, d: dg.ArcDiagram, coeff: Polynomial | int = 1) -> "AlgebraElement":
        return cls.from_perm(diagram_to_perm(d), coeff)

    # -- structure ---------------------------------------------------------

    def coefficients(self) -> tuple[tuple[Perm, Polynomial], ...]:
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, p: Perm) -> Polynomial:
        return self._coeffs.get(tuple(p), Polynomial.zero())

    def support(self) -> tuple[Perm, ...]:
        return tuple(sorted(self._coeffs))

    def diagram_terms(self) -> tuple[tuple[dg.ArcDiagram, Polynomial], ...]:
        """The element in the diagram basis (via the evaluation bijection)."""
        return tuple((perm_to_diagram(p), c) for p, c in self.coefficients())

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatchError(f"ranks {self.rank} and {other.rank} differ")
        return AlgebraElement(
            self.rank, _sum_by_key([*self._coeffs.items(), *other._coeffs.items()])
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scaled(-1)

    def scaled(self, c: Polynomial | int) -> "AlgebraElement":
        c = c if isinstance(c, Polynomial) else Polynomial.integer(c)
        return AlgebraElement(self.rank, {p: q * c for p, q in self._coeffs.items()})

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Polynomial)):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatchError(f"ranks {self.rank} and {other.rank} differ")
        # The runs of each left operand and the code word of each right one
        # are read once.  The structure constant is one term, so
        # multiplying it into cp first leaves one full product.
        n = self.rank
        right = [(word_from_code(q), cq) for q, cq in other._coeffs.items()]
        terms = []
        for p, cp in self._coeffs.items():
            bot = _runs(p)
            for wq, cq in right:
                coeff, r = _multiply_code_words(p, bot, wq)
                terms.append((r, (coeff * cp) * cq))
        return AlgebraElement(n, _sum_by_key(terms))

    __rmul__ = scaled

    def specialize(self, values: Mapping[Var, int | Fraction]) -> "AlgebraElement":
        return AlgebraElement(
            self.rank, {p: c.specialize(values) for p, c in self._coeffs.items()}
        )

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"AlgebraElement({self.rank}: 0)"
        parts = [f"({c})*E{list(p)}" for p, c in self.coefficients()]
        return f"AlgebraElement({self.rank}: " + " + ".join(parts) + ")"


def _sum_by_key(terms: Iterable[tuple[object, Polynomial]]) -> dict:
    """The polynomials of each key summed by :meth:`Polynomial.sum`, keys in first-seen order."""
    groups: dict[object, list[Polynomial]] = {}
    for key, c in terms:
        groups.setdefault(key, []).append(c)
    return {key: Polynomial.sum(cs) for key, cs in groups.items()}


# ---------------------------------------------------------------------------
# free elements


def free_involution(s: FibonacciSet) -> Perm:
    """Product of the commuting simple transpositions over the free set."""
    return perm_from_word(free_set(s), s.rank)


def free_element(s: FibonacciSet) -> AlgebraElement:
    """Product of the commuting generators over the free set of ``s``."""
    return AlgebraElement.from_perm(free_involution(s))


# ---------------------------------------------------------------------------
# ideals


def ideal_basis(s: FibonacciSet) -> tuple[Perm, ...]:
    """Basis permutations of the two-sided ideal generated by the free element.

    The ideal is spanned by the diagrams ``glue(L, R)`` of the cells
    ``t`` that lie below ``s`` in the dominance order, so its basis is
    read off those cells of the rank's one layout, each built from its
    halves tied once per end tuple (:func:`~okada.diagrams._rank_cells`).
    """
    perms = []
    for t, halves, ends in dg._rank_cells(s.rank):
        if dominance_leq(t, s):
            perms += map(diagram_to_perm, dg._glue_cell(halves, ends, product(range(len(halves)), repeat=2)))
    return tuple(sorted(perms))


# ---------------------------------------------------------------------------
# triangular factorization


def triangular_factorization(p: Perm) -> tuple[Perm, FibonacciSet, Perm]:
    """The unique ``(r, s, t)`` with ``E_p = E_r * E_s * E_t`` exactly.

    ``s`` is the propagating label set of the diagram ``d`` of ``p``; the
    pair is constrained by the length identity
    ``len(p) = |free_set(s)| + len(r) + len(t)`` (which forces every
    coefficient to stay 1) and by ``s`` being dominated by the meet of
    the propagating sets of ``r`` and ``t``.  Both factors are read off
    ``d`` directly: with ``F`` the free half of ``s`` and ``sigma`` its
    free involution, ``r`` is the permutation of ``glue(bra d, F)``
    times ``sigma`` and ``t`` is ``sigma`` times the permutation of
    ``glue(F, ket d)``.  The result is checked: the diagram product
    ``r * free_diagram(s) * t`` is ``d`` with no loop, the lengths add
    up, and ``s`` lies below the propagating sets of ``r`` and ``t``
    (which is ``s`` below their meet).
    """
    d = perm_to_diagram(p)
    s = dg.prop_lab(d)
    half = free_half_diagram(s)
    sigma = free_involution(s)
    rho = perm_compose(diagram_to_perm(dg.glue(dg.bra(d), half)), sigma)
    tau = perm_compose(sigma, diagram_to_perm(dg.glue(half, dg.ket(d))))
    d_rho, d_tau = perm_to_diagram(rho), perm_to_diagram(tau)
    left, loops_left = dg.compose(d_rho, free_diagram(s))
    prod, loops_right = dg.compose(left, d_tau)
    if prod != d or loops_left or loops_right:
        raise InternalInvariantError(
            f"factors {rho}, {s!r}, {tau} of {p} multiply to {prod!r}"
        )
    if perm_length(p) != len(free_set(s)) + perm_length(rho) + perm_length(tau):
        raise InternalInvariantError(f"factor lengths of {p} do not add up")
    if not (dominance_leq(s, dg.prop_lab(d_rho)) and dominance_leq(s, dg.prop_lab(d_tau))):
        raise InternalInvariantError(f"dominance condition failed for {p}")
    return rho, s, tau


# ---------------------------------------------------------------------------
# cellular structure


class CellDatum(Immutable):
    """Cellular data: dominance poset, index sets, basis map, involution."""

    __slots__ = _fields = ("rank", "poset", "index_sets", "involution")

    rank: int
    poset: tuple[FibonacciSet, ...]  # dominance-ordered index (lex order here)
    index_sets: dict[FibonacciSet, tuple[dg.HalfArcDiagram, ...]]
    involution: Callable[[dg.ArcDiagram], dg.ArcDiagram]

    def __init__(
        self,
        rank: int,
        poset: tuple[FibonacciSet, ...],
        index_sets: dict[FibonacciSet, tuple[dg.HalfArcDiagram, ...]],
        involution: Callable[[dg.ArcDiagram], dg.ArcDiagram],
    ) -> None:
        self._fill(rank, poset, index_sets, involution)

    def basis_diagram(
        self, s: FibonacciSet, left: dg.HalfArcDiagram, right: dg.HalfArcDiagram
    ) -> dg.ArcDiagram:
        if dg.prop_lab(left) != s or dg.prop_lab(right) != s:
            raise PropagatingMismatchError(f"halves do not both have labels {s}")
        return dg.glue(left, right)


def cell_datum(n: int) -> CellDatum:
    """The cellular description of the rank-``n`` algebra."""
    index_sets = {s: halves for s, halves, _ in dg._rank_cells(n)}
    return CellDatum(n, tuple(index_sets), index_sets, dg.mirror)


def cell_action(
    a: AlgebraElement | dg.ArcDiagram,
    h: dg.HalfArcDiagram,
    s: FibonacciSet,
) -> dict[dg.HalfArcDiagram, Polynomial]:
    """Left action of ``a`` on the cell-module basis vector ``h``.

    ``a . h`` is the bra of ``a * glue(h, F)``, with ``F`` the free half
    of ``s``, when the product keeps propagating labels ``s``, and zero
    when the labels drop; the ket plays no part, so any one will do.
    """
    if dg.prop_lab(h) != s:
        raise PropagatingMismatchError(f"{h} does not have propagating labels {s}")
    if isinstance(a, dg.ArcDiagram):
        a = AlgebraElement.from_diagram(a)
    hf = AlgebraElement.from_diagram(dg.glue(h, free_half_diagram(s)))
    terms = []
    for p, c in (a * hf).coefficients():
        d = perm_to_diagram(p)
        if dg.prop_lab(d) == s:
            terms.append((dg.bra(d), c))
    return {k: v for k, v in _sum_by_key(terms).items() if v}


# Unused; kept because perfbench reads its cache statistics by this name.
@lru_cache(maxsize=None)
def _perm_of_diagram_cached(d: dg.ArcDiagram) -> Perm:
    return diagram_to_perm(d)


def gram_matrix(s: FibonacciSet) -> tuple[tuple[Polynomial, ...], ...]:
    """Gram matrix of the invariant form on the cell module of ``s``.

    Entry ``(i, j)`` is the coefficient ``phi(R_i, L_j)`` defined by
    ``C_{L,R_i} * C_{L_j,R} = phi(R_i, L_j) * C_{L,R}`` modulo diagrams
    with strictly dominated propagating labels; rows and columns follow
    ``enumerate_half(n, s)``.  By the cellular axioms ``phi`` does not
    depend on the outer halves ``L`` and ``R``, so every entry is framed
    by the free half ``F`` of ``s``, whose basis words are the shortest
    of the cell.  The form is symmetric under the anti-involution
    ``mirror``, which swaps the halves of every basis diagram and
    reverses products: ``phi(S, T) = phi(T, S)``.  So only the entries
    with ``i <= j`` are computed, and each is mirrored into ``(j, i)``.

    An entry is non-zero exactly when ``glue(L_j, R_i)`` is idempotent in
    the monoid: the middle of its square is ``R_i`` meeting ``L_j``, so
    ``C_{L_j,R_i}^2 = phi(R_i, L_j) C_{L_j,R_i}`` modulo lower cells, and
    with every parameter at 1 a non-zero ``phi``, one monomial, becomes 1.
    So the diagram model's walk :func:`~okada.diagrams._passes`, which
    forms no product, picks the non-zero entries, and only those are
    multiplied, the code word of the right operand pushed onto the runs
    of the left one (:func:`~okada.rewriting._multiply_code_words`).
    Each half is framed once, by ``glue(R_i, F)``, whose mirror
    ``glue(F, R_i)`` has the inverse permutation.

    Checked at run time: every product is certified by the word model,
    and must land on the free involution of ``s``, the permutation of
    ``glue(F, F)``, or ``InternalInvariantError`` is raised, so every
    non-zero entry cross-checks the two models.  Checked in the tests: a
    zero entry forms no product, so that it is zero is checked against a
    table that multiplies every entry, in another frame, with the
    landing read off the product's diagram (``_full_gram_table`` in
    ``tests/test_algebra.py``), over every cell with ``n <= 7`` and, in
    the extended tier, ``n = 8``.
    """
    ((_, halves, ends),) = dg._cells(s.rank, s)
    passes = dg._passes
    free, top = free_half_diagram(s), free_involution(s)
    perms = [diagram_to_perm(dg.glue(h, free)) for h in halves]
    right_words = [word_from_code(p) for p in perms]
    zero = Polynomial.zero()
    rows = [[zero] * len(halves) for _ in halves]
    for i, p in enumerate(perms):
        left = perm_inverse(p)
        left_runs = _runs(left)
        right, right_ends = halves[i], ends[i]
        for j in range(i, len(halves)):
            if passes(halves[j], right, right_ends):
                coeff, prod = _multiply_code_words(left, left_runs, right_words[j])
                if prod != top:
                    raise InternalInvariantError(
                        f"cellular product at {s} landed on {prod}, not on the free involution {top}"
                    )
                rows[i][j] = rows[j][i] = coeff
    return tuple(map(tuple, rows))


# Largest cell dimension ``gram_det`` expands.  The slowest cells at this
# dimension with n <= 8, {}_6, {7}_7 and {7,8}_8, take 0.15-0.25 s each
# on a loaded 2-vCPU x86 host, nearly all of it in the determinant: their
# Gram matrices take 1.5-1.8 ms.
GRAM_DET_MAX_DIM = 15


def gram_det(s: FibonacciSet) -> Polynomial:
    """Symbolic determinant of the Gram matrix of the cell module of ``s``.

    The determinant is the exact subset dynamic program of
    :func:`okada._determinant.polynomial_det`.  Cells over dimension
    ``GRAM_DET_MAX_DIM`` raise ``ValueError`` before the matrix is built.

    >>> from okada.fibonacci import FibonacciSet
    >>> gram_det(FibonacciSet(4, (1, 4)))
    x1*x2*y1 - y1^2
    """
    d = chain_count(s)
    if d > GRAM_DET_MAX_DIM:
        raise ValueError(f"cell of dimension {d} too large for the symbolic determinant")
    from ._determinant import polynomial_det

    return polynomial_det(gram_matrix(s))


def gram_det_specialized(
    s: FibonacciSet, values: Mapping[Var, int | Fraction]
) -> Fraction:
    """Exact determinant of the Gram matrix of ``s`` at a full specialization.

    The Gram matrix goes to :func:`okada._determinant.specialized_det`,
    which specializes each distinct entry once and eliminates over
    ``Fraction``.  ``values`` must give every variable of the matrix.
    Unlike :func:`gram_det`, this accepts a cell of any dimension.
    """
    from ._determinant import specialized_det

    return specialized_det(gram_matrix(s), values)


def specialization_point(n: int, rng) -> dict[Var, Fraction]:
    """Random ``a/b``, ``2 <= a < 100`` and ``1 <= b < 10``, for x1..x(n-1), then y1..y(n-2)."""
    # Imported here: only a specialization needs the rationals.
    from fractions import Fraction

    names = [("x", i) for i in range(1, n)] + [("y", i) for i in range(1, n - 1)]
    return {v: Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for v in names}
