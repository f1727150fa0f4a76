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

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from . import diagrams as dg
from ._immutable import Immutable
from .errors import InternalInvariantError, PropagatingMismatchError, RankMismatchError
from .fibonacci import (
    FibonacciSet,
    dominance_leq,
    enumerate_yfs,
    free_set,
)
from .polynomials import Polynomial, Var
from .rewriting import (
    Perm,
    diagram_to_perm,
    identity_perm,
    multiply_perms,
    normalize,
    perm_compose,
    perm_from_word,
    perm_length,
    perm_to_diagram,
)

__all__ = [
    "AlgebraElement",
    "free_half_diagram",
    "free_diagram",
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
]


class AlgebraElement:
    """A finite formal sum of basis permutations with polynomial coefficients."""

    __slots__ = ("rank", "_coeffs")

    def __init__(self, rank: int, coeffs: Mapping[Perm, Polynomial] | None = None):
        self.rank = rank
        clean: dict[Perm, Polynomial] = {}
        if coeffs:
            for p, c in coeffs.items():
                if len(p) != rank:
                    raise RankMismatchError(f"basis index {p} does not have rank {rank}")
                c = c if isinstance(c, Polynomial) else Polynomial.integer(c)
                if c:
                    clean[p] = c
        self._coeffs = clean

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
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, Polynomial.zero()) + c
        return AlgebraElement(self.rank, out)

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
        out: dict[Perm, Polynomial] = {}
        for p, cp in self._coeffs.items():
            for q, cq in other._coeffs.items():
                coeff, r = multiply_perms(p, q)
                add = cp * cq * coeff
                out[r] = out.get(r, Polynomial.zero()) + add
        return AlgebraElement(self.rank, out)

    __rmul__ = scaled

    def specialize(self, values: Mapping[Var, int | Fraction]) -> "AlgebraElement":
        return AlgebraElement(
            self.rank, {p: c.specialize(values) for p, c in self._coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"AlgebraElement({self.rank}: 0)"
        parts = [f"({c})*E{list(p)}" for p, c in self.coefficients()]
        return f"AlgebraElement({self.rank}: " + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# free elements


def free_half_diagram(s: FibonacciSet) -> dg.HalfArcDiagram:
    """Half diagram of the free element: half arcs ``h(x) = x`` on ``s``,
    cups ``h(i, i+1) = i`` on the free set."""
    partner = [-1] * s.rank
    height: list[int | None] = [None] * s.rank
    for x in s.elements:
        height[x - 1] = x
    for i in free_set(s):
        partner[i - 1], partner[i] = i, i - 1
        height[i - 1] = height[i] = i
    return dg._half_from_arrays(s.rank, partner, height)


def free_diagram(s: FibonacciSet) -> dg.ArcDiagram:
    """Diagram of the free element: bra and ket both equal the free half."""
    h = free_half_diagram(s)
    return dg.glue(h, h)


def free_involution(s: FibonacciSet) -> Perm:
    """Product of the commuting simple transpositions over the free set."""
    p = list(range(1, s.rank + 1))
    for i in free_set(s):
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def free_element(s: FibonacciSet) -> AlgebraElement:
    """Product of the commuting generators over the free set of ``s``."""
    return AlgebraElement.from_perm(free_involution(s))


# ---------------------------------------------------------------------------
# ideals


def ideal_basis(s: FibonacciSet) -> tuple[Perm, ...]:
    """Basis permutations of the two-sided ideal generated by the free element.

    Computed as the support closure of the free diagram under left and
    right multiplication by the generator diagrams (structure constants
    are nonzero monomials, so support closure is the ideal's basis).
    """
    n = s.rank
    gens = [dg.generator(i, n) for i in range(1, n)]
    seed = free_diagram(s)
    seen = {seed}
    frontier = [seed]
    while frontier:
        d = frontier.pop()
        for g in gens:
            for nxt, _ in (dg.compose(d, g), dg.compose(g, d)):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return tuple(sorted(diagram_to_perm(d) for d in seen))


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

    __slots__ = ("rank", "poset", "index_sets", "involution")

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
        _set_cell_rank(self, rank)
        _set_cell_poset(self, poset)
        _set_cell_index_sets(self, index_sets)
        _set_cell_involution(self, involution)

    def basis_diagram(
        self, s: FibonacciSet, left: dg.HalfArcDiagram, right: dg.HalfArcDiagram
    ) -> dg.ArcDiagram:
        if dg.prop_lab(left) != s or dg.prop_lab(right) != s:
            raise PropagatingMismatchError(f"halves do not both have labels {s}")
        return dg.glue(left, right)

    def __eq__(self, other) -> bool:
        if other.__class__ is not CellDatum:
            return NotImplemented
        return (self.rank, self.poset, self.index_sets, self.involution) == (
            other.rank, other.poset, other.index_sets, other.involution
        )

    def __hash__(self) -> int:  # raises TypeError: ``index_sets`` is a dict
        return hash((self.rank, self.poset, self.index_sets, self.involution))

    def __reduce__(self):
        return CellDatum, (self.rank, self.poset, self.index_sets, self.involution)

    def __repr__(self) -> str:
        return (
            f"CellDatum(rank={self.rank!r}, poset={self.poset!r}, "
            f"index_sets={self.index_sets!r}, involution={self.involution!r})"
        )


_set_cell_rank = CellDatum.rank.__set__
_set_cell_poset = CellDatum.poset.__set__
_set_cell_index_sets = CellDatum.index_sets.__set__
_set_cell_involution = CellDatum.involution.__set__


def cell_datum(n: int) -> CellDatum:
    """The cellular description of the rank-``n`` algebra."""
    poset = enumerate_yfs(n)
    index_sets = {s: dg.enumerate_half(n, s) for s in poset}
    return CellDatum(n, poset, index_sets, dg.mirror)


def cell_action(
    a: AlgebraElement | dg.ArcDiagram,
    h: dg.HalfArcDiagram,
    s: FibonacciSet,
) -> dict[dg.HalfArcDiagram, Polynomial]:
    """Left action of ``a`` on the cell-module basis vector ``h``.

    ``a . h`` is the bra of ``a * glue(h, h)`` when the product keeps
    propagating labels ``s``, and zero when the labels drop.
    """
    if dg.prop_lab(h) != s:
        raise PropagatingMismatchError(f"{h} does not have propagating labels {s}")
    if isinstance(a, dg.ArcDiagram):
        a = AlgebraElement.from_diagram(a)
    hh = AlgebraElement.from_diagram(dg.glue(h, h))
    out: dict[dg.HalfArcDiagram, Polynomial] = {}
    for p, c in (a * hh).coefficients():
        d = perm_to_diagram(p)
        if dg.prop_lab(d) == s:
            key = dg.bra(d)
            out[key] = out.get(key, Polynomial.zero()) + c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _perm_of_diagram_cached(d: dg.ArcDiagram) -> Perm:
    return diagram_to_perm(d)


def gram_matrix(s: FibonacciSet) -> tuple[tuple[Polynomial, ...], ...]:
    """Gram matrix of the invariant form on the cell module of ``s``.

    Entry ``(i, j)`` is the coefficient ``phi(R_i, L_j)`` defined by
    ``C_{L,R_i} * C_{L_j,R} = phi(R_i, L_j) * C_{L,R}`` modulo diagrams
    with strictly dominated propagating labels; rows and columns follow
    ``enumerate_half(n, s)``.
    """
    n = s.rank
    halves = dg.enumerate_half(n, s)
    ref = halves[0]
    rows = []
    for r_half in halves:
        left_perm = _perm_of_diagram_cached(dg.glue(ref, r_half))
        row = []
        for l_half in halves:
            right_perm = _perm_of_diagram_cached(dg.glue(l_half, ref))
            coeff, prod = multiply_perms(left_perm, right_perm)
            d = perm_to_diagram(prod)
            lab = dg.prop_lab(d)
            if lab == s:
                if d != dg.glue(ref, ref):
                    raise InternalInvariantError(
                        f"cellular product at {s} landed on {d!r}"
                    )
                row.append(coeff)
            elif dominance_leq(lab, s):
                row.append(Polynomial.zero())
            else:
                raise InternalInvariantError(
                    f"product at {s} raised propagating labels to {lab}"
                )
        rows.append(tuple(row))
    return tuple(rows)


# Largest cell dimension ``gram_det`` expands: Leibniz sums d! products,
# about 3 s at dimension 8.
GRAM_DET_MAX_DIM = 8


def gram_det(s: FibonacciSet) -> Polynomial:
    """Symbolic determinant of the Gram matrix (Leibniz; cells up to
    dimension ``GRAM_DET_MAX_DIM``)."""
    m = gram_matrix(s)
    d = len(m)
    if d > GRAM_DET_MAX_DIM:
        raise ValueError(f"cell of dimension {d} too large for the symbolic determinant")
    import itertools

    total = Polynomial.zero()
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial.integer(sign)
        for i in range(d):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def gram_det_specialized(
    s: FibonacciSet, values: Mapping[Var, int | Fraction]
) -> Fraction:
    """Exact determinant of the Gram matrix at a full specialization."""
    m = [
        [Fraction(entry.specialize(values).constant_value()) for entry in row]
        for row in gram_matrix(s)
    ]
    d = len(m)
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, d):
            factor = m[r][col] * inv
            if factor:
                for cc in range(col, d):
                    m[r][cc] -= factor * m[col][cc]
    return det
