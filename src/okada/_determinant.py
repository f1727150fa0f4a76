"""Exact determinants of polynomial matrices.

Two determinants of one square matrix: :func:`polynomial_det`, the
symbolic determinant, and :func:`specialized_det`, the determinant at a
rational point.  The library determinants
:func:`okada.algebra.gram_det` and
:func:`okada.algebra.gram_det_specialized` import this module when
first called, and ``okada gram`` imports it only for ``--det`` or
``--specialize``, so processes that never take a determinant do not
compile it.  The ``selftest`` checks compare the two on every small
Gram matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .polynomials import Polynomial, Var

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["polynomial_det", "specialized_det"]


def polynomial_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact, division-free determinant of a square polynomial matrix.

    Laplace expansion along the rows with memoized minors, a dynamic
    program over column subsets: after ``r`` rows, ``partial[mask]`` is
    the signed sum of the products that send rows ``0 .. r-1`` onto the
    columns in ``mask``.  Row ``r`` taking the free column ``c`` brings
    the sign ``(-1)^#{used columns > c}``.  Zero entries are skipped and
    partials that cancel to zero are dropped, so at most
    ``C(d, d // 2)`` partials are alive at once.

    Inside the loop a monomial is one integer with a bit field per
    variable, wide enough that no exponent of a product of one entry per
    row can spill into the next field, so multiplying monomials is
    adding integers.  The result is unpacked into a ``Polynomial`` once.

    >>> from okada.polynomials import x_var, y_var
    >>> one = Polynomial.one()
    >>> polynomial_det(((x_var(1), one), (one, y_var(1))))
    x1*y1 - 1
    """
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise ValueError(f"matrix with {d} rows is not square")
    variables = sorted({v for row in matrix for entry in row for v in entry.variables()})
    bound = sum(max(entry.total_degree() for entry in row) for row in matrix)
    width = max(bound, 1).bit_length()
    shift = {v: k * width for k, v in enumerate(variables)}
    rows = [
        [
            (1 << c, c + 1, [(sum(e << shift[v] for v, e in t), k) for t, k in entry.terms()])
            for c, entry in enumerate(row)
            if entry
        ]
        for row in matrix
    ]
    partial: dict[int, dict[int, int]] = {0: {0: 1}}
    for entries in rows:
        nxt: dict[int, dict[int, int]] = {}
        for mask, value in partial.items():
            for bit, above, terms in entries:
                if mask & bit:
                    continue
                acc = nxt.setdefault(mask | bit, {})
                sign = -1 if (mask >> above).bit_count() & 1 else 1
                for em, ek in terms:
                    ek *= sign
                    for pm, pk in value.items():
                        key = pm + em
                        acc[key] = acc.get(key, 0) + pk * ek
        partial = {}
        for mask, acc in nxt.items():
            acc = {m: k for m, k in acc.items() if k}
            if acc:
                partial[mask] = acc
    field = (1 << width) - 1
    out = {}
    for code, k in partial.get((1 << d) - 1, {}).items():
        out[tuple((v, (code >> shift[v]) & field) for v in variables)] = k
    return Polynomial(out)


def specialized_det(matrix: Sequence[Sequence[Polynomial]], values: Mapping[Var, int | Fraction]) -> Fraction:
    """Exact determinant of a polynomial matrix at a full specialization.

    Each distinct entry is specialized once, then Gaussian elimination
    over ``Fraction`` swaps in the first nonzero pivot of each column and
    returns 0 when a column has none.  ``values`` must give every
    variable of the matrix.

    >>> from fractions import Fraction
    >>> from okada.polynomials import x_var, y_var
    >>> one = Polynomial.one()
    >>> point = {("x", 1): 3, ("y", 1): Fraction(1, 2)}
    >>> specialized_det(((x_var(1), one), (one, y_var(1))), point)
    Fraction(1, 2)
    """
    from fractions import Fraction  # imported here: only a specialization needs the rationals
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise ValueError(f"matrix with {d} rows is not square")
    distinct = {entry for row in matrix for entry in row}
    at = {e: Fraction(e.specialize(values).constant_value()) for e in distinct}
    m = [[at[entry] for entry in row] for row in matrix]
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
