"""Sparse multivariate polynomials with exact integer coefficients.

Variables are pairs ``("x", i)`` or ``("y", i)`` (an ``int`` ``i >= 1``)
for the Okada algebra parameters ``x_i`` and ``y_i``.  A polynomial maps
exponent tuples to coefficients; zero coefficients and exponents are
never stored, and no float is ever taken in.  Terms are ordered graded
lexicographically (total degree first) wherever an order matters.

Structure constants of the algebra are single monomials, so most values
flowing through the library have one term, but the full ring operations
are supported.

>>> x1 = Polynomial.variable("x", 1)
>>> (x1 * x1 + x1) - x1 == x1 ** 2
True
>>> (x1 + 1).specialize({("x", 1): 1}).constant_value()
2
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["Var", "Polynomial", "x_var", "y_var"]

Var = tuple[str, int]
Term = tuple[tuple[Var, int], ...]  # ((var, exponent), ...) sorted by var


def _mul_terms(a: Term, b: Term) -> Term:
    """The product of two terms: one merge of their ``(var, exp)`` pairs,
    both sorted by variable as every stored term is."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        (va, ea), (vb, eb) = a[i], b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _checked_var(v) -> Var:
    if not (isinstance(v, tuple) and len(v) == 2 and v[0] in ("x", "y") and type(v[1]) is int and v[1] >= 1):
        raise ValueError(f"bad variable {v!r}")
    return v


def _check_exact(value, what: str) -> None:
    if not isinstance(value, int):
        from fractions import Fraction  # imported here: few values are rational

        if not isinstance(value, Fraction):
            raise ValueError(f"{what} {value!r} is not an int or a Fraction")


def _term_sort_key(term: Term):
    return (sum(e for _, e in term), term)


class Polynomial:
    """Immutable sparse polynomial over the integers (or exact rationals).

    Every constructor refuses here, with ``ValueError``, a variable other
    than ``("x", i)`` or ``("y", i)`` with an ``int`` (not ``bool``) ``i >= 1``,
    an exponent other than a non-negative ``int`` (a zero one is dropped,
    so ``x1^0`` is 1), and a coefficient other than an ``int`` or a ``Fraction``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        # Every stored term holds each variable once with a positive exponent,
        # sorted by variable, which ==, repr and the term product rely on.
        clean: dict[Term, int] = {}
        for t, c in (terms or {}).items():
            _check_exact(c, "coefficient")
            exps: dict[Var, int] = {}
            for v, e in t:
                v = _checked_var(v)
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponent {e!r} of {v[0]}{v[1]} is not a non-negative int")
                exps[v] = exps.get(v, 0) + e
            t = tuple(sorted((v, e) for v, e in exps.items() if e))
            clean[t] = clean.get(t, 0) + c
        self._terms = {t: c for t, c in clean.items() if c}

    @classmethod
    def _from_sorted(cls, terms: Mapping[Term, int]) -> "Polynomial":
        """The polynomial of ``terms`` already sorted by variable, as every product
        and sum of stored terms is: unchecked, only zero coefficients are dropped."""
        out = cls.__new__(cls)
        out._terms = {t: c for t, c in terms.items() if c}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): 1})

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, kind: str, index: int) -> "Polynomial":
        return cls({(((kind, index), 1),): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[Var, int], coeff: int = 1) -> "Polynomial":
        return cls({tuple(exponents.items()): coeff})

    @classmethod
    def sum(cls, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, added in place into one dict of terms.

        Linear in the number of terms, where folding ``+`` copies every
        term so far on each addition.

        >>> x1 = Polynomial.variable("x", 1)
        >>> Polynomial.sum([x1, x1 * x1, -x1, Polynomial.integer(2)])
        x1^2 + 2
        """
        out: dict[Term, int] = {}
        for p in polys:
            for t, c in p._terms.items():
                out[t] = out.get(t, 0) + c
        return cls._from_sorted(out)

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        try:
            return Polynomial({(): value})
        except ValueError:  # not an int or a Fraction
            return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for t, c in other._terms.items():
            out[t] = out.get(t, 0) + c
        return Polynomial._from_sorted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_sorted({t: -c for t, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)  # NotImplemented, not a recursion, for a value it refuses

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Term, int] = {}
        for ta, ca in self._terms.items():
            for tb, cb in other._terms.items():
                t = _mul_terms(ta, tb)
                out[t] = out.get(t, 0) + ca * cb
        return Polynomial._from_sorted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[Term, int], ...]:
        """Terms sorted graded-lexicographically, leading term last."""
        return tuple(sorted(self._terms.items(), key=lambda tc: _term_sort_key(tc[0])))

    def variables(self) -> set[Var]:
        return {v for t in self._terms for v, _ in t}

    def monomial_parts(self) -> tuple[int, Term]:
        """Return ``(coefficient, term)``; raises unless one term."""
        if len(self._terms) != 1:
            raise ValueError(f"not a monomial: {self!r}")
        ((t, c),) = self._terms.items()
        return c, t

    def constant_value(self):
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        raise ValueError(f"not a constant: {self!r}")

    def total_degree(self) -> int:
        return max((sum(e for _, e in t) for t in self._terms), default=0)

    def specialize(self, values: Mapping[Var, int | Fraction]) -> "Polynomial":
        """Substitute values, each an ``int`` or a ``Fraction``, for the listed variables."""
        for value in values.values():
            _check_exact(value, "specialization value")
        out: dict[Term, int | Fraction] = {}
        for t, c in self._terms.items():
            scale: int | Fraction = c
            rest = []
            for v, e in t:
                if v in values:
                    scale *= values[v] ** e
                else:
                    rest.append((v, e))
            key = tuple(rest)
            out[key] = out.get(key, 0) + scale
        return Polynomial._from_sorted(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for t, c in reversed(self.terms()):
            factors = [f"{v[0]}{v[1]}" + (f"^{e}" if e > 1 else "") for v, e in t]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def x_var(i: int) -> Polynomial:
    """The parameter ``x_i`` as a polynomial."""
    return Polynomial.variable("x", i)


def y_var(i: int) -> Polynomial:
    """The parameter ``y_i`` as a polynomial."""
    return Polynomial.variable("y", i)
