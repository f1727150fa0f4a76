from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from okada.polynomials import Polynomial, x_var, y_var


def _random_poly(draw_terms):
    p = Polynomial.zero()
    for coeff, exps in draw_terms:
        p = p + Polynomial.monomial(
            {("x", i + 1): e for i, e in enumerate(exps) if e}, coeff
        )
    return p


poly_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    ),
    max_size=4,
).map(_random_poly)


def test_basic_examples():
    x1 = x_var(1)
    assert x1 * x1 == x1 ** 2
    assert (x1 + y_var(1)) * 0 == Polynomial.zero()
    assert not (x1 - x1)
    m = Polynomial.monomial({("x", 2): 3, ("y", 1): 1}, 2)
    assert m.specialize({("x", 2): 1, ("y", 1): 1}).constant_value() == 2


def test_specialize_all_to_one_gives_one():
    m = x_var(1) * x_var(3) ** 2 * y_var(2)
    values = {v: 1 for v in m.variables()}
    assert m.specialize(values) == Polynomial.one()


def test_partial_specialization():
    p = x_var(1) * y_var(1) + y_var(1) ** 2
    q = p.specialize({("y", 1): 1})
    assert q == x_var(1) + 1


def test_monomial_parts():
    c, term = (3 * x_var(2)).monomial_parts()
    assert c == 3 and term == ((("x", 2), 1),)
    with pytest.raises(ValueError):
        (x_var(1) + x_var(2)).monomial_parts()


def test_fraction_specialization_is_exact():
    p = x_var(1) ** 2 - y_var(1)
    v = p.specialize({("x", 1): Fraction(1, 3), ("y", 1): Fraction(1, 9)})
    assert v.constant_value() == 0


def test_term_order_is_graded_lex_deterministic():
    p = x_var(2) + x_var(1) * x_var(2) + 1
    degrees = [sum(e for _, e in t) for t, _ in p.terms()]
    assert degrees == sorted(degrees)
    assert repr(p) == repr(x_var(1) * x_var(2) + x_var(2) + 1)


@settings(deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a
    assert a * Polynomial.one() == a


@settings(deadline=None)
@given(poly_strategy)
def test_no_zero_terms_are_stored(a):
    diff = a - a
    assert diff == Polynomial.zero()
    assert not diff.terms()


@settings(deadline=None)
@given(st.lists(poly_strategy, max_size=6))
def test_sum_equals_folded_addition(polys):
    folded = Polynomial.zero()
    for p in polys + [-p for p in polys[:2]]:
        folded = folded + p
    total = Polynomial.sum(polys + [-p for p in polys[:2]])
    assert total == folded
    assert total.terms() == folded.terms()
