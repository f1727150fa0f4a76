import random
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


@pytest.mark.parametrize("value", [0.1, 1.0, "1", None])
def test_specialize_refuses_an_inexact_value(value):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        (x_var(1) + y_var(1)).specialize({("x", 1): value, ("y", 1): 1})


def test_fraction_specialization_is_exact():
    p = x_var(1) ** 2 - y_var(1)
    v = p.specialize({("x", 1): Fraction(1, 3), ("y", 1): Fraction(1, 9)})
    assert v.constant_value() == 0


@pytest.mark.parametrize("build", [
    lambda: Polynomial({(): 0.5}),
    lambda: Polynomial.integer(1.5),
    lambda: Polynomial.monomial({("x", 1): 1}, 0.25),
], ids=["init", "integer", "monomial"])
def test_constructors_refuse_inexact_coefficients(build):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        build()


@pytest.mark.parametrize("var", [("z", 1), ("x", 0), ("x", 1.5), ("x", True)])
def test_monomial_refuses_a_bad_variable(var):
    with pytest.raises(ValueError, match="bad variable"):
        Polynomial.monomial({var: 1})
    with pytest.raises(ValueError, match="bad variable"):
        Polynomial.variable(*var)


@pytest.mark.parametrize("exponent", [-1, 0.5, 1.0])
def test_constructors_refuse_a_bad_exponent(exponent):
    # Each of these printed as x1 and yet differed from x_var(1).
    for build in (lambda: Polynomial({((("x", 1), exponent),): 1}),
                  lambda: Polynomial.monomial({("x", 1): exponent})):
        with pytest.raises(ValueError, match="is not a non-negative int"):
            build()
    assert Polynomial({((("x", 1), 0),): 1}) == Polynomial.one()
    assert Polynomial.monomial({("x", 1): 0, ("y", 2): 1}) == y_var(2)


def test_a_number_minus_a_polynomial():
    # a value the ring refuses once recursed in __rsub__ until RecursionError
    p = x_var(1) + 2
    assert 3 - p == Polynomial.integer(3) - p == -x_var(1) + 1
    assert Fraction(1, 2) - p == -x_var(1) - Fraction(3, 2)
    for value in ("a", 1.5):
        with pytest.raises(TypeError, match="unsupported operand"):
            value - p


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


def _mul_terms_oracle(a, b):
    # add the exponents in a dict, then sort by variable
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def test_mul_terms_is_the_dict_and_sort_product():
    from okada.polynomials import _mul_terms

    rng = random.Random(17)
    pool = [(kind, i) for kind in "xy" for i in range(1, 7)]

    def term(variables):
        return tuple((v, rng.randint(1, 4)) for v in sorted(variables))

    cases = [((), ()), ((), term(pool[:2])), (term(pool[3:5]), ())]
    for _ in range(3000):
        a = rng.sample(pool, rng.randint(0, 6))
        shape = rng.randrange(3)  # shared variables, disjoint ones, or any
        if shape == 0:
            b = a[: rng.randint(0, len(a))] + rng.sample(pool, rng.randint(0, 3))
        elif shape == 1:
            b = rng.sample([v for v in pool if v not in a], rng.randint(0, 6))
        else:
            b = rng.sample(pool, rng.randint(0, 6))
        cases.append((term(a), term(set(b))))
    shared = disjoint = 0
    for a, b in cases:
        assert _mul_terms(a, b) == _mul_terms_oracle(a, b), (a, b)
        overlap = {v for v, _ in a} & {v for v, _ in b}
        shared += bool(overlap)
        disjoint += bool(a and b and not overlap)
    assert min(shared, disjoint) > 500


def test_terms_are_stored_in_variable_order():
    # the constructor sorts each term, so == and products do not depend
    # on the order its caller listed the variables in
    xy, yx = ((("x", 1), 1), (("y", 1), 2)), ((("y", 1), 2), (("x", 1), 1))
    p = Polynomial({yx: 3})
    assert p == x_var(1) * y_var(1) ** 2 * 3 and p.terms() == ((xy, 3),)
    x2y2 = ((("x", 1), 2), (("y", 1), 2))
    assert (p * x_var(1)).terms() == ((x2y2, 3),)
    assert Polynomial({xy: 1, yx: 2}) == Polynomial({xy: 3})
    assert Polynomial({xy: 1, yx: -1}) == Polynomial.zero()


def test_polynomial_from_sorted_terms_is_an_ordinary_polynomial():
    from okada.rewriting import multiply_perms, normalize

    built = Polynomial._from_sorted({((("x", 1), 2), (("y", 3), 1)): 1})
    assert built == Polynomial.monomial({("y", 3): 1, ("x", 1): 2})
    assert hash(built) == hash(Polynomial.monomial({("y", 3): 1, ("x", 1): 2}))
    one = Polynomial._from_sorted({(): 1})
    assert one == Polynomial.one() and hash(one) == hash(Polynomial.one())
    assert repr(built * one) == "x1^2*y3"
    for coeff in (normalize((1, 2), 3).coefficient, multiply_perms((2, 1, 3), (1, 3, 2))[0]):
        assert coeff == Polynomial.one() and hash(coeff) == hash(Polynomial.one())
        assert coeff.terms() == Polynomial.one().terms()
