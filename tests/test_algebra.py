import math
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from okada import algebra
from okada import diagrams as dg
from okada.algebra import (
    AlgebraElement,
    cell_action,
    cell_datum,
    free_diagram,
    free_element,
    free_half_diagram,
    free_involution,
    gram_det,
    gram_det_specialized,
    gram_matrix,
    ideal_basis,
    triangular_factorization,
)
from okada.errors import InternalInvariantError, PropagatingMismatchError, RankMismatchError
from okada.fibonacci import (
    FibonacciSet,
    chain_count,
    dominance_leq,
    dominance_meet,
    enumerate_yfs,
    free_set,
)
from okada.polynomials import Polynomial, x_var, y_var
from okada.rewriting import (
    all_perms,
    diagram_to_perm,
    identity_perm,
    multiply_perms,
    perm_length,
    perm_to_diagram,
)

F = FibonacciSet


def E(i, n):
    return AlgebraElement.generator(i, n)


def test_defining_relations_symbolic():
    for n in range(2, 7):
        for i in range(1, n):
            assert E(i, n) * E(i, n) == E(i, n).scaled(x_var(i))
            for j in range(1, n):
                if abs(i - j) >= 2:
                    assert E(i, n) * E(j, n) == E(j, n) * E(i, n)
        for i in range(1, n - 1):
            lhs = E(i + 1, n) * E(i, n) * E(i + 1, n)
            assert lhs == E(i + 1, n).scaled(y_var(i))


def test_unit_and_bilinearity():
    one = AlgebraElement.one(4)
    a = AlgebraElement.from_perm((2, 1, 4, 3), x_var(1)) + AlgebraElement.from_perm((1, 3, 2, 4))
    assert one * a == a and a * one == a
    b = E(2, 4)
    c = E(3, 4)
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        E(1, 3) * E(1, 4)
    with pytest.raises(RankMismatchError):
        AlgebraElement(3, {(1, 2): Polynomial.one()})


def test_associativity_random():
    rng = random.Random(17)
    perms = all_perms(4)
    for _ in range(150):
        a = AlgebraElement.from_perm(rng.choice(perms))
        b = AlgebraElement.from_perm(rng.choice(perms))
        c = AlgebraElement.from_perm(rng.choice(perms))
        assert (a * b) * c == a * (b * c)


def test_cross_model_oracle_small():
    for n in range(1, 5):
        yones = {("y", i): 1 for i in range(1, max(n - 1, 1))}
        diag = {p: perm_to_diagram(p) for p in all_perms(n)}
        for p in diag:
            for q in diag:
                coeff, r = multiply_perms(p, q)
                cx, dres = dg.product_y1(diag[p], diag[q])
                assert dres == diag[r]
                assert coeff.specialize(yones) == cx


def test_cross_model_oracle_sampled_rank6():
    rng = random.Random(66)
    n = 6
    perms = all_perms(n)
    yones = {("y", i): 1 for i in range(1, n - 1)}
    for _ in range(400):
        p, q = rng.choice(perms), rng.choice(perms)
        coeff, r = multiply_perms(p, q)
        cx, dres = dg.product_y1(perm_to_diagram(p), perm_to_diagram(q))
        assert dres == perm_to_diagram(r)
        assert coeff.specialize(yones) == cx


def test_free_element_examples():
    n = 5
    assert free_element(F(n, tuple(range(1, n + 1)))) == AlgebraElement.one(n)
    e = free_element(F(4, ()))
    expected = E(1, 4) * E(3, 4)
    assert e == expected  # E_1 E_3, coefficient 1
    assert free_involution(F(4, ())) == (2, 1, 4, 3)


def test_free_diagram_structure():
    for n in range(1, 9):
        for s in enumerate_yfs(n):
            d = free_diagram(s)
            assert dg.validate(d)
            assert dg.prop_lab(d) == s
            h = free_half_diagram(s)
            assert dg.bra(d) == dg.ket(d) == h
            assert {(a, ht) for a, ht in h.half_arcs} == {(x, x) for x in s.elements}
            assert {(a, b, ht) for a, b, ht in h.full_arcs} == {
                (i, i + 1, i) for i in free_set(s)
            }
            assert perm_to_diagram(free_involution(s)) == d


def test_free_half_diagram_equals_its_checked_rebuild():
    for n in range(11):
        for s in enumerate_yfs(n):
            h = free_half_diagram(s)
            rebuilt = dg.HalfArcDiagram(n, h.full_arcs, h.half_arcs)
            assert rebuilt == h and hash(rebuilt) == hash(h)
            assert (rebuilt.partner, rebuilt.height) == (h.partner, h.height)
            assert dg.validate_half(h)


def test_ideal_basis_top_is_everything():
    for n in range(1, 5):
        assert len(ideal_basis(F(n, tuple(range(1, n + 1))))) == math.factorial(n)


def test_ideal_inclusions_match_dominance():
    # the ideal of S is supported on the dominance down-set of S, so the
    # inclusion order of the ideals coincides with the dominance order
    for n in range(1, 6):
        sets = enumerate_yfs(n)
        bases = {s: set(ideal_basis(s)) for s in sets}
        for s in sets:
            for t in sets:
                assert (bases[s] <= bases[t]) == dominance_leq(s, t)
        for s in sets:
            expected = {
                diagram_to_perm(d)
                for d in dg.iter_diagrams(n)
                if dominance_leq(dg.prop_lab(d), s)
            }
            assert bases[s] == expected


def test_triangular_factorization_examples():
    n = 4
    idp = identity_perm(n)
    assert triangular_factorization(idp) == (idp, F(n, (1, 2, 3, 4)), idp)
    assert triangular_factorization((2, 1)) == ((1, 2), F(2, ()), (1, 2))


def test_triangular_factorization_properties():
    for n in (3, 4):
        for p in all_perms(n):
            rho, s, tau = triangular_factorization(p)
            assert s == dg.prop_lab(perm_to_diagram(p))
            assert perm_length(p) == perm_length(rho) + perm_length(tau) + len(free_set(s))
            left = dg.prop_lab(perm_to_diagram(rho))
            right = dg.prop_lab(perm_to_diagram(tau))
            assert dominance_leq(s, dominance_meet(left, right))
            # the product really is E_p with coefficient 1
            c1, r1 = multiply_perms(rho, free_involution(s))
            c2, r2 = multiply_perms(r1, tau)
            assert r2 == p and c1 * c2 == Polynomial.one()


@lru_cache(maxsize=None)
def _perms_by_length(n):
    """``length -> [(perm, diagram, propagating labels)]`` over ``S_n``."""
    by_length: dict = {}
    for q in all_perms(n):
        d = perm_to_diagram(q)
        by_length.setdefault(perm_length(q), []).append((q, d, dg.prop_lab(d)))
    return by_length


def _factorization_by_search(p):
    """The former library search, as an oracle: scan every pair
    ``(rho, tau)`` whose lengths fill the budget and whose propagating
    sets dominate ``s``, keep those with ``rho * free_diagram(s) * tau``
    equal to the diagram of ``p``, and require exactly one."""
    d = perm_to_diagram(p)
    s = dg.prop_lab(d)
    budget = perm_length(p) - len(free_set(s))
    assert budget >= 0, p
    es = free_diagram(s)
    by_length = _perms_by_length(len(p))
    found = []
    for la in sorted(k for k in by_length if k <= budget):
        if budget - la not in by_length:
            continue
        for rho, d_rho, s_rho in by_length[la]:
            if not dominance_leq(s, s_rho):
                continue
            left, _ = dg.compose(d_rho, es)
            for tau, d_tau, s_tau in by_length[budget - la]:
                if dominance_leq(s, s_tau) and dg.compose(left, d_tau)[0] == d:
                    found.append((rho, s_rho, tau, s_tau))
    assert len(found) == 1, (p, found)
    rho, s_rho, tau, s_tau = found[0]
    assert dominance_leq(s, dominance_meet(s_rho, s_tau))
    return rho, s, tau


def test_triangular_factorization_matches_the_search_oracle():
    # all of S_0..S_5, then one seeded element per cost class (length,
    # propagating labels) of S_6
    for n in range(6):
        for p in all_perms(n):
            assert triangular_factorization(p) == _factorization_by_search(p)
    classes: dict = {}
    for p in all_perms(6):
        classes.setdefault((perm_length(p), dg.prop_lab(perm_to_diagram(p))), []).append(p)
    rng = random.Random(6)
    for key in sorted(classes, key=lambda k: (k[0], k[1].elements)):
        p = rng.choice(classes[key])
        assert triangular_factorization(p) == _factorization_by_search(p)


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="exhaustive S_6 factorization oracle runs only with OKADA_EXTENDED=1",
)
def test_extended_triangular_factorization_matches_the_search_oracle_on_s6():
    for p in all_perms(6):
        assert triangular_factorization(p) == _factorization_by_search(p)


def test_triangular_factorization_checks_its_result(monkeypatch):
    # A wrong factor must be caught by the self-check, not returned.
    monkeypatch.setattr(algebra, "free_involution", lambda s: identity_perm(s.rank))
    checked = 0
    for p in all_perms(4):
        if free_set(dg.prop_lab(perm_to_diagram(p))):
            with pytest.raises(InternalInvariantError):
                triangular_factorization(p)
            checked += 1
    assert checked > 0


def test_cell_datum_exhausts_basis():
    for n in range(1, 6):
        cd = cell_datum(n)
        assert set(cd.poset) == set(enumerate_yfs(n))
        produced = set()
        for s in cd.poset:
            for left in cd.index_sets[s]:
                for right in cd.index_sets[s]:
                    produced.add(cd.basis_diagram(s, left, right))
        assert len(produced) == math.factorial(n)
        assert cd.involution(dg.identity(n)) == dg.identity(n)


def test_cell_basis_involution_swaps_indices():
    cd = cell_datum(4)
    for s in cd.poset:
        for left in cd.index_sets[s]:
            for right in cd.index_sets[s]:
                d = cd.basis_diagram(s, left, right)
                assert cd.involution(d) == cd.basis_diagram(s, right, left)


def test_cell_action_identity_and_dimension():
    for n in range(1, 6):
        cd = cell_datum(n)
        for s in cd.poset:
            halves = cd.index_sets[s]
            assert len(halves) == chain_count(s)
            for h in halves:
                assert cell_action(dg.identity(n), h, s) == {h: Polynomial.one()}


def test_cell_action_rejects_wrong_labels():
    s = F(2, (1, 2))
    wrong = dg.bra(dg.generator(1, 2))
    with pytest.raises(PropagatingMismatchError):
        cell_action(dg.identity(2), wrong, s)


def test_cell_action_is_a_module_action():
    rng = random.Random(41)
    for n in (3, 4, 5):
        cd = cell_datum(n)
        perms = all_perms(n)
        for _ in range(40):
            a = AlgebraElement.from_perm(rng.choice(perms))
            b = AlgebraElement.from_perm(rng.choice(perms))
            s = rng.choice(cd.poset)
            h = rng.choice(cd.index_sets[s])
            lhs = cell_action(a * b, h, s)
            acc: dict = {}
            for hh, c in cell_action(b, h, s).items():
                for hhh, cc in cell_action(a, hh, s).items():
                    acc[hhh] = acc.get(hhh, Polynomial.zero()) + c * cc
            assert lhs == {k: v for k, v in acc.items() if v}


def test_gram_top_cell_is_identity():
    for n in range(1, 7):
        assert gram_matrix(F(n, tuple(range(1, n + 1)))) == ((Polynomial.one(),),)


def test_gram_symmetry_and_mirror():
    for n in range(1, 6):
        for s in enumerate_yfs(n):
            g = gram_matrix(s)
            for i in range(len(g)):
                for j in range(len(g)):
                    assert g[i][j] == g[j][i]


def test_gram_extraction_independent_of_frame():
    # phi(R, L') must not depend on the outer indices used to extract it
    for n in (3, 4, 5):
        for s in enumerate_yfs(n):
            halves = dg.enumerate_half(n, s)
            g = gram_matrix(s)
            for i, r_half in enumerate(halves):
                for j, l_half in enumerate(halves):
                    for outer_l in halves:
                        for outer_r in halves:
                            cl = diagram_to_perm(dg.glue(outer_l, r_half))
                            cr = diagram_to_perm(dg.glue(l_half, outer_r))
                            coeff, prod = multiply_perms(cl, cr)
                            d = perm_to_diagram(prod)
                            if dg.prop_lab(d) == s:
                                assert d == dg.glue(outer_l, outer_r)
                                assert coeff == g[i][j]
                            else:
                                assert g[i][j] == Polynomial.zero()


def test_gram_example_rank4():
    g = gram_matrix(F(4, (1, 4)))
    det = gram_det(F(4, (1, 4)))
    assert det == x_var(1) * x_var(2) * y_var(1) - y_var(1) ** 2
    assert g[0][0] == x_var(1) * y_var(1)


def test_gram_nonsingular_at_random_rational_points():
    rng = random.Random(2024)
    for n in range(1, 6):
        values = {("x", i): Fraction(rng.randrange(2, 60), rng.randrange(1, 9)) for i in range(1, n)}
        values.update(
            {("y", i): Fraction(rng.randrange(2, 60), rng.randrange(1, 9)) for i in range(1, n - 1)}
        )
        for s in enumerate_yfs(n):
            assert gram_det_specialized(s, values) != 0


def test_gram_det_agrees_with_specialization():
    rng = random.Random(5)
    s = F(4, (1, 4))
    values = {("x", i): Fraction(rng.randrange(1, 20)) for i in range(1, 4)}
    values.update({("y", i): Fraction(rng.randrange(1, 20)) for i in range(1, 3)})
    lhs = gram_det(s).specialize(values).constant_value()
    assert lhs == gram_det_specialized(s, values)
