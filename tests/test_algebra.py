import copy
import itertools
import math
import os
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from okada import algebra
from okada import diagrams as dg
from okada.algebra import (
    GRAM_DET_MAX_DIM,
    AlgebraElement,
    cell_action,
    cell_datum,
    free_element,
    free_involution,
    gram_det,
    gram_det_specialized,
    gram_matrix,
    ideal_basis,
    specialization_point,
    triangular_factorization,
)
from okada._determinant import polynomial_det, specialized_det
from okada.diagrams import free_diagram, free_half_diagram
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
    normalize,
    perm_length,
    perm_to_diagram,
)
from okada.serialize import element_to_obj

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


def test_from_word_and_diagram_terms_agree_with_the_permutation_basis():
    rng = random.Random(31)
    for n in range(2, 6):
        total = AlgebraElement.one(n)
        for _ in range(8):
            w = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 3 * n)))
            r = normalize(w, n)
            a = AlgebraElement.from_word(w, n)
            assert a == AlgebraElement.from_perm(r.perm, r.coefficient), w
            total = total + a.scaled(rng.randrange(-3, 4) * x_var(rng.randrange(1, n)))
        terms = total.diagram_terms()
        assert [diagram_to_perm(d) for d, _ in terms] == list(total.support())
        rebuilt = AlgebraElement.zero(n)
        for d, c in terms:
            rebuilt = rebuilt + AlgebraElement.from_diagram(d, c)
        assert rebuilt == total and len(terms) > 1, n


@pytest.mark.parametrize("index", [(1, 1), (0, 1), (2, 3), (1.0, 2), ("1", 2)])
def test_an_index_that_is_not_a_permutation_is_refused(index):
    # AlgebraElement(2, {(1, 1): 1}) once built an element outside the basis.
    for build in (lambda: AlgebraElement(2, {index: 1}), lambda: AlgebraElement.from_perm(index),
                  lambda: AlgebraElement(2, {(2, 1): 1, index: x_var(1)})):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            build()


def test_an_index_is_measured_before_it_is_read_and_products_are_not_read_again(monkeypatch):
    from okada import rewriting

    runs, read = rewriting._runs, []

    def reading(p):
        read.append(p)
        return runs(p)

    def never(p):
        raise AssertionError(f"read {p} of the wrong length")

    monkeypatch.setattr(algebra, "_runs", never)
    for index in ((1,) * 5, (), (2, 1)):
        with pytest.raises(RankMismatchError, match=f"basis index of length {len(index)} does not have rank 3"):
            AlgebraElement(3, {index: 1})
    monkeypatch.setattr(algebra, "_runs", reading)
    a, b = E(1, 3) + E(2, 3), E(2, 3) + AlgebraElement.one(3)
    read.clear()
    product = a * b
    # each operand is read once by the product, and its landings not at all
    assert sorted(read) == sorted(a.support() + b.support())
    read.clear()
    assert (product + a).scaled(2).specialize({("x", 1): 1}) and read == []


def test_coefficient_and_difference_read_the_coefficient_table():
    a = E(1, 3).scaled(x_var(1)) + AlgebraElement.one(3)
    b = AlgebraElement.one(3).scaled(2)
    assert (a.coefficient((2, 1, 3)), a.coefficient([1, 2, 3]), a.coefficient((3, 2, 1))) == (x_var(1), 1, 0)
    assert (a - b).coefficients() == (((1, 2, 3), Polynomial.integer(-1)), ((2, 1, 3), x_var(1)))
    assert a - a == AlgebraElement.zero(3) and (a - a).coefficients() == ()
    with pytest.raises(RankMismatchError):
        a - AlgebraElement.one(4)
    # a value that is not an element once raised AttributeError from scaled
    for value in (3, x_var(1), None):
        with pytest.raises(TypeError, match="unsupported operand"):
            a - value


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        E(1, 3) * E(1, 4)
    with pytest.raises(RankMismatchError):
        AlgebraElement(3, {(1, 2): Polynomial.one()})
    for build in (
        lambda: AlgebraElement(-1),
        lambda: AlgebraElement.zero(-2),
        lambda: AlgebraElement(-1, {}),
        lambda: AlgebraElement.from_word((), -1),
    ):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            build()


@pytest.mark.parametrize("build", [
    lambda: AlgebraElement(2, {(1, 2): 0.5}),
    lambda: AlgebraElement.one(2).scaled(0.5),
], ids=["init", "scaled"])
def test_algebra_elements_refuse_inexact_coefficients(build):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        build()


def test_specializations_refuse_an_inexact_value():
    # A float once leaked through as (0.1)*E[2, 1, 3], and the Gram
    # determinant came out as the binary value of the floats.
    s = FibonacciSet(4, (1, 4))
    point = {("x", 1): 0.1, ("x", 2): 3, ("x", 3): 1, ("y", 1): Fraction(1, 5), ("y", 2): 1}
    for call in (
        lambda: AlgebraElement.generator(1, 3).scaled(x_var(1)).specialize({("x", 1): 0.1}),
        lambda: gram_det_specialized(s, point),
        lambda: specialized_det(gram_matrix(s), point),
    ):
        with pytest.raises(ValueError, match="specialization value 0.1 is not an int or a Fraction"):
            call()


def test_generator_index_out_of_range_rejected():
    # perm_from_word would read 0 and -1 as p[-1] and answer wrongly, but
    # its letter check refuses them.
    for i, n in ((0, 3), (-1, 3), (3, 3), (1, 1), (1, 0)):
        with pytest.raises(ValueError, match=f"letter {i} out of range for rank {n}"):
            AlgebraElement.generator(i, n)
    assert [AlgebraElement.generator(i, 3).support() for i in (1, 2)] == [((2, 1, 3),), ((1, 3, 2),)]


def test_algebra_element_is_an_unhashable_immutable_value():
    a = AlgebraElement.from_perm((2, 1, 3), x_var(1)) + AlgebraElement.one(3)
    before = element_to_obj(a)
    for name in ("rank", "_coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    for name in ("rank", "_coeffs"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.rank == 3 and element_to_obj(a) == before
    with pytest.raises(TypeError):
        hash(a)
    assert a.__eq__(object()) is NotImplemented and a != AlgebraElement.one(4)
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(other) is AlgebraElement and other == a and repr(other) == repr(a)


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


def _ideal_basis_by_closure(s):
    """Support closure of the free diagram under left and right
    multiplication by the generator diagrams (the former library
    construction), as an oracle: structure constants are nonzero
    monomials, so the support closure is the ideal's basis."""
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


def test_ideal_basis_matches_the_closure_oracle():
    for n in range(7):
        for s in enumerate_yfs(n):
            assert ideal_basis(s) == _ideal_basis_by_closure(s), s


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


def test_cell_datum_cuts_each_rank_from_one_walk(monkeypatch):
    honest, calls = dg._cells, []

    def counting(n, s=None):
        calls.append((n, s))
        return honest(n, s)

    monkeypatch.setattr(dg, "_cells", counting)
    for n in range(0, 10):
        dg._rank_cells.cache_clear()
        calls.clear()
        cd = cell_datum(n)
        assert calls == [(n, None)], n
        assert cd.poset == enumerate_yfs(n)
        assert cd.index_sets == {s: dg.enumerate_half(n, s) for s in enumerate_yfs(n)}


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


def _cell_action_on_the_diagonal(a, h, s):
    # An oracle in another frame: a acts on glue(h, h), not on glue(h, F)
    # with F the free half of s as in cell_action.
    hh = AlgebraElement.from_diagram(dg.glue(h, h))
    acc: dict = {}
    for p, c in (a * hh).coefficients():
        d = perm_to_diagram(p)
        if dg.prop_lab(d) == s:
            acc[dg.bra(d)] = acc.get(dg.bra(d), Polynomial.zero()) + c
    return {k: v for k, v in acc.items() if v}


def test_cell_action_does_not_depend_on_its_frame():
    # The generators and every 7th permutation, on every half with n <= 5:
    # the same dict, key order included.
    actions = 0
    for n in range(1, 6):
        elements = [E(i, n) for i in range(1, n)]
        elements += [AlgebraElement.from_perm(p) for p in all_perms(n)[::7]]
        for s in enumerate_yfs(n):
            for h in dg.enumerate_half(n, s):
                for a in elements:
                    got, want = cell_action(a, h, s), _cell_action_on_the_diagonal(a, h, s)
                    assert list(got.items()) == list(want.items()), (a, h, s)
                    actions += 1
    assert actions == 659


def test_gram_top_cell_is_identity():
    for n in range(1, 7):
        assert gram_matrix(F(n, tuple(range(1, n + 1)))) == ((Polynomial.one(),),)


def _full_gram_table(s):
    # Every entry computed on its own, one multiply_perms each, without
    # the symmetry that gram_matrix relies on, in another frame than its
    # free half and landing tested by diagram: the coefficient of
    # C_{ref,ref} in C_{ref,R_i} * C_{L_j,ref}, zero when the labels drop.
    # gram_matrix multiplies only the entries the idempotent walk admits;
    # this table forms every product, so it is the oracle for the zeros.
    halves = dg.enumerate_half(s.rank, s)
    ref = halves[0]
    table = []
    for r_half in halves:
        row = []
        for l_half in halves:
            a = diagram_to_perm(dg.glue(ref, r_half))
            b = diagram_to_perm(dg.glue(l_half, ref))
            coeff, prod = multiply_perms(a, b)
            d = perm_to_diagram(prod)
            if dg.prop_lab(d) == s:
                assert d == dg.glue(ref, ref)
                row.append(coeff)
            else:
                assert dominance_leq(dg.prop_lab(d), s)
                row.append(Polynomial.zero())
        table.append(tuple(row))
    return tuple(table)


def _assert_gram_matches_full_table(cells):
    """Check each cell's Gram matrix against the full table; return the tables."""
    tables = {}
    for s in cells:
        g = gram_matrix(s)
        tables[s] = _full_gram_table(s)
        assert g == tables[s], s
        assert g == tuple(zip(*g)), s  # the mirror symmetry phi(S, T) = phi(T, S)
    return tables


def _assert_gram_support_is_the_census(n, tables):
    # glue(L_j, R_i) is idempotent iff phi(R_i, L_j) != 0, so the non-zero
    # entries of each cell are its census row count and, over the rank, the
    # idempotent count.  They are counted on the full table, which forms
    # every product: gram_matrix picks its non-zero entries by the census
    # walk itself, so counted on it the check would be circular.
    from okada import monoid

    total = 0
    for c, (s, halves, _) in enumerate(dg._rank_cells(n)):
        nnz = sum(map(bool, itertools.chain.from_iterable(tables[s])))
        assert nnz == monoid._census_rows((n, c, 0, len(halves))), s
        total += nnz
    assert total == monoid.census_counts(n)[1], n


def test_gram_symmetry_and_mirror():
    cells = [s for n in range(1, 8) for s in enumerate_yfs(n)]
    assert len(cells) == 53
    tables = _assert_gram_matches_full_table(cells)
    for n in range(1, 8):
        _assert_gram_support_is_the_census(n, tables)


def test_gram_entries_are_the_loops_of_the_diagram_model_at_y_1():
    # The diagram model, which forms no word product: with every y at 1,
    # C_{F,R_i} * C_{L_j,F} lands on the free diagram exactly at the
    # non-zero entries, and its loops are the entry there.
    for n in range(1, 8):
        ys = {("y", i): 1 for i in range(1, n - 1)}
        for s in enumerate_yfs(n):
            gram, free, top = gram_matrix(s), free_half_diagram(s), free_diagram(s)
            halves = dg.enumerate_half(n, s)
            rights = [dg.glue(h, free) for h in halves]
            for i, r_half in enumerate(halves):
                left = dg.glue(free, r_half)
                for j, right in enumerate(rights):
                    loops, d = dg.product_y1(left, right)
                    assert (d == top) == bool(gram[i][j]), (s, i, j)
                    assert not gram[i][j] or loops == gram[i][j].specialize(ys), (s, i, j)


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="the full Gram tables at rank 8 run only with OKADA_EXTENDED=1",
)
def test_extended_gram_matches_the_full_table_at_rank_8():
    cells = enumerate_yfs(8)
    assert len(cells) == 34
    _assert_gram_support_is_the_census(8, _assert_gram_matches_full_table(cells))


def test_products_of_code_words_read_once_are_still_certified(monkeypatch):
    # gram_matrix and AlgebraElement products read the runs of each left
    # operand and stack the code word of each right one once, through
    # okada.algebra, and push the stack onto the runs.  The certificate
    # must still check the pushed runs of each landed permutation: here
    # those runs alone end with one bottom too low, while every
    # operand's stay honest, so the certificate must fail although every
    # reduction is right.  gram_matrix pushes through okada.algebra and
    # compares the runs with those of the free involution, where every
    # product it forms lands; AlgebraElement products push through
    # okada.rewriting and rebuild the permutation from the runs.
    from okada import rewriting

    s = F(4, (1, 2))  # some entries are zero, and form no product
    a, b = E(1, 3) + E(2, 3), E(2, 3)  # E_1 E_2 is a new basis element
    element_landings = {multiply_perms(p, q)[1] for p in a.support() for q in b.support()}
    honest = rewriting._push
    gram, product = gram_matrix(s), a * b
    for module, landings, compute in ((algebra, {free_involution(s)}, lambda: gram_matrix(s)),
                                      (rewriting, element_landings, lambda: a * b)):
        corrupted = []

        def corrupt(p, bot, todo, exps):
            honest(p, bot, todo, exps)
            if tuple(p) in landings:
                corrupted.append(tuple(p))
                bot[-1] -= 1

        monkeypatch.setattr(module, "_push", corrupt)
        with pytest.raises(InternalInvariantError, match="not the code word"):
            compute()
        assert corrupted, "no landed permutation was pushed"
        monkeypatch.setattr(module, "_push", honest)
    assert (gram_matrix(s), a * b) == (gram, product)


def test_gram_matrix_refuses_a_landing_whose_runs_alone_are_right(monkeypatch):
    # The pushed permutation is compared with the free involution on its
    # own: here each product keeps its honest runs, those of the free
    # involution, but has its first two entries swapped.
    honest = algebra._push

    def corrupt(p, bot, todo, exps):
        honest(p, bot, todo, exps)
        p[0], p[1] = p[1], p[0]

    monkeypatch.setattr(algebra, "_push", corrupt)
    with pytest.raises(InternalInvariantError, match="landed on"):
        gram_matrix(F(4, (1, 2)))


def test_gram_matrix_checks_where_its_products_land(monkeypatch):
    # A product lands when its permutation is the free involution; with a
    # wrong one the first product the walk admits lands elsewhere and is
    # refused.  Cells with an empty free set have the identity as their
    # free involution, so the wrong one is right there.
    monkeypatch.setattr(algebra, "free_involution", lambda s: identity_perm(s.rank))
    checked = 0
    for n in range(2, 6):
        for s in enumerate_yfs(n):
            if free_set(s):
                with pytest.raises(InternalInvariantError, match="landed on"):
                    gram_matrix(s)
                checked += 1
    assert checked == 14


def test_gram_matrix_multiplies_only_the_non_zero_entries(monkeypatch):
    from okada import rewriting

    products, diagrams = [], []
    push, draw = rewriting._push, rewriting.perm_to_diagram

    def counting(*args):
        products.append(args)
        return push(*args)

    def recording(p):
        diagrams.append(p)
        return draw(p)

    monkeypatch.setattr(algebra, "_push", counting)
    monkeypatch.setattr(algebra, "perm_to_diagram", recording)
    monkeypatch.setattr(rewriting, "perm_to_diagram", recording)
    for n in range(1, 7):
        for s in enumerate_yfs(n):
            products.clear()
            g = gram_matrix(s)
            non_zero = sum(bool(g[i][j]) for i in range(len(g)) for j in range(i, len(g)))
            assert len(products) == non_zero, s
    assert diagrams == []


def _planted_walks(cell):
    """For each pair ``(i, j)``, ``i <= j``, of the cell, the honest row walk
    with its answer for ``glue(L_j, R_i)`` and its mirror flipped, and that
    answer, asked of the one pair."""
    honest = dg._passing
    ((_, halves, ends),) = dg._cells(cell.rank, cell)

    def planted(flipped):
        def walk(left, row, row_ends, start=0):
            passing = honest(left, row, row_ends, start)
            return [j for j in range(start, len(row)) if (j in passing) != ((left, row[j]) in flipped)]

        return walk

    for i in range(len(halves)):
        for j in range(i, len(halves)):
            yield (planted({(halves[j], halves[i]), (halves[i], halves[j])}),
                   honest(halves[j], [halves[i]], [ends[i]]) == [0])


def test_gram_matrix_fails_a_walk_planted_wrong_either_way(monkeypatch):
    # The walk decides which entries are multiplied.  Admitting a pair that
    # is not idempotent forms a product that drops below the cell, refused
    # at run time; rejecting an idempotent pair zeroes an entry, which only
    # the full table catches.  Each pair of every cell with a zero entry.
    cells = [s for n in range(1, 6) for s in enumerate_yfs(n) if not all(map(all, gram_matrix(s)))]
    admitted = rejected = 0
    for s in cells:
        for walk, idempotent in _planted_walks(s):
            monkeypatch.setattr(dg, "_passing", walk)
            if idempotent:
                with pytest.raises(AssertionError):
                    _assert_gram_matches_full_table([s])
                rejected += 1
            else:
                with pytest.raises(InternalInvariantError, match="landed on"):
                    gram_matrix(s)
                admitted += 1
    monkeypatch.undo()
    assert (len(cells), admitted, rejected) == (4, 7, 25)


def test_gram_matrix_glues_and_reads_each_half_once(monkeypatch):
    # Row i's left word is read off the inverse of its right permutation:
    # glue(F, R_i) is the mirror of glue(R_i, F), so neither is built twice,
    # and the runs of each glue(R_i, F) are peeled once, for its
    # permutation and its code word alike, with no diagram_to_perm.
    s = F(7, (1, 2, 7))
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr("okada.diagrams.glue", counted("glue", dg.glue))
    monkeypatch.setattr(algebra, "_runs_of_diagram", counted("_runs_of_diagram", algebra._runs_of_diagram))
    monkeypatch.setattr(algebra, "diagram_to_perm", counted("diagram_to_perm", algebra.diagram_to_perm))
    g = gram_matrix(s)
    assert len(g) == chain_count(s) == 15
    assert calls == {"glue": 15, "_runs_of_diagram": 15}


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


def test_specialization_point_draws_x_then_y_from_the_rng():
    for n in range(7):
        rng = random.Random(n)
        want = {("x", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n)}
        want.update({("y", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n - 1)})
        mine = random.Random(n)
        assert list(specialization_point(n, mine).items()) == list(want.items())
        assert mine.random() == rng.random()


def test_gram_det_agrees_with_specialization():
    rng = random.Random(5)
    s = F(4, (1, 4))
    values = {("x", i): Fraction(rng.randrange(1, 20)) for i in range(1, 4)}
    values.update({("y", i): Fraction(rng.randrange(1, 20)) for i in range(1, 3)})
    lhs = gram_det(s).specialize(values).constant_value()
    assert lhs == gram_det_specialized(s, values)


def _leibniz_det(matrix):
    """The former library determinant, as an oracle: the signed sum of
    all ``d!`` products, one entry from each row and column."""
    d = len(matrix)
    total = Polynomial.zero()
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial.integer(sign)
        for i in range(d):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def _cells(lo, hi):
    """Every cell with rank at most 8 and dimension in ``lo .. hi``."""
    return [s for n in range(9) for s in enumerate_yfs(n) if lo <= chain_count(s) <= hi]


def _seeded_points(n, seed, count=3):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        values = {("x", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n)}
        values.update(
            {("y", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, n - 1)}
        )
        points.append(values)
    return points


def _check_against_specialization(cells):
    for s in cells:
        det = gram_det(s)
        for values in _seeded_points(s.rank, seed=chain_count(s) * 100 + s.rank):
            assert det.specialize(values).constant_value() == gram_det_specialized(s, values), s


def test_gram_det_equals_leibniz_up_to_dimension_7():
    cells = _cells(0, 7)
    assert len(cells) == 52
    for s in cells:
        assert gram_det(s) == _leibniz_det(gram_matrix(s)), s


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="the 8! term Leibniz oracle runs only with OKADA_EXTENDED=1",
)
def test_extended_gram_det_equals_leibniz_at_dimension_8():
    s = F(5, (1,))
    assert chain_count(s) == 8
    assert gram_det(s) == _leibniz_det(gram_matrix(s))


def test_gram_det_matches_specialization_from_dimension_8_to_12():
    cells = _cells(8, 12)
    assert len(cells) == 9
    _check_against_specialization(cells)


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="cells of dimension 13 and up run only with OKADA_EXTENDED=1",
)
def test_extended_gram_det_matches_specialization_up_to_the_limit():
    cells = _cells(13, GRAM_DET_MAX_DIM)
    assert sorted(chain_count(s) for s in cells) == [14] + [15] * 6
    _check_against_specialization(cells)


def test_gram_det_refuses_a_cell_over_the_limit(monkeypatch):
    # refused from the cell's dimension, before the matrix is built
    def never(s):
        raise AssertionError("gram_matrix built for an oversized cell")

    monkeypatch.setattr(algebra, "gram_matrix", never)
    for s in (F(7, (5,)), F(8, ())):
        assert chain_count(s) > GRAM_DET_MAX_DIM
        with pytest.raises(ValueError, match=f"dimension {chain_count(s)} too large"):
            gram_det(s)


def _integer_matrix(rows):
    return tuple(tuple(Polynomial.integer(c) for c in row) for row in rows)


def _perm_sign(perm):
    """``(-1)^(d - cycles)``, counted without inversions."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


# A rational point for every variable of the matrices below.
POINT = {("x", 1): Fraction(3, 2), ("x", 2): Fraction(-5), ("x", 3): Fraction(2, 7),
         ("y", 1): Fraction(7, 3), ("y", 2): Fraction(4)}


def _specializes_alike(matrix, values=POINT):
    """``specialized_det`` equals ``polynomial_det`` specialized at ``values``."""
    return specialized_det(matrix, values) == polynomial_det(matrix).specialize(values).constant_value()


def test_polynomial_det_of_permutation_matrices_is_the_sign():
    checked = 0
    for d in range(6):
        for perm in itertools.permutations(range(d)):
            matrix = _integer_matrix([[int(perm[i] == j) for j in range(d)] for i in range(d)])
            assert polynomial_det(matrix) == Polynomial.integer(_perm_sign(perm)), perm
            assert _specializes_alike(matrix), perm
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 24 + 120


def test_polynomial_det_of_the_empty_matrix_is_one():
    assert polynomial_det(()) == Polynomial.one()
    assert specialized_det((), {}) == 1


def test_polynomial_det_with_a_zero_row_column_or_repeated_row_is_zero():
    x1, x2, y1 = x_var(1), x_var(2), y_var(1)
    two, three, one, five = (Polynomial.integer(c) for c in (2, 3, 1, 5))
    full = [[x1, x2 + 1, y1, two], [y1, x1 * x2, three, x2], [x2, one, x1 + y1, y1], [five, x1, x2, x1 * y1]]
    assert polynomial_det(tuple(map(tuple, full))) != Polynomial.zero()
    assert _specializes_alike(full) and specialized_det(full, POINT) != 0
    zero_row = [row[:] for row in full]
    zero_row[2] = [Polynomial.zero()] * 4
    zero_col = [[Polynomial.zero() if j == 1 else c for j, c in enumerate(row)] for row in full]
    repeated = [full[0], full[1], full[0], full[3]]
    for matrix in (zero_row, zero_col, repeated):
        assert polynomial_det(tuple(map(tuple, matrix))) == Polynomial.zero()
        assert specialized_det(matrix, POINT) == 0


def test_polynomial_det_of_a_triangular_matrix_is_the_diagonal_product():
    x1, x2, y1, y2 = x_var(1), x_var(2), y_var(1), y_var(2)
    diag = [x1, x2 + 3, y1 ** 2 - x1, -2 * y2]
    upper = tuple(
        tuple(diag[i] if i == j else (x1 * y2 + j if j > i else Polynomial.zero()) for j in range(4))
        for i in range(4)
    )
    lower = tuple(tuple(upper[j][i] for j in range(4)) for i in range(4))
    product = diag[0] * diag[1] * diag[2] * diag[3]
    assert polynomial_det(upper) == product
    assert polynomial_det(lower) == product
    assert _specializes_alike(upper) and _specializes_alike(lower)


def test_polynomial_det_of_a_symbolic_3x3_is_its_cofactor_expansion():
    x1, x2, x3, y1, y2 = x_var(1), x_var(2), x_var(3), y_var(1), y_var(2)
    (a, b, c), (d, e, f), (g, h, i) = m = (
        (x1 + 1, x2 * y1, y2 ** 3),
        (x3 - y1, x1 ** 4, 2 * x2 + y2),
        (y1 * y2, -x3, x1 * x2 - 7),
    )
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert polynomial_det(m) == expected
    assert _specializes_alike(m)


def test_polynomial_det_equals_leibniz_on_random_matrices():
    # High exponents and cancelling sums exercise the packed monomials.
    rng = random.Random(12)
    gens = [x_var(1), x_var(2), x_var(3), y_var(1), y_var(2)]
    for _ in range(60):
        d = rng.randrange(1, 6)
        matrix = tuple(
            tuple(
                sum(
                    (rng.randrange(-3, 4) * rng.choice(gens) ** rng.randrange(0, 9) for _ in range(rng.randrange(3))),
                    Polynomial.zero(),
                )
                for _ in range(d)
            )
            for _ in range(d)
        )
        assert polynomial_det(matrix) == _leibniz_det(matrix)
        assert _specializes_alike(matrix)


def test_specialized_det_specializes_each_distinct_entry_once(monkeypatch):
    s = F(6, ())
    matrix, values = gram_matrix(s), specialization_point(6, random.Random(6))
    want = gram_det(s).specialize(values).constant_value()
    distinct = {entry for row in matrix for entry in row}
    assert len(distinct) < len(matrix) ** 2
    specialized, specialize = [], Polynomial.specialize
    monkeypatch.setattr(Polynomial, "specialize", lambda p, v: specialized.append(p) or specialize(p, v))
    assert specialized_det(matrix, values) == want
    assert len(specialized) == len(distinct) and set(specialized) == distinct


def test_polynomial_det_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="not square"):
        polynomial_det(((Polynomial.one(), Polynomial.zero()),))


def test_specialized_det_refuses_a_matrix_that_is_not_square():
    one, zero = Polynomial.one(), Polynomial.zero()
    for matrix in (((one, zero),), ((one,), (zero,)), ((one, zero), (zero,))):
        with pytest.raises(ValueError, match="not square"):
            specialized_det(matrix, {})

