"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
checked sizes (run pytest with ``-s`` to see them stream).  Criteria are
exact: no tolerances anywhere.  The rank 9 to 11 idempotent census is an
extended run, enabled by setting ``OKADA_EXTENDED=1``.
"""

import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okada import diagrams as dg
from okada import monoid as mo
from okada import render as rd
from okada import serialize as ser
from okada.algebra import (
    cell_datum,
    free_involution,
    gram_det_specialized,
    triangular_factorization,
)
from okada.diagrams import free_diagram
from okada.fibonacci import (
    chain_count,
    dominance_covers,
    dominance_join,
    dominance_leq,
    dominance_lt,
    dominance_meet,
    dominance_rank,
    enumerate_yfs,
    free_set,
    set_to_word,
    yf_covers,
)
from okada.polynomials import Polynomial, x_var, y_var
from okada.rewriting import (
    all_perms,
    diagram_to_perm,
    multiply_perms,
    normalize,
    perm_inverse,
    perm_length,
    perm_to_diagram,
    rs,
    rs_inverse,
    word_from_code,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f" [{detail}]" if detail else ""))


def test_criterion_01_dimension_is_factorial():
    for n in range(1, 8):
        target = math.factorial(n)
        # diagram model
        assert len(set(dg.iter_diagrams(n))) == target
        # monoid closure from the generators
        gens = [dg.generator(i, n) for i in range(1, n)]
        seen = {dg.identity(n)}
        frontier = [dg.identity(n)]
        while frontier:
            d = frontier.pop()
            for g in gens:
                nxt = mo.mproduct(d, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == target
        # rewriting model: code words are exactly the normal forms
        forms = set()
        for p in all_perms(n):
            r = normalize(word_from_code(p), n)
            assert r.coefficient == Polynomial.one() and r.perm == p
            forms.add(r.word)
        assert len(forms) == target
    report("criterion 1: dimension n! in all three models", "n = 1..7")


def test_criterion_02_idempotent_census():
    for n in range(9):
        assert mo.census_counts(n)[1] == mo.KNOWN_IDEMPOTENT_COUNTS[n]
    report("criterion 2: idempotent census", "n = 0..8")


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="extended census (ranks 9 to 11) runs only with OKADA_EXTENDED=1",
)
def test_criterion_02_idempotent_census_extended():
    threads = int(os.environ.get("OKADA_THREADS", "1"))
    for n in (9, 10, 11):
        assert mo.census_counts(n, threads)[1] == mo.EXTENDED_IDEMPOTENT_COUNTS[n]
    report("criterion 2 (extended): idempotent census", "n = 9, 10, 11")


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="deep verification tier runs only with OKADA_EXTENDED=1",
)
def test_extended_deep_verification():
    # exhaustive cross-model oracle one rank beyond the criterion
    n = 6
    perms = all_perms(n)
    diag = {p: perm_to_diagram(p) for p in perms}
    yones = {("y", i): 1 for i in range(1, n - 1)}
    for p in perms:
        for q in perms:
            coeff, r = multiply_perms(p, q)
            cx, dres = dg.product_y1(diag[p], diag[q])
            assert dres == diag[r]
            assert coeff.specialize(yones) == cx
    # Green representatives and rs roundtrip at rank 7
    gc = mo.green_classes(7)
    for cls, rep in zip(gc.r_classes, gc.r_reps):
        involutives = [i for i in cls if mo.is_involutive(gc.elements[i])]
        assert involutives == [rep]
    assert len(gc.j_classes) == len(enumerate_yfs(7))
    for p in all_perms(7):
        left, right = rs(p)
        assert rs_inverse(left, right) == p
    report("extended deep verification", "cross-model n=6 exhaustive, green + rs n=7")


def test_criterion_03_presentation_relations():
    for n in range(2, 9):
        for i in range(1, n):
            r = normalize((i, i), n)
            assert r.coefficient == x_var(i) and r.word == (i,)
            for j in range(1, n):
                if abs(i - j) >= 2:
                    a, b = normalize((i, j), n), normalize((j, i), n)
                    assert a.perm == b.perm
                    assert a.coefficient == b.coefficient == Polynomial.one()
        for i in range(1, n - 1):
            r = normalize((i + 1, i, i + 1), n)
            assert r.coefficient == y_var(i) and r.word == (i + 1,)
            # the unreduced sibling really is irreducible
            s = normalize((i, i + 1, i), n)
            assert s.coefficient == Polynomial.one() and s.word == (i, i + 1, i)
    report("criterion 3: presentation with symbolic coefficients", "n <= 8")


def test_criterion_04_confluence_randomized_orders():
    rng = random.Random(20240607)
    total = 0
    for n in range(2, 8):
        for _ in range(500):
            w = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 2 * n + 5)))
            a = normalize(w, n)
            b = normalize(w, n, rng=random.Random(rng.randrange(10**9)))
            c = normalize(w, n, rng=random.Random(rng.randrange(10**9)))
            assert (a.coefficient, a.perm) == (b.coefficient, b.perm) == (c.coefficient, c.perm)
            total += 1
    report("criterion 4: confluence under randomized orders", f"{total} words")


def test_criterion_05_rs_bijection():
    for n in range(1, 8):
        pairs = set()
        for p in all_perms(n):
            left, right = rs(p)
            assert left.top == right.top
            pairs.add((left, right))
        assert len(pairs) == math.factorial(n)  # injectivity
        assert sum(chain_count(s) ** 2 for s in enumerate_yfs(n)) == math.factorial(n)
    for n in range(1, 7):
        for p in all_perms(n):
            pair = rs(p)
            assert rs(perm_inverse(p)) == (pair[1], pair[0])
            assert rs_inverse(*pair) == p
    report("criterion 5: rs bijection", "injective n <= 7, inverse/swap n <= 6")


def test_criterion_06_gluing_and_chain_bijections():
    for n in range(1, 7):
        # diagrams built through the rewriting route, independent of glue
        for p in all_perms(n):
            d = perm_to_diagram(p)
            assert dg.glue(dg.bra(d), dg.ket(d)) == d
        halves = dg.enumerate_half(n)
        chains = set()
        for h in halves:
            c = dg.chain_of(h)
            chains.add(c)
            assert dg.chain_inverse(c) == h
        assert len(chains) == len(halves)
    report("criterion 6: gluing and chain bijections", "exhaustive n <= 6")


def test_criterion_07_cross_model_oracle():
    n = 5
    perms = all_perms(n)
    diag = {p: perm_to_diagram(p) for p in perms}
    yones = {("y", i): 1 for i in range(1, n - 1)}
    for p in perms:
        for q in perms:
            coeff, r = multiply_perms(p, q)
            cx, dres = dg.product_y1(diag[p], diag[q])
            assert dres == diag[r]
            assert coeff.specialize(yones) == cx
    report("criterion 7: cross-model oracle at y=1", "all 120^2 pairs, n = 5")


def test_criterion_08_structure_theory():
    for n in range(1, 7):
        gc = mo.green_classes(n)
        for cls, rep in zip(gc.r_classes, gc.r_reps):
            involutives = [i for i in cls if mo.is_involutive(gc.elements[i])]
            assert involutives == [rep]
        frees = {free_diagram(s) for s in enumerate_yfs(n)}
        for cls, rep in zip(gc.j_classes, gc.j_reps):
            found = [i for i in cls if gc.elements[i] in frees]
            assert found == [rep]
        for d in gc.elements:
            assert mo.aperiodicity_index(d) >= 1  # terminates
    # J-class poset isomorphic to the dominance lattice for n <= 5
    for n in range(1, 6):
        gc = mo.green_classes(n)
        index = {e: i for i, e in enumerate(gc.elements)}
        j_of = {}
        for ci, cls in enumerate(gc.j_classes):
            for i in cls:
                j_of[i] = ci
        label = {ci: dg.prop_lab(gc.elements[rep]) for ci, rep in enumerate(gc.j_reps)}
        gens = [dg.generator(i, n) for i in range(1, n)]
        reach = {ci: {ci} for ci in label}
        changed = True
        while changed:
            changed = False
            for i, e in enumerate(gc.elements):
                for g in gens:
                    for nxt in (mo.mproduct(e, g), mo.mproduct(g, e)):
                        a, b = j_of[i], j_of[index[nxt]]
                        for src, seen in reach.items():
                            if a in seen and b not in seen:
                                seen.add(b)
                                changed = True
        for a in label:
            for b in label:
                assert (b in reach[a]) == dominance_leq(label[b], label[a])
    report("criterion 8: structure theory", "reps n <= 6, J-poset n <= 5")


def test_criterion_09_triangular_factorization_oracle():
    # brute-force oracle over all of S_5, run against plain diagram
    # products before consulting the library implementation
    n = 5
    perms = all_perms(n)
    diag = {p: perm_to_diagram(p) for p in perms}
    lengths = {p: perm_length(p) for p in perms}
    labels = {p: dg.prop_lab(diag[p]) for p in perms}
    frees = {s: free_diagram(s) for s in enumerate_yfs(n)}
    product_table: dict = {}
    for s, es in frees.items():
        table: dict = {}
        for rho in perms:
            left = mo.mproduct(diag[rho], es)
            for tau in perms:
                table.setdefault(mo.mproduct(left, diag[tau]), []).append((rho, tau))
        product_table[s] = table
    for sigma in perms:
        s = labels[sigma]
        budget = lengths[sigma] - len(free_set(s))
        candidates = [
            (rho, tau)
            for rho, tau in product_table[s].get(diag[sigma], [])
            if lengths[rho] + lengths[tau] == budget
            and dominance_leq(s, dominance_meet(labels[rho], labels[tau]))
        ]
        assert len(candidates) == 1, (sigma, candidates)
        assert triangular_factorization(sigma) == (candidates[0][0], s, candidates[0][1])
        # products with matching lengths lose no coefficient
        rho, tau = candidates[0]
        c1, r1 = multiply_perms(rho, free_involution(s))
        c2, r2 = multiply_perms(r1, tau)
        assert r2 == sigma and c1 * c2 == Polynomial.one()
    # the alternative "cardinality of s" reading of the length identity
    # fails already on the identity permutation: its label set is the
    # full interval, so card(s) = n > 0 = l(id) leaves no room for any
    # factorization, while the free-set reading gives |free_set| = 0
    identity = tuple(range(1, n + 1))
    s_id = labels[identity]
    assert perm_length(identity) == 0
    assert len(s_id.elements) == n
    assert len(free_set(s_id)) == 0
    report("criterion 9: triangular factorization oracle", "all sigma in S_5")


def test_criterion_10_cellularity():
    # exhaustive triangularity for n <= 4: a * C_{L,R} stays in the span
    # of {C_{L',R}} modulo strictly lower cells, uniformly in R
    for n in range(1, 5):
        cd = cell_datum(n)
        for a in all_perms(n):
            for s in cd.poset:
                halves = cd.index_sets[s]
                for left in halves:
                    outcomes = []
                    for right in halves:
                        coeff, r = multiply_perms(a, diagram_to_perm(dg.glue(left, right)))
                        d = perm_to_diagram(r)
                        lab = dg.prop_lab(d)
                        if lab == s:
                            assert dg.ket(d) == dg.ket(dg.glue(left, right))
                            outcomes.append((coeff, dg.bra(d)))
                        else:
                            assert dominance_lt(lab, s)
                            outcomes.append(None)
                    # same coefficient and new left index for every R,
                    # or the lower ideal for every R
                    assert len(set(outcomes)) == 1
    # randomized instances at n = 5
    rng = random.Random(99)
    n = 5
    cd = cell_datum(n)
    perms = all_perms(n)
    for _ in range(1000):
        a = rng.choice(perms)
        s = rng.choice(cd.poset)
        halves = cd.index_sets[s]
        left = rng.choice(halves)
        r1, r2 = rng.choice(halves), rng.choice(halves)
        results = []
        for right in (r1, r2):
            coeff, r = multiply_perms(a, diagram_to_perm(dg.glue(left, right)))
            d = perm_to_diagram(r)
            lab = dg.prop_lab(d)
            if lab == s:
                assert dg.ket(d) == dg.ket(dg.glue(left, right))
                results.append((coeff, dg.bra(d)))
            else:
                assert dominance_lt(lab, s)
                results.append(None)
        assert len(set(results)) == 1
    # Gram matrices are nonsingular at random rational specializations
    rng = random.Random(4096)
    for n in range(1, 6):
        values = {("x", i): Fraction(rng.randrange(2, 80), rng.randrange(1, 11)) for i in range(1, n)}
        values.update(
            {("y", i): Fraction(rng.randrange(2, 80), rng.randrange(1, 11)) for i in range(1, n - 1)}
        )
        for s in enumerate_yfs(n):
            assert gram_det_specialized(s, values) != 0
    report("criterion 10: cellularity", "exhaustive n <= 4, 1000 random n = 5, Gram n <= 5")


def test_criterion_11_lattice_properties():
    for n in range(16):
        counts = [len(enumerate_yfs(k)) for k in range(n + 1)]
        for k in range(2, n + 1):
            assert counts[k] == counts[k - 1] + counts[k - 2]
    for n in range(13):
        sets = enumerate_yfs(n)
        # gradedness: every cover raises the computed rank by one
        for a, b in dominance_covers(n):
            assert dominance_rank(b) == dominance_rank(a) + 1
        for a in sets:
            for b in sets:
                m = dominance_meet(a, b)
                j = dominance_join(a, b)
                assert dominance_leq(m, a) and dominance_leq(m, b)
                assert dominance_leq(a, j) and dominance_leq(b, j)
    report("criterion 11: lattice properties", "meet/join n <= 12, counts n <= 15")


def test_golden_figures():
    # Young-Fibonacci Hasse diagram up to rank 5: 26 edges
    edges = set()
    for n in range(5):
        for s in enumerate_yfs(n):
            for t in yf_covers(s):
                edges.add((set_to_word(s), set_to_word(t)))
    assert len(edges) == 26
    # dominance figure at rank 5: 8 nodes and 8 cover edges
    assert len(enumerate_yfs(5)) == 8
    assert len(dominance_covers(5)) == 8
    # frozen rank-8 composition with its x_1 coefficient
    comp = json.loads((FIXTURES / "composition_rank8.json").read_text())
    left = ser.obj_to_diagram(comp["left"])
    right = ser.obj_to_diagram(comp["right"])
    coeff, result = dg.product_y1(left, right)
    assert ser.poly_to_terms(coeff, 8) == comp["coeff_x"]
    assert ser.diagram_to_obj(result) == comp["result"]
    # byte-compared canonical renders
    rank8 = dg.ArcDiagram(
        8,
        tuple(
            dg.Arc(*t)
            for t in [
                (1, -3, 1), (4, -8, 2), (5, 8, 3), (-2, -1, 1),
                (2, 3, 2), (-7, -4, 4), (6, 7, 6), (-6, -5, 5),
            ]
        ),
    )
    assert rd.render_diagram_svg(rank8) == (FIXTURES / "arc_rank8_chain_example.svg").read_text()
    rank6 = dg.ArcDiagram(
        6,
        tuple(
            dg.Arc(*t)
            for t in [(5, -3, 1), (1, 4, 1), (-5, -4, 2), (6, -6, 4), (2, 3, 2), (-2, -1, 1)]
        ),
    )
    assert rd.render_diagram_tikz(rank6) == (FIXTURES / "arc_rank6_loop_example.tikz").read_text()
    assert rd.render_dominance_tikz(5) == (FIXTURES / "dominance_rank5.tikz").read_text()
    assert rd.render_yfs_hasse_tikz(4) == (FIXTURES / "yfs_hasse_rank4.tikz").read_text()
    report("golden figures: Hasse diagrams, arc diagrams, x_1 composition")
