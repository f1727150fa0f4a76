import math
import random

import pytest

from okada import diagrams as dg
from okada.errors import InternalInvariantError, PropagatingMismatchError, RankMismatchError
from okada.fibonacci import Chain, FibonacciSet, chain_count, enumerate_yfs
from okada.monoid import green_classes
from okada.polynomials import x_var
from okada.rewriting import all_perms, perm_to_diagram

F = FibonacciSet
A = dg.Arc

# Frozen rank-6 sample: the collapsed arc diagram of DIAMOND_WORD
# (tests/test_rewriting.py), with two loops removed.
RANK6_SAMPLE = dg.ArcDiagram(
    6, tuple(A(*t) for t in [(5, -3, 1), (1, 4, 1), (-5, -4, 2), (6, -6, 4), (2, 3, 2), (-2, -1, 1)])
)

# Frozen rank-8 sample with a nontrivial pair of restriction chains.
RANK8_SAMPLE = dg.ArcDiagram(
    8,
    tuple(
        A(*t)
        for t in [
            (1, -3, 1), (4, -8, 2), (5, 8, 3), (-2, -1, 1),
            (2, 3, 2), (-7, -4, 4), (6, 7, 6), (-6, -5, 5),
        ]
    ),
)

# Frozen rank-8 composition: COMPOSE_LEFT . COMPOSE_RIGHT = x1 * COMPOSE_RESULT.
COMPOSE_LEFT = dg.ArcDiagram(
    8,
    tuple(
        A(*t)
        for t in [
            (5, -7, 3), (3, 4, 1), (-4, -3, 3), (1, 2, 1),
            (-6, -5, 1), (6, -8, 6), (7, 8, 7), (-2, -1, 1),
        ]
    ),
)
COMPOSE_RIGHT = dg.ArcDiagram(
    8,
    tuple(
        A(*t)
        for t in [
            (5, -7, 3), (6, 7, 4), (-4, -1, 1), (1, 4, 1),
            (-6, -5, 3), (8, -8, 4), (2, 3, 2), (-3, -2, 2),
        ]
    ),
)
COMPOSE_RESULT = dg.ArcDiagram(
    8,
    tuple(
        A(*t)
        for t in [
            (5, -7, 1), (3, 4, 1), (-4, -1, 1), (1, 2, 1),
            (-6, -5, 3), (6, -8, 4), (7, 8, 7), (-3, -2, 2),
        ]
    ),
)


def test_identity_and_sample_are_valid():
    assert dg.validate(dg.identity(8))
    assert dg.validate(RANK6_SAMPLE)
    assert dg.validate(RANK8_SAMPLE)


def test_label_violations_are_reported_distinctly():
    bad = dg.ArcDiagram(2, (A(1, -1, 2), A(2, -2, 2)))
    msgs = dg.violations(bad)
    assert any(m.startswith("label:") for m in msgs)
    crossing = dg.ArcDiagram(2, (A(1, -2, 1), A(2, -1, 1)))
    assert any(m.startswith("crossing:") for m in msgs) is False
    assert any(m.startswith("crossing:") for m in dg.violations(crossing))
    nested = dg.ArcDiagram(2, (A(1, -1, 1), A(2, -2, 2)))
    assert dg.validate(nested)


def test_structural_defects_raise_at_construction():
    with pytest.raises(ValueError):
        dg.ArcDiagram(2, (A(1, 2, 1),))  # not a perfect matching
    with pytest.raises(ValueError):
        dg.ArcDiagram(2, (A(1, 2, 1), A(1, -1, 1), A(-2, -1, 1)))  # reused endpoint
    with pytest.raises(ValueError):
        dg.ArcDiagram(2, (A(1, 3, 1), A(-2, -1, 1)))  # out of range
    with pytest.raises(ValueError):
        dg.ArcDiagram(2, (A(1, 2, 0), A(-2, -1, 1)))  # bad height


def test_generators():
    g3 = dg.generator(3, 8)
    expected = {A(3, 4, 3), A(-4, -3, 3)} | {A(j, -j, j) for j in (1, 2, 5, 6, 7, 8)}
    assert set(g3.arcs) == expected
    assert dg.generator(1, 2) == dg.ArcDiagram(2, (A(1, 2, 1), A(-2, -1, 1)))
    with pytest.raises(ValueError):
        dg.generator(0, 4)
    with pytest.raises(ValueError):
        dg.generator(4, 4)


def test_identity_with_wrong_label_is_invalid():
    tweaked = dg.ArcDiagram(
        3, (A(1, -1, 2),) + tuple(A(a, -a, a) for a in (2, 3))
    )
    assert not dg.validate(tweaked)


def test_iota():
    assert dg.iota(dg.identity(4)) == dg.identity(5)
    assert dg.iota_inverse(dg.identity(5)) == dg.identity(4)
    with pytest.raises(ValueError):
        dg.iota_inverse(dg.generator(4, 5))


def test_mirror():
    assert dg.mirror(dg.identity(6)) == dg.identity(6)
    for i in range(1, 6):
        assert dg.mirror(dg.generator(i, 6)) == dg.generator(i, 6)
    assert dg.mirror(dg.mirror(RANK8_SAMPLE)) == RANK8_SAMPLE


def test_bra_ket_prop_lab():
    b = dg.bra(dg.identity(5))
    assert not b.full_arcs
    assert dg.prop_lab(b) == F(5, (1, 2, 3, 4, 5))
    g = dg.bra(dg.generator(1, 2))
    assert g.full_arcs == (A(1, 2, 1),) and not g.half_arcs
    assert dg.prop_lab(g) == F(2, ())
    assert dg.prop_lab(RANK8_SAMPLE) == F(8, (1, 2))
    assert dg.prop_lab(dg.bra(RANK8_SAMPLE)) == dg.prop_lab(dg.ket(RANK8_SAMPLE))


def test_half_validation():
    h = dg.bra(RANK8_SAMPLE)
    assert dg.validate_half(h)
    bad = dg.HalfArcDiagram(3, (dg.Arc(1, 3, 1),), (dg.HalfArc(2, 2),))
    assert any(m.startswith("crossing") for m in dg.half_violations(bad))
    with pytest.raises(ValueError):
        dg.HalfArcDiagram(3, (dg.Arc(1, 2, 1),), ())  # node 3 uncovered


def test_glue_roundtrip_and_mismatch():
    for n in range(1, 7):
        for p in all_perms(n):
            d = perm_to_diagram(p)
            assert dg.glue(dg.bra(d), dg.ket(d)) == d
    with pytest.raises(PropagatingMismatchError):
        dg.glue(dg.bra(dg.identity(2)), dg.bra(dg.generator(1, 2)))
    with pytest.raises(RankMismatchError):
        dg.glue(dg.bra(dg.identity(2)), dg.bra(dg.identity(4)))


def _half_arc_positions(partner):
    return [p for p, q in enumerate(partner) if q < 0]


def test_the_walk_records_each_half_arc_position():
    # The ends the walk hands on are the half arcs of each half, over a
    # whole rank and over the single-cell walk to a given top.
    for n in range(11):
        for walk in (dg._cells(n), *(dg._cells(n, s) for s in enumerate_yfs(n))):
            for s, halves, ends in walk:
                assert [list(e) for e in ends] == [_half_arc_positions(partner) for partner, _ in halves], s


def _cell_arrays(s):
    """The ``(partner, height)`` arrays of the halves of ``s`` and their half-arc
    positions, read off the half objects, as the cell layout holds them."""
    halves = [(h.partner, h.height) for h in dg.enumerate_half(s.rank, s)]
    return halves, [_half_arc_positions(partner) for partner, _ in halves]


def test_glue_cell_equals_glue_pair_by_pair():
    # Halves tied once per end tuple must give what glue gives pair by
    # pair, on the half objects, in the order of the pair list: the square
    # row by row, the same reversed, and the pairs above the diagonal.
    for n in range(8):
        for s, cell, ends in dg._rank_cells(n):
            objs = dg.enumerate_half(n, s)
            assert [(h.partner, h.height) for h in objs] == list(cell), s
            square = [(i, j) for i in range(len(cell)) for j in range(len(cell))]
            for pairs in (square, square[::-1], [(i, j) for i, j in square if i < j]):
                assert list(dg._glue_cell(cell, ends, pairs)) == [dg.glue(objs[i], objs[j]) for i, j in pairs]
    assert list(dg._glue_cell((), (), ())) == []


def test_glue_cell_refuses_a_foreign_half():
    # The cell of {1} at rank 5.  {3} has as many half arcs with another
    # label, {1, 2, 3} more of them, and {1} at rank 3 the same labels at
    # another rank.  Planted first, inside or last, a foreign half is a
    # library bug, raised before any diagram is built.
    cell, ends = _cell_arrays(F(5, (1,)))
    for other in (F(5, (3,)), F(5, (1, 2, 3)), F(3, (1,))):
        (foreign, *_), (foreign_ends, *_) = _cell_arrays(other)
        for at in (0, 3, len(cell)):
            halves = cell[:at] + [foreign] + cell[at:]
            marks = ends[:at] + [foreign_ends] + ends[at:]
            every = [(i, j) for i in range(len(halves)) for j in range(len(halves))]
            planted = dg._glue_cell(halves, marks, every)
            with pytest.raises(InternalInvariantError, match="not in the cell"):
                next(planted)


def test_glue_cell_refuses_a_half_arc_left_untied():
    # End tuples that miss the last half arc of every half still agree on
    # their labels, but each tied part keeps that half arc open: a library
    # bug, raised before any diagram is built.
    cell, ends = _cell_arrays(F(5, (1, 2, 3)))
    ends = [e[:-1] for e in ends]
    with pytest.raises(InternalInvariantError, match="left open"):
        next(dg._glue_cell(cell, ends, [(0, 0)]))


def test_green_classes_index_the_enumeration():
    # The class layout of green_classes reads element indices off the
    # order of iter_diagrams; both build their cells with _glue_cell.
    for n in range(7):
        assert green_classes(n).elements == tuple(dg.iter_diagrams(n))


def test_restrict_examples():
    h = dg.bra(RANK8_SAMPLE)
    assert dg.restrict(h, 8) == h
    assert dg.restrict(h, 0) == dg.HalfArcDiagram(0, (), ())
    assert dg.prop_lab(dg.restrict(h, 6)).elements == (1, 2, 3, 6)
    for r in range(9):
        for s in range(r, 9):
            assert dg.restrict(dg.restrict(h, s), r) == dg.restrict(h, r)


def test_chain_of_rank8_sample():
    left = dg.chain_of(dg.bra(RANK8_SAMPLE))
    right = dg.chain_of(dg.ket(RANK8_SAMPLE))
    assert [s.elements for s in left.sets] == [
        (), (1,), (1, 2), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 6), (1, 2, 3), (1, 2),
    ]
    assert [s.elements for s in right.sets] == [
        (), (1,), (), (1,), (1, 4), (1, 4, 5), (1, 4), (1,), (1, 2),
    ]


def test_chain_of_identity():
    c = dg.chain_of(dg.bra(dg.identity(4)))
    assert [s.elements for s in c.sets] == [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]


def _chain_by_restriction(h):
    """``chain_of`` as one checked restriction per rank (the former
    library construction), as an oracle."""
    return Chain(tuple(dg.prop_lab(dg.restrict(h, i)) for i in range(h.rank + 1)))


def test_chain_of_matches_the_restriction_oracle():
    for n in range(9):
        for h in dg.enumerate_half(n):
            assert dg.chain_of(h) == _chain_by_restriction(h)
    d = perm_to_diagram(tuple(range(1024, 0, -1)))
    for h in (dg.bra(d), dg.ket(d)):
        assert dg.chain_of(h) == _chain_by_restriction(h)


def test_chain_of_refuses_exactly_the_halves_that_half_violations_flags():
    # chain_of builds its sets and chain unchecked once half_violations
    # passes; a half it accepts must give the checked restriction chain.
    rng, accepted = random.Random(38), 0
    for _ in range(3000):
        n = rng.randint(4, 6)
        nodes, k = rng.sample(range(1, n + 1), n), rng.randint(0, n // 2)
        h = dg.HalfArcDiagram(n, [(nodes[2 * i], nodes[2 * i + 1], rng.randint(1, n)) for i in range(k)],
                              [(e, rng.randint(1, n)) for e in nodes[2 * k:]])
        if dg.half_violations(h):
            with pytest.raises(ValueError, match="invalid half diagram"):
                dg.chain_of(h)
        else:
            accepted += 1
            assert dg.chain_of(h) == _chain_by_restriction(h), h
    assert 0 < accepted < 3000


def test_chain_bijection_roundtrip():
    for n in range(8):
        halves = dg.enumerate_half(n)
        seen_chains = set()
        for h in halves:
            assert dg.validate_half(h)
            c = dg.chain_of(h)
            seen_chains.add(c)
            assert dg.chain_inverse(c) == h
        assert len(seen_chains) == len(halves)
        assert len(halves) == sum(chain_count(s) for s in enumerate_yfs(n))
        for s in enumerate_yfs(n):
            assert len(dg.enumerate_half(n, s)) == chain_count(s)


def test_enumerate_half_filtered():
    assert len(dg.enumerate_half(3, F(3, (1,)))) == 2
    for n in range(6):
        for s in enumerate_yfs(n):
            halves = dg.enumerate_half(n, s)
            assert len(halves) == chain_count(s)
            assert all(dg.prop_lab(h) == s for h in halves)


def test_the_lattice_walk_matches_the_chain_decoding(monkeypatch):
    from okada import fibonacci
    from okada.fibonacci import saturated_chains

    want = {n: [tuple(dg.chain_inverse(c) for c in saturated_chains(s)) for s in enumerate_yfs(n)] for n in range(10)}

    def never(*args, **kwargs):
        raise AssertionError("enumerate_half decoded chains")

    for owner in (fibonacci, dg):  # the defining module and the names diagrams imports
        for name in ("Chain", "saturated_chains", "chain_inverse"):
            monkeypatch.setattr(owner, name, never, raising=False)
    for n, cells in want.items():
        for s, halves in zip(enumerate_yfs(n), cells):
            assert dg.enumerate_half(n, s) == halves, s
        assert dg.enumerate_half(n) == sum(cells, ()), n


def test_compose_unit_and_relations():
    for n in range(1, 6):
        e = dg.identity(n)
        for p in all_perms(n):
            d = perm_to_diagram(p)
            assert dg.compose(e, d) == (d, ())
            assert dg.compose(d, e) == (d, ())
    for n in range(2, 7):
        for i in range(1, n):
            g = dg.generator(i, n)
            res, loops = dg.compose(g, g)
            assert res == g and loops == (dg.LoopRecord(i, 1),)


def test_compose_rank8_golden_example():
    assert dg.validate(COMPOSE_LEFT) and dg.validate(COMPOSE_RIGHT)
    result, loops = dg.compose(COMPOSE_LEFT, COMPOSE_RIGHT)
    assert result == COMPOSE_RESULT
    assert loops == (dg.LoopRecord(1, 1),)
    coeff, res = dg.product_y1(COMPOSE_LEFT, COMPOSE_RIGHT)
    assert coeff == x_var(1) and res == COMPOSE_RESULT


def test_compose_results_always_validate():
    rng = random.Random(3)
    for n in range(1, 6):
        ds = dg.enumerate_diagrams(n)
        for c in ds:
            for d in ds:
                res, _ = dg.compose(c, d)
                assert dg.validate(res)
    big = dg.enumerate_diagrams(8)
    for _ in range(10_000):
        c, d = rng.choice(big), rng.choice(big)
        res, _ = dg.compose(c, d)
        assert dg.validate(res), (c, d)


def test_product_y1_associative_and_mirror_antihomomorphism():
    rng = random.Random(9)
    ds = dg.enumerate_diagrams(6)
    for _ in range(200):
        a, b, c = rng.choice(ds), rng.choice(ds), rng.choice(ds)
        c1, r1 = dg.product_y1(a, b)
        c2, r2 = dg.product_y1(r1, c)
        c3, r3 = dg.product_y1(b, c)
        c4, r4 = dg.product_y1(a, r3)
        assert r2 == r4 and c1 * c2 == c3 * c4
        cm, rm = dg.product_y1(dg.mirror(b), dg.mirror(a))
        assert rm == dg.mirror(r1) and cm == c1


def test_prop_lab_monotone_under_products():
    from okada.fibonacci import dominance_leq, dominance_lt, dominance_meet

    ds = dg.enumerate_diagrams(5)
    for e in ds:
        for f in ds:
            prod, _ = dg.compose(e, f)
            pe, pf, pp = dg.prop_lab(e), dg.prop_lab(f), dg.prop_lab(prod)
            assert dominance_leq(pp, dominance_meet(pe, pf))
            assert dg.bra(prod) == dg.bra(e) or dominance_lt(pp, pe)


def test_peel_examples():
    for n in range(2, 7):
        flat, start = dg.peel(dg.generator(n - 1, n))
        assert flat == dg.identity(n - 1) and start == n - 1
    with pytest.raises(ValueError):
        dg.peel(dg.identity(3))


def test_peel_reconstructs_all_rank5_diagrams():
    def rebuild(d):
        n = d.rank
        if n == 0:
            return d
        if (n, -n, n) in d.arcs:
            return dg.iota(rebuild(dg.iota_inverse(d)))
        flat, start = dg.peel(d)
        out = dg.iota(rebuild(flat))
        for i in range(n - 1, start - 1, -1):
            out, loops = dg.compose(out, dg.generator(i, n))
            assert not loops
        return out

    count = 0
    for d in dg.iter_diagrams(5):
        assert rebuild(d) == d
        count += 1
    assert count == 120


def test_peel_right_multiplication_roundtrip():
    rng = random.Random(1)
    for n in (4, 5, 6):
        for start in range(1, n):
            d = dg.iota(rng.choice(dg.enumerate_diagrams(n - 1)))
            for i in range(n - 1, start - 1, -1):
                d, _ = dg.compose(d, dg.generator(i, n))
            if (n, -n, n) in d.arcs:
                continue
            flat, got = dg.peel(d)
            assert got == start


def _height_candidates(mn):
    return range(2 - mn % 2, mn + 1, 2)


def _brute_force_diagrams(n):
    """All valid diagrams by raw search: every non-crossing perfect
    matching of the boundary, every labeling passing the three height
    conditions.  Independent of glue, chains, and the rewriting model."""
    import itertools

    nodes = list(range(1, n + 1)) + [-k for k in range(n, 0, -1)]

    def matchings(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for i in range(1, len(rest), 2):
            for inner in matchings(rest[1:i]):
                for outer in matchings(rest[i + 1 :]):
                    yield [(first, rest[i])] + inner + outer

    found = set()
    for m in matchings(nodes):
        per_arc = [
            [(a, b, h) for h in _height_candidates(min(abs(a), abs(b)))]
            for a, b in m
        ]
        for combo in itertools.product(*per_arc):
            d = dg.ArcDiagram(n, tuple(A(*t) for t in combo))
            if dg.validate(d):
                found.add(d)
    return found


def _brute_force_halves(n):
    """All valid half diagrams by raw search over pair/singleton covers."""
    import itertools

    def covers(nodes):
        if not nodes:
            yield ((), ())
            return
        first, rest = nodes[0], nodes[1:]
        for fulls, halves in covers(rest):
            yield fulls, ((first,) + halves)
        for i, b in enumerate(rest):
            for fulls, halves in covers(rest[:i] + rest[i + 1 :]):
                yield (((first, b),) + fulls), halves

    found = set()
    for fulls, halves in covers(tuple(range(1, n + 1))):
        per_full = [[(a, b, h) for h in _height_candidates(a)] for a, b in fulls]
        per_half = [[(e, h) for h in _height_candidates(e)] for e in halves]
        for fc in itertools.product(*per_full):
            for hc in itertools.product(*per_half):
                half = dg.HalfArcDiagram(
                    n,
                    tuple(A(*t) for t in fc),
                    tuple(dg.HalfArc(*t) for t in hc),
                )
                if dg.validate_half(half):
                    found.add(half)
    return found


def test_enumeration_agrees_with_brute_force():
    for n in range(6):
        assert _brute_force_diagrams(n) == set(dg.enumerate_diagrams(n))
    for n in range(6):
        assert _brute_force_halves(n) == set(dg.enumerate_half(n))


def test_enumeration_counts():
    for n in range(8):
        assert len(dg.enumerate_diagrams(n)) == math.factorial(n)
    for n in range(7):
        halves = dg.enumerate_half(n)
        assert len(halves) == sum(chain_count(s) for s in enumerate_yfs(n))
        assert sum(
            chain_count(s) ** 2 for s in enumerate_yfs(n)
        ) == math.factorial(n)


def test_enumerate_diagrams_all_valid_and_distinct():
    for n in range(6):
        ds = dg.enumerate_diagrams(n)
        assert len(set(ds)) == len(ds)
        for d in ds:
            assert dg.validate(d)
