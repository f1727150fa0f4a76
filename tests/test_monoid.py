import copy
import math
import os
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from okada import diagrams as dg
from okada.diagrams import free_diagram, free_half_diagram
from okada.fibonacci import chain_count, dominance_leq, enumerate_yfs
from okada.monoid import (
    EXTENDED_IDEMPOTENT_COUNTS,
    KNOWN_IDEMPOTENT_COUNTS,
    GreenClasses,
    aperiodicity_index,
    aperiodicity_max,
    aperiodicity_profile,
    census_counts,
    green_classes,
    involutive_count,
    is_idempotent,
    is_involutive,
    iter_idempotents,
    j_class_rep,
    mproduct,
    r_class_rep,
)
from okada.rewriting import all_perms, perm_inverse, perm_to_diagram

# number of involutions of S_n for n = 0..9
INVOLUTION_COUNTS = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620)


# ---------------------------------------------------------------------------
# Brute-force oracles (the former library constructions)


def _census_by_squaring(n):
    """``(elements, idempotents, involutives)`` by forming ``e·e`` for
    every element."""
    total = idem = invol = 0
    for s in enumerate_yfs(n):
        halves = dg.enumerate_half(n, s)
        for left in halves:
            for right in halves:
                d = dg.glue(left, right)
                total += 1
                if mproduct(d, d) == d:
                    idem += 1
                    if left == right:
                        invol += 1
    return total, idem, invol


def _sccs(adj, radj):
    """Kosaraju strongly-connected components; returns component index per node."""
    n = len(adj)
    seen = [False] * n
    order = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()
    comp = [-1] * n
    c = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        comp[s] = c
        stack2 = [s]
        while stack2:
            v = stack2.pop()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = c
                    stack2.append(w)
        c += 1
    return comp


def _group(comp):
    buckets = {}
    for i, c in enumerate(comp):
        buckets.setdefault(c, []).append(i)
    return tuple(sorted(tuple(sorted(b)) for b in buckets.values()))


@lru_cache(maxsize=None)
def _green_by_cayley_graphs(n):
    """Green classes as strongly connected components of the right, left
    and two-sided Cayley graphs over the generators (which is the same as
    comparing one- and two-sided ideals), with the representatives found
    by scanning each class."""
    elements = dg.enumerate_diagrams(n)
    index = {e: i for i, e in enumerate(elements)}
    gens = [dg.generator(i, n) for i in range(1, n)]
    m = len(elements)
    right = [[] for _ in range(m)]
    left = [[] for _ in range(m)]
    rright = [[] for _ in range(m)]
    rleft = [[] for _ in range(m)]
    for i, e in enumerate(elements):
        for g in gens:
            j = index[mproduct(e, g)]
            right[i].append(j)
            rright[j].append(i)
            k = index[mproduct(g, e)]
            left[i].append(k)
            rleft[k].append(i)
    both = [right[i] + left[i] for i in range(m)]
    rboth = [rright[i] + rleft[i] for i in range(m)]
    r_classes = _group(_sccs(right, rright))
    l_classes = _group(_sccs(left, rleft))
    j_classes = _group(_sccs(both, rboth))
    r_reps = []
    for cls in r_classes:
        reps = [i for i in cls if is_involutive(elements[i])]
        assert len(reps) == 1, cls
        r_reps.append(reps[0])
    free_index = {index[free_diagram(s)] for s in enumerate_yfs(n)}
    j_reps = []
    for cls in j_classes:
        reps = [i for i in cls if i in free_index]
        assert len(reps) == 1, cls
        j_reps.append(reps[0])
    return GreenClasses(
        n, elements, r_classes, l_classes, j_classes, tuple(r_reps), tuple(j_reps)
    )


def test_census_matches_the_squaring_oracle():
    for n in range(9):
        assert census_counts(n) == _census_by_squaring(n)


def test_census_rank_9():
    assert census_counts(9) == (math.factorial(9), EXTENDED_IDEMPOTENT_COUNTS[9], INVOLUTION_COUNTS[9])
    assert census_counts(10) == (math.factorial(10), EXTENDED_IDEMPOTENT_COUNTS[10], 9496)


def test_iter_idempotents_matches_squaring_over_iter_diagrams():
    for n in range(8):
        assert list(iter_idempotents(n)) == [d for d in dg.iter_diagrams(n) if is_idempotent(d)]


@lru_cache(maxsize=1)
def _rows_of_rank_8():
    """Each rank-8 half as a row: its cell's half objects, their arrays and
    half arcs found afresh, and its index in the cell."""
    cells = [(dg.enumerate_half(8, s), *arrays) for s, arrays in zip(enumerate_yfs(8), _pairs_of_cells(8))]
    return [(cell, i) for cell in cells for i in range(len(cell[0]))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_row_walk_matches_squaring_at_rank_8(data):
    # the exhaustive squaring above stops at rank 7; here a drawn row of a
    # rank-8 cell, from a drawn start, against each of its elements squared
    from okada.monoid import _passing

    rows = _rows_of_rank_8()
    (objs, halves, ends), i = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
    start = data.draw(st.integers(0, len(objs)), label="start")
    want = [j for j in range(start, len(objs)) if is_idempotent(dg.glue(objs[i], objs[j]))]
    assert _passing(halves[i], halves, ends, start) == want


def test_iter_idempotents_builds_elements_only_through_the_cell_path(monkeypatch):
    # Each cell's elements come from its halves tied once per end tuple;
    # the checked single-pair glue is never called, and only the
    # idempotents are built.  Every diagram the library derives is built
    # through ArcDiagram._trusted, so that is where the builds are counted.
    def never(*args):
        raise AssertionError("iter_idempotents called glue")

    def counted(*args):
        built.append(args[0])
        return honest(*args)

    oracles = {n: [e for e in dg.iter_diagrams(n) if is_idempotent(e)] for n in range(8)}
    honest, built = dg.ArcDiagram._trusted, []
    monkeypatch.setattr("okada.diagrams.glue", never)
    monkeypatch.setattr(dg.ArcDiagram, "_trusted", counted)
    for n, oracle in oracles.items():
        built.clear()
        assert list(iter_idempotents(n)) == oracle
        assert len(built) == KNOWN_IDEMPOTENT_COUNTS[n], n


def test_green_classes_match_the_cayley_graph_oracle():
    for n in range(8):
        assert green_classes(n) == _green_by_cayley_graphs(n)


def test_green_classes_search_for_nothing(monkeypatch):
    # The representatives are read off the cell layout: no element is
    # tested for being involutive or free.  The oracle scans with all
    # three, so it runs before they are patched.
    oracles = {n: _green_by_cayley_graphs(n) for n in range(7)}

    def never(*args, **kwargs):
        raise AssertionError("green_classes searched the elements")

    for target in ("okada.monoid.is_involutive", "okada.diagrams.mirror", "okada.diagrams.free_diagram",
                   "okada.algebra.free_diagram"):
        monkeypatch.setattr(target, never)
    green_classes.cache_clear()
    try:
        for n, oracle in oracles.items():
            assert green_classes(n) == oracle
    finally:
        green_classes.cache_clear()


def test_class_representatives_match_the_cayley_graph_oracle():
    for n in range(8):
        gc = _green_by_cayley_graphs(n)
        for classes, reps, rep_of in (
            (gc.r_classes, gc.r_reps, r_class_rep),
            (gc.j_classes, gc.j_reps, j_class_rep),
        ):
            for cls, rep in zip(classes, reps):
                for i in cls:
                    assert rep_of(gc.elements[i]) == gc.elements[rep]


def test_class_representatives_at_rank_1024():
    d = perm_to_diagram(tuple(range(1024, 0, -1)))
    r = r_class_rep(d)
    assert is_involutive(r) and dg.bra(r) == dg.bra(d)
    j = j_class_rep(d)
    s = dg.prop_lab(d)
    assert dg.prop_lab(j) == s
    assert dg.bra(j) == dg.ket(j) == free_half_diagram(s)


def chain_product(*ds):
    out = ds[0]
    for d in ds[1:]:
        out = mproduct(out, d)
    return out


def test_mproduct_unit_and_associativity():
    ds = dg.enumerate_diagrams(4)
    e = dg.identity(4)
    for d in ds:
        assert mproduct(e, d) == d == mproduct(d, e)
    for a in ds[:8]:
        for b in ds[:8]:
            for c in ds[:8]:
                assert mproduct(mproduct(a, b), c) == mproduct(a, mproduct(b, c))


def test_idempotent_examples():
    e = chain_product(dg.generator(1, 3), dg.generator(2, 3))
    assert is_idempotent(e)
    # every rank-3 element is idempotent
    assert all(is_idempotent(d) for d in dg.iter_diagrams(3))
    f = chain_product(dg.generator(1, 4), dg.generator(2, 4), dg.generator(3, 4))
    g = chain_product(dg.generator(3, 4), dg.generator(2, 4), dg.generator(1, 4))
    non_idempotents = {d for d in dg.iter_diagrams(4) if not is_idempotent(d)}
    assert non_idempotents == {f, g}
    assert mproduct(f, f) != f
    assert chain_product(f, f, f) == mproduct(f, f)
    assert aperiodicity_index(f) == 2


def test_involutive_implies_idempotent():
    for n in range(7):
        count = 0
        for d in dg.iter_diagrams(n):
            if is_involutive(d):
                count += 1
                assert is_idempotent(d)
        assert count == INVOLUTION_COUNTS[n]
        assert involutive_count(n) == count


def test_involutive_count_is_the_census_column_without_a_census(monkeypatch):
    from okada import monoid

    column = [census_counts(n)[2] for n in range(9)]
    assert column == list(INVOLUTION_COUNTS[:9])

    def never(*args, **kwargs):
        raise AssertionError("involutive_count ran the census")

    monkeypatch.setattr(monoid, "census_counts", never)
    assert [involutive_count(n) for n in range(9)] == column


def test_involutives_are_the_involution_basis_elements():
    for n in range(1, 6):
        for p in all_perms(n):
            assert is_involutive(perm_to_diagram(p)) == (p == perm_inverse(p))


def test_idempotent_census_small():
    for n in range(7):
        assert census_counts(n)[1] == KNOWN_IDEMPOTENT_COUNTS[n]


def test_census_threads_agree():
    assert census_counts(5, threads=2)[1] == KNOWN_IDEMPOTENT_COUNTS[5]
    assert census_counts(7, threads=2) == census_counts(7)


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: maps in this process and starts no worker."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_the_census_job_list_covers_every_pair_once(monkeypatch):
    from okada import monoid

    jobs = []

    def record(job):
        jobs.append(job)
        return 0

    monkeypatch.setattr(monoid, "_census_rows", record)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
    for n in range(13):
        sizes = [chain_count(s) for s in enumerate_yfs(n)]
        rows = [(c, i) for c, k in enumerate(sizes) for i in range(k)]
        for threads in (1, 2, 3, 64):
            jobs.clear()
            assert census_counts(n, threads) == (math.factorial(n), 0, involutive_count(n))
            # a job holds the pairs i <= j of its rows, so whole rows, each once, cover the triangle
            assert [(c, i) for m, c, start, stop in jobs for i in range(start, stop)] == rows, (n, threads)
            assert {m for m, *_ in jobs} <= {n}
            # balanced by pairs: a block passes its share by less than one row
            block = max(1, sum(k * (k + 1) // 2 for k in sizes) // (4 * threads))
            for m, c, start, stop in jobs:
                k = sizes[c]
                held = (stop - start) * k - (start + stop - 1) * (stop - start) // 2
                assert held < block + k and (held >= block or stop == k), (n, threads, c, start, stop)


def test_a_census_job_tests_each_pair_above_the_diagonal_once(monkeypatch):
    from okada import monoid

    tested = []

    def record(left, halves, ends, start=0):
        tested.extend((id(left), id(right)) for right in halves[start:])
        return list(range(start, len(halves)))

    monkeypatch.setattr(monoid, "_passing", record)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
    for n in range(9):
        cells = [[id(h) for h in halves] for _, halves, _ in dg._rank_cells(n)]
        above = sorted((c[i], c[j]) for c in cells for i in range(len(c)) for j in range(i + 1, len(c)))
        for threads in (1, 3):
            tested.clear()
            # every pair passes: the diagonal once and each pair above it twice give the whole square
            assert census_counts(n, threads)[1] == math.factorial(n), (n, threads)
            assert sorted(tested) == above, (n, threads)


def _count_walks(monkeypatch):
    """Record the arguments of every lattice walk the cell builders make."""
    walks, honest = [], dg._cells

    def counted(n, s=None):
        walks.append((n, s))
        return honest(n, s)

    monkeypatch.setattr(dg, "_cells", counted)
    dg._rank_cells.cache_clear()
    return walks


def test_the_census_builds_each_rank_once(monkeypatch):
    built = _count_walks(monkeypatch)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
    counts = KNOWN_IDEMPOTENT_COUNTS + (EXTENDED_IDEMPOTENT_COUNTS[9], EXTENDED_IDEMPOTENT_COUNTS[10])
    for n in range(11):
        built.clear()
        assert census_counts(n, threads=4)[1] == counts[n]
        assert built == [(n, None)], n
        # the idempotents, Green classes and aperiodicity of the same rank reuse it
        if n <= 6:
            assert sum(1 for _ in iter_idempotents(n)) == counts[n]
            green_classes.cache_clear()
            green_classes(n)
            aperiodicity_max(n)
            assert built == [(n, None)], n


def test_one_walk_serves_every_cell_consumer(monkeypatch):
    # All that is asked of one rank's cells reads its one layout.
    from okada.algebra import cell_datum, ideal_basis

    walks = _count_walks(monkeypatch)
    for n in range(8):
        walks.clear()
        census_counts(n)
        green_classes.cache_clear()
        green_classes(n)
        aperiodicity_profile(n)
        list(iter_idempotents(n))
        list(dg.iter_diagrams(n))
        dg.enumerate_half(n)
        cell_datum(n)
        for s in enumerate_yfs(n):
            ideal_basis(s)
        assert walks == [(n, None)], n


def test_the_scans_build_no_half_object(monkeypatch):
    # The cell layout holds each half as its (partner, height) arrays, and
    # the scans read those: no half object is built while they run.  The
    # halves the API hands out still equal the chain decoding.
    from okada.algebra import cell_datum, ideal_basis
    from okada.fibonacci import saturated_chains

    def never(*args, **kwargs):
        raise AssertionError("a scan built a half object")

    for n in range(8):
        want = {s: tuple(dg.chain_inverse(c) for c in saturated_chains(s)) for s in enumerate_yfs(n)}
        dg._rank_cells.cache_clear()
        green_classes.cache_clear()
        with monkeypatch.context() as halves_off:
            halves_off.setattr(dg.HalfArcDiagram, "_trusted", never)
            halves_off.setattr(dg.HalfArcDiagram, "__init__", never)
            census_counts(n)
            green_classes(n)
            aperiodicity_profile(n)
            list(iter_idempotents(n))
            list(dg.iter_diagrams(n))
            for s in want:
                ideal_basis(s)
        assert dg.enumerate_half(n) == sum(want.values(), ()), n
        assert cell_datum(n).index_sets == want, n


def _pairs_of_cells(n):
    # each cell's halves as the arrays the row walk reads, their half arcs found afresh
    for s in enumerate_yfs(n):
        halves = [(h.partner, h.height) for h in dg.enumerate_half(n, s)]
        ends = [[p for p, q in enumerate(partner) if q < 0] for partner, _ in halves]
        yield halves, ends


def test_the_pair_test_is_mirror_symmetric():
    # row i holds j exactly when row j holds i; a row from any start is the
    # tail of the whole row, and a pair asked alone agrees with the row
    from okada.monoid import _passing

    for n in range(8):
        for halves, ends in _pairs_of_cells(n):
            rows = [_passing(left, halves, ends) for left in halves]
            for i, left in enumerate(halves):
                for j, right in enumerate(halves):
                    assert (j in rows[i]) == (i in rows[j]), (n, i, j)
                    assert _passing(left, halves, ends, j) == [m for m in rows[i] if m >= j], (n, i, j)
                    assert _passing(left, [right], [ends[j]]) == [0] * (j in rows[i]), (n, i, j)


def test_the_census_matches_the_full_square():
    from okada.monoid import _passing

    for n in range(9):
        square = sum(len(_passing(left, halves, ends)) for halves, ends in _pairs_of_cells(n) for left in halves)
        assert census_counts(n)[1] == square == KNOWN_IDEMPOTENT_COUNTS[n], n


def test_aperiodicity_max_matches_the_full_scan(monkeypatch):
    # the profile over i <= j against every element powered, at rank 8 in the
    # extended run; the failing pairs are joined from tied halves, never by glue
    def never(*args):
        raise AssertionError("aperiodicity_profile called glue")

    monkeypatch.setattr("okada.diagrams.glue", never)
    for n in range(9):
        profile = aperiodicity_profile(n)
        assert profile[1] == census_counts(n)[1] and sum(profile.values()) == math.factorial(n), n
        assert aperiodicity_max(n) == max(profile), n
        if n < 8 or os.environ.get("OKADA_EXTENDED"):
            full = Counter(aperiodicity_index(d) for d in dg.iter_diagrams(n))
            assert profile == full and list(profile) == sorted(full), n


def test_aperiodicity():
    for n in range(6):
        for d in dg.iter_diagrams(n):
            k = aperiodicity_index(d)
            assert k >= 1
            if is_idempotent(d):
                assert k == 1
    assert aperiodicity_max(4) == 2


def test_green_class_structure():
    for n in range(1, 6):
        gc = green_classes(n)
        assert isinstance(gc, GreenClasses)
        total = sum(len(c) for c in gc.r_classes)
        assert total == math.factorial(n)
        assert len(gc.j_classes) == len(enumerate_yfs(n))
        assert len(gc.r_classes) == INVOLUTION_COUNTS[n]
        # R refines J
        j_of = {}
        for ci, cls in enumerate(gc.j_classes):
            for i in cls:
                j_of[i] = ci
        for cls in gc.r_classes:
            assert len({j_of[i] for i in cls}) == 1


def test_unique_involutive_per_r_class_and_free_per_j_class():
    for n in range(1, 6):
        gc = green_classes(n)
        for cls, rep in zip(gc.r_classes, gc.r_reps):
            involutives = [i for i in cls if is_involutive(gc.elements[i])]
            assert involutives == [rep]
        frees = {free_diagram(s) for s in enumerate_yfs(n)}
        for cls, rep in zip(gc.j_classes, gc.j_reps):
            inside = [i for i in cls if gc.elements[i] in frees]
            assert inside == [rep]


def test_class_representative_lookups():
    gc = green_classes(4)
    for e in gc.elements:
        r = r_class_rep(e)
        assert is_involutive(r)
        assert gc.class_of(e, "R") == gc.class_of(r, "R")
        j = j_class_rep(e)
        assert j == free_diagram(dg.prop_lab(e))
        assert gc.class_of(e, "J") == gc.class_of(j, "J")


def _classes_by_scan(gc, keys, e):
    """The R-, L- and J-class of ``e`` by the linear scans
    ``GreenClasses.class_of`` did before its lookup tables.  ``keys`` are
    the ``(partner, height)`` pairs of ``gc.elements``, compared as plain
    tuples so that the scan for the index stays fast."""
    idx = keys.index((e.partner, e.height))
    classes = (gc.r_classes, gc.l_classes, gc.j_classes)
    return [next(cls for cls in kind if idx in cls) for kind in classes]


def test_class_of_matches_the_linear_scan():
    for n in range(8):
        gc = green_classes(n)
        keys = [(d.partner, d.height) for d in gc.elements]
        for e in gc.elements:
            twin = copy.copy(e)  # looked up by value, not identity
            got = [gc.class_of(twin, kind) for kind in "RLJ"]
            assert got == _classes_by_scan(gc, keys, e)
    with pytest.raises(ValueError):
        gc.class_of(dg.identity(3), "R")
    with pytest.raises(ValueError, match="class kind must be 'R', 'L' or 'J', got 'X'"):
        gc.class_of(gc.elements[0], "X")


def test_identity_r_class_is_trivial():
    for n in range(1, 6):
        gc = green_classes(n)
        assert gc.class_of(dg.identity(n), "R") == (gc.elements.index(dg.identity(n)),)


def test_j_order_isomorphic_to_dominance():
    # index J-classes by the label set of their free representative and
    # compare reachability in the two-sided Cayley graph with dominance
    for n in range(1, 6):
        gc = green_classes(n)
        label_of = {}
        for ci, rep in enumerate(gc.j_reps):
            label_of[ci] = dg.prop_lab(gc.elements[rep])
        j_of = {}
        for ci, cls in enumerate(gc.j_classes):
            for i in cls:
                j_of[i] = ci
        gens = [dg.generator(i, n) for i in range(1, n)]
        index = {e: i for i, e in enumerate(gc.elements)}
        # reachability between classes via one-step products
        reach = {ci: {ci} for ci in label_of}
        changed = True
        while changed:
            changed = False
            for i, e in enumerate(gc.elements):
                for g in gens:
                    for nxt in (mproduct(e, g), mproduct(g, e)):
                        a, b = j_of[i], j_of[index[nxt]]
                        for src in list(reach):
                            if a in reach[src] and b not in reach[src]:
                                reach[src].add(b)
                                changed = True
        for a in label_of:
            for b in label_of:
                assert (b in reach[a]) == dominance_leq(label_of[b], label_of[a])


def test_left_right_duality():
    for n in range(1, 6):
        gc = green_classes(n)
        mirrored = {
            tuple(sorted(gc.elements.index(dg.mirror(gc.elements[i])) for i in cls))
            for cls in gc.r_classes
        }
        assert mirrored == set(gc.l_classes)
