"""The flat partner/height core of ``ArcDiagram`` against references.

``reference_compose`` is the dict-walk composition the flat ``compose``
replaced; it works from ``arcs`` alone and builds its result through the
checking constructor, so it shares no code with the flat walk.
"""

import copy
import pickle
import random
from collections import Counter

import pytest

from okada import diagrams as dg
from okada.errors import InternalInvariantError, RankMismatchError

A = dg.Arc


def reference_compose(c, d):
    """Seed composition: walk strands through dicts of partners."""
    if c.rank != d.rank:
        raise RankMismatchError(f"ranks {c.rank} and {d.rank} differ")
    n = c.rank

    def partner_map(x):
        out = {}
        for a, b, h in x.arcs:
            out[a] = (b, h)
            out[b] = (a, h)
        return out

    cp = partner_map(c)
    dp = partner_map(d)
    used_left, used_right, mid_seen = set(), set(), set()
    arcs = []

    def walk_from_mid(side, k, h):
        while True:
            mid_seen.add(k)
            if side == "D":
                v, hh = dp[k]
                h = min(h, hh)
                if v < 0:
                    return v, -1, h
                side, k = "C", v
            else:
                v, hh = cp[-k]
                h = min(h, hh)
                if v > 0:
                    return v, +1, h
                side, k = "D", -v

    for a in range(1, n + 1):
        if a in used_left:
            continue
        v, h = cp[a]
        if v > 0:
            used_left.update((a, v))
            arcs.append(A(a, v, h))
        else:
            end, sign, hh = walk_from_mid("D", -v, h)
            used_left.add(a)
            (used_left if sign > 0 else used_right).add(end)
            arcs.append(A(a, end, hh))
    for b in range(-1, -n - 1, -1):
        if b in used_right:
            continue
        v, h = dp[b]
        if v < 0:
            used_right.update((b, v))
            arcs.append(A(b, v, h))
        else:
            end, sign, hh = walk_from_mid("C", v, h)
            assert sign < 0, "strand from the right exited left"
            used_right.update((b, end))
            arcs.append(A(b, end, hh))

    loops = Counter()
    for k in range(1, n + 1):
        if k in mid_seen:
            continue
        h = None
        side, cur = "D", k
        while True:
            mid_seen.add(cur)
            if side == "D":
                v, hh = dp[cur]
                h = hh if h is None else min(h, hh)
                side, cur = "C", v
            else:
                v, hh = cp[-cur]
                h = hh if h is None else min(h, hh)
                side, cur = "D", -v
            if cur == k and side == "D":
                break
        loops[h] += 1
    records = tuple(dg.LoopRecord(h, loops[h]) for h in sorted(loops))
    return dg.ArcDiagram(n, tuple(arcs)), records


def random_matching(rng, n):
    """A perfect matching of the rank-``n`` boundary with heights in
    ``1..n+1``; usually crossing and mislabelled."""
    nodes = list(range(1, n + 1)) + [-k for k in range(1, n + 1)]
    rng.shuffle(nodes)
    return dg.ArcDiagram(
        n,
        tuple(A(nodes[i], nodes[i + 1], rng.randint(1, n + 1)) for i in range(0, 2 * n, 2)),
    )


def rebuilt(d):
    return dg.ArcDiagram(d.rank, d.arcs)


def assert_same_as_checked(d):
    """``d`` equals, and hashes like, its rebuild through the checking constructor."""
    r = rebuilt(d)
    assert r == d and hash(r) == hash(d)
    assert (r.partner, r.height) == (d.partner, d.height)


def test_compose_matches_reference_on_all_pairs_up_to_rank4():
    for n in range(5):
        ds = dg.enumerate_diagrams(n)
        for c in ds:
            for d in ds:
                assert dg.compose(c, d) == reference_compose(c, d), (c, d)


def test_compose_matches_reference_on_random_matchings():
    rng = random.Random(20240426)
    kinds = Counter()
    for n in range(8):
        for _ in range(300):
            c, d = random_matching(rng, n), random_matching(rng, n)
            kinds.update({m.split(":")[0] for m in dg.violations(c)})
            assert dg.compose(c, d) == reference_compose(c, d), (c, d)
    assert kinds["crossing"] > 100 and kinds["label"] > 100


def test_trusted_results_equal_checked_rebuilds():
    rng = random.Random(7)
    for n in range(7):
        ds = dg.enumerate_diagrams(n)
        assert_same_as_checked(dg.identity(n))
        for i in range(1, n):
            assert_same_as_checked(dg.generator(i, n))
        for d in ds:
            assert_same_as_checked(d)
            assert_same_as_checked(dg.mirror(d))
            assert_same_as_checked(dg.iota(d))
            assert_same_as_checked(dg.glue(dg.bra(d), dg.ket(d)))
            if dg.has_iota_arc(d):
                assert_same_as_checked(dg.iota_inverse(d))
            elif n:
                assert_same_as_checked(dg.peel(d)[0])
        pairs = [(c, d) for c in ds for d in ds] if n <= 4 else [
            (rng.choice(ds), rng.choice(ds)) for _ in range(400)
        ]
        for c, d in pairs:
            assert_same_as_checked(dg.compose(c, d)[0])


def test_arcs_are_canonical():
    for d in dg.enumerate_diagrams(5):
        keys = [(dg.order_key(a, 5), dg.order_key(b, 5)) for a, b, _ in d.arcs]
        assert all(lo < hi for lo, hi in keys)
        assert keys == sorted(keys)
    shuffled = dg.ArcDiagram(2, (A(-1, -2, 1), A(2, 1, 1)))
    assert shuffled.arcs == (A(1, 2, 1), A(-2, -1, 1))
    assert shuffled == dg.generator(1, 2)


def test_pickle_copy_and_immutability():
    for d in list(dg.enumerate_diagrams(4)) + [random_matching(random.Random(2), 5)]:
        for other in (
            pickle.loads(pickle.dumps(d)),
            pickle.loads(pickle.dumps(d, protocol=0)),
            copy.copy(d),
            copy.deepcopy(d),
        ):
            assert other == d and hash(other) == hash(d) and other.arcs == d.arcs
    d = dg.identity(3)
    with pytest.raises(AttributeError):
        d.rank = 4
    with pytest.raises(AttributeError):
        d.partner = (0, 1)
    with pytest.raises(AttributeError):
        del d.height


def test_trusted_build_with_unmatched_position_is_an_invariant_error():
    with pytest.raises(InternalInvariantError):
        dg._from_arrays(2, [3, None, None, 0], [1, None, None, 1])
    with pytest.raises(InternalInvariantError):
        dg._from_arrays(2, [3, 2, 1, 0], [1, 2, None, 1])
    with pytest.raises(InternalInvariantError):
        dg._from_arrays(2, [1, 0], [1, 1])
    assert dg._from_arrays(1, [1, 0], [1, 1]) == dg.identity(1)


def assert_half_same_as_checked(h):
    """``h`` equals, and hashes like, its rebuild through the checking constructor."""
    r = dg.HalfArcDiagram(h.rank, h.full_arcs, h.half_arcs)
    assert r == h and hash(r) == hash(h)
    assert (r.full_arcs, r.half_arcs) == (h.full_arcs, h.half_arcs)


def test_trusted_halves_equal_checked_rebuilds():
    for n in range(9):
        for h in dg.enumerate_half(n):
            assert_half_same_as_checked(h)
            assert_half_same_as_checked(dg.chain_inverse(dg.chain_of(h)))
            for r in range(n + 1):
                assert_half_same_as_checked(dg.restrict(h, r))
        if n <= 6:
            for d in dg.enumerate_diagrams(n):
                assert_half_same_as_checked(dg.bra(d))
                assert_half_same_as_checked(dg.ket(d))


def test_ket_is_the_bra_of_the_mirror():
    for n in range(7):
        for d in dg.enumerate_diagrams(n):
            assert dg.ket(d) == dg.bra(dg.mirror(d))


def test_checked_half_constructor_orders_its_arcs():
    """Reversed ends and arcs out of order give the sorted value."""
    H = dg.HalfArc
    h = dg.HalfArcDiagram(6, (A(6, 5, 5), A(3, 2, 2)), (H(4, 4), H(1, 1)))
    assert h.full_arcs == (A(2, 3, 2), A(5, 6, 5))
    assert h.half_arcs == (H(1, 1), H(4, 4))
    assert (h.partner, h.height) == ((-1, 2, 1, -1, 5, 4), (1, 2, 2, 4, 5, 5))
    same = dg.HalfArcDiagram(6, h.full_arcs, h.half_arcs)
    assert h == same and hash(h) == hash(same)


def test_halves_pickle_and_trusted_build_with_wrong_cover_is_an_invariant_error():
    for h in dg.enumerate_half(5):
        for other in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
            assert other == h and hash(other) == hash(h)
    with pytest.raises(InternalInvariantError):
        dg._half_from_arrays(3, [1, 0], [1, 1])  # wrong length
    with pytest.raises(InternalInvariantError):
        dg._half_from_arrays(3, [1, 0, -1], [1, 1, None])  # unlabelled node
    with pytest.raises(InternalInvariantError):
        dg._half_from_arrays(2, [1, None], [1, 1])  # no partner
    assert dg._half_from_arrays(2, [1, 0], [1, 1]) == dg.bra(dg.generator(1, 2))
