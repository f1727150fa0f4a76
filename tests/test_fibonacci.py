import math

import pytest
from hypothesis import given, settings, strategies as st

from okada.errors import RankMismatchError
from okada.fibonacci import (
    Chain,
    FibonacciSet,
    chain_count,
    dominance_bottom,
    dominance_covers,
    dominance_join,
    dominance_leq,
    dominance_meet,
    dominance_rank,
    dominance_top,
    enumerate_yfs,
    free_set,
    free_set_inverse,
    is_fibonacci_set,
    saturated_chains,
    set_to_word,
    word_to_set,
    yf_covers,
    yf_down_covers,
)

F = FibonacciSet

# The covering edges of the lattice up to rank 5, node-labeled by binary
# words; 26 edges in total.
HASSE_EDGES_BY_WORD = [
    ("", "1"),
    ("1", "11"), ("1", "2"),
    ("11", "111"), ("11", "21"),
    ("111", "1111"), ("111", "211"),
    ("1111", "11111"), ("1111", "2111"),
    ("2", "12"), ("2", "21"),
    ("12", "112"), ("12", "22"),
    ("112", "1112"), ("112", "212"),
    ("21", "121"), ("21", "211"), ("21", "22"),
    ("121", "1121"), ("121", "221"),
    ("211", "1211"), ("211", "2111"), ("211", "221"),
    ("22", "122"), ("22", "212"), ("22", "221"),
]


def test_is_fibonacci_set_examples():
    assert is_fibonacci_set(0, [])
    assert is_fibonacci_set(5, [1, 2, 5])
    assert not is_fibonacci_set(5, [2])
    assert not is_fibonacci_set(5, [1, 2])  # size parity
    with pytest.raises(ValueError):
        is_fibonacci_set(5, [2, 1])
    with pytest.raises(ValueError):
        is_fibonacci_set(3, [5])


@pytest.mark.parametrize("element", [1.0, "1", None])
def test_sets_refuse_an_element_that_is_not_an_integer(element):
    # FibonacciSet(3, (1.0,)) once built {1.0}_3, equal to {1}_3, and
    # free_set_inverse((1.0,), 3) answered {3}_3.
    for call in (lambda: F(3, (element,)), lambda: is_fibonacci_set(3, [element]),
                 lambda: free_set_inverse((element,), 3)):
        with pytest.raises(ValueError, match="elements must be integers"):
            call()


def test_size_counts_the_elements_with_the_parity_of_the_rank():
    assert (F(0, ()).size, F(5, (1, 2, 5)).size, F(6, (1, 6)).size) == (0, 3, 2)
    assert all(s.size % 2 == n % 2 for n in range(9) for s in enumerate_yfs(n))


def test_equality_distinguishes_rank():
    assert F(5, (1, 2, 5)) != F(7, (1, 2, 5))
    assert F(5, (1, 2, 5)) == F(5, (1, 2, 5))


def test_enumerate_counts_follow_fibonacci_recurrence():
    counts = [len(enumerate_yfs(n)) for n in range(16)]
    assert counts[0] == counts[1] == 1
    for n in range(2, 16):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_enumerate_agrees_with_subset_filter():
    # independent oracle: filter every subset of [n] by the definition
    from itertools import combinations

    for n in range(9):
        brute = set()
        for k in range(n + 1):
            for elems in combinations(range(1, n + 1), k):
                if k % 2 == n % 2 and all(
                    s % 2 == l % 2 for l, s in enumerate(elems, start=1)
                ):
                    brute.add(elems)
        assert brute == {s.elements for s in enumerate_yfs(n)}
    assert len(enumerate_yfs(6)) == 13


def _sets_by_parity_walk(n):
    """Every parity-checked prefix of ``[1, n]`` (the former library
    construction), sorted, as an oracle for the recurrence."""
    found = []

    def extend(prefix, last):
        if (len(prefix) - n) % 2 == 0:
            found.append(tuple(prefix))
        want = (len(prefix) + 1) % 2
        for s in range(last + 1, n + 1):
            if s % 2 == want:
                prefix.append(s)
                extend(prefix, s)
                prefix.pop()

    extend([], 0)
    return sorted(found)


def test_enumerate_matches_the_parity_walk_oracle():
    for n in range(26):
        # uncached, so the test process keeps no table of the large ranks
        got = enumerate_yfs.__wrapped__(n)
        assert [s.elements for s in got] == _sets_by_parity_walk(n), n
        assert all(s.rank == n for s in got)


def test_enumerate_rank5_sets():
    got = {s.elements for s in enumerate_yfs(5)}
    assert got == {
        (1,), (3,), (5,), (1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5), (1, 2, 3, 4, 5),
    }
    assert len(enumerate_yfs(6)) == 13
    # deterministic canonical order: lexicographic on element sequences
    elems = [s.elements for s in enumerate_yfs(5)]
    assert elems == sorted(elems)


def test_yf_covers_examples():
    assert yf_covers(F(2, ())) == (F(3, (1,)), F(3, (3,)))
    assert yf_covers(F(2, (1, 2))) == (F(3, (1,)), F(3, (1, 2, 3)))
    assert yf_covers(F(0, ())) == (F(1, (1,)),)


def test_hasse_diagram_matches_frozen_edges():
    edges = set()
    for n in range(5):
        for s in enumerate_yfs(n):
            for t in yf_covers(s):
                edges.add((set_to_word(s), set_to_word(t)))
    assert edges == set(HASSE_EDGES_BY_WORD)
    assert len(edges) == 26


def test_down_covers_invert_covers():
    for n in range(8):
        for s in enumerate_yfs(n):
            for t in yf_covers(s):
                assert s in yf_down_covers(t)
        for s in enumerate_yfs(n + 1):
            for p in yf_down_covers(s):
                assert s in yf_covers(p)


def test_word_bijection_examples():
    assert word_to_set("121") == F(4, (1, 4))
    assert word_to_set("22") == F(4, ())
    assert word_to_set("1" * 7) == F(7, tuple(range(1, 8)))
    assert set_to_word(F(5, (1, 2, 5))) == "1211"
    assert set_to_word(F(0, ())) == ""


@settings(deadline=None)
@given(st.lists(st.sampled_from([1, 2]), max_size=12))
def test_word_bijection_roundtrip(letters):
    s = word_to_set(letters)
    assert s.rank == sum(letters)
    assert [int(c) for c in set_to_word(s)] == letters


def test_set_word_roundtrip_all_ranks():
    for n in range(13):
        for s in enumerate_yfs(n):
            assert word_to_set(set_to_word(s)) == s


def test_saturated_chains_examples():
    assert len(saturated_chains(F(1, (1,)))) == 1
    chains = saturated_chains(F(3, (1,)))
    assert len(chains) == 2
    mids = {c.sets[2] for c in chains}
    assert mids == {F(2, ()), F(2, (1, 2))}
    assert sum(chain_count(s) ** 2 for s in enumerate_yfs(3)) == 6


def test_chain_counts_square_to_factorial():
    for n in range(9):
        assert sum(chain_count(s) ** 2 for s in enumerate_yfs(n)) == math.factorial(n)


def test_chain_rejects_non_covering_steps():
    with pytest.raises(ValueError):
        Chain((F(0, ()), F(1, (1,)), F(2, (1, 2)), F(3, (3,))))
    with pytest.raises(ValueError):
        Chain((F(0, ()), F(2, ())))  # rank jump
    with pytest.raises(ValueError):
        Chain((F(1, (1,)),))


def test_dominance_examples():
    assert dominance_leq(F(5, (1, 2, 3)), F(5, (1, 2, 5)))
    assert not dominance_leq(F(5, (1, 2, 3)), F(5, (5,)))
    assert not dominance_leq(F(5, (5,)), F(5, (1, 2, 3)))
    s = F(5, (1, 4, 5))
    assert dominance_leq(s, s)
    for op in (dominance_leq, dominance_meet, dominance_join):
        with pytest.raises(RankMismatchError):
            op(F(3, (1,)), F(5, (1,)))


def test_dominance_is_partial_order():
    for n in range(9):
        sets = enumerate_yfs(n)
        for a in sets:
            assert dominance_leq(a, a)
            for b in sets:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in sets:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_meet_join_examples():
    assert dominance_meet(F(5, (1, 2, 3)), F(5, (5,))) == F(5, (3,))
    top = dominance_top(5)
    assert top == F(5, (1, 2, 3, 4, 5))
    for s in enumerate_yfs(5):
        assert dominance_join(s, top) == top
        assert dominance_meet(s, s) == s


def test_dominance_bottom():
    assert dominance_bottom(5) == F(5, (1,))
    assert dominance_bottom(7) == F(7, (1,))
    assert dominance_bottom(4) == F(4, ())
    assert dominance_bottom(6) == F(6, ())


def test_dominance_rank5_cover_relations():
    covers = {(a.elements, b.elements) for a, b in dominance_covers(5)}
    assert covers == {
        ((1,), (3,)),
        ((3,), (1, 2, 3)),
        ((3,), (5,)),
        ((1, 2, 3), (1, 2, 5)),
        ((5,), (1, 2, 5)),
        ((1, 2, 5), (1, 4, 5)),
        ((1, 4, 5), (3, 4, 5)),
        ((3, 4, 5), (1, 2, 3, 4, 5)),
    }


def test_dominance_rank_function_monotone_on_covers():
    for n in range(11):
        for a, b in dominance_covers(n):
            assert dominance_rank(b) == dominance_rank(a) + 1
        assert dominance_rank(dominance_bottom(n)) == 0


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dominance_by_search(n):
    """The rank-n dominance lattice found by search over the order itself.

    Down/up bitmasks per set; the bottom and top are the sets below and
    above everything; covers are the pairs with nothing between them; the
    rank is found by a breadth-first walk from the bottom.  The search
    checks that the order is bounded, connected and graded, and each meet
    and join is the unique common bound whose own down/up set is the set
    of all common bounds.
    """
    sets = enumerate_yfs(n)
    m = len(sets)
    down = [0] * m  # down[i]: bitmask of the j with sets[j] <= sets[i]
    up = [0] * m
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if dominance_leq(b, a):
                down[i] |= 1 << j
                up[j] |= 1 << i
    full = (1 << m) - 1
    bottoms = [i for i in range(m) if up[i] == full]
    tops = [i for i in range(m) if down[i] == full]
    assert len(bottoms) == 1 and len(tops) == 1, f"rank {n} is not bounded"
    covers = [
        (i, j) for i in range(m) for j in range(m) if i != j and down[j] & up[i] == (1 << i) | (1 << j)
    ]
    rank = [None] * m
    rank[bottoms[0]] = 0
    pending = [bottoms[0]]
    while pending:
        i = pending.pop()
        for a, b in covers:
            if a == i and rank[b] is None:
                rank[b] = rank[i] + 1
                pending.append(b)
    assert None not in rank, f"rank {n} is not connected"
    assert all(rank[b] == rank[a] + 1 for a, b in covers), f"rank {n} is not graded"

    def unique_bound(masks, a, b):
        common = masks[a] & masks[b]
        found = [i for i in _iter_bits(common) if masks[i] == common]
        assert len(found) == 1, (sets[a], sets[b], found)
        return sets[found[0]]

    return {
        "sets": sets,
        "meet": lambda a, b: unique_bound(down, a, b),
        "join": lambda a, b: unique_bound(up, a, b),
        "rank": rank,
        "bottom": sets[bottoms[0]],
        "top": sets[tops[0]],
        "covers": tuple(sorted((sets[a], sets[b]) for a, b in covers)),
    }


@pytest.mark.parametrize("n", range(13))
def test_dominance_closed_forms_match_search(n):
    found = _dominance_by_search(n)
    sets = found["sets"]
    assert dominance_bottom(n) == found["bottom"]
    assert dominance_top(n) == found["top"]
    assert dominance_covers(n) == found["covers"]
    for i, a in enumerate(sets):
        assert dominance_rank(a) == found["rank"][i], a
        for j, b in enumerate(sets):
            assert dominance_meet(a, b) == found["meet"](i, j), (a, b)
            assert dominance_join(a, b) == found["join"](i, j), (a, b)


def test_free_set_examples():
    assert free_set(F(6, (1, 2, 3, 4, 5, 6))) == ()
    assert free_set(F(4, ())) == (1, 3)
    assert free_set(F(3, (1,))) == (2,)


def test_free_set_bijection():
    for n in range(13):
        seen = set()
        for s in enumerate_yfs(n):
            f = free_set(s)
            for a, b in zip(f, f[1:]):
                assert b - a >= 2
            assert len(s.elements) + 2 * len(f) == n
            assert free_set_inverse(f, n) == s
            seen.add(f)
        assert len(seen) == len(enumerate_yfs(n))


def test_free_set_inverse_rejects_adjacent():
    with pytest.raises(ValueError):
        free_set_inverse((1, 2), 4)
    with pytest.raises(ValueError):
        free_set_inverse((4,), 4)
