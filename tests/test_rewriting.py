import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from okada import diagrams as dg
from okada import rewriting
from okada.errors import InternalInvariantError
from okada.polynomials import Polynomial, x_var, y_var
from okada.rewriting import (
    Heap,
    all_perms,
    cartier_foata,
    code,
    diagram_to_perm,
    heap_from_word,
    is_packed,
    multiply_perms,
    multiply_words,
    normalize,
    perm_compose,
    perm_from_word,
    perm_inverse,
    perm_length,
    perm_to_diagram,
    reading,
    rs,
    rs_inverse,
    trace_equal,
    word_from_code,
)

# Frozen rank-6 diamond-diagram sample; its reading groups by diagonals
# as 21 | 3 | 42 | 521 | 42 | 321 | 1.
DIAMOND_WORD = (2, 1, 3, 4, 2, 5, 2, 1, 4, 2, 3, 2, 1, 1)
DIAMOND_ROWS = ((2, 5, 7, 8), (2, 4, 5, 6, 7), (3, 7), (4, 6), (5,))


def words(n, max_len=14):
    if n < 2:
        return st.just(())
    return st.lists(
        st.integers(min_value=1, max_value=n - 1), max_size=max_len
    ).map(tuple)


def test_code_examples():
    assert code((1, 2, 3)) == (0, 0, 0)
    assert word_from_code((1, 2, 3)) == ()
    assert code((2, 1)) == (0, 1)
    assert word_from_code((2, 1)) == (1,)
    assert code((2, 3, 1)) == (0, 1, 1)
    assert word_from_code((2, 3, 1)) == (1, 2)


def test_code_word_roundtrip_and_length():
    for n in range(1, 7):
        for p in all_perms(n):
            w = word_from_code(p)
            assert perm_from_word(w, n) == p
            assert len(w) == perm_length(p)


def test_word_evaluation_is_multiplicative():
    rng = random.Random(2)
    for n in (3, 4, 5):
        for _ in range(60):
            w1 = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 8)))
            w2 = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 8)))
            assert perm_from_word(w1 + w2, n) == perm_compose(
                perm_from_word(w1, n), perm_from_word(w2, n)
            )
            assert perm_inverse(perm_from_word(w1, n)) == perm_from_word(w1[::-1], n)


def test_heap_examples():
    assert heap_from_word((), 4) == Heap(4, ((), (), ()))
    h = heap_from_word(DIAMOND_WORD, 6)
    assert h.rows == DIAMOND_ROWS
    assert reading(h) == DIAMOND_WORD


def test_heap_reading_reproduces_word_exactly():
    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(50):
            w = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 18)))
            assert reading(heap_from_word(w, n)) == w


def test_heap_validation():
    with pytest.raises(ValueError):
        Heap(3, ((1,),))  # wrong number of rows
    with pytest.raises(ValueError):
        Heap(3, ((1,), (1,)))  # row 2 left of its boundary
    with pytest.raises(ValueError):
        Heap(3, ((2, 2), ()))  # non-increasing columns


def test_is_packed():
    assert is_packed(heap_from_word(DIAMOND_WORD, 6))
    # a floating box: structurally fine, but not a packing
    assert not is_packed(Heap(3, ((5,), ())))


def test_cartier_foata_layers():
    assert cartier_foata((3, 2, 1)) == ((3,), (2,), (1,))
    assert cartier_foata((1, 3, 2)) == ((1, 3), (2,))
    assert trace_equal((1, 3), (3, 1))
    assert not trace_equal((1, 2), (2, 1))


def _cartier_foata_oracle(word):
    # Peel off layers: a letter joins the current layer unless an earlier
    # remaining letter within 1 of it blocks it.
    rem = list(word)
    layers = []
    while rem:
        layer, rest, blocked = [], [], set()
        for v in rem:
            if v in blocked:
                rest.append(v)
            else:
                layer.append(v)
            blocked.update((v - 1, v, v + 1))
        layers.append(tuple(sorted(layer)))
        rem = rest
    return tuple(layers)


def _reduction_candidates_oracle(word):
    # Inspect every letter between consecutive occurrences of each value.
    cands = []
    last_seen = {}
    for q, v in enumerate(word):
        p = last_seen.get(v)
        if p is not None:
            near = [u for u in word[p + 1 : q] if abs(u - v) <= 1]
            if not near:
                cands.append((v, p, 0, q, q))
            elif v >= 2 and near == [v - 1]:
                cands.append((v, p, 1, word.index(v - 1, p + 1, q), q))
        last_seen[v] = q
    return sorted(cands)


def _random_words(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        yield tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 40)))


def test_cartier_foata_matches_layer_peeling_oracle():
    for w in _random_words(2000, 31):
        assert cartier_foata(w) == _cartier_foata_oracle(w), w


def test_reduction_candidates_match_quadratic_oracle():
    for w in _random_words(2000, 37):
        assert rewriting._reduction_candidates(w) == _reduction_candidates_oracle(w), w


def test_normalize_verification_catches_a_wrong_code_word(monkeypatch):
    # The final trace check must run on every call: with a corrupted code
    # word it has to fail even though every reduction was correct.
    monkeypatch.setattr(rewriting, "word_from_code", lambda p: tuple(reversed(range(1, len(p)))))
    with pytest.raises(InternalInvariantError):
        normalize((1, 2), 3)
    monkeypatch.setattr(rewriting, "word_from_code", lambda p: ())
    with pytest.raises(InternalInvariantError):
        normalize((2, 1, 2, 2), 3)


def _generator_step_oracle(p, i):
    # The step as a full normalization of the code word with i appended.
    r = normalize(word_from_code(p) + (i,), len(p))
    _, term = r.coefficient.monomial_parts()
    return term, r.perm


def test_generator_step_kernel_matches_normalize_oracle():
    kernel = rewriting._mult_perm_by_generator.__wrapped__
    most = 0
    for n in range(1, 8):
        for p in all_perms(n):
            for i in range(1, n):
                term, perm = kernel(p, i)
                assert (term, perm) == _generator_step_oracle(p, i), (p, i)
                most = max(most, sum(e for _, e in term))
    assert most == 3  # zigzags cascade: up to three reductions in one step of S_7


def _commuting_shuffle(word, rng, steps):
    # Random swaps of adjacent letters that commute keep the trace.
    w = list(word)
    for _ in range(steps):
        k = rng.randrange(len(w) - 1)
        if abs(w[k] - w[k + 1]) >= 2:
            w[k], w[k + 1] = w[k + 1], w[k]
    return w


def _assert_trace_key_classes_are_cartier_foata_classes(words):
    key_of_layers, layers_of_key = {}, {}
    for w in words:
        layers, key = cartier_foata(w), rewriting._trace_key(w)
        assert key_of_layers.setdefault(layers, key) == key, w
        assert layers_of_key.setdefault(key, layers) == layers, w


def test_trace_key_separates_exactly_the_cartier_foata_classes():
    _assert_trace_key_classes_are_cartier_foata_classes(
        w for length in range(7) for w in itertools.product(range(1, 5), repeat=length)
    )  # every word of length <= 6 at ranks <= 5
    rng = random.Random(41)
    same_count = 0
    for _ in range(2000):
        n = rng.randint(3, 40)
        a = tuple(rng.randrange(1, n) for _ in range(rng.randint(2, 40)))
        b = _commuting_shuffle(a, rng, rng.randint(0, 60))
        k = rng.randrange(len(b) - 1)
        change = rng.randrange(3)  # none, any adjacent swap, or a new letter
        if change == 1:
            b[k], b[k + 1] = b[k + 1], b[k]
        elif change == 2:
            b[k] = rng.randrange(1, n)
        same = cartier_foata(a) == cartier_foata(b)
        same_count += same
        assert (rewriting._trace_key(a) == rewriting._trace_key(b)) == same, (a, b)
        assert trace_equal(a, b) == same
    assert min(same_count, 2000 - same_count) > 400


@pytest.mark.parametrize("gap", [31, 32, 63, 64, 2**32, 2**70])
def test_trace_key_is_exact_for_letters_far_apart(gap):
    # No fixed bit width: letters in two clusters `gap` apart.
    letters = (1, 2, 3, gap + 1, gap + 2, gap + 3)
    _assert_trace_key_classes_are_cartier_foata_classes(
        w for length in range(5) for w in itertools.product(letters, repeat=length)
    )


@pytest.mark.parametrize(
    "word, i, term",
    [
        ((1, 2), 2, ((("x", 2), 1),)),  # square: E_2 E_2
        ((1, 2, 1), 2, ((("y", 1), 1),)),  # zigzag: E_2 E_1 E_2
        ((1,), 2, ()),  # no reduction: E_1 E_2
    ],
)
def test_generator_step_verification_catches_a_wrong_code_word(monkeypatch, word, i, term):
    # The step reads p's code word honestly; every later code word comes
    # reversed, with the right letters but the wrong trace, so the final
    # trace check has to fail in every case.
    kernel = rewriting._mult_perm_by_generator.__wrapped__
    p = perm_from_word(word, 3)
    assert word_from_code(p) == word and kernel(p, i)[0] == term
    honest = rewriting.word_from_code
    calls = []

    def corrupt(perm):
        calls.append(perm)
        return honest(perm) if len(calls) == 1 else honest(perm)[::-1]

    monkeypatch.setattr(rewriting, "word_from_code", corrupt)
    with pytest.raises(InternalInvariantError):
        kernel(p, i)
    assert len(calls) == 2


def test_normalize_relations():
    r = normalize((1, 1))
    assert r.coefficient == x_var(1) and r.word == (1,)
    r = normalize((2, 1, 2))
    assert r.coefficient == y_var(1) and r.word == (2,)
    a, b = normalize((1, 3)), normalize((3, 1))
    assert a.word == b.word == (1, 3)
    assert a.coefficient == b.coefficient == Polynomial.one()
    # no relation for E_1 E_2 E_1
    r = normalize((1, 2, 1))
    assert r.word == (1, 2, 1) and r.coefficient == Polynomial.one()


def test_normalize_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        normalize((3,), n=3)


def test_diamond_word_normalization_consistent_with_diagram_model():
    # The sample word carries one height-1 and one height-2 loop in its
    # loop configuration, so at y = 1 the coefficient is x1*x2; both
    # models must collapse it to the same rank-6 arc diagram.
    res = normalize(DIAMOND_WORD, 6)
    at_y1 = res.coefficient.specialize({("y", i): 1 for i in range(1, 5)})
    assert at_y1 == x_var(1) * x_var(2)
    d = dg.identity(6)
    loop_heights = []
    for i in DIAMOND_WORD:
        d, loops = dg.compose(d, dg.generator(i, 6))
        for h, c in loops:
            loop_heights.extend([h] * c)
    assert sorted(loop_heights) == [1, 2]
    collapsed = dg.ArcDiagram(
        6,
        tuple(
            dg.Arc(*t)
            for t in [(5, -3, 1), (1, 4, 1), (-5, -4, 2), (6, -6, 4), (2, 3, 2), (-2, -1, 1)]
        ),
    )
    assert d == collapsed
    assert perm_to_diagram(res.perm) == collapsed


def test_code_words_are_normal_with_unit_coefficient():
    for n in range(1, 7):
        for p in all_perms(n):
            w = word_from_code(p)
            r = normalize(w, n)
            assert r.word == w and r.perm == p
            assert r.coefficient == Polynomial.one()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_confluence_under_randomized_orders(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    w = data.draw(words(n))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    a = normalize(w, n)
    b = normalize(w, n, rng=random.Random(seed))
    assert (a.coefficient, a.word, a.perm) == (b.coefficient, b.word, b.perm)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalization_is_a_congruence(data):
    # replacing a word by its normal form leaves any further product
    # unchanged apart from the collected coefficient
    n = data.draw(st.integers(min_value=2, max_value=5))
    w = data.draw(words(n, 10))
    v = data.draw(words(n, 8))
    r = normalize(w, n)
    a = multiply_words(w, v, n)
    b = multiply_words(r.word, v, n)
    assert a.perm == b.perm
    assert a.coefficient == r.coefficient * b.coefficient


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_heap_reading_has_same_normal_form(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    w = data.draw(words(n))
    a = normalize(w, n)
    b = normalize(reading(heap_from_word(w, n)), n)
    assert (a.coefficient, a.perm) == (b.coefficient, b.perm)


def test_multiply_words_examples():
    r = multiply_words((), (2, 1), 3)
    assert r.perm == perm_from_word((2, 1), 3) and r.coefficient == Polynomial.one()
    r = multiply_words((1,), (1,), 2)
    assert r.coefficient == x_var(1) and r.perm == (2, 1)


def test_multiply_perms_agrees_with_multiply_words():
    rng = random.Random(11)
    for n in (3, 4, 5):
        perms = all_perms(n)
        for _ in range(120):
            p, q = rng.choice(perms), rng.choice(perms)
            coeff, r = multiply_perms(p, q)
            direct = multiply_words(word_from_code(p), word_from_code(q), n)
            assert (coeff, r) == (direct.coefficient, direct.perm)


def test_structure_constant_degree_bound():
    rng = random.Random(23)
    for n in (3, 4, 5, 6):
        for _ in range(80):
            w1 = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 10)))
            w2 = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 10)))
            res = multiply_words(w1, w2, n)
            _, term = res.coefficient.monomial_parts()
            for (kind, k), e in term:
                assert e <= sum(1 for u in w1 + w2 if u >= k)


def test_perm_diagram_bijection():
    for n in range(1, 7):
        images = {perm_to_diagram(p): p for p in all_perms(n)}
        assert len(images) == math.factorial(n)
        for d, p in images.items():
            assert dg.validate(d)
            assert diagram_to_perm(d) == p


def _perm_to_diagram_by_composition(p):
    """The code word of ``p`` composed generator by generator in the
    diagram monoid (the former library construction), as an oracle."""
    d = dg.identity(len(p))
    for i in word_from_code(p):
        d, loops = dg.compose(d, dg.generator(i, len(p)))
        assert loops == (), (p, loops)
    return d


def test_perm_to_diagram_matches_the_compose_chain_oracle():
    for n in range(8):
        for p in all_perms(n):
            assert perm_to_diagram(p) == _perm_to_diagram_by_composition(p), p
    rng = random.Random(2020)
    for n in range(8, 21):
        for _ in range(40):
            p = tuple(rng.sample(range(1, n + 1), n))
            d = perm_to_diagram(p)
            assert d == _perm_to_diagram_by_composition(p), p
            assert diagram_to_perm(d) == p


def test_identity_and_generator_map():
    assert perm_to_diagram((1, 2, 3)) == dg.identity(3)
    assert perm_to_diagram((2, 1)) == dg.generator(1, 2)


def test_mirror_matches_inverse():
    for n in range(1, 7):
        for p in all_perms(n):
            assert dg.mirror(perm_to_diagram(p)) == perm_to_diagram(perm_inverse(p))


def test_theta_is_a_homomorphism_at_all_ones():
    for n in range(1, 5):
        perms = all_perms(n)
        for p in perms:
            for q in perms:
                _, r = multiply_perms(p, q)
                prod, _ = dg.compose(perm_to_diagram(p), perm_to_diagram(q))
                assert prod == perm_to_diagram(r)


def test_rs_examples():
    left, right = rs((1, 2, 3, 4, 5))
    assert left == right
    assert left.top.elements == (1, 2, 3, 4, 5)
    for n in range(1, 7):
        for p in all_perms(n):
            pair = rs(p)
            assert rs_inverse(*pair) == p
            swapped = rs(perm_inverse(p))
            assert swapped == (pair[1], pair[0])
            assert (pair[0] == pair[1]) == (p == perm_inverse(p))


def test_rs_inverse_rejects_mismatched_endpoints():
    la, _ = rs((2, 1, 3))
    lb, _ = rs((1, 2, 3))
    assert la.top != lb.top
    with pytest.raises(ValueError):
        rs_inverse(la, lb)
