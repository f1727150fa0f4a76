import itertools
import math
import os
import random
import re
import time
import tracemalloc

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


@pytest.mark.parametrize("p", [(1, 1, 3), (0, 1, 2), (1, 2, 4), (3, 2, 3), (-1, 1), (2,), (1.0, 2), ("1", 2)])
def test_code_refuses_a_non_permutation(p):
    # A repeated, missing or out-of-range value once read as a code, so
    # that multiply_perms((1, 1, 3), (1, 2, 3)) answered (1, (1, 2, 3)) and
    # multiply_perms((1, 2, 4), (2, 1, 3)) raised IndexError.  Entries of
    # another type once raised TypeError from the scan.
    from okada.algebra import triangular_factorization

    n = len(p)
    identity = tuple(range(1, n + 1))
    for call in (lambda: code(p), lambda: word_from_code(p), lambda: perm_to_diagram(p),
                 lambda: rs(p), lambda: triangular_factorization(p),
                 lambda: multiply_perms(p, identity), lambda: multiply_perms(identity, p)):
        with pytest.raises(ValueError, match=re.escape(f"not a permutation of 1..{n}")):
            call()


def _inversions(p):
    """The pairs ``i < j`` with ``p[i] > p[j]``, counted by definition."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def test_code_word_roundtrip_and_length():
    for n in range(1, 7):
        for p in all_perms(n):
            w = word_from_code(p)
            assert perm_from_word(w, n) == p
            assert len(w) == _inversions(p)


def test_perm_length_counts_the_inversions():
    for n in range(8):
        for p in all_perms(n):
            assert perm_length(p) == _inversions(p)
    rng = random.Random(1024)
    for p in (tuple(range(1024, 0, -1)), *(tuple(rng.sample(range(1, 1025), 1024)) for _ in range(3))):
        assert perm_length(p) == _inversions(p)


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


@pytest.mark.parametrize("letter", [0, 3, 1.5])
def test_perm_from_word_refuses_a_letter_out_of_range(letter):
    # 0 would swap p[-1] and p[0], 3 would index past the end, and 1.5
    # is no index at all.
    for call in (perm_from_word, normalize, heap_from_word):
        with pytest.raises(ValueError, match=re.escape(f"letter {letter} out of range for rank 3")):
            call((1, letter), 3)


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
    for build in (lambda: Heap(-2, ()), lambda: heap_from_word((), -4)):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            build()


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
    # The final check must run on every call: with a corrupted rebuild of
    # the permutation from the pushed runs, here the one of the code
    # (0, 1, ..., n-1) and then of the zero code, it has to fail even
    # though every reduction was correct.
    monkeypatch.setattr(rewriting, "_perm_of_runs", lambda bot: list(range(len(bot), 0, -1)))
    with pytest.raises(InternalInvariantError, match=r"not the code word of \(2, 3, 1\)"):
        normalize((1, 2), 3)
    monkeypatch.setattr(rewriting, "_perm_of_runs", lambda bot: list(range(1, len(bot) + 1)))
    with pytest.raises(InternalInvariantError, match=r"not the code word of \(1, 3, 2\)"):
        normalize((2, 1, 2, 2), 3)


def _plant_push_fault(monkeypatch, fault):
    # An honest push followed by `fault` on the pushed state: the
    # permutation and the run bottoms of its code word.
    honest = rewriting._push

    def faulty(p, bot, todo, exps):
        honest(p, bot, todo, exps)
        fault(p, bot)

    monkeypatch.setattr(rewriting, "_push", faulty)


def _swap_the_last_non_commuting_pair(p, bot):
    # The permutation of the code word with its last pair of letters
    # within 1 of each other swapped: the same letters in another trace.
    w = rewriting._pending(bot)[::-1]
    k = max(k for k in range(len(w) - 1) if abs(w[k] - w[k + 1]) == 1)
    w[k], w[k + 1] = w[k + 1], w[k]
    p[:] = perm_from_word(w, len(p))


def test_verification_catches_a_push_with_the_right_letters_in_the_wrong_trace(monkeypatch):
    # The code word 2 1 3 2 with its 3 2 swapped is a reduced word of
    # the same length holding the zigzag 2 1 2; its permutation is not
    # the one of the runs 2 1 | 3 2, and the certificate must see that.
    _plant_push_fault(monkeypatch, _swap_the_last_non_commuting_pair)
    wrong = re.escape(f"not the code word of {perm_from_word((2, 1, 2, 3), 4)}")
    with pytest.raises(InternalInvariantError, match=wrong):
        normalize((2, 1, 3, 2), 4)
    with pytest.raises(InternalInvariantError, match=wrong):
        multiply_perms(perm_from_word((2, 1), 4), perm_from_word((3, 2), 4))


@pytest.mark.parametrize("k, bottom", [(0, 0), (2, 4)])
def test_verification_catches_a_bottom_out_of_range(monkeypatch, k, bottom):
    # The runs of (2, 1, 3) are [1, 1, 3]; a list insertion clamps its
    # index, so without the range check a bottom of 0 at run 0 or of 4 at
    # run 2 would rebuild (2, 1, 3) as 1 and 3 do.
    def fault(p, bot):
        bot[k] = bottom

    _plant_push_fault(monkeypatch, fault)
    for compute in (lambda: normalize((1,), 3), lambda: multiply_perms((2, 1, 3), (1, 2, 3))):
        with pytest.raises(InternalInvariantError, match=r"not the code word of \(2, 1, 3\)"):
            compute()


def _lengthen_the_last_run(p, bot):
    k = max(k for k in range(len(bot)) if bot[k] > 1)
    bot[k] -= 1


def test_verification_catches_a_push_that_leaves_an_extra_letter(monkeypatch):
    # The runs hold one letter more than the code word of the permutation
    # reached: 1 2 1 for the code word 1 2 of (2, 3, 1).
    _plant_push_fault(monkeypatch, _lengthen_the_last_run)
    wrong = re.escape("runs down to [1, 1, 1] are not the code word of (2, 3, 1)")
    with pytest.raises(InternalInvariantError, match=wrong):
        normalize((1, 2), 3)
    with pytest.raises(InternalInvariantError, match=wrong):
        multiply_perms(perm_from_word((1,), 3), perm_from_word((2,), 3))


def _generator_step_oracle(p, i):
    # The step as a normalization of the code word with i appended by the
    # candidate engine, which rescans the whole word: not by _push.
    r = normalize(word_from_code(p) + (i,), len(p), rng=random.Random(i))
    _, term = r.coefficient.monomial_parts()
    return term, r.perm


def _generator_step(p, i):
    # E_p E_i through multiply_perms: the code word of s_i is (i,), so
    # exactly one letter is pushed onto p's code word.
    coeff, perm = multiply_perms(p, perm_from_word((i,), len(p)))
    _, term = coeff.monomial_parts()
    return term, perm


def test_generator_step_kernel_matches_normalize_oracle():
    most = 0
    for n in range(1, 8):
        for p in all_perms(n):
            for i in range(1, n):
                term, perm = _generator_step(p, i)
                assert (term, perm) == _generator_step_oracle(p, i), (p, i)
                most = max(most, sum(e for _, e in term))
    assert most == 3  # zigzags cascade: up to three reductions in one step of S_7


def _assert_normalize_matches_candidate_engine(words_with_rank):
    for k, (w, n) in enumerate(words_with_rank):
        a = normalize(w, n)
        b = normalize(w, n, rng=random.Random(k))
        assert (a.coefficient, a.word, a.perm) == (b.coefficient, b.word, b.perm), (w, n)


def _all_words(n, max_len):
    for length in range(max_len + 1):
        for w in itertools.product(range(1, n), repeat=length):
            yield w, n


def test_normalize_matches_the_candidate_engine():
    _assert_normalize_matches_candidate_engine(
        itertools.chain(*(_all_words(n, 7) for n in range(1, 5)), _all_words(5, 6))
    )
    rng = random.Random(43)
    sample = []
    for _ in range(1000):
        n = rng.randint(2, 14)
        sample.append((tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 120))), n))
    _assert_normalize_matches_candidate_engine(sample)


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="the exhaustive rank-6 words run only with OKADA_EXTENDED=1",
)
def test_extended_normalize_matches_the_candidate_engine_at_rank_6():
    _assert_normalize_matches_candidate_engine(_all_words(6, 7))


def test_the_candidate_engine_must_stop_at_a_reduced_word(monkeypatch):
    # Its reduced word is pushed onto the empty code word, where no
    # reduction may fire: an engine that stops early is refused.
    monkeypatch.setattr(rewriting, "_reduction_candidates", lambda word: [])
    for w in ((1, 1), (2, 1, 2), (1, 3, 1)):
        with pytest.raises(InternalInvariantError, match=re.escape(f"the reduced word {w} still reduces")):
            normalize(w, 4, rng=random.Random(0))
    assert normalize((1, 2, 1, 3), 4, rng=random.Random(0)).word == (1, 2, 1, 3)


def test_only_the_rng_engine_scans_for_candidates(monkeypatch):
    scans = []
    candidates = rewriting._reduction_candidates

    def counting(word):
        scans.append(tuple(word))
        return candidates(word)

    monkeypatch.setattr(rewriting, "_reduction_candidates", counting)
    for n in range(1, 6):
        for p in all_perms(n):
            for i in range(1, n):
                _generator_step(p, i)
            multiply_perms(p, p)
    rng = random.Random(47)
    for _ in range(200):
        w = tuple(rng.randrange(1, 6) for _ in range(rng.randint(0, 30)))
        normalize(w, 6)
        multiply_words(w, w[::-1], 6)
    assert scans == []
    normalize((2, 1, 2), 3, rng=random.Random(0))
    assert scans == [(2, 1, 2), (2,)]


@pytest.mark.parametrize(
    "word, n",
    [((1,) * 4096, 2), (tuple(random.Random(4096).randrange(1, 32) for _ in range(4096)), 32)],
    ids=["square-run", "random-rank-32"],
)
def test_normalize_is_fast_on_the_longest_cli_words(word, n):
    # the CLI accepts words of up to 4096 letters; a quadratic rescan
    # took over 2 s on either word
    start = time.perf_counter()
    normalize(word, n)
    assert time.perf_counter() - start < 1.0


def _commuting_shuffle(word, rng, steps):
    # Random swaps of adjacent letters that commute keep the trace.
    w = list(word)
    for _ in range(steps):
        k = rng.randrange(len(w) - 1)
        if abs(w[k] - w[k + 1]) >= 2:
            w[k], w[k + 1] = w[k + 1], w[k]
    return w


def _commutation_class(word):
    # Every word reached from `word` by swapping adjacent letters that commute.
    seen, todo = {word}, [word]
    while todo:
        w = todo.pop()
        for k in range(len(w) - 1):
            if abs(w[k] - w[k + 1]) >= 2:
                v = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


def _lex_normal_form(word):
    """The lexicographically least word of the trace of ``word``
    (Anisimov-Knuth), in one insertion pass.

    Each letter ``a`` moves left while the letter before it is greater
    than ``a + 1``: it passes only greater letters that commute with it.
    In a least word a letter that commutes with its right neighbour is
    smaller than it, so a run of letters that all commute with ``a``
    cannot step down from above ``a`` to below ``a`` (that step would be
    at least 4), and the insertion stops exactly where the least word
    puts ``a``.
    """
    out = []
    for a in word:
        b = a + 1
        j = len(out) - 1
        while j >= 0 and out[j] > b:
            j -= 1
        out.insert(j + 1, a)
    return out


def test_lex_normal_form_is_the_least_word_of_its_trace():
    # Every word over 1..5 of length <= 6, each class enumerated once.
    done = set()
    for length in range(7):
        for w in itertools.product(range(1, 6), repeat=length):
            if w not in done:
                trace = _commutation_class(w)
                least = list(min(trace))
                for v in trace:
                    assert _lex_normal_form(v) == least, v
                done |= trace
    assert len(done) == 19531


def test_the_candidate_engine_reduces_to_a_word_of_the_code_words_trace(monkeypatch):
    # The code word is the least word of its trace, so the reduced word of
    # the candidate engine, which shares no reduction code with _push, has
    # it as its lexicographic normal form.
    certified = rewriting._multiply_code_words
    reduced = []

    def recording(p, bot, todo):
        reduced.append(tuple(reversed(todo)))  # the stack holds the last letter first
        return certified(p, bot, todo)

    monkeypatch.setattr(rewriting, "_multiply_code_words", recording)
    rng = random.Random(53)
    for k in range(1000):
        n = rng.randint(2, 12)
        w = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 80)))
        reduced.clear()
        r = normalize(w, n, rng=random.Random(k))
        assert _lex_normal_form(reduced[0]) == list(r.word) == list(normalize(w, n).word), (w, n)


def test_code_words_are_the_least_words_of_their_traces():
    for n in range(7):
        for p in all_perms(n):
            w = word_from_code(p)
            assert min(_commutation_class(w)) == w, p


def _assert_trace_key_classes_are_cartier_foata_classes(words):
    # cartier_foata and trace_equal are checked against peeling: each word
    # is trace-equal to its class representative, and each representative
    # differs from the next one.  The lexicographic normal form of the
    # certificate must give the same classes: one form per class, and one
    # class per form.
    key_of_layers, layers_of_key, representative = {}, {}, {}
    for w in words:
        layers, key = _cartier_foata_oracle(w), tuple(_lex_normal_form(w))
        assert cartier_foata(w) == layers, w
        assert trace_equal(w, representative.setdefault(layers, w)), w
        assert key_of_layers.setdefault(layers, key) == key, w
        assert layers_of_key.setdefault(key, layers) == layers, w
    reps = list(representative.values())
    for a, b in zip(reps, reps[1:]):
        assert not trace_equal(a, b), (a, b)


def test_trace_key_separates_exactly_the_cartier_foata_classes():
    for n in range(1, 6):  # every word of length <= 6 at ranks <= 5
        _assert_trace_key_classes_are_cartier_foata_classes(
            w for length in range(7) for w in itertools.product(range(1, n), repeat=length)
        )
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
        same = _cartier_foata_oracle(a) == _cartier_foata_oracle(b)
        same_count += same
        assert trace_equal(a, b) == same
        _assert_trace_key_classes_are_cartier_foata_classes([a, b])
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
    # The step reads the runs of p and of s_i honestly; the certificate
    # rebuilds the result from its runs with the code reversed, the right
    # entries in the wrong places, so the final check has to fail in
    # every case.
    p = perm_from_word(word, 3)
    step_term, result = _generator_step(p, i)
    assert word_from_code(p) == word and step_term == term
    runs, rebuild = rewriting._runs, rewriting._perm_of_runs
    calls = []

    def reading(perm):
        calls.append(perm)
        return runs(perm)

    def corrupt(bot):
        calls.append(tuple(rebuild(bot)))
        backwards = [v - b for v, b in enumerate(bot, start=1)][::-1]
        return rebuild([v - c for v, c in enumerate(backwards, start=1)])

    monkeypatch.setattr(rewriting, "_runs", reading)
    monkeypatch.setattr(rewriting, "_perm_of_runs", corrupt)
    with pytest.raises(InternalInvariantError):
        _generator_step(p, i)
    assert calls == [p, perm_from_word((i,), 3), result]


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
    with pytest.raises(ValueError, match="letter -5 out of range for rank 1"):
        normalize((-5,))  # the inferred rank is at least 1
    for build in (lambda: normalize((), -3), lambda: multiply_words((), (), -2)):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            build()


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


def _assert_products_match_the_candidate_engine(pairs):
    # multiply_words pushes like multiply_perms; the candidate engine
    # rescans the whole concatenation instead.
    for k, (p, q) in enumerate(pairs):
        coeff, r = multiply_perms(p, q)
        direct = normalize(word_from_code(p) + word_from_code(q), len(p), rng=random.Random(k))
        assert (coeff, r) == (direct.coefficient, direct.perm), (p, q)


def test_multiply_perms_matches_the_candidate_engine():
    rng = random.Random(12)
    pairs = []
    for _ in range(500):
        n = rng.randint(6, 16)
        pairs.append((tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))))
    _assert_products_match_the_candidate_engine(pairs)


def test_multiply_perms_matches_the_diagram_model_at_ranks_7_to_32():
    # The certificate proves that a product is the code word of the
    # permutation reached, not that it is the right product.  The diagram
    # model checks that at every rank multiply admits above the ones the
    # full tables cover: each product of 40 seeded pairs per rank is the
    # diagram product of the two code words, and its coefficient with
    # every y at 1 is the product's x-loops.
    rng = random.Random(61)
    for n in range(7, 33):
        ys = {("y", i): 1 for i in range(1, n - 1)}
        for _ in range(40):
            p, q = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            coeff, r = multiply_perms(p, q)
            loops, d = dg.product_y1(perm_to_diagram(p), perm_to_diagram(q))
            assert (coeff.specialize(ys), perm_to_diagram(r)) == (loops, d), (p, q)


def _word_of_squares_and_zigzags(rng, n, length):
    # single letters, squares i i and zigzags i j i with |i - j| = 1
    word = []
    while len(word) < length:
        i, kind = rng.randint(1, n - 1), rng.randrange(3)
        if kind == 0:
            word.append(i)
        elif kind == 1:
            word += [i, i]
        else:
            word += [i, rng.choice([j for j in (i - 1, i + 1) if 1 <= j < n]), i]
    return word


def test_normalize_matches_the_diagram_model_at_ranks_7_to_32():
    # The words counterpart of the products above: each seeded word's
    # normal form, with every y at 1, is the x-loops of the product of
    # its generator diagrams, and its permutation's diagram is that
    # product.
    rng = random.Random(38)
    for n in range(7, 33):
        ys = {("y", i): 1 for i in range(1, n - 1)}
        gens = [None] + [dg.generator(i, n) for i in range(1, n)]
        for _ in range(6):
            word = _word_of_squares_and_zigzags(rng, n, 2 * n)
            loops, d = Polynomial.one(), dg.identity(n)
            for i in word:
                c, d = dg.product_y1(d, gens[i])
                loops = loops * c
            got = normalize(word, n)
            assert (got.coefficient.specialize(ys), perm_to_diagram(got.perm)) == (loops, d), word


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="the 14400 rank-5 products run only with OKADA_EXTENDED=1",
)
def test_extended_multiply_perms_matches_the_candidate_engine_at_rank_5():
    _assert_products_match_the_candidate_engine(itertools.product(all_perms(5), repeat=2))


def test_products_hold_no_memory():
    # A cache of generator steps held about 130 MiB after 1000 such
    # products, about 128 KiB each, so 100 of them would pass 1 MiB.
    # An lru_cache of size 0 stores nothing and only counts calls.
    caches = {name: v.cache_info() for name, v in vars(rewriting).items() if hasattr(v, "cache_info")}
    assert all(info.maxsize == 0 for info in caches.values()), caches
    rng = random.Random(32)
    pairs = [tuple(tuple(rng.sample(range(1, 33), 32)) for _ in "pq") for _ in range(100)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p, q in pairs:
            multiply_perms(p, q)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


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


def _perm_to_diagram_by_insertion(p):
    """The dictionary arcs inserted from rank 1 up, each rank shifting the
    positions at and above its own by two (the former library
    construction), as an oracle."""
    partner, height = [], []
    for r, c in enumerate(code(p), start=1):
        a, b = r - 1 + c, r - c
        partner = [q if q < a else q + 2 for q in partner]
        partner[a:a] = (a + 1, a)
        height[a:a] = (b, b)
    return dg._from_arrays(len(p), partner, height)


def test_perm_to_diagram_matches_the_insertion_oracle():
    rng = random.Random(1024)
    perms = [p for n in range(8) for p in all_perms(n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for n in (8, 16, 32) for _ in range(40)]
    perms += [tuple(rng.sample(range(1, 1025), 1024)), tuple(range(1024, 0, -1)), tuple(range(1, 1025))]
    for p in perms:
        assert perm_to_diagram(p) == _perm_to_diagram_by_insertion(p), p


def _diagram_to_perm_by_peeling(d):
    """The top rank peeled off one diagram at a time, then the code word
    evaluated swap by swap (the former library construction), as an
    oracle."""
    n = d.rank
    cvec = [0] * n
    cur = d
    for r in range(n, 0, -1):
        if dg.has_iota_arc(cur):
            cur = dg.iota_inverse(cur)
        else:
            cur, start = dg.peel(cur)
            cvec[r - 1] = r - start
    word = []
    for i, c in enumerate(cvec, start=1):
        word.extend(range(i - 1, i - c - 1, -1))
    return perm_from_word(word, n)


def test_diagram_to_perm_builds_no_diagram_and_evaluates_no_word(monkeypatch):
    cases = [(perm_to_diagram(p), p) for n in range(7) for p in all_perms(n)]
    assert all(_diagram_to_perm_by_peeling(d) == p for d, p in cases)

    def never(*args, **kwargs):
        raise AssertionError("diagram_to_perm went through an intermediate diagram or word")

    for target in ("diagrams._from_arrays", "diagrams.peel", "diagrams.iota_inverse",
                   "diagrams.has_iota_arc", "rewriting.perm_from_word"):
        monkeypatch.setattr(f"okada.{target}", never)
    for d, p in cases:
        assert diagram_to_perm(d) == p


def _random_labelled_matching(rng, n):
    ends = list(range(2 * n))
    rng.shuffle(ends)
    partner, height = [0] * (2 * n), [0] * (2 * n)
    for a, b in zip(ends[::2], ends[1::2]):
        partner[a], partner[b] = b, a
        height[a] = height[b] = rng.randint(1, n)
    return dg._from_arrays(n, partner, height)


def _peel_outcome(convert, d):
    try:
        return convert(d)
    except InternalInvariantError:
        return "no arc to peel"


def test_diagram_to_perm_matches_the_peel_chain_oracle():
    rng = random.Random(1999)
    perms = [tuple(rng.sample(range(1, n + 1), n)) for n in range(8, 21) for _ in range(20)]
    perms += [tuple(range(1024, 0, -1)), tuple(rng.sample(range(1, 1025), 1024))]
    for p in perms:
        d = perm_to_diagram(p)
        assert diagram_to_perm(d) == _diagram_to_perm_by_peeling(d) == p
    outcomes = set()
    for _ in range(3000):
        d = _random_labelled_matching(rng, rng.randrange(8))
        got = _peel_outcome(diagram_to_perm, d)
        assert got == _peel_outcome(_diagram_to_perm_by_peeling, d), d
        if isinstance(got, tuple):  # every arc was found, so d is the diagram of got
            assert perm_to_diagram(got) == d
        outcomes.add(isinstance(got, tuple))
    assert outcomes == {False, True}


def test_identity_and_generator_map():
    assert perm_to_diagram((1, 2, 3)) == dg.identity(3)
    assert perm_to_diagram((2, 1)) == dg.generator(1, 2)


def test_mirror_matches_inverse():
    for n in range(1, 7):
        for p in all_perms(n):
            assert dg.mirror(perm_to_diagram(p)) == perm_to_diagram(perm_inverse(p))


def test_theta_is_a_homomorphism_at_all_ones():
    # rank 5, 14400 products, runs with OKADA_EXTENDED=1
    for n in range(1, 6 if os.environ.get("OKADA_EXTENDED") else 5):
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
