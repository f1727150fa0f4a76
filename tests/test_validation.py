"""The linear validation walk against the pairwise checkers it replaced.

``_violations_by_pairs`` and ``_half_violations_by_pairs`` are the
earlier checkers, kept verbatim as oracles: they test every pair of arcs
for a crossing and for nesting, so they share no code with the stack
walk of :func:`okada.diagrams.violations`.  The walk may report fewer
failures for an invalid object, so the tests compare validity and ask
that every kind of failure the walk reports is one the oracle reports.

The last tests pin the one rank rule: every entry point that takes a
rank refuses a negative one and one that is not an integer, through
``okada.errors._checked_rank``, and every message names a user value
through the one bounded formatter ``okada.errors._shown``.
"""

import io
import itertools
import os
import random
import re
import time
from pathlib import Path

import pytest

from okada import diagrams as dg
from okada import rewriting as rw
from okada import serialize as ser
from okada.algebra import AlgebraElement
from okada.cli import main
from okada.fibonacci import FibonacciSet, enumerate_yfs, is_fibonacci_set

A = dg.Arc
order_key = dg.order_key


def _violations_by_pairs(d):
    """Crossing and label-condition failures of ``d`` (empty iff valid)."""
    n = d.rank
    out = []
    spans = [(order_key(a, n), order_key(b, n), a, b, h) for a, b, h in d.arcs]
    for i, (lo1, hi1, a1, b1, h1) in enumerate(spans):
        m = min(abs(a1), abs(b1))
        if h1 > m:
            out.append(f"label: h({a1},{b1})={h1} exceeds min(|a|,|b|)={m}")
        if (h1 - m) % 2 != 0:
            out.append(f"label: h({a1},{b1})={h1} has wrong parity (min={m})")
        for lo2, hi2, a2, b2, h2 in spans[i + 1 :]:
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                out.append(f"crossing: ({a1},{b1}) and ({a2},{b2})")
            elif lo1 < lo2 and hi2 < hi1 and h2 <= h1:
                out.append(f"nesting: h({a2},{b2})={h2} not above h({a1},{b1})={h1}")
            elif lo2 < lo1 and hi1 < hi2 and h1 <= h2:
                out.append(f"nesting: h({a1},{b1})={h1} not above h({a2},{b2})={h2}")
    return tuple(out)


def _half_violations_by_pairs(h):
    """Label/crossing failures of a half diagram (empty iff valid).

    A half arc blocks everything between its node and the right
    boundary, so a full arc may not straddle it; labels on the half arcs
    must be strictly increasing with the node (total nesting) and match
    the node parity, and they must assemble into a Fibonacci set.
    """
    n = h.rank
    fulls, halves = h.full_arcs, h.half_arcs  # derived on each access
    out = []
    for a, b, ht in fulls:
        if ht > a:
            out.append(f"label: h({a},{b})={ht} exceeds {a}")
        if (ht - a) % 2 != 0:
            out.append(f"label: h({a},{b})={ht} has wrong parity at {a}")
    for e, ht in halves:
        if ht > e:
            out.append(f"label: half arc at {e} labeled {ht} > {e}")
        if (ht - e) % 2 != 0:
            out.append(f"label: half arc at {e} labeled {ht}, wrong parity")
    for i, (a1, b1, h1) in enumerate(fulls):
        for a2, b2, h2 in fulls[i + 1 :]:
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                out.append(f"crossing: ({a1},{b1}) and ({a2},{b2})")
            elif a1 < a2 and b2 < b1 and h2 <= h1:
                out.append(f"nesting: h({a2},{b2})={h2} not above h({a1},{b1})={h1}")
            elif a2 < a1 and b1 < b2 and h1 <= h2:
                out.append(f"nesting: h({a1},{b1})={h1} not above h({a2},{b2})={h2}")
        for e, h2 in halves:
            if a1 < e < b1:
                out.append(f"crossing: half arc at {e} under full arc ({a1},{b1})")
            elif e < a1 and h1 <= h2:
                out.append(
                    f"nesting: h({a1},{b1})={h1} not above half arc {e} labeled {h2}"
                )
    heights = [ht for _, ht in halves]
    if any(h2 <= h1 for h1, h2 in zip(heights, heights[1:])):
        out.append(f"nesting: half-arc labels not increasing: {heights}")
    else:
        try:
            FibonacciSet(n, tuple(sorted(heights)))
        except ValueError:
            out.append(f"labels: half-arc labels {heights} are not a Fibonacci set")
    return tuple(out)


def _kinds(messages):
    return {m.split(":")[0] for m in messages}


def assert_agrees(d):
    got, want = dg.violations(d), _violations_by_pairs(d)
    assert (not got) == (not want), (d, got, want)
    assert _kinds(got) <= _kinds(want), (d, got, want)


def assert_half_agrees(h):
    got, want = dg.half_violations(h), _half_violations_by_pairs(h)
    assert (not got) == (not want), (h, got, want)
    assert _kinds(got) <= _kinds(want), (h, got, want)


def _matchings(nodes):
    if not nodes:
        yield ()
        return
    first, rest = nodes[0], nodes[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + tail


def _covers(nodes):
    """Every way to split ``nodes`` into pairs (full arcs) and singletons (half arcs)."""
    if not nodes:
        yield (), ()
        return
    first, rest = nodes[0], nodes[1:]
    for fulls, halves in _covers(rest):
        yield fulls, (first,) + halves
    for i, other in enumerate(rest):
        for fulls, halves in _covers(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + fulls, halves


def _labelled_halves(n):
    labels = range(1, n + 1)
    for fulls, halves in _covers(tuple(range(1, n + 1))):
        for hs in itertools.product(labels, repeat=len(fulls) + len(halves)):
            yield dg.HalfArcDiagram(
                n,
                tuple(A(a, b, h) for (a, b), h in zip(fulls, hs)),
                tuple(dg.HalfArc(e, h) for e, h in zip(halves, hs[len(fulls) :])),
            )


def test_walk_matches_the_oracle_on_every_labelled_matching_up_to_rank_4():
    seen = valid = 0
    for n in range(5):
        nodes = (*range(1, n + 1), *range(-n, 0))
        for m in _matchings(nodes):
            for hs in itertools.product(range(1, n + 1), repeat=n):
                d = dg.ArcDiagram(n, tuple(A(a, b, h) for (a, b), h in zip(m, hs)))
                assert_agrees(d)
                seen += 1
                valid += dg.validate(d)
    assert (seen, valid) == (27299, 1 + 1 + 2 + 6 + 24)


def test_walk_matches_the_oracle_on_every_labelled_half_up_to_rank_5():
    for n in range(6):
        for h in _labelled_halves(n):
            assert_half_agrees(h)


@pytest.mark.skipif(
    not os.environ.get("OKADA_EXTENDED"),
    reason="the rank-6 labelled halves run only with OKADA_EXTENDED=1",
)
def test_walk_matches_the_oracle_on_every_labelled_half_of_rank_6():
    valid = 0
    for h in _labelled_halves(6):
        assert_half_agrees(h)
        valid += dg.validate_half(h)
    assert valid == len(dg.enumerate_half(6))


def _perturbed(rng, d):
    """``d`` with one label moved or two arcs exchanging an end."""
    arcs = list(d.arcs)
    i, j = rng.randrange(len(arcs)), rng.randrange(len(arcs))
    a, b, h = arcs[i]
    if rng.random() < 0.5 or i == j:
        arcs[i] = A(a, b, max(1, h + rng.choice((-2, -1, 1, 2))))
    else:
        c, e, k = arcs[j]
        arcs[i], arcs[j] = A(a, e, h), A(c, b, k)
    return dg.ArcDiagram(d.rank, arcs)


def test_walk_matches_the_oracle_on_perturbed_diagrams_and_their_halves():
    rng = random.Random(14)
    kinds = set()
    for n in range(1, 9):
        cells = enumerate_yfs(n)
        for _ in range(150):
            halves = dg.enumerate_half(n, rng.choice(cells))
            d = dg.glue(rng.choice(halves), rng.choice(halves))
            for e in (d, _perturbed(rng, d)):
                assert_agrees(e)
                assert_half_agrees(dg.bra(e))
                assert_half_agrees(dg.ket(e))
                kinds |= _kinds(dg.violations(e))
    assert kinds == {"label", "crossing", "nesting"}


def test_walk_reports_each_kind_and_names_the_arcs():
    assert dg.violations(dg.ArcDiagram(2, (A(1, -2, 1), A(2, -1, 1)))) == (
        "crossing: h(1,-2)=1 and h(2,-1)=1",
    )
    assert dg.violations(dg.ArcDiagram(2, (A(1, -1, 1), A(2, -2, 1)))) == (
        "label: h(2,-2)=1 has wrong parity (min=2)",
        "nesting: h(2,-2)=1 not above h(1,-1)=1",
    )
    assert dg.violations(dg.ArcDiagram(1, (A(1, -1, 3),))) == (
        "label: h(1,-1)=3 exceeds min(|a|,|b|)=1",
    )
    half = dg.HalfArcDiagram(3, (), (dg.HalfArc(1, 1), dg.HalfArc(2, 2), dg.HalfArc(3, 1)))
    assert dg.half_violations(half) == (
        "nesting: half arc at 3 labeled 1 not above half arc at 2 labeled 2",
    )
    inside = dg.HalfArcDiagram(3, (A(2, 3, 2),), (dg.HalfArc(1, 1),))
    assert dg.validate_half(inside)
    low = dg.HalfArcDiagram(4, (A(3, 4, 1),), (dg.HalfArc(1, 1), dg.HalfArc(2, 2)))
    assert dg.half_violations(low) == (
        "nesting: h(3,4)=1 not above half arc at 2 labeled 2",
    )


N_LARGE = 20000


def _timed(fn, arg):
    start = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - start


def test_validation_is_linear_on_large_valid_and_crossing_objects():
    n = N_LARGE
    unit = dg.identity(n)
    crossing = dg.ArcDiagram(n, tuple(A(i, i - 1 - n, 1) for i in range(1, n + 1)))
    crossing_half = dg.HalfArcDiagram(n, tuple(A(i, i + n // 2, i) for i in range(1, n // 2 + 1)), ())
    for fn, obj, valid in (
        (dg.violations, unit, True),
        (dg.violations, crossing, False),
        (dg.half_violations, dg.bra(unit), True),
        (dg.half_violations, crossing_half, False),
    ):
        found, seconds = _timed(fn, obj)
        assert (not found) == valid
        assert seconds < 1.0, (fn.__name__, seconds)
    assert [m for m in dg.violations(crossing) if m.startswith("crossing:")] == [
        f"crossing: h(1,-{n})=1 and h({n},-1)=1"
    ]


def test_multiply_refuses_an_oversized_diagram_file_quickly(tmp_path):
    path = tmp_path / "id6000.json"
    path.write_text(ser.dumps(ser.diagram_to_obj(dg.identity(6000))))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    rc = main(["multiply", "monoid", str(path), str(path)], stdout=out, stderr=err)
    seconds = time.perf_counter() - start
    assert (rc, out.getvalue()) == (2, "")
    assert "multiply supports 0 <= n <= 32" in err.getvalue()
    assert seconds < 1.0


# each entry point that takes a rank, as a call of that rank
RANK_TAKERS = {
    "ArcDiagram": lambda n: dg.ArcDiagram(n, ()),
    "HalfArcDiagram": lambda n: dg.HalfArcDiagram(n, (), ()),
    "identity": dg.identity,
    "FibonacciSet": lambda n: FibonacciSet(n, ()),
    "is_fibonacci_set": lambda n: is_fibonacci_set(n, ()),
    "enumerate_yfs": enumerate_yfs,
    "AlgebraElement": AlgebraElement,
    "check_word": lambda n: rw.check_word((), n),
    "perm_from_word": lambda n: rw.perm_from_word((), n),
    "normalize": lambda n: rw.normalize((1,), n),
    "Heap": lambda n: rw.Heap(n, ()),
    "heap_from_word": lambda n: rw.heap_from_word((), n),
}


@pytest.mark.parametrize("rank, message", [
    (-1, "rank must be non-negative"),
    (2.5, "rank must be an integer, not float"),
    ("3", "rank must be an integer, not str"),
])
@pytest.mark.parametrize("taker", RANK_TAKERS)
def test_every_rank_taker_refuses_a_rank_that_is_not_a_non_negative_integer(taker, rank, message):
    # A rank of 2.5 once built AlgebraElement(2.5: 0) and made
    # perm_from_word raise TypeError from range.
    with pytest.raises(ValueError, match=re.escape(message)):
        RANK_TAKERS[taker](rank)


def test_a_bool_rank_counts_as_an_integer():
    assert AlgebraElement(True) == AlgebraElement(1)
    assert rw.perm_from_word((), True) == (1,)


def test_the_rank_rule_is_written_once():
    src = Path(dg.__file__).parent
    owners = [path.name for path in sorted(src.glob("*.py")) if "rank must be" in path.read_text(encoding="utf-8")]
    assert owners == ["errors.py"]


# each entry point that takes a letter, as a call with that letter at rank 3
LETTER_TAKERS = {
    "generator": lambda v: dg.generator(v, 3),
    "check_word": lambda v: rw.check_word((1, v), 3),
    "normalize": lambda v: rw.normalize((1, v), 3),
    "heap_from_word": lambda v: rw.heap_from_word((v,), 3),
}


@pytest.mark.parametrize("letter, shown", [
    (0, "0"), (3, "3"), (1.5, "1.5"), ("1", "'1'"), pytest.param(10**5000, "<int of 16610 bits>", id="10**5000"),
])
@pytest.mark.parametrize("taker", LETTER_TAKERS)
def test_every_letter_taker_refuses_a_letter_out_of_range_in_one_bounded_message(taker, letter, shown):
    # generator once raised TypeError on 1.5 and "1", and the interpreter's
    # int-to-str limit error on 10**5000.
    with pytest.raises(ValueError, match=re.escape(f"letter {shown} out of range for rank 3")) as refused:
        LETTER_TAKERS[taker](letter)
    assert len(str(refused.value)) < 80


def test_a_bool_letter_counts_as_its_integer():
    # generator(True, 3) once kept True as its heights, so its repr read hTrue
    dg.generator.cache_clear()
    assert repr(dg.generator(True, 3)) == repr(dg.generator(1, 3)) == "ArcDiagram(3: (1,2)h1, (3,-3)h3, (-2,-1)h1)"
    assert rw.normalize((True,), 2) == rw.normalize((1,), 2)


def test_the_letter_rule_is_written_once():
    # the monoid and the normal-form commands name a bad letter alike
    for argv in (["multiply", "monoid", "1", "1", "--n", "1"], ["normalize", "1", "--n", "1"]):
        out, err = io.StringIO(), io.StringIO()
        assert (main(argv, stdout=out, stderr=err), out.getvalue()) == (3, "")
        assert err.getvalue() == "invalid input: letter 1 out of range for rank 1\n", argv
    src = Path(dg.__file__).parent
    owners = [path.name for path in sorted(src.glob("*.py")) if "out of range for rank {n}" in path.read_text(encoding="utf-8")]
    assert owners == ["errors.py"]


# each call with a value past the interpreter's int-to-str limit, and the message it must give
HUGE = 10**5000
HUGE_VALUE_CALLS = {
    "diagram endpoint": (lambda: dg.ArcDiagram(1, [(HUGE, -1, 1)]), "endpoint <int of 16610 bits> out of range for rank 1"),
    "diagram label": (lambda: dg.ArcDiagram(1, [(1, -1, -HUGE)]), "height must be a positive integer, got <int of 16610 bits>"),
    "half endpoint": (lambda: dg.HalfArcDiagram(1, [], [(HUGE, 1)]), "endpoint <int of 16610 bits> out of range for rank 1"),
    "set element": (lambda: FibonacciSet(1, (HUGE,)), "elements must lie in [1, 1], got (<int of 16610 bits>,)"),
    "word rank": (lambda: rw.check_word((0,), HUGE), "letter 0 out of range for rank <int of 16610 bits>"),
    "generator rank": (lambda: dg.generator(0, HUGE), "letter 0 out of range for rank <int of 16610 bits>"),
}


@pytest.mark.parametrize("call", HUGE_VALUE_CALLS)
def test_a_huge_value_is_named_by_its_size(call):
    # each once raised the interpreter's "Exceeds the limit (4300 digits)"
    # while writing its own message
    make, message = HUGE_VALUE_CALLS[call]
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message
