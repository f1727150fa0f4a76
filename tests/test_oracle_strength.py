"""Oracle strength as a table: a fault planted in a fast path must fail
the check that guards it.

Each row names a fast path, one planted fault and the check that must
catch it.  A fault is planted by recompiling the one function from its
source with one change; each change must match the source exactly once,
so a rewrite of the function fails the table instead of passing it
silently.

The rows of the push kernel (``rewriting._push``) run every product of
two permutations of rank at most 5.  A product either raises
``InternalInvariantError`` (caught at run time by the certificate), gives
the honest answer, or gives a wrong one without raising (missed).  The
meta check turns the certificate's checks into no-ops: then every row
must report its fault as missed, which shows that the certificate, not
the planting, caught it.  A fault the certificate misses must fail the
three oracles of ``test_rewriting``: the candidate engine, and the
diagram model of products and of words at ranks 7 to 32.

The rows of the dictionary plant a fault in
``rewriting._diagram_of_runs``, which builds the diagram of every
permutation.  Both of its oracles must fail: the former insertion
construction and the diagram model of products at ranks 7 to 32.  The
meta check turns each oracle's comparison into a no-op: then the planted
fault passes, which shows that the comparison, not an error the fault
raised, caught it.

The rows of the cell scans plant a fault in a builder, a counter or a
walk of ``okada.diagrams`` and ``okada.monoid`` (the lattice walk
``_cells`` among them), or in the Gram matrix of ``okada.algebra``, and
run the test whose oracle guards it, which must fail.  Their meta check
recompiles that test with its oracle turned into a no-op: then the
planted fault passes, which shows that the oracle, not an error of the
planting, caught it.  Each planted row reads a fresh cell layout memo
(``diagrams._rank_cells``), so no layout built by a planted walk outlives
its test.

The rows of the unchecked builders plant a fault in a function that
builds Fibonacci sets and chains through ``_trusted``.  Each fault makes
a value that the checked constructors refuse with ``ValueError``, so the
oracle that guards the function, not a constructor, must now fail it
with ``AssertionError``.  Their meta check is that of the cell scans.

A planted function is replaced wherever the library or the oracle's
module holds it by name, as ``okada.monoid`` holds ``_passing``.
"""

import functools
import inspect
import itertools
import textwrap

import pytest
import test_algebra
import test_diagrams
import test_fibonacci
import test_monoid
import test_rewriting

from okada import algebra, diagrams, fibonacci, monoid, rewriting
from okada.errors import InternalInvariantError
from okada.rewriting import all_perms, multiply_perms

PAIRS = [pq for n in range(6) for pq in itertools.product(all_perms(n), repeat=2)]


def _recompiled(func, *changes):
    """``func`` compiled from its source with each ``(old, new)`` applied,
    in the globals of its module, which it leaves untouched."""
    func = inspect.unwrap(func)  # the source of a cached function holds its decorator
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in changes:
        assert source.count(old) == 1, (func.__name__, old)
        source = source.replace(old, new)
    namespace = {}
    exec(compile(source, inspect.getsourcefile(func), "exec"), func.__globals__, namespace)
    return namespace[func.__name__]


# The certificate's checks: the append step's and the final one.
APPEND_CHECK = ("if p[j - 1] > p[j] or p[j] != k + 1:", "if False:")
FINAL_CHECK = ("if _perm_of_runs(bot) != p:", "if False:")

# fault -> (change to _push, products caught at run time, products missed)
PUSH_ROWS = {
    "drop the square branch": (("if b == j:  # square", "if False:  # square"), 8728, 0),
    "drop the zigzag branch": (("elif b < j:  # zigzag", "elif False:  # zigzag"), 12564, 0),
    "skip the rotation": (("p.insert(j - 1, p.pop(b - 1))", "pass"), 12564, 0),
    "set the wrong bottom after a zigzag": (
        ("bot[k] = j\n            p.insert", "bot[k] = j - 1\n            p.insert"), 12564, 0),
    "forget the bottom after an append": (
        ("p[j], p[j - 1]\n            bot[k] = j\n", "p[j], p[j - 1]\n"), 14088, 0),
    # the state stays one code word, so only the candidate engine sees it
    "drop the re-push": (("todo += range(b, j - 1)", "pass"), 0, 8628),
}


@pytest.fixture(scope="module")
def honest_products():
    return [multiply_perms(p, q) for p, q in PAIRS]


def _outcomes(honest_products):
    caught = missed = 0
    for (p, q), want in zip(PAIRS, honest_products):
        try:
            got = multiply_perms(p, q)
        except InternalInvariantError:
            caught += 1
        else:
            missed += got != want
    return caught, missed


@pytest.mark.parametrize("fault", PUSH_ROWS)
def test_a_fault_planted_in_the_push_kernel_is_caught(monkeypatch, honest_products, fault):
    change, caught, missed = PUSH_ROWS[fault]
    monkeypatch.setattr(rewriting, "_push", _recompiled(rewriting._push, change))
    assert _outcomes(honest_products) == (caught, missed)
    if missed:
        for oracle in (test_rewriting.test_multiply_perms_matches_the_candidate_engine,
                       test_rewriting.test_multiply_perms_matches_the_diagram_model_at_ranks_7_to_32,
                       test_rewriting.test_normalize_matches_the_diagram_model_at_ranks_7_to_32):
            with pytest.raises(AssertionError):
                oracle()


@pytest.mark.parametrize("fault", PUSH_ROWS)
def test_a_push_fault_is_missed_with_the_certificate_off(monkeypatch, honest_products, fault):
    change = PUSH_ROWS[fault][0]
    monkeypatch.setattr(rewriting, "_push", _recompiled(rewriting._push, change, APPEND_CHECK))
    monkeypatch.setattr(rewriting, "_multiply_code_words", _recompiled(rewriting._multiply_code_words, FINAL_CHECK))
    caught, missed = _outcomes(honest_products)
    assert caught == 0 and missed > 0


# fault -> (change to _diagram_of_runs, (oracle test, change that makes its oracle a no-op) for each oracle)
DICTIONARY_ROWS = {
    "place each arc one position left": (
        ("a = 2 * r - 1 - b", "a = 2 * r - 2 - b"),
        ((test_rewriting.test_perm_to_diagram_matches_the_insertion_oracle,
          ("assert perm_to_diagram(p) == _perm_to_diagram_by_insertion(p), p", "perm_to_diagram(p)")),
         (test_rewriting.test_multiply_perms_matches_the_diagram_model_at_ranks_7_to_32,
          ("assert (coeff.specialize(ys), perm_to_diagram(r)) == (loops, d), (p, q)", "perm_to_diagram(r)")))),
}


@pytest.mark.parametrize("fault", DICTIONARY_ROWS)
def test_a_fault_planted_in_the_dictionary_fails_both_oracles(monkeypatch, fault):
    change, oracles = DICTIONARY_ROWS[fault]
    monkeypatch.setattr(rewriting, "_diagram_of_runs", _recompiled(rewriting._diagram_of_runs, change))
    for oracle, _ in oracles:
        with pytest.raises(AssertionError):
            oracle()


@pytest.mark.parametrize("fault", DICTIONARY_ROWS)
def test_a_dictionary_fault_passes_its_oracles_made_no_ops(monkeypatch, fault):
    change, oracles = DICTIONARY_ROWS[fault]
    monkeypatch.setattr(rewriting, "_diagram_of_runs", _recompiled(rewriting._diagram_of_runs, change))
    for oracle, no_op in oracles:
        _recompiled(oracle, no_op)()


def _plant(monkeypatch, module, name, change, oracle):
    honest = getattr(module, name)
    faulty = _recompiled(honest, change)
    for target in (algebra, diagrams, fibonacci, monoid, rewriting, inspect.getmodule(oracle)):
        if vars(target).get(name) is honest:
            monkeypatch.setattr(target, name, faulty)
    # a fresh layout memo: a planted walk is read, and its layout is not kept past the test
    monkeypatch.setattr(diagrams, "_rank_cells", functools.lru_cache(maxsize=1)(inspect.unwrap(diagrams._rank_cells)))


def _run(oracle, monkeypatch):
    """Run the test ``oracle``, handing it the ``monkeypatch`` fixture if it takes one."""
    takes = "monkeypatch" in inspect.signature(oracle).parameters
    oracle(**({"monkeypatch": monkeypatch} if takes else {}))


# fault -> (module, function, change to it, oracle test, change that makes its oracle a no-op)
CELL_ROWS = {
    "tie a right half arc to its own end": (
        diagrams, "_glue_cell", ("= last - a, a\n", "= last - a, p\n"),
        test_diagrams.test_glue_cell_equals_glue_pair_by_pair,
        ("[dg.glue(objs[i], objs[j]) for i, j in pairs]", "list(dg._glue_cell(cell, ends, pairs))")),
    "start the census's inner range at i + 2": (
        monoid, "_census_rows", ("cell, ends, i + 1)", "cell, ends, i + 2)"),
        test_monoid.test_the_census_matches_the_full_square,
        ("== square == KNOWN_IDEMPOTENT_COUNTS[n]", "is not None")),
    "let a strand pass a lower arc of the right half": (
        diagrams, "_passing", (" and rh[q] >= h", ""),
        test_monoid.test_iter_idempotents_matches_squaring_over_iter_diagrams,
        (" == [d for d in dg.iter_diagrams(n) if is_idempotent(d)]", " is not None")),
    # a fault of the row walk alone: a pair asked on its own still answers right
    "stop the row at its first failing half": (
        diagrams, "_passing", ("break\n        else:", "return passing\n        else:"),
        test_monoid.test_iter_idempotents_matches_squaring_over_iter_diagrams,
        (" == [d for d in dg.iter_diagrams(n) if is_idempotent(d)]", " is not None")),
    # the certificate checks each product, not where its entry is written
    "drop the mirror write": (
        algebra, "gram_matrix", ("rows[i][j] = rows[j][i] =", "rows[i][j] ="),
        test_algebra.test_gram_symmetry_and_mirror,
        ("tables = _assert_gram_matches_full_table(cells)", "tables = {s: _full_gram_table(s) for s in cells}")),
    "close the first open step of a chain, not the last": (
        diagrams, "_cells", ("q = opens[-1]", "q = opens[0]"),
        test_diagrams.test_the_lattice_walk_matches_the_chain_decoding,
        ("tuple(dg.chain_inverse(c) for c in saturated_chains(s))", "dg.enumerate_half(n, s)")),
    # the index count still adds up to the census and to n!, so only the full scan sees it
    "count a failing pair one index too high": (
        monoid, "aperiodicity_profile", ("profile[aperiodicity_index(e)] += 2", "profile[aperiodicity_index(e) + 1] += 2"),
        test_monoid.test_aperiodicity_max_matches_the_full_scan,
        ("assert profile == full and list(profile) == sorted(full), n", "assert full is not None, n")),
}


@pytest.mark.parametrize("fault", CELL_ROWS)
def test_a_fault_planted_in_a_cell_scan_fails_its_oracle(monkeypatch, fault):
    module, name, change, oracle, _ = CELL_ROWS[fault]
    _plant(monkeypatch, module, name, change, oracle)
    with pytest.raises(AssertionError):
        _run(oracle, monkeypatch)


@pytest.mark.parametrize("fault", CELL_ROWS)
def test_a_cell_scan_fault_passes_its_oracle_made_a_no_op(monkeypatch, fault):
    module, name, change, oracle, no_op = CELL_ROWS[fault]
    _plant(monkeypatch, module, name, change, oracle)
    _run(_recompiled(oracle, no_op), monkeypatch)


# fault -> (module, function, change to it, oracle test, its arguments, change that makes its oracle a no-op)
TRUSTED_ROWS = {
    "align the join one element too high": (
        fibonacci, "dominance_join", ("b[cut:]", "b[cut + 1:]"),
        test_fibonacci.test_dominance_closed_forms_match_search, (6,),
        ('assert dominance_join(a, b) == found["join"](i, j), (a, b)', "dominance_join(a, b)")),
    "add k + 1 in the recurrence": (
        fibonacci, "enumerate_yfs", ("e + (k,)", "e + (k + 1,)"),
        test_fibonacci.test_enumerate_matches_the_parity_walk_oracle, (),
        ("== _sets_by_parity_walk(n), n", "is not None")),
    "open a new label below the open ones": (
        diagrams, "chain_of", ("labels.append(ht)", "labels.insert(0, ht)"),
        test_diagrams.test_chain_of_matches_the_restriction_oracle, (),
        ("_oracle():\n", "_oracle():\n    _chain_by_restriction = dg.chain_of\n")),
}


@pytest.mark.parametrize("fault", TRUSTED_ROWS)
def test_a_fault_planted_in_an_unchecked_builder_fails_its_oracle(monkeypatch, fault):
    module, name, change, oracle, args, _ = TRUSTED_ROWS[fault]
    _plant(monkeypatch, module, name, change, oracle)
    with pytest.raises(AssertionError):
        oracle(*args)


@pytest.mark.parametrize("fault", TRUSTED_ROWS)
def test_an_unchecked_builder_fault_passes_its_oracle_made_a_no_op(monkeypatch, fault):
    module, name, change, oracle, args, no_op = TRUSTED_ROWS[fault]
    _plant(monkeypatch, module, name, change, oracle)
    _recompiled(oracle, no_op)(*args)
