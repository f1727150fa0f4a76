"""Byte identity of the CLI, as a checked-in digest corpus.

``fixtures/cli_corpus.json`` lists argv vectors with the exit code and
the sha256 of stdout, recorded at a trusted commit.  The quick sweep
covers every subcommand and output format over small ranks, plus a
fixed set of invalid inputs; the extended sweep (S_6, ranks 7 to 10 and
the caps) replays only with ``OKADA_EXTENDED=1``.  Every call runs in
process through ``main()``.

A change that means to change an output re-records the fixture and
names each changed entry in ``CHANGES.md``:

    OKADA_RECORD_CORPUS=1 pytest tests/test_cli_corpus.py

Recording writes both sweeps, whatever ``OKADA_EXTENDED`` says.
"""

import hashlib
import io
import json
import os
import random
from functools import lru_cache
from pathlib import Path

import pytest

from okada import serialize as ser
from okada.cli import main
from okada.diagrams import enumerate_half, iter_diagrams
from okada.fibonacci import enumerate_yfs
from okada.rewriting import all_perms, rs

CORPUS = Path(__file__).parent / "fixtures" / "cli_corpus.json"
KINDS = ("yfs", "diagrams", "half", "chains", "idempotents")


def _set_text(s):
    return ",".join(map(str, s.elements))


def _perm_calls(n, step=1):
    # factorize and rs of every permutation, then rs-inverse of every
    # step-th rs pair: its JSON argument is most of the fixture's size
    calls = []
    for i, p in enumerate(all_perms(n)):
        text = " ".join(map(str, p))
        calls += [["factorize", text], ["rs", text]]
        if i % step == 0:
            left, right = rs(p)
            calls.append(["rs-inverse", ser.dumps({"left": ser.chain_to_obj(left), "right": ser.chain_to_obj(right)})])
    return calls


def _gram_calls(n):
    return [["gram", "--n", str(n), "--set", _set_text(s), "--det"] for s in enumerate_yfs(n)]


def _element(rng, n):
    perms = list(all_perms(n))
    terms = []
    for p in rng.sample(perms, rng.randint(1, 3)):
        coeff = [{"x": [rng.randint(0, 2) for _ in range(n - 1)], "y": [rng.randint(0, 1) for _ in range(n - 2)],
                  "c": rng.randint(-3, 3) or 1} for _ in range(rng.randint(1, 2))]
        terms.append({"perm": list(p), "coeff": coeff})
    return json.dumps({"rank": n, "terms": terms})


def _quick_calls():
    calls = []
    for n in range(7):
        for kind in KINDS:
            calls += [["enumerate", kind, "--n", str(n)], ["enumerate", kind, "--n", str(n), "--count-only"]]
        for s in enumerate_yfs(n):
            calls += [["enumerate", kind, "--n", str(n), "--set", _set_text(s)] for kind in ("half", "chains")]
    calls += [["enumerate", "idempotents", "--n", str(n), "--count-only"] for n in (7, 8)]
    calls.append(["enumerate", "idempotents", "--n", "9", "--extended", "--count-only"])
    for n in range(7):
        calls += [["green", "--n", str(n)], ["green", "--n", str(n), "--format", "csv"]]
    calls += [
        ["census", "--max", "8", "--green-max", "6"],
        ["census", "--max", "6", "--format", "csv"],
        ["census", "--min", "3", "--max", "5", "--green-max", "4", "--format", "csv"],
        ["census", "--max", "6", "--threads", "2"],
    ]
    for n in range(1, 7):
        calls += _gram_calls(n)
    calls += [["gram", "--n", "4", "--set", _set_text(s), "--specialize", "9"] for s in enumerate_yfs(4)]
    calls += [["gram", "--n", "5", "--set", "1,4", "--det", "--specialize", "2"]]
    calls += [["gram", "--n", "6", "--set", _set_text(s), "--specialize", "7"] for s in enumerate_yfs(6)]
    for n in range(1, 6):
        calls += _perm_calls(n)
    rng = random.Random(0)
    for n in range(2, 7):
        for _ in range(6):
            w1, w2 = (" ".join(str(rng.randrange(1, n)) for _ in range(rng.randint(0, 2 * n))) for _ in range(2))
            calls += [["normalize", w1, "--n", str(n)], ["normalize", w1]]
            calls += [["multiply", mode, w1, w2, "--n", str(n)] for mode in ("generic", "monoid", "y1")]
    for n in (3, 4):
        for _ in range(4):
            calls.append(["multiply", "generic", _element(rng, n), _element(rng, n)])
    diagrams = [d for n in (2, 3) for d in iter_diagrams(n)] + rng.sample(list(iter_diagrams(6)), 4)
    for d in diagrams:
        text = ser.dumps(ser.diagram_to_obj(d))
        calls += [["render", "diagram", "--format", fmt, "--input", text] for fmt in ("svg", "tikz")]
    a, b = (ser.dumps(ser.diagram_to_obj(d)) for d in diagrams[-2:])
    calls += [["multiply", mode, a, b] for mode in ("monoid", "y1")]
    for h in enumerate_half(4):
        text = ser.dumps(ser.half_to_obj(h))
        calls += [["render", "half", "--format", fmt, "--input", text] for fmt in ("svg", "tikz")]
    for n in range(7):
        calls += [["render", kind, "--format", fmt, "--n", str(n)]
                  for kind in ("dominance", "yfs") for fmt in ("svg", "tikz")]
    calls += [["selftest", "--seed", str(seed)] for seed in range(3)]
    return calls + _invalid_calls()


def _invalid_calls():
    # Refused requests: exit 2 for usage, 3 for invalid input, and no stdout.
    nested = "[" * 5000 + "]" * 5000
    return [
        [], ["bogus"], ["enumerate", "trees", "--n", "2"], ["enumerate", "yfs"],
        ["enumerate", "yfs", "--n", "-1"], ["enumerate", "yfs", "--n", "26"],
        ["enumerate", "diagrams", "--n", "9"], ["enumerate", "yfs", "--n", "2", "--set", "1"],
        ["enumerate", "half", "--n", "3", "--set", "2"], ["enumerate", "chains", "--n", "3", "--set", "1,x"],
        ["enumerate", "idempotents", "--n", "9"], ["enumerate", "idempotents", "--n", "9", "--count-only"],
        ["enumerate", "idempotents", "--n", "11", "--extended", "--count-only"],
        ["normalize", "1 x 2"], ["normalize", "0 1"], ["normalize", "5", "--n", "3"],
        ["normalize", "1", "--n", "33"], ["normalize", " ".join(["1"] * 4097)],
        ["multiply", "generic", "{", "1"], ["multiply", "generic", nested, "1"],
        ["multiply", "monoid", "1", "2", "--n", "2"], ["multiply", "cubic", "1", "1"],
        ["multiply", "y1", '{"rank": 2, "arcs": []}', "1"],
        ["rs", "1 1 2"], ["rs", "0 1"], ["rs", "2 3"], ["rs-inverse", "[]"], ["rs-inverse", "{}"],
        ["rs-inverse", nested], ["factorize", "2 2"], ["factorize", "1 x"],
        ["gram", "--n", "4", "--set", "2"], ["gram", "--n", "9", "--set", "1"],
        ["gram", "--n", "8", "--set", "", "--det"], ["gram", "--n", "3"],
        ["green", "--n", "9"], ["green", "--n", "-1"], ["green", "--n", "3", "--format", "xml"],
        ["census", "--max", "11"], ["census", "--threads", "0"], ["census", "--threads", "65"],
        ["census", "--min", "3", "--max", "1"], ["census", "--max", "9", "--green-max", "9"],
        ["render", "diagram", "--format", "svg"], ["render", "yfs", "--format", "svg"],
        ["render", "half", "--format", "tikz", "--input", '{"rank": 1}'],
        ["render", "dominance", "--format", "svg", "--n", "17"],
        ["render", "diagram", "--format", "png", "--input", "{}"],
        ["selftest", "--seed", "x"],
    ]


def _extended_calls():
    calls = []
    for n in (7, 8):
        for kind in KINDS:
            calls += [["enumerate", kind, "--n", str(n)], ["enumerate", kind, "--n", str(n), "--count-only"]]
        calls += [["green", "--n", str(n)], ["green", "--n", str(n), "--format", "csv"]]
        calls += _gram_calls(n)  # cells over the --det dimension cap are refused
    calls += [["gram", "--n", "7", "--set", _set_text(s), "--specialize", "3"] for s in enumerate_yfs(7)]
    calls.append(["gram", "--n", "8", "--set", "", "--specialize", "1"])
    calls += [["enumerate", kind, "--n", "10"] for kind in ("half", "chains")]
    calls += [["enumerate", "yfs", "--n", "25"], ["enumerate", "yfs", "--n", "25", "--count-only"]]
    calls.append(["enumerate", "idempotents", "--n", "10", "--extended", "--count-only"])
    calls += [
        ["census", "--max", "10", "--green-max", "8", "--threads", "2"],
        ["census", "--max", "8", "--extended", "--format", "csv", "--threads", "2"],
    ]
    calls += [["render", kind, "--format", fmt, "--n", str(n)]
              for n in (8, 12, 16) for kind in ("dominance", "yfs") for fmt in ("svg", "tikz")]
    return calls + _perm_calls(6, step=6)


def _outcome(argv):
    out = io.StringIO()
    rc = main(argv, stdout=out, stderr=io.StringIO())
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


@lru_cache(maxsize=None)
def _corpus():
    if os.environ.get("OKADA_RECORD_CORPUS"):
        sweeps = {"quick": _quick_calls(), "extended": _extended_calls()}
        lines = ["{"]
        for i, (name, calls) in enumerate(sweeps.items()):
            lines.append(f"  {json.dumps(name)}: [")
            entries = [json.dumps({"argv": argv, "exit": rc, "stdout_sha256": digest})
                       for argv in calls for rc, digest in [_outcome(argv)]]
            lines.append(",\n".join(f"    {e}" for e in entries))
            lines.append("  ]" + ("," if i == 0 else ""))
        lines.append("}")
        CORPUS.write_text("\n".join(lines) + "\n")
    return json.loads(CORPUS.read_text())


def _replay(name, calls):
    entries = _corpus()[name]
    assert [e["argv"] for e in entries] == calls, f"the {name} calls differ from the recorded corpus"
    for e in entries:
        assert _outcome(e["argv"]) == (e["exit"], e["stdout_sha256"]), [a[:80] for a in e["argv"]]


@pytest.fixture(autouse=True)
def _no_thread_variable(monkeypatch):
    monkeypatch.delenv("OKADA_THREADS", raising=False)


def test_every_quick_call_matches_its_recorded_output():
    _replay("quick", _quick_calls())


def test_the_corpus_covers_every_subcommand_format_and_exit_code():
    entries = _corpus()["quick"]
    commands = {e["argv"][0] for e in entries if e["argv"]}
    assert commands == {"enumerate", "multiply", "normalize", "rs", "rs-inverse", "green", "census",
                        "gram", "factorize", "render", "selftest", "bogus"}
    flags = {a for e in entries for a in e["argv"]}
    assert {"--count-only", "--set", "--det", "--specialize", "--threads", "csv", "svg", "tikz"} <= flags
    assert {"generic", "monoid", "y1", "diagram", "half", "dominance", "yfs"} <= flags
    assert {e["exit"] for e in entries} == {0, 2, 3}
    empty = hashlib.sha256(b"").hexdigest()
    assert all(e["stdout_sha256"] == empty for e in entries if e["exit"])


@pytest.mark.skipif(not os.environ.get("OKADA_EXTENDED"),
                    reason="the extended corpus sweep runs only with OKADA_EXTENDED=1")
def test_every_extended_call_matches_its_recorded_output():
    _replay("extended", _extended_calls())
