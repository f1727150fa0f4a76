import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import okada
from okada.algebra import gram_det
from okada.cli import main
from okada.fibonacci import FibonacciSet
from okada.polynomials import Polynomial
from okada.serialize import poly_to_terms

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def test_enumerate_yfs():
    rc, out, err = run(["enumerate", "yfs", "--n", "5"])
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8
    assert all(r["schema"] == "okada.fibset/1" for r in records)
    assert "count=8" in err


def test_enumerate_diagrams_count():
    rc, out, _ = run(["enumerate", "diagrams", "--n", "4", "--count-only"])
    assert rc == 0 and out.strip() == "24"


def test_enumerate_idempotents_count():
    rc, out, _ = run(["enumerate", "idempotents", "--n", "5", "--count-only"])
    assert rc == 0 and out.strip() == "108"
    rc, out, _ = run(["enumerate", "idempotents", "--n", "7", "--count-only"])
    assert rc == 0 and out.strip() == "4116"


def test_idempotent_counts_come_from_the_census(monkeypatch):
    from okada.monoid import EXTENDED_IDEMPOTENT_COUNTS, KNOWN_IDEMPOTENT_COUNTS

    def never(*args, **kwargs):
        raise AssertionError("--count-only built idempotent diagrams")

    monkeypatch.setattr("okada.monoid.iter_idempotents", never)
    monkeypatch.setattr("okada.diagrams.glue", never)
    for n, want in [*enumerate(KNOWN_IDEMPOTENT_COUNTS), (9, EXTENDED_IDEMPOTENT_COUNTS[9])]:
        argv = ["enumerate", "idempotents", "--n", str(n), "--count-only", *(["--extended"] if n > 8 else [])]
        assert run(argv) == (0, f"{want}\n", f"kind=idempotents n={n} count={want}\n"), n


def test_the_idempotent_stream_agrees_with_the_count():
    for n in range(8):
        rc, out, err = run(["enumerate", "idempotents", "--n", str(n)])
        count = run(["enumerate", "idempotents", "--n", str(n), "--count-only"])
        assert rc == 0 and count == (0, f"{len(out.splitlines())}\n", err), n


def _direct_counts(kind, n):
    """Counts by their recurrences: Fibonacci numbers for ``yfs``, ``n!``
    for ``diagrams`` and the involutions of S_n for ``half`` and ``chains``."""
    if kind == "diagrams":
        return math.factorial(n)
    a, b = 1, 1
    for k in range(1, n):
        a, b = b, (a + b if kind == "yfs" else b + k * a)
    return b


def test_counts_agree_with_the_streams():
    from okada.fibonacci import enumerate_yfs

    for n in range(7):
        for kind in ("yfs", "diagrams", "half", "chains"):
            rc, out, err = run(["enumerate", kind, "--n", str(n)])
            count = run(["enumerate", kind, "--n", str(n), "--count-only"])
            assert rc == 0 and count == (0, f"{len(out.splitlines())}\n", err), (kind, n)
        for s in enumerate_yfs(n):
            for kind in ("half", "chains"):
                argv = ["enumerate", kind, "--n", str(n), "--set", ",".join(map(str, s.elements))]
                rc, out, err = run(argv)
                assert rc == 0 and run([*argv, "--count-only"]) == (0, f"{len(out.splitlines())}\n", err), argv


def test_counts_up_to_each_cap_build_and_stream_nothing(monkeypatch):
    from okada.cli import _LIMITS

    def never(*args, **kwargs):
        raise AssertionError("--count-only built or streamed an item")

    for target in ("okada.diagrams.iter_diagrams", "okada.diagrams.enumerate_half", "okada.diagrams.glue",
                   "okada.diagrams.chain_inverse", "okada.fibonacci.saturated_chains", "okada.fibonacci.Chain",
                   "okada.serialize.dumps"):
        monkeypatch.setattr(target, never)
    for kind in ("yfs", "diagrams", "half", "chains"):
        for n in range(_LIMITS[kind] + 1):
            want = _direct_counts(kind, n)
            assert run(["enumerate", kind, "--n", str(n), "--count-only"]) == (
                0, f"{want}\n", f"kind={kind} n={n} count={want}\n"), (kind, n)


def test_usage_errors_go_to_the_stderr_given(capsys):
    for argv in (["bogus"], ["enumerate", "yfs", "--n", "x"]):
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, stdout=out, stderr=err) == 2
        assert err.getvalue().startswith("usage: ") and "error: " in err.getvalue(), argv
        assert out.getvalue() == ""
    assert capsys.readouterr() == ("", "")
    proc = subprocess.run([sys.executable, "-m", "okada.cli", "bogus"], capture_output=True, text=True,
                          env=_src_env())
    assert (proc.returncode, proc.stdout) == (2, "") and proc.stderr.startswith("usage: ")


def test_enumerate_half_filtered():
    rc, out, _ = run(["enumerate", "half", "--n", "3", "--set", "1"])
    assert rc == 0
    assert len(out.splitlines()) == 2


def test_enumerate_usage_error_states_limit():
    rc, _, err = run(["enumerate", "diagrams", "--n", "9"])
    assert rc == 2
    assert "n <= 8" in err


def test_enumerate_refuses_a_set_it_would_ignore():
    for kind in ("yfs", "diagrams", "idempotents"):
        for text in ("2", "1,2", ""):
            rc, out, err = run(["enumerate", kind, "--n", "2", "--set", text, "--count-only"])
            assert (rc, out) == (2, ""), (kind, text)
            assert f"enumerate {kind} takes no --set" in err
    for kind in ("half", "chains"):
        assert run(["enumerate", kind, "--n", "2", "--set", "1,2", "--count-only"])[:2] == (0, "1\n")
        assert run(["enumerate", kind, "--n", "2", "--set", "2", "--count-only"])[:2] == (3, "")
        # an empty --set is the empty label set, not a missing one
        assert run(["enumerate", kind, "--n", "2", "--set", "", "--count-only"])[:2] == (0, "1\n")
        assert run(["enumerate", kind, "--n", "3", "--set", "", "--count-only"])[:2] == (3, "")


def test_multiply_generic_words():
    rc, out, _ = run(["multiply", "generic", "1 1", ""])
    assert rc == 0
    obj = json.loads(out)
    assert obj["coeff_x"] == [1] and obj["word"] == [1]
    rc, out, _ = run(["multiply", "generic", "2 1", "2"])
    obj = json.loads(out)
    assert obj["coeff_y"] == [1] and obj["word"] == [2] and obj["perm"] == [1, 3, 2]


def test_multiply_generic_elements_as_json():
    a = {
        "rank": 3,
        "terms": [
            {"perm": [2, 1, 3], "coeff": [{"x": [0, 0], "y": [0], "c": 1}]},
            {"perm": [1, 2, 3], "coeff": [{"x": [1, 0], "y": [0], "c": 2}]},
        ],
    }
    b = {"rank": 3, "terms": [{"perm": [2, 1, 3], "coeff": [{"x": [0, 0], "y": [0], "c": 1}]}]}
    rc, out, _ = run(["multiply", "generic", json.dumps(a), json.dumps(b)])
    assert rc == 0
    obj = json.loads(out)
    # (E_1 + 2*x1) * E_1 = x1*E_1 + 2*x1*E_1 = 3*x1*E_1
    assert obj["terms"] == [
        {"perm": [2, 1, 3], "coeff": [{"x": [1, 0], "y": [0], "c": 3}]}
    ]


def test_multiply_monoid_composition_example():
    comp = json.loads((FIXTURES / "composition_rank8.json").read_text())
    left = json.dumps(comp["left"])
    right = json.dumps(comp["right"])
    rc, out, _ = run(["multiply", "monoid", left, right])
    assert rc == 0
    assert json.loads(out) == comp["result"]
    rc, out, _ = run(["multiply", "y1", left, right])
    obj = json.loads(out)
    assert obj["coeff_x"] == comp["coeff_x"]
    assert obj["arcs"] == comp["result"]["arcs"]


def test_multiply_rank_mismatch_is_validation_error():
    rc, _, err = run(["multiply", "monoid", "1", "3"])
    assert rc == 3 and "rank" in err


def test_multiply_malformed_json_is_validation_error():
    rc, _, err = run(["multiply", "monoid", "{not json", "1"])
    assert rc == 3


def test_normalize_command():
    rc, out, _ = run(["normalize", "2 1 2"])
    assert rc == 0
    obj = json.loads(out)
    assert obj == {
        "schema": "okada.normalization/1",
        "coeff_x": [0, 0],
        "coeff_y": [1],
        "word": [2],
        "perm": [1, 3, 2],
    }


def test_rs_roundtrip_through_cli():
    rc, out, _ = run(["rs", "3 1 4 2 5"])
    assert rc == 0
    rc2, out2, _ = run(["rs-inverse", out])
    assert rc2 == 0
    assert json.loads(out2)["perm"] == [3, 1, 4, 2, 5]


def test_rs_roundtrip_property_run_rank8():
    rng = random.Random(808)
    values = list(range(1, 9))
    for _ in range(1000):
        rng.shuffle(values)
        perm_text = " ".join(str(v) for v in values)
        rc, out, _ = run(["rs", perm_text])
        assert rc == 0
        rc, out2, _ = run(["rs-inverse", out])
        assert rc == 0
        assert json.loads(out2)["perm"] == values


def test_rs_identity_twin_chains():
    rc, out, _ = run(["rs", "1 2 3 4 5"])
    obj = json.loads(out)
    assert obj["left"] == obj["right"]
    assert obj["left"]["sets"][-1]["elements"] == [1, 2, 3, 4, 5]


def test_rs_inverse_endpoint_mismatch():
    bad = {
        "left": {"sets": [{"rank": 0, "elements": []}, {"rank": 1, "elements": [1]}, {"rank": 2, "elements": [1, 2]}]},
        "right": {"sets": [{"rank": 0, "elements": []}, {"rank": 1, "elements": [1]}, {"rank": 2, "elements": []}]},
    }
    rc, _, err = run(["rs-inverse", json.dumps(bad)])
    assert rc == 3


def test_invalid_permutation_rejected():
    rc, _, err = run(["rs", "1 1 2"])
    assert rc == 3


def test_green_json_and_csv():
    rc, out, _ = run(["green", "--n", "3"])
    obj = json.loads(out)
    assert obj["elements"] == 6
    assert len(obj["j_classes"]) == 3
    rc, out, _ = run(["green", "--n", "3", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "kind,index,size,rep_perm"
    assert sum(1 for line in lines if line.startswith("R,")) == 4


def test_census_small():
    rc, out, _ = run(["census", "--max", "4", "--green-max", "4"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["idempotents"] for r in rows] == [1, 1, 2, 6, 22]
    assert rows[4]["elements"] == 24
    assert rows[4]["max_aperiodicity"] == 2
    rc, out, _ = run(["census", "--max", "3", "--format", "csv"])
    assert out.splitlines()[0].startswith("n,elements,idempotents")


def test_census_extended_adds_the_long_ranks_with_three_keys():
    from okada.monoid import EXTENDED_IDEMPOTENT_COUNTS, KNOWN_IDEMPOTENT_COUNTS

    rc, out, _ = run(["census", "--min", "8", "--max", "8", "--extended"])
    assert rc == 0
    assert out.splitlines() == [
        '{"n":8,"elements":40320,"idempotents":%d,"involutives":764}' % KNOWN_IDEMPOTENT_COUNTS[8],
        '{"n":9,"elements":362880,"idempotents":%d}' % EXTENDED_IDEMPOTENT_COUNTS[9],
        '{"n":10,"elements":3628800,"idempotents":%d}' % EXTENDED_IDEMPOTENT_COUNTS[10],
    ]


def test_census_green_columns_match_green_classes(monkeypatch):
    # The census reads the Green columns off the cells and its involutive
    # count (one R- and one L-class per half); green_classes stays the oracle.
    from okada import monoid

    oracle = monoid.green_classes

    def never(n):
        raise AssertionError("census built green_classes")

    monkeypatch.setattr(monoid, "green_classes", never)
    monkeypatch.setattr(monoid, "aperiodicity_max", lambda n: 0)
    rc, out, _ = run(["census", "--max", "8", "--green-max", "8"])
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["r_classes"] for r in rows] == [1, 1, 2, 4, 10, 26, 76, 232, 764]
    for n, row in enumerate(rows):
        gc = oracle(n)
        assert (row["r_classes"], row["l_classes"], row["j_classes"]) == (
            len(gc.r_classes), len(gc.l_classes), len(gc.j_classes)
        ), n


def test_gram_command():
    rc, out, _ = run(["gram", "--n", "4", "--set", "1,4", "--det", "--specialize", "9"])
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert obj["specialized_det"] != "0"
    assert len(obj["matrix"]) == 2


def test_gram_det_over_the_dimension_limit_is_a_usage_error(monkeypatch):
    # Refused up front, not answered without the determinant.
    def never(*args, **kwargs):
        raise AssertionError("library called for a refused --det request")

    monkeypatch.setattr("okada.algebra.gram_matrix", never)
    monkeypatch.setattr("okada._determinant.polynomial_det", never)
    rc, out, err = run(["gram", "--n", "7", "--set", "5", "--det"])  # dimension 18
    assert (rc, out) == (2, "")
    assert "gram --det supports cells of dimension <= 15" in err
    monkeypatch.undo()
    monkeypatch.setattr("okada._determinant.polynomial_det", lambda matrix: Polynomial.one())
    rc, out, _ = run(["gram", "--n", "5", "--set", "1", "--det"])
    obj = json.loads(out)
    assert (rc, obj["dim"], obj["det"]) == (0, 8, [{"x": [0] * 4, "y": [0] * 3, "c": 1}])
    rc, out, _ = run(["gram", "--n", "6", "--set", "1,4"])
    assert rc == 0 and json.loads(out)["dim"] == 10 and "det" not in json.loads(out)
    monkeypatch.undo()
    rc, out, _ = run(["gram", "--n", "6", "--set", "1,4", "--det"])
    obj = json.loads(out)
    s = FibonacciSet(6, (1, 4))
    assert (rc, obj["dim"], obj["det"]) == (0, 10, poly_to_terms(gram_det(s), 6))


def _count_gram_matrices(monkeypatch):
    from okada import algebra

    built, build = [], algebra.gram_matrix
    monkeypatch.setattr("okada.algebra.gram_matrix", lambda s: built.append(s) or build(s))
    return built


def test_gram_det_and_specialize_build_the_gram_matrix_once(monkeypatch):
    built = _count_gram_matrices(monkeypatch)
    rc, out, _ = run(["gram", "--n", "6", "--set", "1,4", "--det", "--specialize", "5"])
    obj = json.loads(out)
    assert (rc, obj["dim"], built) == (0, 10, [FibonacciSet(6, (1, 4))])
    assert "det" in obj and "specialized_det" in obj


def test_selftest_builds_one_gram_matrix_per_cell(monkeypatch):
    from okada.fibonacci import enumerate_yfs

    built = _count_gram_matrices(monkeypatch)
    assert run(["selftest", "--seed", "0"])[0] == 0
    assert built == [s for n in range(6) for s in enumerate_yfs(n)]


def test_factorize_command():
    rc, out, _ = run(["factorize", "2 1 3"])
    obj = json.loads(out)
    assert obj["rho"] == [1, 2, 3] and obj["tau"] == [1, 2, 3]
    assert obj["set"]["elements"] == [3]
    assert obj["lengths"]["free"] == 1


def test_render_identity_has_eight_labeled_arcs():
    rc, out, _ = run(["render", "diagram", "--format", "svg", "--input",
                      json.dumps({"rank": 8, "arcs": [{"ends": [a, -a], "height": a} for a in range(1, 9)]})])
    assert rc == 0
    assert out.count("<path") == 8
    assert out.count("<circle") == 8
    assert out == (FIXTURES / "identity_rank8.svg").read_text()


def test_render_dominance_golden():
    rc, out, _ = run(["render", "dominance", "--format", "tikz", "--n", "5"])
    assert rc == 0
    assert out == (FIXTURES / "dominance_rank5.tikz").read_text()
    assert out.count("\\node") == 8
    assert out.count("\\draw") == 8
    rc, out, _ = run(["render", "dominance", "--format", "svg", "--n", "5"])
    assert out == (FIXTURES / "dominance_rank5.svg").read_text()


def test_render_half_diagram():
    half = {
        "rank": 3,
        "full_arcs": [{"ends": [1, 2], "height": 1}],
        "half_arcs": [{"end": 3, "height": 3}],
    }
    for fmt in ("svg", "tikz"):
        rc, out, _ = run(["render", "half", "--format", fmt, "--input", json.dumps(half)])
        assert rc == 0 and out
    # nested full arcs (2,5) over (3,4), with half arcs below and above them
    nested = {
        "rank": 6,
        "full_arcs": [{"ends": [2, 5], "height": 2}, {"ends": [3, 4], "height": 3}],
        "half_arcs": [{"end": 1, "height": 1}, {"end": 6, "height": 2}],
    }
    for fmt in ("svg", "tikz"):
        rc, out, err = run(["render", "half", "--format", fmt, "--input", json.dumps(nested)])
        assert rc == 0, err
        assert out == (FIXTURES / f"half_rank6_nested.{fmt}").read_text()


def test_render_refuses_an_input_over_the_rank_cap(monkeypatch):
    from okada import diagrams as dg
    from okada import serialize as ser
    from okada.cli import _LIMITS

    cap = _LIMITS["render"]
    inputs = {n: {"diagram": ser.diagram_to_obj(dg.identity(n)), "half": ser.half_to_obj(dg.bra(dg.identity(n)))}
              for n in (cap, cap + 1)}
    for kind, obj in inputs[cap].items():
        rc, out, err = run(["render", kind, "--format", "svg", "--input", json.dumps(obj)])
        assert rc == 0 and out.count("<path") == cap, (kind, err)

    def never(*args, **kwargs):
        raise AssertionError("rendered a picture over the rank cap")

    for name in ("diagram_svg", "diagram_tikz", "half_svg", "half_tikz"):
        monkeypatch.setattr(f"okada.render.render_{name}", never)
    for kind, obj in inputs[cap + 1].items():
        for fmt in ("svg", "tikz"):
            rc, out, err = run(["render", kind, "--format", fmt, "--input", json.dumps(obj)])
            assert (rc, out) == (2, ""), (kind, fmt, err)
            assert f"render supports 0 <= n <= {cap}" in err


def test_render_unknown_format_is_usage_error():
    rc, _, _ = run(["render", "diagram", "--format", "png", "--input", "{}"])
    assert rc == 2


def test_byte_identical_reruns():
    for argv in (
        ["enumerate", "diagrams", "--n", "4"],
        ["census", "--max", "3"],
        ["render", "yfs", "--format", "tikz", "--n", "4"],
        ["gram", "--n", "4", "--set", "1,4", "--det"],
    ):
        _, out1, _ = run(argv)
        _, out2, _ = run(argv)
        assert out1 == out2


def test_selftest_passes():
    rc, out, _ = run(["selftest", "--seed", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)


def test_internal_invariant_exit_code(monkeypatch):
    from okada.errors import InternalInvariantError

    def boom(n):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr("okada.monoid.green_classes", boom)
    rc, _, err = run(["green", "--n", "3"])
    assert rc == 4
    assert "internal invariant" in err


def test_invalid_objects_rejected_at_the_parse_boundary():
    crossing = json.dumps(
        {"rank": 2, "arcs": [{"ends": [1, -2], "height": 1}, {"ends": [2, -1], "height": 1}]}
    )
    mislabelled = json.dumps(
        {"rank": 2, "arcs": [{"ends": [1, -1], "height": 2}, {"ends": [2, -2], "height": 2}]}
    )
    crossing_half = json.dumps(
        {
            "rank": 4,
            "full_arcs": [{"ends": [1, 3], "height": 1}, {"ends": [2, 4], "height": 2}],
            "half_arcs": [],
        }
    )
    bad_basis = json.dumps(
        {"rank": 2, "terms": [{"perm": [1, 1], "coeff": [{"x": [0], "y": [], "c": 1}]}]}
    )
    gen = json.dumps(
        {"rank": 2, "terms": [{"perm": [2, 1], "coeff": [{"x": [0], "y": [], "c": 1}]}]}
    )
    for argv in (
        ["multiply", "monoid", crossing, crossing],
        ["multiply", "y1", mislabelled, "1"],
        ["render", "diagram", "--format", "svg", "--input", crossing],
        ["render", "half", "--format", "tikz", "--input", crossing_half],
        ["multiply", "monoid", '{"rank":2,"arcs":[5]}', "1", "--n", "2"],
        ["multiply", "monoid", "[1, 2]", "1"],
        ["rs-inverse", "[1]"],
        ["rs-inverse", "7"],
        ["rs-inverse", '{"left": 3, "right": []}'],
        ["multiply", "generic", bad_basis, gen],
        ["multiply", "generic", '{"rank": 2, "terms": [5]}', gen],
        ["multiply", "generic", '{"rank": -1, "terms": []}', '{"rank": -1, "terms": []}'],
        ["multiply", "monoid", '{"rank": -1, "arcs": []}', '{"rank": -1, "arcs": []}'],
        ["render", "half", "--format", "tikz", "--input", '{"rank": -1, "full_arcs": [], "half_arcs": []}'],
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (3, ""), (argv, rc, err)
        assert err.startswith("invalid input:")


def test_explicit_rank_zero_is_not_ignored():
    # --n 0 is a rank, not "no rank given": these words do not fit it.
    for argv in (
        ["normalize", "1 1", "--n", "0"],
        ["multiply", "generic", "1", "1", "--n", "0"],
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (3, ""), (argv, err)
        assert "rank 0" in err
    rc, out, _ = run(["normalize", "", "--n", "0"])
    assert rc == 0 and json.loads(out)["perm"] == []


def test_rank_caps_refuse_oversized_requests_up_front(monkeypatch):
    # A request over its cap must fail before any library work starts.
    def never(*args, **kwargs):
        raise AssertionError("library called for an oversized request")

    for target in ("monoid.green_classes", "algebra.gram_matrix", "algebra.triangular_factorization",
                   "rewriting.multiply_words", "rewriting.normalize", "diagrams.identity",
                   "rewriting.rs", "rewriting.rs_inverse"):
        monkeypatch.setattr(f"okada.{target}", never)
    element33 = json.dumps({"rank": 33, "terms": []})
    reversal1025 = " ".join(str(v) for v in range(1025, 0, -1))
    # the chains of the involution 2 1 4 3 ... at rank 1025: {}, {1}, {}, ...
    chain1025 = {"sets": [{"rank": r, "elements": [1] * (r % 2)} for r in range(1026)]}
    chains1025 = json.dumps({"left": chain1025, "right": chain1025})
    word2048, word4097 = " ".join(["1"] * 2048), " ".join(["1"] * 4097)
    too_long = "supports words of at most 4096 letters"
    for argv, cap in (
        (["green", "--n", "9"], "green supports 0 <= n <= 8"),
        (["green", "--n", "-1"], "green supports 0 <= n <= 8"),
        (["gram", "--n", "9", "--set", "1"], "gram supports 0 <= n <= 8"),
        (["factorize", reversal1025], "factorize supports 0 <= n <= 1024"),
        (["rs", reversal1025], "rs supports 0 <= n <= 1024"),
        (["rs-inverse", chains1025], "rs supports 0 <= n <= 1024"),
        (["multiply", "generic", "1", "32"], "multiply supports 0 <= n <= 32"),
        (["multiply", "generic", "1", "1", "--n", "40"], "multiply supports 0 <= n <= 32"),
        (["multiply", "generic", element33, element33], "multiply supports 0 <= n <= 32"),
        (["multiply", "monoid", "1", "1", "--n", "33"], "multiply supports 0 <= n <= 32"),
        (["multiply", "y1", "1000000000", "1"], "multiply supports 0 <= n <= 32"),
        (["normalize", "1000000000"], "normalize supports 0 <= n <= 32"),
        (["normalize", word4097], f"normalize {too_long}"),
        (["multiply", "generic", word4097, ""], f"multiply {too_long}"),
        (["multiply", "generic", word2048, word2048 + " 1"], f"multiply {too_long}"),
        (["multiply", "monoid", word4097, "1"], f"multiply {too_long}"),
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (2, ""), (argv, err)
        assert cap in err, (argv, err)


def test_rank_caps_admit_requests_at_the_cap():
    rc, out, _ = run(["factorize", " ".join(str(v) for v in range(1, 1023)) + " 1024 1023"])
    assert rc == 0 and json.loads(out)["lengths"]["perm"] == 1
    involution = [v + 1 - 2 * (v % 2 == 0) for v in range(1, 1025)]  # 2 1 4 3 ...
    rc, out, _ = run(["rs", " ".join(str(v) for v in involution)])
    assert rc == 0
    rc, out, _ = run(["rs-inverse", out])
    assert rc == 0 and json.loads(out)["perm"] == involution
    rc, out, _ = run(["multiply", "generic", "31", "31", "--n", "32"])
    assert rc == 0 and json.loads(out)["coeff_x"][30] == 1
    rc, out, _ = run(["normalize", "31 31"])
    assert rc == 0 and json.loads(out)["word"] == [31]
    rc, out, _ = run(["multiply", "monoid", " ".join(["1"] * 4096), "1"])
    assert rc == 0 and json.loads(out)["rank"] == 2
    rc, out, _ = run(["gram", "--n", "8", "--set", "1,2,3,4,5,6,7,8"])
    assert rc == 0 and json.loads(out)["dim"] == 1


def _element_json(perms, coeff_terms=1):
    # each perm carries `coeff_terms` distinct monomials x1^k
    n = len(perms[0])
    coeff = [{"x": [k] + [0] * (n - 2), "y": [0] * (n - 2), "c": 1} for k in range(coeff_terms)]
    return json.dumps({"rank": n, "terms": [{"perm": list(p), "coeff": coeff} for p in perms]})


def test_multiply_generic_work_cap(monkeypatch):
    # The worst request at the cap: 16 x 16 basis products of perms next
    # to the rank-32 reversal, the slowest products measured there.
    from okada.cli import _LIMITS
    from okada.rewriting import perm_compose, perm_from_word

    assert _LIMITS["products"] == 16 * 16 * 32**2
    w0 = tuple(range(32, 0, -1))
    near = [perm_compose(w0, perm_from_word((i,), 32)) for i in range(1, 17)]
    at_cap = _element_json(near)
    start = time.perf_counter()
    rc, out, err = run(["multiply", "generic", at_cap, at_cap])
    assert rc == 0, err
    assert time.perf_counter() - start < 20  # about 0.3 s unloaded
    assert len(json.loads(out)["terms"]) >= 1

    def never(*args, **kwargs):
        raise AssertionError("multiplied an oversized request")

    monkeypatch.setattr("okada.algebra.AlgebraElement.__mul__", never)
    one, wide = _element_json(near[:1]), _element_json(near[:1], 257)
    for left, right, work in ((wide, one, 257), (one, wide, 257), (at_cap, _element_json(near + [w0]), 272)):
        rc, out, err = run(["multiply", "generic", left, right])
        assert (rc, out) == (2, ""), err
        assert f"at rank 32 supports at most 256 products of coefficient terms, got {work}" in err


def test_a_bad_parameter_is_reported_alike_under_every_hash_seed():
    # x10 and y9 both lie beyond rank 3; the parameters are read in sorted
    # order, so the first one reported does not depend on set iteration.
    bad = json.dumps({"rank": 3, "terms": [{"perm": [1, 2, 3], "coeff": [
        {"x": [0] * 9 + [1], "y": [0] * 8 + [1], "c": 1}]}]})
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "okada.cli", "multiply", "generic", bad, bad],
                              capture_output=True, text=True, env=dict(_src_env(), PYTHONHASHSEED=seed))
        assert (proc.returncode, proc.stdout) == (3, ""), (seed, proc.stderr)
        assert "parameter x10 does not exist at rank 3" in proc.stderr, (seed, proc.stderr)


def test_multiply_generic_work_cap_scales_with_the_rank():
    # The cap is 256 * 32**2 / n**2 coefficient-term pairs: at rank 7 a
    # request of 1024 pairs is answered, and 5350 is one past the cap.
    from okada import serialize as ser
    from okada.rewriting import all_perms

    perms = all_perms(7)[::630][:8]
    small = _element_json(perms, 4)
    rc, out, err = run(["multiply", "generic", small, small])
    assert rc == 0, err
    a = ser.obj_to_element(json.loads(small))
    assert json.loads(out) == ser.element_to_obj(a * a)
    assert 5349 * 7**2 <= 256 * 32**2 < 5350 * 7**2
    for terms, rc_want in ((5349, 0), (5350, 2)):
        rc, out, err = run(["multiply", "generic", _element_json(perms[:1]), _element_json(perms[1:2], terms)])
        assert rc == rc_want, err
        if rc_want == 2:
            assert out == ""
            assert "at rank 7 supports at most 5349 products of coefficient terms, got 5350" in err


def test_element_files_are_refused_by_size_before_parsing(monkeypatch):
    # Each side may hold 2 * 256 * 32**2 / n**2 basis and coefficient
    # terms: past that a zero times a huge element is refused unparsed.
    def never(*args, **kwargs):
        raise AssertionError("parsed a coefficient of an oversized request")

    zero = json.dumps({"rank": 32, "terms": []})
    ident = [tuple(range(1, 33))]
    rc, out, err = run(["multiply", "generic", zero, _element_json(ident, 511)])
    assert (rc, json.loads(out)["terms"]) == (0, []), err
    monkeypatch.setattr("okada.serialize.terms_to_poly", never)
    for left, right, size in ((zero, _element_json(ident, 80_000), 80_001), (_element_json(ident, 512), zero, 513)):
        rc, out, err = run(["multiply", "generic", left, right])
        assert (rc, out) == (2, ""), err
        assert f"at rank 32 supports element files of at most 512 terms, got {size}" in err
    # the declared rank is checked first, and a side that is no element is invalid input
    over = _element_json([tuple(range(1, 34))], 40_000)
    for right, rc_want, message in ((over, 2, "multiply supports 0 <= n <= 32"),
                                    ("1", 3, "an element needs an integer 'rank'"),
                                    ('{"rank": "2", "terms": []}', 3, "an element needs an integer 'rank'")):
        rc, out, err = run(["multiply", "generic", over, right])
        assert (rc, out) == (rc_want, ""), err
        assert message in err


def test_deeply_nested_json_is_invalid_input(tmp_path):
    depth = 100_000
    for text in ("[" * depth + "]" * depth, '{"a":' * depth + "1" + "}" * depth):
        for argv in (["rs-inverse", text], ["multiply", "generic", text, text],
                     ["render", "diagram", "--format", "svg", "--input", text],
                     ["render", "half", "--format", "tikz", "--input", text]):
            rc, out, err = run(argv)
            assert (rc, out) == (3, ""), (argv[:2], err[:200])
    deep = tmp_path / "deep.json"
    deep.write_text("[" * depth + "]" * depth)
    proc = subprocess.run([sys.executable, "-m", "okada.cli", "rs-inverse", str(deep)],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr[-300:]
    assert "malformed JSON" in proc.stderr and "Traceback" not in proc.stderr


def test_each_parse_path_measures_a_permutation_before_reading_it(monkeypatch):
    # A permutation longer than its cap, or a basis index longer than its
    # rank, is refused by its length; the permutation is never read.  The
    # read is quadratic in the worst case, so an index of 200000 entries
    # in an element file of rank 2 once took seconds to refuse.
    def never(p):
        raise AssertionError(f"read a permutation of length {len(p)}")

    for target in ("okada.rewriting._runs", "okada.rewriting.code", "okada.algebra._runs"):
        monkeypatch.setattr(target, never)
    long = " ".join(["1"] * 1025)
    element = json.dumps({"rank": 2, "terms": [{"perm": [1] * 5, "coeff": [{"c": 1}]}]})
    for argv, rc_want, message in (
        (["rs", long], 2, "rs supports 0 <= n <= 1024"),
        (["factorize", long], 2, "factorize supports 0 <= n <= 1024"),
        (["multiply", "generic", element, element], 3, "basis index of length 5 does not have rank 2"),
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (rc_want, ""), (argv[0], err)
        assert message in err, (argv[0], err)


def test_invalid_input_is_not_echoed(tmp_path):
    # Each file is invalid input of about a megabyte; its error message
    # names what is wrong without repeating it.
    def arcs(n):
        return [{"ends": [i, -i], "height": 1} for i in range(1, n + 1)]

    def element(perm):
        return {"rank": 2, "terms": [{"perm": perm, "coeff": [{"c": 1}]}]}

    def chain(n):
        return {"sets": [{"rank": 0, "elements": []}, {"rank": n, "elements": list(range(1, n + 1))}]}

    diagram = ["render", "diagram", "--format", "svg", "--input"]
    cases = {
        "no_rank": (diagram, {"arcs": arcs(43_000)}),
        "rank_text": (diagram, {"rank": "x" * 500_000, "arcs": []}),
        "all_labels_1": (diagram, {"rank": 20_000, "arcs": arcs(20_000)}),
        "schema_text": (diagram, {"schema": "x" * 500_000, "rank": 0, "arcs": []}),
        "not_a_perm": (["multiply", "generic"], element([1] * 200_000)),
        "long_perm": (["multiply", "generic"], element(list(range(1, 20_001)))),
        "long_chain": (["rs-inverse"], {"left": chain(20_000), "right": chain(20_000)}),
    }
    # One integer of 4000 digits in a field that is otherwise small.
    big = 10**3999
    cases.update({
        "huge_height": (diagram, {"rank": 1, "arcs": [{"ends": [1, -1], "height": -big}]}),
        "huge_label": (diagram, {"rank": 1, "arcs": [{"ends": [1, -1], "height": big}]}),
        "huge_rank": (diagram, {"rank": big, "arcs": []}),
        "huge_endpoint": (diagram, {"rank": 1, "arcs": [{"ends": [big, -1], "height": 1}]}),
        "huge_half_label": (["render", "half", "--format", "svg", "--input"],
                            {"rank": 1, "full_arcs": [], "half_arcs": [{"end": 1, "height": big}]}),
        "huge_set_rank": (["rs-inverse"], {"left": {"sets": [{"rank": -big, "elements": []}]},
                                           "right": {"sets": [{"rank": 0, "elements": []}]}}),
        "monoid_huge_rank": (["multiply", "monoid"], {"rank": big, "arcs": []}),
    })
    for name, (argv, obj) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        files = [str(path)] * (2 if argv[0] == "multiply" else 1)
        rc, out, err = run(argv + files)
        assert (rc, out) == (3, ""), (name, err[:200])
        assert err.startswith("invalid input:") and len(err.encode()) < 1024, (name, err[:200])
    for argv in (["normalize", f"1 {big}", "--n", "5"], ["multiply", "generic", "1", str(big), "--n", "5"]):
        rc, out, err = run(argv)
        assert (rc, out) == (3, ""), (argv[0], err[:200])
        assert err.startswith("invalid input:") and len(err.encode()) < 1024, (argv[0], err[:200])


# The library entry points that do the work of each subcommand.  A
# refused request reaches none of them.
WORK = [
    *(f"okada.fibonacci.{f}" for f in ("enumerate_yfs", "saturated_chains", "chain_count")),
    *(f"okada.diagrams.{f}" for f in ("iter_diagrams", "enumerate_half", "identity", "generator", "product_y1")),
    *(f"okada.monoid.{f}" for f in ("iter_idempotents", "census_counts", "green_classes", "mproduct",
                                    "aperiodicity_max", "aperiodicity_profile")),
    *(f"okada.algebra.{f}" for f in ("gram_matrix", "gram_det", "gram_det_specialized",
                                     "triangular_factorization", "AlgebraElement.__mul__")),
    *(f"okada._determinant.{f}" for f in ("polynomial_det", "specialized_det")),
    *(f"okada.rewriting.{f}" for f in ("normalize", "multiply_words", "multiply_perms", "rs", "rs_inverse")),
    *(f"okada.render.render_{f}" for f in ("diagram_svg", "diagram_tikz", "half_svg", "half_tikz",
                                          "yfs_hasse_svg", "yfs_hasse_tikz", "dominance_svg", "dominance_tikz")),
]


def _one_past_each_limit(limits):
    # One request per _LIMITS entry, one past its cap, and a piece of
    # the message that names the cap.
    def rank(key):
        return str(limits[key] + 1), f"supports 0 <= n <= {limits[key]}"

    def reversal(key):
        return " ".join(str(v) for v in range(limits[key] + 1, 0, -1))

    pairs = limits["products"] // 32**2  # at rank 32
    one = _element_json([tuple(range(1, 33))])
    return {
        **{kind: (["enumerate", kind, "--n", rank(kind)[0]], rank(kind)[1])
           for kind in ("yfs", "diagrams", "half", "chains")},
        "idempotents": (["enumerate", "idempotents", "--n", rank("idempotents")[0], "--extended"],
                        rank("idempotents")[1]),
        "idempotent_streams": (["enumerate", "idempotents", "--n", str(limits["idempotent_streams"] + 1),
                                "--extended"],
                               f"idempotent streams support n <= {limits['idempotent_streams']}; "
                               "count with --extended --count-only"),
        "census": (["census", "--max", str(limits["census"] + 1)], f"--max <= {limits['census']}"),
        "threads": (["census", "--threads", str(limits["threads"] + 1)],
                    f"1 <= threads <= {limits['threads']}"),
        "green": (["green", "--n", rank("green")[0]], rank("green")[1]),
        "gram": (["gram", "--n", rank("gram")[0], "--set", "1"], rank("gram")[1]),
        "factorize": (["factorize", reversal("factorize")], rank("factorize")[1]),
        "rs": (["rs", reversal("rs")], rank("rs")[1]),
        "multiply": (["multiply", "generic", "1", "1", "--n", rank("multiply")[0]], rank("multiply")[1]),
        "normalize": (["normalize", "1", "--n", rank("normalize")[0]], rank("normalize")[1]),
        "render": (["render", "yfs", "--format", "svg", "--n", rank("render")[0]], rank("render")[1]),
        "letters": (["normalize", " ".join(["1"] * (limits["letters"] + 1))],
                    f"words of at most {limits['letters']} letters"),
        "products": (["multiply", "generic", one, _element_json([tuple(range(1, 33))], pairs + 1)],
                     f"at most {pairs} products of coefficient terms, got {pairs + 1}"),
    }


def test_every_limit_refuses_one_past_its_cap(monkeypatch):
    from okada.cli import _LIMITS

    def never(*args, **kwargs):
        raise AssertionError("library called for a request over a cap")

    for target in WORK:
        monkeypatch.setattr(target, never)
    monkeypatch.delenv("OKADA_THREADS", raising=False)
    cases = _one_past_each_limit(_LIMITS)
    assert sorted(cases) == sorted(_LIMITS), "every _LIMITS entry needs a case here"
    for key, (argv, message) in cases.items():
        rc, out, err = run(argv)
        assert (rc, out) == (2, ""), (key, err)
        assert message in err, (key, err)


def _worst_at_each_cap(limits):
    # The slowest request each _LIMITS entry admits, and its budget in
    # seconds for a whole process: about ten times its time on an idle
    # 2-vCPU host, so a loaded host passes and a hang fails.  The idle
    # times, over two states of the host: enumerate yfs 1.0-2.8 s,
    # diagrams 1.0-2.2 s, half 0.35-0.6 s, chains 0.25-0.7 s, the
    # idempotent stream at rank 8 0.8-1.2 s and the idempotent count at
    # rank 10, one census, 1.4-1.6 s; gram 0.5-0.6 s; green 0.3-0.5 s;
    # census 2.3-2.8 s; factorize 0.12-0.21 s; rs 0.2-0.23 s; render
    # 0.14-0.3 s; the word requests (normalize, multiply, letters)
    # 0.07-0.08 s; products 0.3-0.5 s.  Idempotent streams stop at rank 8:
    # with --extended they ran 8-14 s at rank 9 and 139 s at rank 10.
    # threads has no row: its worst case starts 64 worker processes, and
    # test_census_refuses_bad_thread_counts_and_ranks_up_front covers it.
    from okada.rewriting import perm_compose, perm_from_word, word_from_code

    reversal = " ".join(str(v) for v in range(limits["factorize"], 0, -1))
    n = limits["normalize"]
    cycle = itertools.cycle(word_from_code(tuple(range(n, 0, -1))))  # the rank-n reversal, repeated
    long_word = " ".join(str(next(cycle)) for _ in range(limits["letters"]))
    rng = random.Random(limits["letters"])
    left, right = (" ".join(str(rng.randrange(1, limits["multiply"])) for _ in range(limits["letters"] // 2))
                   for _ in range(2))
    w0 = tuple(range(32, 0, -1))  # the products cap is set by rank 32 next to the reversal
    near = _element_json([perm_compose(w0, perm_from_word((i,), 32)) for i in range(1, 17)])
    return {
        "yfs": (["enumerate", "yfs", "--n", str(limits["yfs"])], 30),
        "diagrams": (["enumerate", "diagrams", "--n", str(limits["diagrams"])], 25),
        "half": (["enumerate", "half", "--n", str(limits["half"])], 10),
        "chains": (["enumerate", "chains", "--n", str(limits["chains"])], 10),
        "idempotents": (["enumerate", "idempotents", "--n", str(limits["idempotents"]), "--extended",
                         "--count-only"], 20),
        "idempotent_streams": (["enumerate", "idempotents", "--n", str(limits["idempotent_streams"])], 15),
        "green": (["green", "--n", str(limits["green"])], 10),
        "census": (["census", "--max", str(limits["census"]), "--green-max", str(limits["green"])], 30),
        "gram": (["gram", "--n", str(limits["gram"]), "--set", "", "--specialize", "1"], 15),
        "factorize": (["factorize", reversal], 10),
        "rs": (["rs", " ".join(str(v) for v in range(1, limits["rs"] + 1))], 10),  # the identity: longest chains
        "render": (["render", "yfs", "--format", "svg", "--n", str(limits["render"])], 10),
        "normalize": (["normalize", long_word, "--n", str(n)], 10),
        "letters": (["normalize", " ".join(["1"] * limits["letters"])], 10),
        "multiply": (["multiply", "generic", left, right, "--n", str(limits["multiply"])], 10),
        "products": (["multiply", "generic", near, near], 20),
    }


def test_the_worst_request_at_each_cap_finishes_within_its_budget():
    from okada.cli import _LIMITS

    cases = _worst_at_each_cap(_LIMITS)
    assert set(cases) == set(_LIMITS) - {"threads"}, "every _LIMITS entry but threads needs a row here"
    assert _LIMITS["products"] == 16 * 16 * 32**2
    for key, (argv, budget) in cases.items():
        # over budget, subprocess.run kills the process and raises TimeoutExpired
        proc = subprocess.run([sys.executable, "-m", "okada.cli", *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=budget)
        assert proc.returncode == 0, (key, proc.stderr[-300:])


def test_selftest_checks_survive_python_optimize():
    # `python -O` strips assert statements; selftest must not rely on them.
    import ast
    import inspect

    from okada import _selftest

    tree = ast.parse(inspect.getsource(_selftest))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_selftest_reports_a_failed_check(monkeypatch):
    monkeypatch.setattr("okada.monoid.census_counts", lambda n, threads=1: (math.factorial(n), -1, 1))
    rc, out, err = run(["selftest"])
    assert rc == 4
    assert "FAIL idempotent census (n<=5): -1 idempotents at rank 0" in out
    assert "1 selftest checks failed" in err


def test_census_refuses_bad_thread_counts_and_ranks_up_front(monkeypatch):
    # Refused before any worker pool or census work starts.
    def never(*args, **kwargs):
        raise AssertionError("census work started for a refused request")

    for target in ("census_counts", "green_classes"):
        monkeypatch.setattr(f"okada.monoid.{target}", never)
    monkeypatch.delenv("OKADA_THREADS", raising=False)
    for argv, message in (
        (["census", "--threads", "0"], "census supports 1 <= threads <= 64"),
        (["census", "--threads", "-3"], "census supports 1 <= threads <= 64"),
        (["census", "--threads", "65"], "census supports 1 <= threads <= 64"),
        (["census", "--threads", "5000"], "census supports 1 <= threads <= 64"),
        (["census", "--max", "11"], "census supports --max <= 10"),
        (["census", "--max", "12", "--threads", "2"], "census supports --max <= 10"),
        (["census", "--max", "9", "--green-max", "9"], "Green classes up to rank 8"),
        (["census", "--min", "-2", "--max", "1"], "census needs 0 <= --min <= --max"),
        (["census", "--min", "3", "--max", "1"], "census needs 0 <= --min <= --max"),
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (2, ""), (argv, err)
        assert message in err, (argv, err)
    for value, message in (("abc", "OKADA_THREADS must be an integer"),
                           ("0", "census supports 1 <= threads <= 64"),
                           ("5000", "census supports 1 <= threads <= 64")):
        monkeypatch.setenv("OKADA_THREADS", value)
        rc, out, err = run(["census", "--max", "3"])
        assert (rc, out) == (2, ""), (value, err)
        assert message in err, (value, err)


def test_census_thread_count_and_caps_admitted(monkeypatch):
    seen = []

    def fake_counts(n, threads=1):
        seen.append((n, threads))
        return math.factorial(n), 0, 0

    monkeypatch.setattr("okada.monoid.census_counts", fake_counts)
    monkeypatch.setenv("OKADA_THREADS", "3")
    assert run(["census", "--min", "10", "--max", "10"])[0] == 0
    assert run(["census", "--min", "10", "--max", "10", "--threads", "64"])[0] == 0
    monkeypatch.setenv("OKADA_THREADS", "abc")  # --threads wins over the variable
    assert run(["census", "--min", "10", "--max", "10", "--threads", "1"])[0] == 0
    assert seen == [(10, 3), (10, 64), (10, 1)]


def test_okada_threads_is_read_by_census_only(monkeypatch):
    monkeypatch.setenv("OKADA_THREADS", "abc")
    rc, out, err = run(["normalize", "1 2"])
    assert rc == 0 and json.loads(out)["perm"] == [2, 3, 1], err


def test_digit_arguments_are_words_not_file_names(tmp_path, monkeypatch):
    # A file named like a word must not change what the word means.
    monkeypatch.chdir(tmp_path)
    calls = (["multiply", "generic", "1", "1"], ["multiply", "monoid", "1 2", "2,1"],
             ["multiply", "y1", "2 1", "1 2"])
    before = [run(argv) for argv in calls]
    for name in ("1", "1 2", "2,1", "2 1"):
        (tmp_path / name).write_text("3 3")
    assert [run(argv) for argv in calls] == before
    assert all(rc == 0 for rc, _, _ in before)
    # naming the file by a path still reads it
    assert run(["multiply", "generic", "./1", "1"]) == run(["multiply", "generic", "3 3", "1"])


def test_cli_start_imports_no_process_pool():
    # Only census --threads > 1 starts worker processes, so only it may
    # pay for importing concurrent.futures, and no subcommand needs
    # dataclasses.  Run as a program, each subcommand loads only what it
    # uses, read off -X importtime: one row per call, naming a module it
    # loads and the modules it must not.
    normalize = (["normalize", "1 2"], "okada.rewriting",
                 ("okada.monoid", "okada.algebra", "okada.render", "okada.diagrams"))
    hasse = ("okada.render", ("okada.diagrams", "okada.polynomials"))
    no_words = ("okada.polynomials", "okada.algebra", "okada.rewriting")
    for entry, argv, used, unwanted in [
        # Normalizing a word needs the rewriting layer and no diagram type.
        ("okada.cli", *normalize), ("okada", *normalize),
        # The monoid stands on the diagrams: the Green classes take the
        # free half from them and read permutations only for csv, and
        # only the y = 1 product counts its loops in polynomials.
        ("okada.cli", ["green", "--n", "4"], "okada.monoid", no_words),
        ("okada.cli", ["green", "--n", "4", "--format", "csv"], "okada.rewriting", ("okada.algebra",)),
        ("okada.cli", ["census", "--max", "4"], "okada.monoid", no_words),
        ("okada.cli", ["enumerate", "diagrams", "--n", "3"], "okada.diagrams", no_words),
        ("okada.cli", ["multiply", "monoid", "1", "2 1", "--n", "3"], "okada.monoid", no_words),
        ("okada.cli", ["multiply", "y1", "1", "2 1", "--n", "3"], "okada.polynomials",
         ("okada.algebra", "okada.rewriting")),
        # A factorization is exact over the integers; only a
        # specialization needs the rationals.
        ("okada.cli", ["factorize", "2 1 3"], "okada.algebra", ("fractions",)),
        ("okada.cli", ["gram", "--n", "4", "--set", "1,4", "--det"], "okada._determinant", ("fractions",)),
        # The Hasse diagrams need no diagram type.
        ("okada.cli", ["render", "yfs", "--format", "svg", "--n", "4"], *hasse),
        ("okada.cli", ["render", "dominance", "--format", "tikz", "--n", "4"], *hasse),
    ]:
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", entry, *argv],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        modules = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                   if line.startswith("import time:")]
        assert used in modules, argv
        banned = ("concurrent", "dataclasses", *unwanted)
        assert [m for m in modules if m in banned or m.split(".")[0] in banned] == [], argv


# Runs okada.cli as the main program once per argument list, each time in
# a fresh namespace, and prints the exit codes and stdouts as JSON.
_AS_PROGRAM = """
import contextlib, io, json, runpy, sys
results = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["okada", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("okada.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_every_subcommand_runs_as_a_program():
    # Imported as a module (as here), okada.cli has every layer loaded, so
    # only a run as the main program shows that each subcommand imports
    # what it uses.  Exit codes and stdout must match in-process calls.
    half = json.loads(run(["enumerate", "half", "--n", "3", "--set", "1"])[1].splitlines()[0])
    chains = run(["rs", "2 1 3"])[1]
    element = json.dumps({"rank": 3, "terms": [{"perm": [2, 1, 3], "coeff": [{"x": [1, 0], "y": [0], "c": 2}]}]})
    calls = [
        ["normalize", "1 2 1", "--n", "3"],
        ["multiply", "generic", "1 1", "", "--n", "3"],
        ["multiply", "generic", element, element],
        ["multiply", "y1", "1", "2 1", "--n", "3"],
        ["multiply", "monoid", "1", "2 1", "--n", "3"],
        ["rs", "2 1 3"],
        ["rs-inverse", chains],
        ["factorize", "2 1 3"],
        ["gram", "--n", "4", "--set", "1,4", "--det", "--specialize", "9"],
        ["gram", "--n", "6", "--set", "1,4", "--det"],
        ["green", "--n", "3", "--format", "csv"],
        ["census", "--max", "4"],
        ["render", "half", "--format", "svg", "--input", json.dumps(half)],
        ["render", "dominance", "--format", "tikz", "--n", "3"],
        ["render", "yfs", "--format", "svg", "--n", "3"],
        ["selftest"],
        ["normalize", "1 x 2"],
    ]
    calls += [["enumerate", kind, "--n", "3"] for kind in ("yfs", "diagrams", "half", "chains", "idempotents")]
    done = subprocess.run([sys.executable, "-c", _AS_PROGRAM, json.dumps(calls)], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    for argv, (code, out) in zip(calls, json.loads(done.stdout)):
        assert [code, out] == list(run(argv)[:2]), argv


def test_importing_cli_as_a_module_loads_every_layer():
    script = "import json, sys, okada.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    layers = {f"okada.{m}" for m in ("algebra", "diagrams", "fibonacci", "monoid", "polynomials",
                                      "render", "rewriting", "serialize")}
    assert layers <= set(json.loads(done.stdout))


def _src_env():
    # OKADA_THREADS is dropped: a child census would start a worker pool.
    src = str(Path(okada.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OKADA_THREADS"}
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
