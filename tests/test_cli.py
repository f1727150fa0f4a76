import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import okada
from okada.cli import main

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


def test_enumerate_half_filtered():
    rc, out, _ = run(["enumerate", "half", "--n", "3", "--set", "1"])
    assert rc == 0
    assert len(out.splitlines()) == 2


def test_enumerate_usage_error_states_limit():
    rc, _, err = run(["enumerate", "diagrams", "--n", "9"])
    assert rc == 2
    assert "n <= 8" in err


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


def test_gram_command():
    rc, out, _ = run(["gram", "--n", "4", "--set", "1,4", "--det", "--specialize", "9"])
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert obj["specialized_det"] != "0"
    assert len(obj["matrix"]) == 2


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
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_internal_invariant_exit_code(monkeypatch):
    from okada.errors import InternalInvariantError

    def boom(n):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr("okada.cli.mo.green_classes", boom)
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

    for target in ("mo.green_classes", "alg.gram_matrix", "alg.triangular_factorization",
                   "rw.multiply_words", "rw.normalize", "dg.identity", "rw.rs", "rw.rs_inverse"):
        monkeypatch.setattr(f"okada.cli.{target}", never)
    element33 = json.dumps({"rank": 33, "terms": []})
    reversal1025 = " ".join(str(v) for v in range(1025, 0, -1))
    # the chains of the involution 2 1 4 3 ... at rank 1025: {}, {1}, {}, ...
    chain1025 = {"sets": [{"rank": r, "elements": [1] * (r % 2)} for r in range(1026)]}
    chains1025 = json.dumps({"left": chain1025, "right": chain1025})
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
    rc, out, _ = run(["gram", "--n", "8", "--set", "1,2,3,4,5,6,7,8"])
    assert rc == 0 and json.loads(out)["dim"] == 1


def test_selftest_checks_survive_python_optimize():
    # `python -O` strips assert statements; selftest must not rely on them.
    import ast
    import inspect

    from okada import cli

    tree = ast.parse(inspect.getsource(cli.cmd_selftest))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_selftest_reports_a_failed_check(monkeypatch):
    monkeypatch.setattr("okada.cli.mo.idempotent_count", lambda n: -1)
    rc, out, err = run(["selftest"])
    assert rc == 4
    assert "FAIL idempotent census (n<=5): -1 idempotents at rank 0" in out
    assert "1 selftest checks failed" in err


def test_census_refuses_bad_thread_counts_and_ranks_up_front(monkeypatch):
    # Refused before any worker pool or census work starts.
    def never(*args, **kwargs):
        raise AssertionError("census work started for a refused request")

    for target in ("census_counts", "idempotent_count", "green_classes"):
        monkeypatch.setattr(f"okada.cli.mo.{target}", never)
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

    monkeypatch.setattr("okada.cli.mo.census_counts", fake_counts)
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
    # pay for importing concurrent.futures.
    src = str(Path(okada.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "okada.cli", "normalize", "1 2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")]
    assert "okada.monoid" in modules
    assert not [m for m in modules if m.split(".")[0] == "concurrent"]
