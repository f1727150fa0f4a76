"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cliload  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "monoid": {"census_s": "s", "green_s": "s"},
    "cells": {"gram_s": "s", "factorize_s": "s"},
    "words": {"rewrite_cold_s": "s", "rewrite_warm_s": "s", "det_s": "s"},
    "cli": {"cli_p50_ms": "ms", "cli_tail_ms": "ms"},
}
COMMON = {"setup_s": "s", "peak_rss_mib": "MiB", "error_rate": "ratio"}


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    seconds = "1" if workload != "cli" else "0"
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace, "--small")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)), m["name"]
    if trace == "0":
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        for name, unit in {**NAMED[workload], **COMMON}.items():
            assert any(
                line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}") for line in lines
            ), name


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "monoid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def _monoid_pass():
    inputs = wl.monoid_inputs(0, wl.SMALL["monoid"])
    return inputs, {name: fn() for name, fn in wl.monoid_stages(inputs)}


def test_corrupted_expected_value_raises_error_rate(monkeypatch):
    inputs, out = _monoid_pass()
    checks = wl.Checks()
    wl.monoid_check(inputs, out, {}, checks)
    assert checks.error_rate == 0
    n = inputs["census_n"]
    monkeypatch.setattr(wl, "IDEMPOTENTS", wl.IDEMPOTENTS[:n] + (wl.IDEMPOTENTS[n] + 1,))
    checks = wl.Checks()
    wl.monoid_check(inputs, out, {}, checks)
    assert checks.failed == 1 and checks.error_rate == 0.5

    expected = wl.load_expected()
    inputs = wl.words_inputs(0, wl.SMALL["words"])
    out = {name: fn() for name, fn in wl.words_stages(inputs)}
    checks = wl.Checks()
    wl.words_check(inputs, out, expected, checks)
    assert checks.failed == 0
    i = inputs["picks"]["pairs"][0]
    pool = expected["pools"]["pairs"]
    expected["pools"]["pairs"] = pool[: 8 * i] + "00000000" + pool[8 * i + 8 :]
    checks = wl.Checks()
    wl.words_check(inputs, out, expected, checks)
    assert checks.failed == 2  # the cold and the warm result of that pair
    assert checks.error_rate > 0


def test_invalid_cli_inputs_are_judged_by_documented_exit_codes():
    expected = wl.load_expected()
    expected["cli_invalid"]["monoid-crossing"] = f"0:{cliload.stdout_digest(b'answer')}"
    call = {"kind": "invalid", "name": "monoid-crossing", "argv": []}
    checks = wl.Checks()
    # Documented behaviour: exit 3, no traceback.
    cliload.judge(call, {"exit": 3, "stdout": b"", "stderr": b"invalid input"}, expected, checks)
    assert (checks.failed, checks.known) == (0, 0)
    # Exactly what the seed commit did: a known defect, counted in error_rate.
    cliload.judge(call, {"exit": 0, "stdout": b"answer", "stderr": b""}, expected, checks)
    assert (checks.failed, checks.known) == (0, 1)
    # Anything else fails.
    cliload.judge(call, {"exit": 1, "stdout": b"", "stderr": b"Traceback ..."}, expected, checks)
    assert (checks.failed, checks.known) == (1, 1)
    assert checks.error_rate == pytest.approx(2 / 3)


def test_self_times_of_nested_spans_add_up_to_the_root():
    names = ["root", "a", "b", "c"]
    # root [0, 10] contains a [1, 4] (which contains b [2, 3]) and c [5, 9].
    name = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    summary = spans.summarize(names, name, parent, start, end)
    assert summary["self_s"] == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(summary["self_s"].values()) == pytest.approx(end[0] - start[0])


def test_tracer_wraps_every_binding_and_reports_missing_targets(capsys):
    import okada.algebra
    import okada.rewriting

    layers = {
        "rewriting.multiply_perms": ["okada.rewriting:multiply_perms"],
        "gone.fn": ["okada.rewriting:no_such_function"],
    }
    tracer = spans.Tracer()
    tracer.install(layers)
    try:
        assert okada.algebra.multiply_perms is okada.rewriting.multiply_perms
        assert hasattr(okada.algebra.multiply_perms, "__wrapped__")
        okada.algebra.multiply_perms((2, 1, 3), (1, 3, 2))
    finally:
        tracer.uninstall()
    assert not hasattr(okada.algebra.multiply_perms, "__wrapped__")
    assert tracer.summary()["calls"] == {"rewriting.multiply_perms": 1}
    assert tracer.missing == ["okada.rewriting:no_such_function"]
    assert "no_such_function" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["monoid", "cells", "words", "cli"])
def test_same_seed_generates_identical_inputs(workload):
    def generate(seed):
        if workload == "cli":
            return cliload.cli_inputs(seed, cliload.FULL)
        sizes = wl.FULL[workload]
        if workload == "cells":
            return wl.cells_inputs(seed, sizes, wl.load_expected())
        return getattr(wl, f"{workload}_inputs")(seed, sizes)

    def canonical(inputs):
        return repr(sorted(inputs.items()))

    assert canonical(generate(5)) == canonical(generate(5))
    if workload != "monoid":  # the monoid tasks take only a rank
        assert canonical(generate(5)) != canonical(generate(6))
