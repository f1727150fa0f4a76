"""Benchmark of the okada library and CLI, measured from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload monoid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: monoid, cells, words, cli (see workloads.py and cliload.py).
A run sets up, then repeats passes over the workload's stages until
``--seconds`` have gone by, checking every output.  Each pass starts
from cold library caches, as a fresh ``okada`` process does.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
from untraced passes only.  With ``--trace 1`` untraced and traced passes
alternate; the last line carries the per-layer metrics of the first
traced pass and the tracing overhead.  The lines before it name every
metric with its unit, and a run record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cliload
import clock
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("monoid", "cells", "words", "cli")
SETUP_SAMPLES = 7


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_okada(workload: str):
    """Import okada from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("okada.cli" if workload == "cli" else "okada")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"okada imported from {module.__file__}, not from {SRC}")
    return module


def _generate(workload: str, seed: int, small: bool):
    import workloads as wl  # imports okada, so only after _import_okada

    if workload == "cli":
        return cliload.cli_inputs(seed, (cliload.SMALL if small else cliload.FULL))
    sizes = (wl.SMALL if small else wl.FULL)[workload]
    if workload == "monoid":
        return wl.monoid_inputs(seed, sizes)
    if workload == "cells":
        return wl.cells_inputs(seed, sizes, wl.load_expected())
    return wl.words_inputs(seed, sizes)


def setup(workload: str, seed: int, small: bool):
    """Import plus input generation; returns (reference seconds, wall
    seconds, inputs)."""
    before = clock.calibrate()
    t0 = time.perf_counter()
    _import_okada(workload)
    inputs = _generate(workload, seed, small)
    wall = time.perf_counter() - t0
    return wall * clock.scale(before, clock.calibrate()), wall, inputs


def _setup_probe(workload: str, seed: int, small: bool) -> list[float]:
    """Set-up time of a fresh interpreter running this script, as
    [reference seconds, wall seconds]."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    if small:
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest whole percentile with at least ten samples beyond it,
    as (value, percentile, samples); None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # nearest-rank percentile
    return ordered[rank - 1], pct, n


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# library workloads


def _library_pass(stages, tracer=None):
    """Run each stage once; returns outputs, reference seconds and wall
    seconds per stage.  Each stage is timed between two calibrations."""
    outputs, times, wall = {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        before = clock.calibrate()
        for name, fn in stages:
            t = time.perf_counter()
            outputs[name] = fn()
            wall[name] = time.perf_counter() - t
            after = clock.calibrate()
            times[name] = wall[name] * clock.scale(before, after)
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs, times, wall


def run_library(workload, inputs, seconds, trace, checks, expected):
    import workloads as wl

    stages = getattr(wl, f"{workload}_stages")(inputs)
    check = getattr(wl, f"{workload}_check")
    caches = spans.lru_caches()
    plain, traced, wall = [], [], []
    layer = None
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        tracer = spans.Tracer() if use_trace else None
        spans.clear_caches(caches)
        outputs, times, stage_wall = _library_pass(stages, tracer)
        (traced if use_trace else plain).append(times)
        if not use_trace:
            wall.append(sum(stage_wall.values()))
        if use_trace and layer is None:
            layer = {"summary": tracer.summary(), "caches": spans.cache_stats(caches),
                     "outputs": outputs, "tracer": tracer}
        check(inputs, outputs, expected, checks)
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    return plain, traced, wall, layer


# ---------------------------------------------------------------------------
# cli workload


def run_cli(inputs, seconds, trace, checks, expected):
    OUT.mkdir(exist_ok=True)
    env = cliload.child_env(str(SRC))
    tmp = OUT / f"cli-{os.getpid()}"
    stdout_path, stderr_path, report_path = f"{tmp}.out", f"{tmp}.err", f"{tmp}.report"
    plain, traced, reports, latencies, wall = [], [], [], [], []
    peak_kib = 0
    start = time.perf_counter()
    before = clock.calibrate()
    try:
        while True:
            use_trace = trace and len(traced) < len(plain)
            times = {}
            for k, call in enumerate(inputs["calls"]):
                if use_trace:
                    cmd = [sys.executable, str(HERE / "cli_child.py"), report_path, *call["argv"]]
                else:
                    cmd = cliload.plain_command(call["argv"])
                res = cliload.run_call(cmd, env, str(ROOT), stdout_path, stderr_path)
                after = clock.calibrate()
                times[k] = res["latency_s"] * clock.scale(before, after)
                before = after
                cliload.judge(call, res, expected, checks)
                if use_trace:
                    if not traced:
                        with open(report_path, encoding="utf-8") as fh:
                            report = json.load(fh)
                        report["spawn_s"] = report["t0"] - res["t0"]
                        reports.append(report)
                else:
                    latencies.append(times[k])
                    wall.append(res["latency_s"])
                    peak_kib = max(peak_kib, res["maxrss_kib"])
            (traced if use_trace else plain).append(times)
            if time.perf_counter() - start >= seconds and (not trace or traced):
                break
    finally:
        for path in (stdout_path, stderr_path, report_path):
            if os.path.exists(path):
                os.remove(path)
    return plain, traced, reports, latencies, wall, peak_kib


# ---------------------------------------------------------------------------
# metrics


def _layer_metrics(workload, layer, reports):
    """Per-layer metrics named as in BENCHMARK.json's per_layer list."""
    if workload == "cli":
        summary = {"calls": {}, "self_s": {}, "scoped": {}, "observed": {}, "missing": []}
        caches = {}
        for rep in reports:
            for key in ("calls", "self_s", "scoped", "observed"):
                for name, v in rep["summary"][key].items():
                    summary[key][name] = summary[key].get(name, 0) + v
            summary["missing"] = rep["summary"]["missing"]
            for name, st in rep["caches"].items():
                acc = caches.setdefault(name, {"currsize": 0, "hits": 0, "misses": 0})
                for key in acc:
                    acc[key] += st[key]
        for st in caches.values():
            lookups = st["hits"] + st["misses"]
            st["hit_ratio"] = st["hits"] / lookups if lookups else 0.0
    else:
        summary, caches = layer["summary"], layer["caches"]
    missing = set(summary["missing"])
    metrics = {}
    for name, targets in spans.LAYERS.items():
        gone = all(t in missing for t in targets)
        metrics[f"{name}.calls"] = None if gone else summary["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = None if gone else summary["self_s"].get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    calls, scoped = summary["calls"], summary["scoped"]
    metrics["rewriting.normalize.reductions_per_call"] = ratio(
        summary["observed"].get("rewriting.normalize.reductions", 0), calls.get("rewriting.normalize", 0)
    )
    metrics["algebra.factorize.compose_per_call"] = ratio(
        scoped.get("algebra.factorize.compose", 0), calls.get("algebra.triangular_factorization", 0)
    )
    census_elements = green_elements = 0
    if workload == "monoid":
        census_elements = layer["outputs"]["census"][0]
        green_elements = len(layer["outputs"]["green"].elements)
    metrics["monoid.census.compose_per_element"] = ratio(scoped.get("monoid.census.compose", 0), census_elements)
    metrics["monoid.green.compose_per_element"] = ratio(scoped.get("monoid.green.compose", 0), green_elements)
    for key in ("spawn_s", "import_s", "main_s"):
        metrics[f"cli.{key}"] = _median([r[key] for r in reports])
    for name in CACHES:
        st = caches.get(name)
        metrics[f"cache.{name}.currsize"] = None if st is None else st["currsize"]
        metrics[f"cache.{name}.hit_ratio"] = None if st is None else st["hit_ratio"]
        if st is None:
            print(f"perfbench: cache {name} not found", file=sys.stderr)
    extra_caches = {k: v for k, v in caches.items() if k not in CACHES}
    return metrics, extra_caches


# The lru_caches of the seed commit; caches found beyond these go to the
# run record only.
CACHES = (
    "enumerate_yfs",
    "saturated_chains",
    "_chain_count",
    "_dominance_tables",
    "_mult_perm_by_generator",
    "_perm_of_diagram_cached",
    "green_classes",
)


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace, small):
    load_start = os.getloadavg()
    setup_s, setup_wall, inputs = setup(workload, seed, small)
    import workloads as wl

    setup_samples = [[setup_s, setup_wall]]
    if not trace:
        setup_samples += [_setup_probe(workload, seed, small) for _ in range(SETUP_SAMPLES - 1)]
    expected = wl.load_expected()
    checks = wl.Checks()
    named = {}
    units = {}
    reports = []
    layer = None
    if workload == "cli":
        plain, traced, reports, latencies, wall, peak_kib = run_cli(inputs, seconds, trace, checks, expected)
        sizes = {"calls_per_pass": len(inputs["calls"]),
                 "invalid_per_pass": sum(c["kind"] == "invalid" for c in inputs["calls"])}
        named["cli_p50_ms"] = 1000 * _median(latencies)
        found = tail(latencies)
        if found is not None:
            named["cli_tail_ms"] = 1000 * found[0]
            named["cli_tail_pct"] = found[1]
            named["cli_tail_samples"] = found[2]
        units.update(cli_p50_ms="ms", cli_tail_ms="ms", cli_tail_pct="%", cli_tail_samples="count")
    else:
        plain, traced, wall, layer = run_library(workload, inputs, seconds, trace, checks, expected)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sizes = wl.sizes_of(workload, inputs)
        for stage in plain[0]:  # census_s, green_s, gram_s, ...
            named[f"{stage}_s"] = _median([p[stage] for p in plain])
            units[f"{stage}_s"] = "s"
    pass_s = _median([sum(p.values()) for p in plain])
    named["setup_s"] = _median([ref for ref, _ in setup_samples])
    named["pass_s"] = pass_s
    named["peak_rss_mib"] = peak_kib / 1024
    named["error_rate"] = checks.error_rate
    units.update(setup_s="s", pass_s="s", peak_rss_mib="MiB", error_rate="ratio")

    spec = _benchmark_spec()
    if trace:
        metrics, extra_caches = _layer_metrics(workload, layer, reports)
        # Untraced and traced passes alternate; compare each traced pass with
        # the untraced one just before it, which ran at nearly the same speed.
        ratios = [sum(t.values()) / sum(u.values()) for u, t in zip(plain, traced)]
        metrics["trace.overhead_frac"] = _median(ratios) - 1
        declared = spec["per_layer"]
    else:
        metrics, extra_caches = named, {}
        declared = spec["end_to_end"]
    result_metrics = {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in declared}
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_out = reports if workload == "cli" else layer["tracer"].as_dict()
        spans.write_json_gz(OUT / f"spans-{workload}-s{seed}.json.gz", spans_out)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "input_sizes": sizes,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_ref_wall_s": setup_samples,
        "wall_s": {"median": _median(wall), "min": min(wall, default=0.0), "max": max(wall, default=0.0),
                   "per": "call" if workload == "cli" else "pass"},
        "named_metrics": {k: {"value": v, "unit": units[k]} for k, v in named.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "known_defects": checks.known, "notes": checks.notes},
        "extra_caches": extra_caches,
    }
    if trace:
        record["per_layer"] = result_metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{workload}-s{seed}-t{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for note in checks.notes:
        print(f"check: {note}", file=sys.stderr)
    for key, entry in record["named_metrics"].items():
        print(f"{workload} {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}, default=str))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result_metrics,
    }


def run_all(seed, seconds, trace, small):
    """Run each workload in its own process and print its metric lines."""
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("{"):
                print(line)
        print(f"{workload} result: {lines[-1] if lines else done.returncode}")
        if done.returncode != 0:
            return done.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)  # reduced sizes, for tests
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "okada" / "__init__.py").is_file():
        return _fail(f"no okada sources under {SRC}; run from a full checkout")
    clock.pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.small)
    try:
        if args.setup_probe:
            print(json.dumps(setup(args.workload, args.seed, args.small)[:2]))
            return 0
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except (ImportError, OSError) as exc:
        return _fail(f"cannot run: {exc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
