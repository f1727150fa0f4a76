"""The ``cli`` workload: seeded one-off ``python -m okada.cli`` calls.

One client runs one call at a time and waits for it (a closed loop).
Valid calls come from fixed per-kind pools, so expected.json can record
the exit code and stdout digest the seed commit gave for each.  Invalid
calls are judged by the documented exit codes (2 usage, 3 invalid input)
and must not end in a traceback; the ones marked as known defects are
the input-boundary defects listed in ROADMAP item 5.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time

KINDS = (
    "normalize",
    "multiply-generic",
    "multiply-y1",
    "multiply-monoid",
    "rs",
    "rs-inverse",
    "factorize",
    "enumerate",
    "render",
    "gram",
)
POOL_PER_KIND = 30
CALL_TIMEOUT_S = 60.0

FULL = {"per_kind": 2, "invalid": 2}
SMALL = {"per_kind": 1, "invalid": 2}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _word(rng: random.Random, n: int, lo: int = 1, hi: int = 10) -> str:
    return " ".join(str(rng.randrange(1, n)) for _ in range(rng.randint(lo, hi)))


def _perm(rng: random.Random, n: int) -> str:
    return " ".join(str(v) for v in rng.sample(range(1, n + 1), n))


def generator_json(i: int, n: int) -> str:
    """Diagram JSON of the generator E_i at rank n."""
    arcs = [{"ends": [j, -j], "height": j} for j in range(1, n + 1) if j not in (i, i + 1)]
    arcs += [{"ends": [i, i + 1], "height": i}, {"ends": [-i, -(i + 1)], "height": i}]
    return _dumps({"rank": n, "arcs": arcs})


def _element_json(rng: random.Random, n: int) -> str:
    terms = []
    for p in {tuple(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(1, 3))}:
        xs = [rng.randint(0, 1) for _ in range(n - 1)]
        ys = [rng.randint(0, 1) for _ in range(n - 2)]
        terms.append({"perm": list(p), "coeff": [{"x": xs, "y": ys, "c": rng.choice((1, 2, -1))}]})
    return _dumps({"rank": n, "terms": sorted(terms, key=lambda t: t["perm"])})


def fibonacci_sets(n: int) -> list[tuple[int, ...]]:
    """Rank-n Fibonacci sets: the l-th element has the parity of l and
    the size has the parity of n."""
    out = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) % 2 == n % 2:
            out.append(prefix)
        want = (len(prefix) + 1) % 2
        for s in range((prefix[-1] if prefix else 0) + 1, n + 1):
            if s % 2 == want:
                extend(prefix + (s,))

    extend(())
    return sorted(out)


def _random_chain(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """A saturated Young-Fibonacci chain: each step deletes the largest
    element or appends a new largest element of the right parity."""
    sets = [()]
    for r in range(n):
        s = sets[-1]
        options = [s[:-1]] if s else []
        want = (len(s) + 1) % 2
        options += [s + (x,) for x in range((s[-1] if s else 0) + 1, r + 2) if x % 2 == want]
        sets.append(rng.choice(options))
    return sets


def _chain_json(sets) -> dict:
    return {"sets": [{"rank": r, "elements": list(s)} for r, s in enumerate(sets)]}


def valid_call(kind: str, i: int) -> list[str]:
    """Arguments of pool call ``i`` of ``kind``; each runs in well under
    half a second at the seed commit."""
    rng = random.Random(f"cli:{kind}:{i}")
    if kind == "normalize":
        n = rng.randint(3, 7)
        return ["normalize", _word(rng, n, 1, 14), "--n", str(n)]
    if kind == "multiply-generic":
        n = rng.randint(3, 5)
        if rng.random() < 0.5:
            return ["multiply", "generic", _element_json(rng, n), _element_json(rng, n)]
        return ["multiply", "generic", _word(rng, n), _word(rng, n), "--n", str(n)]
    if kind in ("multiply-y1", "multiply-monoid"):
        n = rng.randint(3, 6)
        left = generator_json(rng.randrange(1, n), n) if rng.random() < 0.5 else _word(rng, n)
        return ["multiply", kind.split("-")[1], left, _word(rng, n), "--n", str(n)]
    if kind == "rs":
        return ["rs", _perm(rng, rng.randint(2, 6))]
    if kind == "rs-inverse":
        n = rng.randint(2, 6)
        left = _random_chain(rng, n)
        right = next(
            (c for c in (_random_chain(rng, n) for _ in range(50)) if c[-1] == left[-1]), left
        )
        return ["rs-inverse", _dumps({"left": _chain_json(left), "right": _chain_json(right)})]
    if kind == "factorize":
        return ["factorize", _perm(rng, rng.randint(2, 4))]
    if kind == "enumerate":
        what, top = rng.choice(
            [("yfs", 12), ("diagrams", 5), ("half", 6), ("chains", 6), ("idempotents", 5)]
        )
        return ["enumerate", what, "--n", str(rng.randint(1, top)), "--count-only"]
    if kind == "render":
        fmt = rng.choice(("svg", "tikz"))
        what = rng.choice(("diagram", "dominance", "yfs"))
        if what == "diagram":
            n = rng.randint(2, 7)
            return ["render", "diagram", "--format", fmt, "--input", generator_json(rng.randrange(1, n), n)]
        return ["render", what, "--format", fmt, "--n", str(rng.randint(1, 5))]
    if kind == "gram":
        n = rng.randint(2, 5)
        s = rng.choice(fibonacci_sets(n))
        argv = ["gram", "--n", str(n), "--set", ",".join(map(str, s)) or " "]
        return argv + (["--det"] if n <= 4 else [])
    raise KeyError(kind)


# Invalid inputs: name -> (arguments, known defect).  Requests too large
# to finish (missing rank caps, e.g. ``green --n 11``) cannot run in a
# bounded closed loop and are left out.
_CROSSING = _dumps({"rank": 2, "arcs": [{"ends": [1, -2], "height": 1}, {"ends": [2, -1], "height": 1}]})
_CROSSING_HALF = _dumps(
    {"rank": 4, "full_arcs": [{"ends": [1, 3], "height": 1}, {"ends": [2, 4], "height": 2}], "half_arcs": []}
)
_BAD_BASIS = _dumps({"rank": 2, "terms": [{"perm": [1, 1], "coeff": [{"x": [0], "y": [], "c": 1}]}]})
_GEN2 = _dumps({"rank": 2, "terms": [{"perm": [2, 1], "coeff": [{"x": [0], "y": [], "c": 1}]}]})
INVALID = {
    "normalize-letter": (["normalize", "1 x 2"], False),
    "rs-repeat": (["rs", "1 1 2"], False),
    "factorize-zero": (["factorize", "0 1"], False),
    "enumerate-cap": (["enumerate", "diagrams", "--n", "9"], False),
    "gram-set": (["gram", "--n", "5", "--set", "2"], False),
    "render-json": (["render", "diagram", "--format", "svg", "--input", '{"rank": 2, "arcs": ['], False),
    "unknown-command": (["frobnicate"], False),
    "multiply-rank": (["multiply", "y1", "1 2", generator_json(1, 4)], False),
    "monoid-arc-shape": (["multiply", "monoid", '{"rank":2,"arcs":[5]}', "1", "--n", "2"], True),
    "rs-inverse-shape": (["rs-inverse", "[1]"], True),
    "generic-basis": (["multiply", "generic", _BAD_BASIS, _GEN2], True),
    "monoid-crossing": (["multiply", "monoid", _CROSSING, _CROSSING], True),
    "render-crossing-half": (["render", "half", "--format", "svg", "--input", _CROSSING_HALF], True),
}


def cli_inputs(seed: int, sizes: dict) -> dict:
    rng = random.Random(f"cli:{seed}")
    calls = [
        {"kind": kind, "index": i, "argv": valid_call(kind, i)}
        for kind in KINDS
        for i in rng.sample(range(POOL_PER_KIND), sizes["per_kind"])
    ]
    calls += [
        {"kind": "invalid", "name": name, "argv": INVALID[name][0]}
        for name in rng.sample(sorted(INVALID), sizes["invalid"])
    ]
    rng.shuffle(calls)
    return {"calls": calls}


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_call(cmd: list[str], env: dict, cwd: str, out_path: str, err_path: str) -> dict:
    """Run one child to completion; returns latency, exit code, outputs
    and the child's own peak RSS (from ``wait4``).  A child still running
    after ``CALL_TIMEOUT_S`` is killed and reaped."""
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "t0": t0,
            "latency_s": latency,
            "exit": proc.returncode,
            "stdout": out.read(),
            "stderr": err.read(),
            "maxrss_kib": usage.ru_maxrss,
        }


def judge(call: dict, result: dict, expected: dict, checks) -> None:
    """Valid calls must match the seed's exit code and stdout digest;
    invalid ones must exit 2 or 3 without a traceback."""
    got = f"{result['exit']}:{stdout_digest(result['stdout'])}"
    what = " ".join(call["argv"])[:120]
    if call["kind"] != "invalid":
        want = expected["cli"][call["kind"]][call["index"]]
        checks.op(got == want, f"okada {what}: got {got}, seed gave {want}")
        return
    documented = result["exit"] in (2, 3) and b"Traceback" not in result["stderr"]
    known = INVALID[call["name"]][1] and got == expected["cli_invalid"][call["name"]]
    checks.op(documented, f"okada {what}: exit {result['exit']}, want 2 or 3", known=known)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def plain_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "okada.cli", *argv]
