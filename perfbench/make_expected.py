"""Record the outputs the benchmark checks against into expected.json.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_expected.py

It records the Gram matrix and determinant digests, the per-item
digests of the word, pair and product pools, the factorization cost
classes, and the exit code and stdout digest of every pool CLI call and
every invalid CLI input.  It prints each CLI call slower than the 0.4 s
budget.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cliload  # noqa: E402
import workloads as wl  # noqa: E402
from okada import algebra as alg  # noqa: E402
from okada import diagrams as dg  # noqa: E402
from okada import rewriting as rw  # noqa: E402
from okada.fibonacci import FibonacciSet  # noqa: E402

# Factorization cost classes: (length, propagating label set) of the
# elements of S_rank with these lengths.  Elements of one class do the
# same search work.
FACTOR_LENGTHS = {6: range(5, 6), 4: range(2, 5)}
CLI_BUDGET_S = 0.4


def factor_classes(rank: int, lengths) -> list[list[list[int]]]:
    classes: dict[tuple, list[list[int]]] = {}
    for p in rw.all_perms(rank):
        length = wl.inversions(p)
        if length in lengths:
            key = (length, dg.prop_lab(rw.perm_to_diagram(p)).elements)
            classes.setdefault(key, []).append(list(p))
    return [classes[k] for k in sorted(classes)]


def main() -> int:
    out: dict = {"gram": {}, "det": {}, "factor_classes": {}, "pools": {}, "cli": {}, "cli_invalid": {}}
    for sizes in (wl.FULL, wl.SMALL):
        rank, elems = sizes["cells"]["gram_set"]
        s = FibonacciSet(rank, tuple(elems))
        out["gram"][repr(s)] = wl.gram_digest(alg.gram_matrix(s))
        rank, elems = sizes["words"]["det_set"]
        s = FibonacciSet(rank, tuple(elems))
        out["det"][repr(s)] = wl.digest(wl.poly_key(alg.gram_det(s)))
    for rank, lengths in FACTOR_LENGTHS.items():
        out["factor_classes"][str(rank)] = factor_classes(rank, lengths)

    full = wl.FULL["words"]
    out["pools"]["words"] = "".join(
        wl.word_digest(rw.normalize(wl.word_item(i, full["word_rank"]), full["word_rank"]))
        for i in range(wl.POOLS["words"])
    )
    out["pools"]["pairs"] = "".join(
        wl.pair_digest(rw.multiply_perms(*wl.pair_item(i, full["pair_rank"])))
        for i in range(wl.POOLS["pairs"])
    )
    out["pools"]["products"] = "".join(
        wl.element_digest(a * b)
        for a, b in (wl.element_item(i, full["element_rank"]) for i in range(wl.POOLS["products"]))
    )

    env = cliload.child_env(str(SRC))
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        stdout_path, stderr_path = f"{tmp}/out", f"{tmp}/err"

        def record(argv):
            res = cliload.run_call(cliload.plain_command(argv), env, str(ROOT), stdout_path, stderr_path)
            if res["latency_s"] > CLI_BUDGET_S:
                print(f"slow ({res['latency_s']:.2f} s): okada {' '.join(argv)[:100]}", file=sys.stderr)
            return f"{res['exit']}:{cliload.stdout_digest(res['stdout'])}"

        for kind in cliload.KINDS:
            out["cli"][kind] = [
                record(cliload.valid_call(kind, i)) for i in range(cliload.POOL_PER_KIND)
            ]
            bad = [v for v in out["cli"][kind] if not v.startswith("0:")]
            if bad:
                print(f"{kind}: {len(bad)} pool calls did not exit 0", file=sys.stderr)
        for name, (argv, _) in sorted(cliload.INVALID.items()):
            out["cli_invalid"][name] = record(argv)

    path = wl.EXPECTED_PATH
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
