"""Seeded inputs, timed stages and correctness checks of the library workloads.

Each workload is a list of stages.  A pass runs every stage once, in
order, starting from cold library caches; ``run.py`` times each stage.
Inputs come only from the run seed and the fixed item pools below, so
the same seed always gives the same inputs, and every output is checked
against values this file computes itself or against digests recorded in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from okada import algebra as alg
from okada import diagrams as dg
from okada import monoid as mo
from okada import rewriting as rw
from okada.fibonacci import FibonacciSet
from okada.polynomials import Polynomial

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Idempotent counts of the rank-n Okada monoid (paper, n <= 8).
IDEMPOTENTS = (1, 1, 2, 6, 22, 108, 594, 4116, 30500)

# Benchmark sizes, and the reduced sizes the benchmark's own tests use.
# A pass stays under about a second, so that a run holds many passes and
# each is timed between two calibrations (see clock.py).  POOLS fixes the
# item pools whose digests expected.json records.
FULL = {
    "monoid": {"census_n": 7, "green_n": 6},
    "cells": {"gram_set": [7, [1, 2, 7]], "factor_rank": 6, "factor_per_class": 1},
    "words": {
        "words": 150, "word_rank": 8,
        "pairs": 500, "pair_rank": 7,
        "products": 15, "element_rank": 6,
        "det_set": [7, [3, 4, 5]], "crosscheck_every": 10,
    },
}
SMALL = {
    "monoid": {"census_n": 5, "green_n": 4},
    "cells": {"gram_set": [5, [1]], "factor_rank": 4, "factor_per_class": 1},
    "words": {
        "words": 30, "word_rank": 8,
        "pairs": 40, "pair_rank": 7,
        "products": 5, "element_rank": 6,
        "det_set": [4, [1, 2]], "crosscheck_every": 5,
    },
}
POOLS = {"words": 600, "pairs": 1500, "products": 60}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(obj, length: int = 16) -> str:
    """Hex digest of the canonical JSON of ``obj``."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def poly_key(p: Polynomial) -> list:
    return [[[list(v) + [e] for v, e in term], c] for term, c in p.terms()]


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def involutions(n: int) -> int:
    """Number of involutions of S_n: a(n) = a(n-1) + (n-1) a(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1


def fibonacci_sets(n: int) -> int:
    """Number of rank-n Fibonacci sets (the Fibonacci number F(n+1))."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class Checks:
    """Checked operations; ``known`` counts documented defects that
    still behave exactly as the recorded seed does."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if known:
            self.known += 1
        else:
            self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(("known defect: " if known else "FAILED: ") + what)

    @property
    def error_rate(self) -> float:
        return (self.failed + self.known) / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# monoid: census and Green classes


def monoid_inputs(seed: int, sizes: dict) -> dict:
    # Both tasks take a rank only; the seed fixes nothing else.
    return {"census_n": sizes["census_n"], "green_n": sizes["green_n"]}


def monoid_stages(inputs: dict):
    return [
        ("census", lambda: mo.census_counts(inputs["census_n"], threads=1)),
        ("green", lambda: mo.green_classes(inputs["green_n"])),
    ]


def _mirror_fixed(d) -> bool:
    arcs = {(frozenset((a, b)), h) for a, b, h in d.arcs}
    return arcs == {(frozenset((-a, -b)), h) for a, b, h in d.arcs}


def monoid_check(inputs: dict, out: dict, expected: dict, checks: Checks) -> None:
    n = inputs["census_n"]
    want = (_factorial(n), IDEMPOTENTS[n], involutions(n))
    checks.op(tuple(out["census"]) == want, f"census_counts({n}) = {out['census']}, want {want}")
    n = inputs["green_n"]
    gc = out["green"]
    size = _factorial(n)
    counts = (len(gc.r_classes), len(gc.l_classes), len(gc.j_classes))
    want = (involutions(n), involutions(n), fibonacci_sets(n))
    ok = counts == want and len(gc.elements) == size
    ok = ok and all(
        sum(len(c) for c in classes) == size
        for classes in (gc.r_classes, gc.l_classes, gc.j_classes)
    )
    ok = ok and all(_mirror_fixed(gc.elements[i]) for i in gc.r_reps)
    ok = ok and all(
        gc.elements[i] == alg.free_diagram(dg.prop_lab(gc.elements[i])) for i in gc.j_reps
    )
    checks.op(ok, f"green_classes({n}): class counts {counts}, want {want}")


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# cells: Gram matrix and triangular factorizations


def cells_inputs(seed: int, sizes: dict, expected: dict) -> dict:
    """The Gram set is fixed; the factorization sample takes
    ``factor_per_class`` seeded elements from each cost class recorded in
    expected.json (elements of S_n with equal length and propagating
    label set), so every seed does the same amount of work."""
    rng = random.Random(f"cells:{seed}")
    rank, elems = sizes["gram_set"]
    classes = expected["factor_classes"][str(sizes["factor_rank"])]
    sample = []
    for members in classes:
        sample.extend(tuple(p) for p in rng.sample(members, sizes["factor_per_class"]))
    rng.shuffle(sample)
    return {"gram_set": FibonacciSet(rank, tuple(elems)), "factor": sample}


def cells_stages(inputs: dict):
    return [
        ("gram", lambda: alg.gram_matrix(inputs["gram_set"])),
        ("factorize", lambda: [alg.triangular_factorization(p) for p in inputs["factor"]]),
    ]


def gram_digest(matrix) -> str:
    return digest([[poly_key(c) for c in row] for row in matrix])


def cells_check(inputs: dict, out: dict, expected: dict, checks: Checks) -> None:
    s = inputs["gram_set"]
    want = expected["gram"].get(repr(s))
    got = gram_digest(out["gram"])
    checks.op(got == want, f"gram_matrix({s!r}) digest {got}, want {want}")
    for p, (rho, s, tau) in zip(inputs["factor"], out["factorize"]):
        # E_rho * E_free(s) * E_tau must be exactly 1 * E_p, and the lengths
        # must add up; this does not depend on how the factors were found.
        free = alg.free_involution(s)
        c1, left = rw.multiply_perms(tuple(rho), free)
        c2, prod = rw.multiply_perms(left, tuple(tau))
        ok = c1 * c2 == Polynomial.one() and prod == p
        ok = ok and inversions(p) == inversions(rho) + inversions(free) + inversions(tau)
        checks.op(ok, f"triangular_factorization({p}) = ({rho}, {s!r}, {tau})")


# ---------------------------------------------------------------------------
# words: normalization, structure constants, algebra products, determinant


def word_item(i: int, rank: int) -> tuple[int, ...]:
    rng = random.Random(f"word:{i}")
    return tuple(rng.randrange(1, rank) for _ in range(rng.randint(8, 28)))


def pair_item(i: int, rank: int):
    rng = random.Random(f"pair:{i}")
    return tuple(rng.sample(range(1, rank + 1), rank)), tuple(rng.sample(range(1, rank + 1), rank))


def element_item(i: int, rank: int):
    rng = random.Random(f"element:{i}")

    def element():
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.sample(range(1, rank + 1), rank))
            var = rng.choice([("x", rng.randint(1, rank - 1)), ("y", rng.randint(1, rank - 2))])
            coeffs[p] = Polynomial.monomial({var: rng.randint(0, 2)}, rng.choice((1, 2, -1, 3)))
        return alg.AlgebraElement(rank, coeffs)

    return element(), element()


def words_inputs(seed: int, sizes: dict) -> dict:
    rng = random.Random(f"words:{seed}")
    picks = {k: rng.sample(range(POOLS[k]), sizes[k]) for k in ("words", "pairs", "products")}
    rank, elems = sizes["det_set"]
    return {
        "picks": picks,
        "words": [word_item(i, sizes["word_rank"]) for i in picks["words"]],
        "word_rank": sizes["word_rank"],
        "pairs": [pair_item(i, sizes["pair_rank"]) for i in picks["pairs"]],
        "products": [element_item(i, sizes["element_rank"]) for i in picks["products"]],
        "det_set": FibonacciSet(rank, tuple(elems)),
        "crosscheck": {
            k: rng.sample(range(sizes[k]), sizes[k] // sizes["crosscheck_every"]) for k in ("words", "pairs")
        },
    }


def _rewrite(inputs: dict) -> dict:
    n = inputs["word_rank"]
    return {
        "words": [rw.normalize(w, n) for w in inputs["words"]],
        "pairs": [rw.multiply_perms(p, q) for p, q in inputs["pairs"]],
        "products": [a * b for a, b in inputs["products"]],
    }


def words_stages(inputs: dict):
    # The warm stage repeats the cold one on the caches it filled.
    return [
        ("rewrite_cold", lambda: _rewrite(inputs)),
        ("rewrite_warm", lambda: _rewrite(inputs)),
        ("det", lambda: alg.gram_det(inputs["det_set"])),
    ]


def word_digest(r) -> str:
    return digest([poly_key(r.coefficient), list(r.word), list(r.perm)], 8)


def pair_digest(result) -> str:
    coeff, perm = result
    return digest([poly_key(coeff), list(perm)], 8)


def element_digest(a) -> str:
    return digest([[list(p), poly_key(c)] for p, c in a.coefficients()], 8)


def _pool_digest(expected: dict, kind: str, i: int) -> str:
    return expected["pools"][kind][8 * i : 8 * i + 8]


def words_check(inputs: dict, out: dict, expected: dict, checks: Checks) -> None:
    picks = inputs["picks"]
    for stage in ("rewrite_cold", "rewrite_warm"):
        res = out[stage]
        for i, w, r in zip(picks["words"], inputs["words"], res["words"]):
            checks.op(word_digest(r) == _pool_digest(expected, "words", i), f"{stage} normalize{w}")
        for i, (p, q), r in zip(picks["pairs"], inputs["pairs"], res["pairs"]):
            checks.op(pair_digest(r) == _pool_digest(expected, "pairs", i), f"{stage} multiply_perms{p}{q}")
        for i, r in zip(picks["products"], res["products"]):
            checks.op(element_digest(r) == _pool_digest(expected, "products", i), f"{stage} product #{i}")
    # Cross-checks that do not rely on recorded digests: confluence under a
    # seeded random reduction order, and multiply_perms (generator cache)
    # against multiply_words (direct normalization of the concatenation).
    n = inputs["word_rank"]
    res = out["rewrite_cold"]
    for k in inputs["crosscheck"]["words"]:
        w, r = inputs["words"][k], res["words"][k]
        alt = rw.normalize(w, n, rng=random.Random(k))
        checks.op((alt.coefficient, alt.word, alt.perm) == (r.coefficient, r.word, r.perm), f"confluence of {w}")
    for k in inputs["crosscheck"]["pairs"]:
        (p, q), (coeff, perm) = inputs["pairs"][k], res["pairs"][k]
        alt = rw.multiply_words(rw.word_from_code(p), rw.word_from_code(q), len(p))
        checks.op((alt.coefficient, alt.perm) == (coeff, perm), f"multiply_words vs multiply_perms {p} {q}")
    s = inputs["det_set"]
    got = digest(poly_key(out["det"]))
    want = expected["det"].get(repr(s))
    checks.op(got == want, f"gram_det({s!r}) digest {got}, want {want}")


def sizes_of(workload: str, inputs: dict) -> dict:
    """Input sizes for the run record."""
    if workload == "monoid":
        return dict(inputs)
    if workload == "cells":
        return {"gram_set": repr(inputs["gram_set"]), "factorizations": len(inputs["factor"])}
    if workload == "words":
        return {
            "words": len(inputs["words"]),
            "word_rank": inputs["word_rank"],
            "pairs": len(inputs["pairs"]),
            "products": len(inputs["products"]),
            "det_set": repr(inputs["det_set"]),
        }
    raise KeyError(workload)
