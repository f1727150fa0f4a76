"""The quick invariant suite behind ``okada selftest``.

Each check exercises one layer against an independent count or model on
small ranks; ``--seed`` drives the randomized ones.  Only the
``selftest`` subcommand imports this module, so the other subcommands do
not pay for compiling it.
"""

from __future__ import annotations

import math
import random

from . import algebra as alg
from . import diagrams as dg
from . import monoid as mo
from . import rewriting as rw
from ._determinant import polynomial_det, specialized_det
from .errors import InternalInvariantError
from .fibonacci import dominance_leq, dominance_meet, enumerate_yfs, free_set
from .polynomials import x_var, y_var


def _require(cond: bool, what: str) -> None:
    """Fail a selftest check; unlike ``assert`` it also runs under ``python -O``."""
    if not cond:
        raise InternalInvariantError(what)


def cmd_selftest(args) -> int:
    """Run every check, print one PASS or FAIL line each, and raise
    ``InternalInvariantError`` (exit code 4) if any failed."""
    rng = random.Random(args.seed)
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}", file=args.stdout)
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}", file=args.stdout)

    def dims() -> None:
        for n in range(1, 6):
            count = len(set(dg.iter_diagrams(n)))
            _require(count == math.factorial(n), f"{count} diagrams at rank {n}")

    def census() -> None:
        for n in range(6):
            count = mo.census_counts(n)[1]
            _require(count == mo.KNOWN_IDEMPOTENT_COUNTS[n], f"{count} idempotents at rank {n}")

    def presentation() -> None:
        for n in range(2, 6):
            for i in range(1, n):
                r = rw.normalize((i, i), n)
                _require(r.coefficient == x_var(i), f"E_{i} E_{i} = {r.coefficient} E_{i} at rank {n}")
            for i in range(1, n - 1):
                r = rw.normalize((i + 1, i, i + 1), n)
                _require(
                    r.coefficient == y_var(i) and r.word == (i + 1,),
                    f"zigzag at {i} gave {r.coefficient} * {r.word} at rank {n}",
                )

    def confluence() -> None:
        for n in range(2, 6):
            for _ in range(60):
                w = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 2 * n + 3)))
                a = rw.normalize(w, n)
                b = rw.normalize(w, n, rng=random.Random(rng.random()))
                _require((a.coefficient, a.perm) == (b.coefficient, b.perm), f"{w} is not confluent")

    def rs_roundtrip() -> None:
        for n in range(1, 6):
            for p in rw.all_perms(n):
                left, right = rw.rs(p)
                _require(rw.rs_inverse(left, right) == p, f"rs roundtrip of {p}")

    def glue_chain() -> None:
        for n in range(1, 6):
            for h in dg.enumerate_half(n):
                _require(dg.chain_inverse(dg.chain_of(h)) == h, f"chain roundtrip of {h!r}")
            for p in rw.all_perms(n):
                d = rw.perm_to_diagram(p)
                _require(dg.glue(dg.bra(d), dg.ket(d)) == d, f"gluing the halves of {p}")

    def cross_model() -> None:
        n = 4
        yones = {("y", i): 1 for i in range(1, n - 1)}
        for p in rw.all_perms(n):
            for q in rw.all_perms(n):
                coeff, r = rw.multiply_perms(p, q)
                cx, dres = dg.product_y1(rw.perm_to_diagram(p), rw.perm_to_diagram(q))
                _require(dres == rw.perm_to_diagram(r), f"diagram of E_{p} E_{q}")
                _require(coeff.specialize(yones) == cx, f"coefficient of E_{p} E_{q}")

    def structure() -> None:
        for n in range(1, 6):
            gc = mo.green_classes(n)
            _require(len(gc.j_classes) == len(enumerate_yfs(n)), f"{len(gc.j_classes)} J-classes at rank {n}")

    def factorization() -> None:
        for p in rw.all_perms(5):
            rho, s, tau = alg.triangular_factorization(p)
            lengths = rw.perm_length(rho) + rw.perm_length(tau) + len(free_set(s))
            _require(lengths == rw.perm_length(p), f"factor lengths of {p} add up to {lengths}")

    def lattice() -> None:
        for n in range(11):
            sets = enumerate_yfs(n)
            for a in sets:
                for b in sets:
                    m = dominance_meet(a, b)
                    _require(dominance_leq(m, a) and dominance_leq(m, b), f"meet of {a!r} and {b!r}")

    def gram_dets() -> None:
        for n in range(6):
            values = alg.specialization_point(n, rng)
            for s in enumerate_yfs(n):
                m = alg.gram_matrix(s)
                got = polynomial_det(m).specialize(values).constant_value()
                want = specialized_det(m, values)
                _require(got == want, f"Gram determinant of {s!r} is {got} at {values}, not {want}")

    check("dimension n! (n<=5)", dims)
    check("idempotent census (n<=5)", census)
    check("presentation relations", presentation)
    check("confluence (randomized orders)", confluence)
    check("rs roundtrip (n<=5)", rs_roundtrip)
    check("gluing and chain bijections (n<=5)", glue_chain)
    check("cross-model product oracle (n=4)", cross_model)
    check("green structure (n<=5)", structure)
    check("triangular factorization (n<=5)", factorization)
    check("dominance lattice bounds (n<=10)", lattice)
    check("symbolic Gram determinants at a seeded point (n<=5)", gram_dets)
    if failures:
        raise InternalInvariantError(f"{failures} selftest checks failed")
    return 0
