"""Command-line interface.

Subcommands: enumerate, multiply, normalize, rs, rs-inverse, green,
census, gram, factorize, render, selftest.  Streams are emitted as JSON
lines on stdout with counts on stderr; single objects are single JSON
documents.  Exit codes: 0 success, 2 usage error, 3 validation error
(bad input), 4 internal invariant violation (a library bug).

Thread count for the census comes from ``--threads`` or the
``OKADA_THREADS`` environment variable; ``--seed`` drives the randomized
parts of ``selftest``.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import algebra as alg
from . import diagrams as dg
from . import monoid as mo
from . import render as rd
from . import rewriting as rw
from . import serialize as ser
from .errors import InternalInvariantError, OkadaError
from .fibonacci import (
    FibonacciSet,
    dominance_leq,
    dominance_meet,
    enumerate_yfs,
    free_set,
    saturated_chains,
)

# Largest rank each request accepts: the enumerate kinds, then the
# commands whose cost grows fastest with the rank (n!-sized monoids for
# census and green, the largest cell for gram, the quadratic code-word
# walks of factorize and rs, products of long code words for multiply
# and normalize, the Hasse diagrams that render draws).  Each finishes
# within seconds at its cap.  ``threads`` bounds the census worker
# processes: each one is a whole interpreter, so a request for thousands
# of them is refused before any starts.
_LIMITS = {
    "yfs": 25,
    "diagrams": 8,
    "half": 10,
    "chains": 10,
    "idempotents": 10,
    "census": 10,
    "threads": 64,
    "green": 8,
    "gram": 8,
    "factorize": 1024,
    "rs": 1024,
    "multiply": 32,
    "normalize": 32,
    "render": 16,
}


def _check_rank(what: str, n: int) -> int:
    limit = _LIMITS[what]
    if not 0 <= n <= limit:
        raise UsageError(f"{what} supports 0 <= n <= {limit}")
    return n


def _parse_set(text: str, n: int) -> FibonacciSet:
    items = tuple(int(t) for t in text.replace(",", " ").replace("{", " ").replace("}", " ").split())
    return FibonacciSet(n, items)


def _emit(args, obj) -> None:
    print(ser.dumps(obj), file=args.stdout)


def _load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


_WORD_CHARS = frozenset("0123456789, \t\n\r\f\v")


def _read_input(arg: str) -> str:
    """The text of an argument: stdin for ``-``, the contents of a named
    file, or the argument itself.  JSON and anything made only of digits,
    commas and whitespace is always the argument itself, so the word
    ``1`` never reads a file named ``1`` (``./1`` does)."""
    if arg == "-":
        return sys.stdin.read()
    if arg.lstrip().startswith(("{", "[")) or _WORD_CHARS.issuperset(arg):
        return arg
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {arg}: {exc}") from exc
    return arg


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    n = _check_rank(args.kind, args.n)
    count = 0
    if args.kind == "yfs":
        for s in enumerate_yfs(n):
            count += 1
            if not args.count_only:
                _emit(args, ser.fibset_to_obj(s))
    elif args.kind == "diagrams":
        for d in dg.iter_diagrams(n):
            count += 1
            if not args.count_only:
                _emit(args, ser.diagram_to_obj(d))
    elif args.kind == "half":
        s = _parse_set(args.set, n) if args.set else None
        for h in dg.enumerate_half(n, s):
            count += 1
            if not args.count_only:
                _emit(args, ser.half_to_obj(h))
    elif args.kind == "chains":
        targets = [_parse_set(args.set, n)] if args.set else list(enumerate_yfs(n))
        for s in targets:
            for c in saturated_chains(s):
                count += 1
                if not args.count_only:
                    _emit(args, ser.chain_to_obj(c))
    elif args.kind == "idempotents":
        if n > 8 and not args.extended:
            raise UsageError("idempotent enumeration beyond n=8 needs --extended")
        for d in mo.iter_idempotents(n):
            count += 1
            if not args.count_only:
                _emit(args, ser.diagram_to_obj(d))
    print(f"kind={args.kind} n={n} count={count}", file=args.stderr)
    if args.count_only:
        print(count, file=args.stdout)
    return 0


def _input_to_diagram(raw: str, n: int | None) -> dg.ArcDiagram:
    text = _read_input(raw)
    if text.lstrip().startswith("{"):
        return ser.obj_to_diagram(_load_json(text))
    word = ser.parse_word(text)
    rank = _check_rank("multiply", n if n is not None else max(word, default=0) + 1)
    d = dg.identity(rank)
    for i in word:
        d = mo.mproduct(d, dg.generator(i, rank))
    return d


def cmd_multiply(args) -> int:
    if args.mode == "generic":
        left, right = _read_input(args.left), _read_input(args.right)
        if left.lstrip().startswith("{") or right.lstrip().startswith("{"):
            a = ser.obj_to_element(_load_json(left))
            b = ser.obj_to_element(_load_json(right))
            _check_rank("multiply", max(a.rank, b.rank))
            _emit(args, ser.element_to_obj(a * b))
            return 0
        w1, w2 = ser.parse_word(left), ser.parse_word(right)
        n = args.n if args.n is not None else max((*w1, *w2), default=0) + 1
        res = rw.multiply_words(w1, w2, _check_rank("multiply", n))
        _emit(args, ser.normalization_to_obj(res))
        return 0
    d1 = _input_to_diagram(args.left, args.n)
    d2 = _input_to_diagram(args.right, args.n)
    _check_rank("multiply", d1.rank)
    if d1.rank != d2.rank:
        raise ValueError(f"rank mismatch: {d1.rank} vs {d2.rank}")
    if args.mode == "monoid":
        _emit(args, ser.diagram_to_obj(mo.mproduct(d1, d2)))
    else:  # y1
        coeff, result = dg.product_y1(d1, d2)
        obj = ser.diagram_to_obj(result)
        obj["coeff_x"] = ser.poly_to_terms(coeff, result.rank)
        _emit(args, obj)
    return 0


def cmd_normalize(args) -> int:
    word = ser.parse_word(args.word)
    n = args.n if args.n is not None else max(word, default=0) + 1
    _emit(args, ser.normalization_to_obj(rw.normalize(word, _check_rank("normalize", n))))
    return 0


def cmd_rs(args) -> int:
    p = ser.parse_perm(args.perm)
    _check_rank("rs", len(p))
    left, right = rw.rs(p)
    _emit(
        args,
        {
            "schema": ser.SCHEMAS["rs"],
            "perm": list(p),
            "left": ser.chain_to_obj(left),
            "right": ser.chain_to_obj(right),
        },
    )
    return 0


def cmd_rs_inverse(args) -> int:
    left, right = ser.obj_to_rs_chains(_load_json(_read_input(args.chains)))
    _check_rank("rs", left.rank)
    p = rw.rs_inverse(left, right)
    _emit(args, {"schema": ser.SCHEMAS["rs"], "perm": list(p)})
    return 0


def cmd_green(args) -> int:
    gc = mo.green_classes(_check_rank("green", args.n))
    if args.format == "csv":
        print("kind,index,size,rep_perm", file=args.stdout)
        for kind, classes, reps in (
            ("R", gc.r_classes, gc.r_reps),
            ("J", gc.j_classes, gc.j_reps),
        ):
            for i, (cls, rep) in enumerate(zip(classes, reps)):
                perm = rw.diagram_to_perm(gc.elements[rep])
                text = " ".join(str(v) for v in perm)
                print(f"{kind},{i},{len(cls)},{text}", file=args.stdout)
        for i, cls in enumerate(gc.l_classes):
            print(f"L,{i},{len(cls)},", file=args.stdout)
        return 0
    obj = {
        "n": args.n,
        "elements": len(gc.elements),
        "r_classes": [
            {"size": len(cls), "rep": ser.diagram_to_obj(gc.elements[rep])}
            for cls, rep in zip(gc.r_classes, gc.r_reps)
        ],
        "l_classes": [{"size": len(cls)} for cls in gc.l_classes],
        "j_classes": [
            {
                "size": len(cls),
                "rep": ser.diagram_to_obj(gc.elements[rep]),
                "prop_lab": ser.fibset_to_obj(dg.prop_lab(gc.elements[rep])),
            }
            for cls, rep in zip(gc.j_classes, gc.j_reps)
        ],
    }
    _emit(args, obj)
    return 0


def _census_threads(args) -> int:
    threads = args.threads
    if threads is None:
        text = os.environ.get("OKADA_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise UsageError(f"OKADA_THREADS must be an integer, got {text!r}") from None
    limit = _LIMITS["threads"]
    if not 1 <= threads <= limit:
        raise UsageError(f"census supports 1 <= threads <= {limit}")
    return threads


def cmd_census(args) -> int:
    threads = _census_threads(args)
    if args.max > _LIMITS["census"]:
        raise UsageError(f"census supports --max <= {_LIMITS['census']}")
    if not 0 <= args.min <= args.max:
        raise UsageError("census needs 0 <= --min <= --max")
    if min(args.max, args.green_max) > _LIMITS["green"]:
        raise UsageError(f"census supports Green classes up to rank {_LIMITS['green']}")
    rows = []
    for n in range(args.min, args.max + 1):
        total, idem, invol = mo.census_counts(n, threads)
        row = {"n": n, "elements": total, "idempotents": idem, "involutives": invol}
        if n <= args.green_max:
            gc = mo.green_classes(n)
            row["r_classes"] = len(gc.r_classes)
            row["l_classes"] = len(gc.l_classes)
            row["j_classes"] = len(gc.j_classes)
            row["max_aperiodicity"] = mo.aperiodicity_max(n)
        rows.append(row)
    if args.extended:
        for n in (9, 10):
            if n <= args.max:
                continue
            idem = mo.idempotent_count(n, threads)
            rows.append({"n": n, "elements": math.factorial(n), "idempotents": idem})
    if args.format == "csv":
        cols = ["n", "elements", "idempotents", "involutives", "r_classes", "l_classes", "j_classes", "max_aperiodicity"]
        print(",".join(cols), file=args.stdout)
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in cols), file=args.stdout)
    else:
        for row in rows:
            _emit(args, row)
    return 0


def cmd_gram(args) -> int:
    s = _parse_set(args.set, _check_rank("gram", args.n))
    matrix = alg.gram_matrix(s)
    obj = {
        "schema": ser.SCHEMAS["gram"],
        "set": ser.fibset_to_obj(s),
        "dim": len(matrix),
        "matrix": [[ser.poly_to_terms(c, args.n) for c in row] for row in matrix],
    }
    if args.det and len(matrix) <= 8:
        obj["det"] = ser.poly_to_terms(alg.gram_det(s), args.n)
    if args.specialize is not None:
        rng = random.Random(args.specialize)
        values = {("x", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, args.n)}
        values.update({("y", i): Fraction(rng.randrange(2, 100), rng.randrange(1, 10)) for i in range(1, args.n - 1)})
        det = alg.gram_det_specialized(s, values)
        obj["specialized_det"] = str(det)
        obj["specialization"] = {f"{k[0]}{k[1]}": str(v) for k, v in sorted(values.items())}
    _emit(args, obj)
    return 0


def cmd_factorize(args) -> int:
    p = ser.parse_perm(args.perm)
    _check_rank("factorize", len(p))
    rho, s, tau = alg.triangular_factorization(p)
    _emit(
        args,
        {
            "schema": ser.SCHEMAS["factorization"],
            "perm": list(p),
            "rho": list(rho),
            "set": ser.fibset_to_obj(s),
            "tau": list(tau),
            "lengths": {
                "perm": rw.perm_length(p),
                "rho": rw.perm_length(rho),
                "free": len(free_set(s)),
                "tau": rw.perm_length(tau),
            },
        },
    )
    return 0


def cmd_render(args) -> int:
    fmt = args.format
    if args.kind in ("diagram", "half"):
        if args.input is None:
            raise UsageError(f"render {args.kind} needs --input")
    elif args.n is None:
        raise UsageError(f"render {args.kind} needs --n")
    else:
        _check_rank("render", args.n)
    if args.kind == "diagram":
        d = ser.obj_to_diagram(_load_json(_read_input(args.input)))
        out = rd.render_diagram_svg(d) if fmt == "svg" else rd.render_diagram_tikz(d)
    elif args.kind == "half":
        h = ser.obj_to_half(_load_json(_read_input(args.input)))
        out = rd.render_half_svg(h) if fmt == "svg" else rd.render_half_tikz(h)
    elif args.kind == "dominance":
        out = (
            rd.render_dominance_svg(args.n)
            if fmt == "svg"
            else rd.render_dominance_tikz(args.n)
        )
    else:  # yfs
        out = (
            rd.render_yfs_hasse_svg(args.n)
            if fmt == "svg"
            else rd.render_yfs_hasse_tikz(args.n)
        )
    args.stdout.write(out)
    return 0


def _require(cond: bool, what: str) -> None:
    """Fail a selftest check; unlike ``assert`` it also runs under ``python -O``."""
    if not cond:
        raise InternalInvariantError(what)


def cmd_selftest(args) -> int:
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
            count = mo.idempotent_count(n)
            _require(count == mo.KNOWN_IDEMPOTENT_COUNTS[n], f"{count} idempotents at rank {n}")

    def presentation() -> None:
        from .polynomials import x_var, y_var

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
    if failures:
        raise InternalInvariantError(f"{failures} selftest checks failed")
    return 0


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okada",
        description="Exact diagram calculus for the Okada algebra and monoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream combinatorial families as JSON lines")
    p.add_argument("kind", choices=["yfs", "diagrams", "half", "chains", "idempotents"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", help="restrict to one propagating label set, e.g. '1,2,5'")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--extended", action="store_true", help="allow the large runs")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("multiply", help="multiply two elements")
    p.add_argument("mode", choices=["generic", "y1", "monoid"])
    p.add_argument(
        "left",
        help="generator word ('1 2 1'), element JSON (generic), or diagram JSON (y1/monoid)",
    )
    p.add_argument("right")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("normalize", help="normal form of a generator word")
    p.add_argument("word")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("rs", help="Robinson-Schensted chains of a permutation")
    p.add_argument("perm", help="one-line notation, e.g. '2 1 3'")
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("rs-inverse", help="permutation of a pair of chains")
    p.add_argument("chains", help="JSON with 'left' and 'right' chains (or '-')")
    p.set_defaults(func=cmd_rs_inverse)

    p = sub.add_parser("green", help="Green classes with representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("census", help="per-rank monoid census")
    p.add_argument("--min", type=int, default=0)
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--green-max", type=int, default=6)
    p.add_argument("--extended", action="store_true", help="add ranks 9 and 10")
    p.add_argument("--threads", type=int, help="worker processes (default: OKADA_THREADS or 1)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gram", help="Gram matrix of a cell module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--det", action="store_true", help="include the symbolic determinant")
    p.add_argument("--specialize", type=int, help="seeded rational specialization of the determinant")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("factorize", help="triangular factorization of a basis element")
    p.add_argument("perm")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("render", help="SVG/TikZ pictures")
    p.add_argument("kind", choices=["diagram", "half", "dominance", "yfs"])
    p.add_argument("--format", choices=["svg", "tikz"], required=True)
    p.add_argument("--input", help="object JSON, file, or '-' (diagram/half)")
    p.add_argument("--n", type=int, help="rank (dominance) or max rank (yfs)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the quick invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.stdout = stdout or sys.stdout
    args.stderr = stderr or sys.stderr
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=args.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=args.stderr)
        return 4
    except (OkadaError, ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=args.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
