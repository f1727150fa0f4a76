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

Run as a program (``python -m okada.cli``, ``python -m okada`` or the
``okada`` script), each call is a fresh process and start-up is most of
its cost, so each subcommand imports only the modules it uses.  Imported
as a module, ``okada.cli`` loads every library layer up front: an
in-process caller of :func:`main` pays the imports once, and code that
patches or wraps library functions after importing it sees every layer
already loaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import redirect_stderr
from typing import TYPE_CHECKING

from .errors import InternalInvariantError, OkadaError, _checked_rank

if __name__ != "__main__":
    from . import algebra, diagrams, fibonacci, monoid, polynomials, render, rewriting, serialize  # noqa: F401

if TYPE_CHECKING:
    from .diagrams import ArcDiagram
    from .fibonacci import FibonacciSet

# Largest rank each request accepts: the enumerate kinds, then the
# commands whose cost grows fastest with the rank (n!-sized monoids for
# census and green, the largest cell for gram, the quadratic arc search
# of factorize and output of rs, products of long code words for multiply
# and normalize, the pictures of render, from --n or an input file).
# Each finishes within seconds at its cap (rs 0.2 s, factorize under 0.6 s).  ``idempotents`` caps the
# count, one census (0.44-0.85 s at rank 10 as host load varies), and ``idempotent_streams`` the
# stream (7.8 MB at rank 8, 820 MB at 10).  ``threads`` bounds the census
# worker processes: each one is a whole interpreter, so a request for
# thousands of them is refused before any starts.  ``letters`` bounds the
# words of multiply and normalize as an input bound: rewriting is linear
# in their length, but each letter must still be parsed and held.
# ``products`` bounds a product of two element files at rank ``n`` by
# its work, the coefficient terms of one side times those of the other,
# times ``n**2``: each such pair is one monomial product and bounds the
# basis products.  Per pair, the measured worst cost at ranks 7, 16 and
# 32 is 0.4-0.9 us times ``n**2``, the most at rank 32 next to the
# reversal: at the cap, the longest permutations of rank 32 (16 times 16)
# take 0.22 s in process on a 2-vCPU x86 host (0.3 s as a process),
# those of rank 16 (32 times 32) 0.12 s and of rank 7 (73 times 73) 0.10 s.
_LIMITS = {
    "yfs": 25,
    "diagrams": 8,
    "half": 10,
    "chains": 10,
    "idempotents": 10,
    "idempotent_streams": 8,
    "census": 10,
    "threads": 64,
    "green": 8,
    "gram": 8,
    "factorize": 1024,
    "rs": 1024,
    "multiply": 32,
    "normalize": 32,
    "render": 16,
    "letters": 4096,
    "products": 256 * 32**2,
}


def _check_rank(what: str, n: int) -> int:
    limit = _LIMITS[what]
    if not 0 <= n <= limit:
        raise UsageError(f"{what} supports 0 <= n <= {limit}")
    return n


def _check_letters(what: str, word: tuple[int, ...]) -> tuple[int, ...]:
    limit = _LIMITS["letters"]
    if len(word) > limit:
        raise UsageError(f"{what} supports words of at most {limit} letters")
    return word


def _check_products(a, b) -> None:
    n = max(a.rank, b.rank, 1)
    limit = _LIMITS["products"] // (n * n)
    pairs = 1
    for x in (a, b):
        pairs *= sum(len(c.terms()) for _, c in x.coefficients())
    if pairs > limit:
        raise UsageError(
            f"multiply at rank {n} supports at most {limit} products of coefficient terms, got {pairs}"
        )


def _check_element_files(objs) -> None:
    """Refuse a product of element files before parsing them: a declared rank
    over the ``multiply`` cap, or a side of more basis plus coefficient terms
    than twice the ``products`` pairs at that rank (more coefficient terms
    fail that cap anyway unless the other side is zero, and a nonzero basis
    term has one or more).  The parser reports the shapes this count skips."""
    if not all(isinstance(obj, dict) and type(obj.get("rank")) is int for obj in objs):
        raise ValueError("an element needs an integer 'rank'")
    n = _check_rank("multiply", max(_checked_rank(obj["rank"]) for obj in objs))
    limit = 2 * (_LIMITS["products"] // max(n, 1) ** 2)
    for obj in objs:
        terms = obj["terms"] if isinstance(obj.get("terms"), list) else []
        coeffs = [t["coeff"] for t in terms if isinstance(t, dict) and isinstance(t.get("coeff"), list)]
        size = len(terms) + sum(map(len, coeffs))
        if size > limit:
            raise UsageError(f"multiply at rank {n} supports element files of at most {limit} terms, got {size}")


def _parse_set(text: str, n: int) -> FibonacciSet:
    from .fibonacci import FibonacciSet

    items = tuple(int(t) for t in text.replace(",", " ").replace("{", " ").replace("}", " ").split())
    return FibonacciSet(n, items)


def _emit(args, obj) -> None:
    from .serialize import dumps

    print(dumps(obj), file=args.stdout)


def _load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deeply: RecursionError
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
    from . import serialize as ser
    from .fibonacci import chain_count, enumerate_yfs

    if args.set is not None and args.kind not in ("half", "chains"):
        raise UsageError(f"enumerate {args.kind} takes no --set")
    n = _check_rank(args.kind, args.n)
    limit = _LIMITS["idempotent_streams"]
    if args.kind == "idempotents" and n > limit and not args.extended:
        raise UsageError(f"idempotent enumeration beyond n={limit} needs --extended")
    if args.kind == "idempotents" and n > limit and not args.count_only:
        raise UsageError(f"idempotent streams support n <= {limit}; count with --extended --count-only")
    s = _parse_set(args.set, n) if args.set is not None else None
    targets = enumerate_yfs(n) if s is None else (s,)
    if args.count_only:  # each kind is counted directly: nothing is built or streamed
        if args.kind == "idempotents":
            from .monoid import census_counts

            count = census_counts(n)[1]
        elif args.kind == "yfs":
            count = len(targets)
        elif args.kind == "diagrams":
            count = math.factorial(n)
        else:  # one half or chain per saturated chain
            count = sum(map(chain_count, targets))
        print(f"kind={args.kind} n={n} count={count}", file=args.stderr)
        print(count, file=args.stdout)
        return 0
    if args.kind == "yfs":
        items, to_obj = targets, ser.fibset_to_obj
    elif args.kind == "diagrams":
        from .diagrams import iter_diagrams

        items, to_obj = iter_diagrams(n), ser.diagram_to_obj
    elif args.kind == "half":
        from .diagrams import enumerate_half

        items, to_obj = enumerate_half(n, s), ser.half_to_obj
    elif args.kind == "chains":
        from .fibonacci import saturated_chains

        items, to_obj = (c for t in targets for c in saturated_chains(t)), ser.chain_to_obj
    else:  # idempotents
        from .monoid import iter_idempotents

        items, to_obj = iter_idempotents(n), ser.diagram_to_obj
    count = 0
    for item in items:
        count += 1
        print(ser.dumps(to_obj(item)), file=args.stdout)
    print(f"kind={args.kind} n={n} count={count}", file=args.stderr)
    return 0


def _input_to_diagram(raw: str, n: int | None) -> ArcDiagram:
    from . import diagrams as dg
    from . import monoid as mo
    from . import serialize as ser

    text = _read_input(raw)
    if text.lstrip().startswith("{"):
        return ser.obj_to_diagram(_load_json(text))
    word = _check_letters("multiply", ser.parse_word(text))
    rank = _check_rank("multiply", n if n is not None else max(word, default=0) + 1)
    d = dg.identity(rank)
    for i in word:
        d = mo.mproduct(d, dg.generator(i, rank))
    return d


def cmd_multiply(args) -> int:
    from . import serialize as ser

    if args.mode == "generic":
        left, right = _read_input(args.left), _read_input(args.right)
        if left.lstrip().startswith("{") or right.lstrip().startswith("{"):
            objs = _load_json(left), _load_json(right)
            _check_element_files(objs)
            a, b = (ser.obj_to_element(obj) for obj in objs)
            _check_products(a, b)
            _emit(args, ser.element_to_obj(a * b))
            return 0
        from . import rewriting as rw

        w1, w2 = ser.parse_word(left), ser.parse_word(right)
        _check_letters("multiply", w1 + w2)
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
        from . import monoid as mo

        _emit(args, ser.diagram_to_obj(mo.mproduct(d1, d2)))
    else:  # y1
        from . import diagrams as dg

        coeff, result = dg.product_y1(d1, d2)
        obj = ser.diagram_to_obj(result)
        obj["coeff_x"] = ser.poly_to_terms(coeff, result.rank)
        _emit(args, obj)
    return 0


def cmd_normalize(args) -> int:
    from . import rewriting as rw
    from . import serialize as ser

    word = _check_letters("normalize", ser.parse_word(args.word))
    n = args.n if args.n is not None else max(word, default=0) + 1
    _emit(args, ser.normalization_to_obj(rw.normalize(word, _check_rank("normalize", n))))
    return 0


def cmd_rs(args) -> int:
    from . import rewriting as rw
    from . import serialize as ser

    p = ser.parse_perm(args.perm, functools.partial(_check_rank, "rs"))
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
    from . import rewriting as rw
    from . import serialize as ser

    left, right = ser.obj_to_rs_chains(_load_json(_read_input(args.chains)))
    _check_rank("rs", left.rank)
    p = rw.rs_inverse(left, right)
    _emit(args, {"schema": ser.SCHEMAS["rs"], "perm": list(p)})
    return 0


def cmd_green(args) -> int:
    from . import diagrams as dg
    from . import monoid as mo
    from . import serialize as ser

    gc = mo.green_classes(_check_rank("green", args.n))
    if args.format == "csv":
        from . import rewriting as rw

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
    from . import monoid as mo
    from .fibonacci import enumerate_yfs

    threads = _census_threads(args)
    if args.max > _LIMITS["census"]:
        raise UsageError(f"census supports --max <= {_LIMITS['census']}")
    if not 0 <= args.min <= args.max:
        raise UsageError("census needs 0 <= --min <= --max")
    if min(args.max, args.green_max) > _LIMITS["green"]:
        raise UsageError(f"census supports Green classes up to rank {_LIMITS['green']}")
    ranks = list(range(args.min, args.max + 1))
    if args.extended:  # the long runs: elements and idempotents only
        ranks += [n for n in (9, 10) if n > args.max]
    rows = []
    for n in ranks:
        total, idem, invol = mo.census_counts(n, threads)
        row = {"n": n, "elements": total, "idempotents": idem}
        if n <= args.max:
            row["involutives"] = invol
        if n <= min(args.max, args.green_max):
            # one R- and one L-class per half, as for the involutives; one J-class per cell
            row["r_classes"] = row["l_classes"] = invol
            row["j_classes"] = len(enumerate_yfs(n))
            row["max_aperiodicity"] = mo.aperiodicity_max(n)
        rows.append(row)
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
    from . import algebra as alg
    from . import serialize as ser
    from .fibonacci import chain_count

    s = _parse_set(args.set, _check_rank("gram", args.n))
    if args.det and chain_count(s) > alg.GRAM_DET_MAX_DIM:
        raise UsageError(f"gram --det supports cells of dimension <= {alg.GRAM_DET_MAX_DIM}")
    matrix = alg.gram_matrix(s)
    obj = {
        "schema": ser.SCHEMAS["gram"],
        "set": ser.fibset_to_obj(s),
        "dim": len(matrix),
        "matrix": [[ser.poly_to_terms(c, args.n) for c in row] for row in matrix],
    }
    if args.det:
        from ._determinant import polynomial_det

        obj["det"] = ser.poly_to_terms(polynomial_det(matrix), args.n)
    if args.specialize is not None:
        import random

        from ._determinant import specialized_det

        values = alg.specialization_point(args.n, random.Random(args.specialize))
        det = specialized_det(matrix, values)
        obj["specialized_det"] = str(det)
        obj["specialization"] = {f"{k[0]}{k[1]}": str(v) for k, v in sorted(values.items())}
    _emit(args, obj)
    return 0


def cmd_factorize(args) -> int:
    from . import algebra as alg
    from . import rewriting as rw
    from . import serialize as ser
    from .fibonacci import free_set

    p = ser.parse_perm(args.perm, functools.partial(_check_rank, "factorize"))
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
    from . import render as rd
    from . import serialize as ser

    if args.kind in ("diagram", "half"):
        if args.input is None:
            raise UsageError(f"render {args.kind} needs --input")
        subject = getattr(ser, f"obj_to_{args.kind}")(_load_json(_read_input(args.input)))
        _check_rank("render", subject.rank)
    elif args.n is None:
        raise UsageError(f"render {args.kind} needs --n")
    else:
        subject = _check_rank("render", args.n)
    name = "yfs_hasse" if args.kind == "yfs" else args.kind
    args.stdout.write(getattr(rd, f"render_{name}_{args.format}")(subject))
    return 0


def cmd_selftest(args) -> int:
    from ._selftest import cmd_selftest

    return cmd_selftest(args)


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
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
        help="generator word ('1 2 1'), element JSON (generic), or diagram JSON (y1/monoid); "
        "for y1/monoid a word is the monoid product of its generators, so its own loops give no x factor",
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
        with redirect_stderr(stderr or sys.stderr):  # usage errors go to the stderr given
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
