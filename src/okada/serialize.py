"""Versioned JSON serialization for all public value types.

Every top-level object carries a ``schema`` tag (``okada.<kind>/1``) so
downstream fixtures can reject drift.  Shapes:

* Fibonacci set: ``{"rank": n, "elements": [s1, ...]}``
* arc diagram: ``{"rank": n, "arcs": [{"ends": [a, b], "height": h}, ...]}``
  with negative integers for right-boundary nodes, arcs in canonical order
* half diagram: full arcs as above plus ``{"end": a, "height": h}`` halves
* chain: ``{"sets": [fibset, ...]}``
* word: plain integer array; Fibonacci words: strings over "12"
* normalization result: dense exponent vectors
  ``{"coeff_x": [e1..e_{n-1}], "coeff_y": [e1..e_{n-2}], "perm": [...]}``
* algebra element: ``[{"perm": [...], "coeff": [{"x": [...], "y": [...],
  "c": m}, ...]}, ...]`` (one term object per monomial of the coefficient)

Parsing is the input boundary: it raises ``ValueError`` on malformed
input, including a JSON value of the wrong shape, a diagram or half
diagram that fails :func:`~okada.diagrams.validate` or
:func:`~okada.diagrams.validate_half`, and a term or a basis index that
:class:`~okada.polynomials.Polynomial` or :class:`~okada.algebra.AlgebraElement`
refuses: the parsers leave those rules to the value types.  The library
itself can still build invalid labellings.

Each parser imports the module of the type it builds when it is called,
so importing this module loads none of the library layers.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .algebra import AlgebraElement
    from .diagrams import ArcDiagram, HalfArcDiagram
    from .fibonacci import Chain, FibonacciSet
    from .polynomials import Polynomial
    from .rewriting import NormalizationResult, Perm

SCHEMAS = {
    "fibset": "okada.fibset/1",
    "diagram": "okada.diagram/1",
    "half": "okada.half/1",
    "chain": "okada.chain/1",
    "normalization": "okada.normalization/1",
    "element": "okada.element/1",
    "rs": "okada.rs/1",
    "gram": "okada.gram/1",
    "factorization": "okada.factorization/1",
}


def dumps(obj: Any) -> str:
    """Compact, deterministic JSON encoding."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def _describe(value: Any) -> str:
    """The type of ``value`` and its length, never the value itself, so that
    an error message stays short however large the invalid input."""
    kind = type(value).__name__
    return f"{kind} of length {len(value)}" if isinstance(value, (dict, list, str)) else kind


def _expect(obj: Any, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r} in {_describe(obj)}")
    return obj[key]


def _parser(parse):
    """Report a JSON value of the wrong shape (a number where an object
    belongs, a missing list item, ...) as ``ValueError``."""

    @functools.wraps(parse)
    def checked(obj):
        try:
            return parse(obj)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed input to {parse.__name__}: {exc!r}") from exc

    return checked


def _int(value, field: str) -> int:
    """A JSON integer; a float, string or boolean in its place is malformed."""
    if type(value) is not int:
        raise ValueError(f"expected an integer in {field!r}, got {_describe(value)}")
    return value


def _check_schema(obj: dict, kind: str) -> None:
    tag = obj.get("schema")
    if tag is not None and tag != SCHEMAS[kind]:
        raise ValueError(f"schema mismatch: expected {SCHEMAS[kind]}, got {_describe(tag)}")


# -- Fibonacci sets ---------------------------------------------------------


def fibset_to_obj(s: FibonacciSet) -> dict:
    return {"schema": SCHEMAS["fibset"], "rank": s.rank, "elements": list(s.elements)}


def _fibset(rec) -> FibonacciSet:
    from .fibonacci import FibonacciSet

    rank = _int(_expect(rec, "rank"), "rank")
    return FibonacciSet(rank, tuple(_int(x, "elements") for x in _expect(rec, "elements")))


@_parser
def obj_to_fibset(obj: dict) -> FibonacciSet:
    _check_schema(obj, "fibset")
    return _fibset(obj)


# -- diagrams ----------------------------------------------------------------


def diagram_to_obj(d: ArcDiagram) -> dict:
    return {
        "schema": SCHEMAS["diagram"],
        "rank": d.rank,
        "arcs": [{"ends": [a, b], "height": h} for a, b, h in d.arcs],
    }


def _arcs(recs) -> tuple:
    from .diagrams import Arc

    return tuple(
        Arc(_int(rec["ends"][0], "ends"), _int(rec["ends"][1], "ends"), _int(rec["height"], "height"))
        for rec in recs
    )


@_parser
def obj_to_diagram(obj: dict) -> ArcDiagram:
    from .diagrams import ArcDiagram, violations

    _check_schema(obj, "diagram")
    arcs = _arcs(_expect(obj, "arcs"))
    d = ArcDiagram(_int(_expect(obj, "rank"), "rank"), arcs)
    if problems := violations(d):
        raise ValueError(f"invalid diagram: {problems[0]} (1 of {len(problems)} violations)")
    return d


def half_to_obj(h: HalfArcDiagram) -> dict:
    return {
        "schema": SCHEMAS["half"],
        "rank": h.rank,
        "full_arcs": [{"ends": [a, b], "height": ht} for a, b, ht in h.full_arcs],
        "half_arcs": [{"end": e, "height": ht} for e, ht in h.half_arcs],
    }


@_parser
def obj_to_half(obj: dict) -> HalfArcDiagram:
    from .diagrams import HalfArc, HalfArcDiagram, half_violations

    _check_schema(obj, "half")
    fulls = _arcs(_expect(obj, "full_arcs"))
    halves = tuple(
        HalfArc(_int(rec["end"], "end"), _int(rec["height"], "height")) for rec in _expect(obj, "half_arcs")
    )
    h = HalfArcDiagram(_int(_expect(obj, "rank"), "rank"), fulls, halves)
    if problems := half_violations(h):
        raise ValueError(f"invalid half diagram: {problems[0]} (1 of {len(problems)} violations)")
    return h


# -- chains ------------------------------------------------------------------


def chain_to_obj(c: Chain) -> dict:
    return {
        "schema": SCHEMAS["chain"],
        "sets": [{"rank": s.rank, "elements": list(s.elements)} for s in c.sets],
    }


@_parser
def obj_to_chain(obj: dict) -> Chain:
    from .fibonacci import Chain

    _check_schema(obj, "chain")
    return Chain(tuple(_fibset(rec) for rec in _expect(obj, "sets")))


@_parser
def obj_to_rs_chains(obj: dict | list) -> tuple[Chain, Chain]:
    """The chain pair of an RS object, or of a two-item ``[left, right]`` list."""
    if isinstance(obj, dict):
        _check_schema(obj, "rs")
        return obj_to_chain(_expect(obj, "left")), obj_to_chain(_expect(obj, "right"))
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError("expected an RS object or a [left, right] list of chains")
    return obj_to_chain(obj[0]), obj_to_chain(obj[1])


# -- polynomials and normalization results -----------------------------------


def _exponent_vectors(term, n: int) -> tuple[list[int], list[int]]:
    """The dense exponents of one monomial: x over 1..n-1, y over 1..n-2."""
    dense = {"x": [0] * max(n - 1, 0), "y": [0] * max(n - 2, 0)}
    for (kind, i), e in term:
        dense[kind][i - 1] = e
    return dense["x"], dense["y"]


def poly_to_terms(p: Polynomial, n: int) -> list[dict]:
    """Dense exponent vectors per term: x over 1..n-1, y over 1..n-2."""
    out = []
    for term, c in p.terms():
        xs, ys = _exponent_vectors(term, n)
        out.append({"x": xs, "y": ys, "c": c})
    return out


def terms_to_poly(terms: list[dict]) -> Polynomial:
    from .polynomials import Polynomial

    def monomials():
        for rec in terms:
            term = tuple(
                ((kind, i), _int(e, kind)) for kind in ("x", "y") for i, e in enumerate(rec.get(kind, ()), start=1)
            )
            yield Polynomial({term: _int(rec.get("c", 1), "c")})

    return Polynomial.sum(monomials())


def normalization_to_obj(r: NormalizationResult) -> dict:
    coeff, term = r.coefficient.monomial_parts()
    if coeff != 1:
        raise ValueError(f"normalization coefficient has multiplier {coeff}")
    xs, ys = _exponent_vectors(term, r.n)
    return {
        "schema": SCHEMAS["normalization"],
        "coeff_x": xs,
        "coeff_y": ys,
        "word": list(r.word),
        "perm": list(r.perm),
    }


# -- algebra elements ---------------------------------------------------------


def element_to_obj(a: AlgebraElement) -> dict:
    return {
        "schema": SCHEMAS["element"],
        "rank": a.rank,
        "terms": [
            {"perm": list(p), "coeff": poly_to_terms(c, a.rank)}
            for p, c in a.coefficients()
        ],
    }


@_parser
def obj_to_element(obj: dict) -> AlgebraElement:
    from .algebra import AlgebraElement

    _check_schema(obj, "element")
    rank = _int(_expect(obj, "rank"), "rank")
    coeffs = {}
    for rec in _expect(obj, "terms"):
        p: Perm = tuple(_int(v, "perm") for v in rec["perm"])
        if p in coeffs:
            raise ValueError(f"basis index of length {len(p)} listed twice")
        c = terms_to_poly(rec["coeff"])
        for kind, i in sorted(c.variables()):
            if i > rank - (1 if kind == "x" else 2):
                raise ValueError(f"parameter {kind}{i} does not exist at rank {rank}")
        coeffs[p] = c
    return AlgebraElement(rank, coeffs)


# -- misc ----------------------------------------------------------------------


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a whitespace/comma separated generator word like "2 1 2"."""
    items = text.replace(",", " ").split()
    return tuple(int(tok) for tok in items)


def parse_perm(text: str, check_length: Callable[[int], object] | None = None) -> Perm:
    """A one-line permutation like "3 1 2"; ``check_length`` sees its length before it is read."""
    from .rewriting import code

    p = parse_word(text)
    if check_length is not None:
        check_length(len(p))
    code(p)
    return p
