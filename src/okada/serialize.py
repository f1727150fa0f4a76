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
:func:`~okada.diagrams.validate_half`, and a basis index that is not a
permutation.  The library itself can still build invalid labellings.
"""

from __future__ import annotations

import functools
import json
from typing import Any

from .algebra import AlgebraElement
from .diagrams import Arc, ArcDiagram, HalfArc, HalfArcDiagram, half_violations, violations
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


def _expect(obj: Any, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r} in {obj!r}")
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


def _int(value) -> int:
    """A JSON integer; a float, string or boolean in its place is malformed."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _check_schema(obj: dict, kind: str) -> None:
    tag = obj.get("schema")
    if tag is not None and tag != SCHEMAS[kind]:
        raise ValueError(f"schema mismatch: expected {SCHEMAS[kind]}, got {tag}")


# -- Fibonacci sets ---------------------------------------------------------


def fibset_to_obj(s: FibonacciSet) -> dict:
    return {"schema": SCHEMAS["fibset"], "rank": s.rank, "elements": list(s.elements)}


@_parser
def obj_to_fibset(obj: dict) -> FibonacciSet:
    _check_schema(obj, "fibset")
    return FibonacciSet(_int(_expect(obj, "rank")), tuple(_int(x) for x in _expect(obj, "elements")))


# -- diagrams ----------------------------------------------------------------


def diagram_to_obj(d: ArcDiagram) -> dict:
    return {
        "schema": SCHEMAS["diagram"],
        "rank": d.rank,
        "arcs": [{"ends": [a, b], "height": h} for a, b, h in d.arcs],
    }


@_parser
def obj_to_diagram(obj: dict) -> ArcDiagram:
    _check_schema(obj, "diagram")
    arcs = tuple(
        Arc(_int(rec["ends"][0]), _int(rec["ends"][1]), _int(rec["height"]))
        for rec in _expect(obj, "arcs")
    )
    d = ArcDiagram(_int(_expect(obj, "rank")), arcs)
    problems = violations(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
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
    _check_schema(obj, "half")
    fulls = tuple(
        Arc(_int(rec["ends"][0]), _int(rec["ends"][1]), _int(rec["height"]))
        for rec in _expect(obj, "full_arcs")
    )
    halves = tuple(
        HalfArc(_int(rec["end"]), _int(rec["height"])) for rec in _expect(obj, "half_arcs")
    )
    h = HalfArcDiagram(_int(_expect(obj, "rank")), fulls, halves)
    problems = half_violations(h)
    if problems:
        raise ValueError("invalid half diagram: " + "; ".join(problems))
    return h


# -- chains ------------------------------------------------------------------


def chain_to_obj(c: Chain) -> dict:
    return {
        "schema": SCHEMAS["chain"],
        "sets": [{"rank": s.rank, "elements": list(s.elements)} for s in c.sets],
    }


@_parser
def obj_to_chain(obj: dict) -> Chain:
    _check_schema(obj, "chain")
    sets = tuple(
        FibonacciSet(_int(rec["rank"]), tuple(_int(x) for x in rec["elements"]))
        for rec in _expect(obj, "sets")
    )
    return Chain(sets)


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


def poly_to_terms(p: Polynomial, n: int) -> list[dict]:
    """Dense exponent vectors per term: x over 1..n-1, y over 1..n-2."""
    out = []
    for term, c in p.terms():
        xs = [0] * max(n - 1, 0)
        ys = [0] * max(n - 2, 0)
        for (kind, i), e in term:
            if kind == "x":
                xs[i - 1] = e
            else:
                ys[i - 1] = e
        out.append({"x": xs, "y": ys, "c": c})
    return out


def terms_to_poly(terms: list[dict]) -> Polynomial:
    total = Polynomial.zero()
    for rec in terms:
        exps = {}
        for kind in ("x", "y"):
            for i, e in enumerate(rec.get(kind, ()), start=1):
                if _int(e) < 0:
                    raise ValueError(f"negative exponent {e} of {kind}{i}")
                exps[(kind, i)] = e
        total = total + Polynomial.monomial(exps, _int(rec.get("c", 1)))
    return total


def normalization_to_obj(r: NormalizationResult) -> dict:
    coeff, term = r.coefficient.monomial_parts()
    if coeff != 1:
        raise ValueError(f"normalization coefficient has multiplier {coeff}")
    xs = [0] * max(r.n - 1, 0)
    ys = [0] * max(r.n - 2, 0)
    for (kind, i), e in term:
        if kind == "x":
            xs[i - 1] = e
        else:
            ys[i - 1] = e
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
    _check_schema(obj, "element")
    rank = _int(_expect(obj, "rank"))
    coeffs = {}
    for rec in _expect(obj, "terms"):
        p: Perm = _check_perm(tuple(_int(v) for v in rec["perm"]))
        if p in coeffs:
            raise ValueError(f"basis index {p} listed twice")
        c = terms_to_poly(rec["coeff"])
        for kind, i in c.variables():
            if i > rank - (1 if kind == "x" else 2):
                raise ValueError(f"parameter {kind}{i} does not exist at rank {rank}")
        coeffs[p] = c
    return AlgebraElement(rank, coeffs)


# -- misc ----------------------------------------------------------------------


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a whitespace/comma separated generator word like "2 1 2"."""
    items = text.replace(",", " ").split()
    return tuple(int(tok) for tok in items)


def parse_perm(text: str) -> Perm:
    return _check_perm(tuple(int(tok) for tok in text.replace(",", " ").split()))


def _check_perm(p: Perm) -> Perm:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p
