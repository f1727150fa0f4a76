import json

import pytest

from okada import diagrams as dg, serialize as ser
from okada.algebra import AlgebraElement
from okada.fibonacci import FibonacciSet
from okada.polynomials import x_var, y_var
from okada.rewriting import all_perms, normalize, perm_to_diagram, rs


def test_fibset_roundtrip():
    s = FibonacciSet(5, (1, 2, 5))
    obj = ser.fibset_to_obj(s)
    assert obj == {"schema": "okada.fibset/1", "rank": 5, "elements": [1, 2, 5]}
    assert ser.obj_to_fibset(json.loads(ser.dumps(obj))) == s


def test_diagram_roundtrip_canonical_order():
    for p in all_perms(4):
        d = perm_to_diagram(p)
        obj = ser.diagram_to_obj(d)
        assert ser.obj_to_diagram(obj) == d
        keys = [dg.order_key(rec["ends"][0], 4) for rec in obj["arcs"]]
        assert keys == sorted(keys)


def test_half_and_chain_roundtrip():
    for h in dg.enumerate_half(5):
        assert ser.obj_to_half(ser.half_to_obj(h)) == h
        c = dg.chain_of(h)
        assert ser.obj_to_chain(ser.chain_to_obj(c)) == c


def test_schema_tags_rejected_on_mismatch():
    s = FibonacciSet(3, (1,))
    obj = ser.fibset_to_obj(s)
    obj["schema"] = "okada.fibset/2"
    with pytest.raises(ValueError):
        ser.obj_to_fibset(obj)


def test_malformed_objects_rejected():
    with pytest.raises(ValueError):
        ser.obj_to_diagram({"schema": "okada.diagram/1", "rank": 2})
    with pytest.raises(ValueError):
        ser.obj_to_fibset({"rank": 3, "elements": [2]})
    for parse, obj in (
        (ser.obj_to_diagram, {"rank": 2, "arcs": [5]}),
        (ser.obj_to_diagram, {"rank": 2, "arcs": [{"ends": [1]}]}),
        (ser.obj_to_diagram, [1, 2]),
        (ser.obj_to_half, {"rank": 1, "full_arcs": [], "half_arcs": [None]}),
        (ser.obj_to_fibset, {"rank": 3, "elements": 4}),
        (ser.obj_to_chain, 1),
        (ser.obj_to_rs_chains, [1]),
        (ser.obj_to_element, {"rank": 2, "terms": [{"perm": 12}]}),
        (ser.obj_to_element, {"rank": 2, "terms": [{"perm": [1, 1], "coeff": []}]}),
    ):
        with pytest.raises(ValueError):
            parse(obj)


def test_parsers_reject_invalid_diagrams_the_library_can_represent():
    crossing = dg.ArcDiagram(2, (dg.Arc(1, -2, 1), dg.Arc(2, -1, 1)))
    assert any(m.startswith("crossing:") for m in dg.violations(crossing))
    with pytest.raises(ValueError, match="crossing"):
        ser.obj_to_diagram(ser.diagram_to_obj(crossing))
    half = dg.HalfArcDiagram(3, (dg.Arc(1, 3, 1),), (dg.HalfArc(2, 2),))
    assert dg.half_violations(half)
    with pytest.raises(ValueError, match="crossing"):
        ser.obj_to_half(ser.half_to_obj(half))
    left, right = rs((3, 1, 2))
    pair = {"left": ser.chain_to_obj(left), "right": ser.chain_to_obj(right)}
    assert ser.obj_to_rs_chains(pair) == ser.obj_to_rs_chains([pair["left"], pair["right"]])


def test_normalization_result_dense_vectors():
    r = normalize((1, 1, 3, 2, 3), 4)
    obj = ser.normalization_to_obj(r)
    assert len(obj["coeff_x"]) == 3 and len(obj["coeff_y"]) == 2
    rebuilt = ser.terms_to_poly([{"x": obj["coeff_x"], "y": obj["coeff_y"], "c": 1}])
    assert rebuilt == r.coefficient


def test_element_roundtrip():
    a = AlgebraElement.from_perm((2, 1, 3), x_var(1) + 2 * y_var(1)) + AlgebraElement.one(3)
    obj = ser.element_to_obj(a)
    assert ser.obj_to_element(obj) == a


def test_poly_terms_roundtrip():
    p = x_var(1) ** 2 * y_var(2) - 3 * x_var(3) + 7
    assert ser.terms_to_poly(ser.poly_to_terms(p, 5)) == p


def test_parse_helpers():
    assert ser.parse_word("2, 1 2") == (2, 1, 2)
    assert ser.parse_perm("3 1 2") == (3, 1, 2)
    with pytest.raises(ValueError):
        ser.parse_perm("1 1")


def test_dumps_is_compact_and_deterministic():
    left, right = rs((2, 1, 3))
    blob1 = ser.dumps(ser.chain_to_obj(left))
    blob2 = ser.dumps(ser.chain_to_obj(left))
    assert blob1 == blob2
    assert " " not in blob1
