"""The immutable value classes against frozen-dataclass references.

``FibonacciSet``, ``Chain``, ``HalfArcDiagram``, ``Heap``,
``NormalizationResult``, ``CellDatum`` and ``GreenClasses`` are plain
``__slots__`` classes.  For each, a frozen dataclass with the same fields
(``order=True`` where the class is ordered, and the class's own
``repr`` where it defines one) is the reference for equality, hashing,
ordering and ``repr``; ``HalfArcDiagram`` hashes the arrays it stores,
not the arcs its constructor takes.
"""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import okada
from okada import diagrams as dg
from okada.algebra import CellDatum, cell_datum
from okada.fibonacci import Chain, FibonacciSet, enumerate_yfs, saturated_chains
from okada.monoid import GreenClasses, green_classes
from okada.rewriting import Heap, NormalizationResult, heap_from_word, normalize

FIELDS = {
    FibonacciSet: ("rank", "elements"),
    Chain: ("sets",),
    dg.HalfArcDiagram: ("rank", "full_arcs", "half_arcs"),
    Heap: ("n", "rows"),
    NormalizationResult: ("n", "coefficient", "word", "perm"),
    CellDatum: ("rank", "poset", "index_sets", "involution"),
    GreenClasses: ("rank", "elements", "r_classes", "l_classes", "j_classes", "r_reps", "j_reps"),
}
ORDERED = (FibonacciSet, Chain)
OWN_REPR = (FibonacciSet, Chain, dg.HalfArcDiagram)


def reference(cls):
    namespace = {"__repr__": cls.__repr__} if cls in OWN_REPR else {}
    return dataclasses.make_dataclass(
        cls.__name__, FIELDS[cls], frozen=True, order=cls in ORDERED, namespace=namespace
    )


REFERENCES = {cls: reference(cls) for cls in FIELDS}


def as_reference(value):
    cls = type(value)
    return REFERENCES[cls](*(getattr(value, name) for name in FIELDS[cls]))


def samples():
    sets = [s for n in range(6) for s in enumerate_yfs(n)]
    sets.append(FibonacciSet(7, (1, 2, 5)))  # the elements of {1,2,5}_5 at another rank
    words = [(), (1,), (1, 1), (2, 1, 2), (1, 2, 1), (3, 1, 2, 3, 2), (1, 3, 2, 1)]
    return {
        FibonacciSet: sets,
        Chain: [c for s in sets for c in saturated_chains(s)],
        dg.HalfArcDiagram: [h for n in range(6) for h in dg.enumerate_half(n)],
        Heap: [heap_from_word(w, 4) for w in words],
        NormalizationResult: [normalize(w, 4) for w in words] + [normalize((1,), 3)],
        CellDatum: [cell_datum(n) for n in range(4)],
        GreenClasses: [green_classes(n) for n in range(4)],
    }


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_class_matches_its_dataclass_reference(cls):
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]
    values = samples()[cls]
    refs = [as_reference(v) for v in values]
    for v, r in zip(values, refs):
        assert repr(v) == repr(r)
        if cls is CellDatum:  # its index sets are a dict
            with pytest.raises(TypeError):
                hash(r)
            with pytest.raises(TypeError):
                hash(v)
        elif cls is dg.HalfArcDiagram:  # hashed by its stored arrays, not by the arcs it takes
            assert hash(v) == hash((v.rank, v.partner, v.height))
        else:
            assert hash(v) == hash(r)
        assert v != object() and v.__eq__(object()) is NotImplemented
        for other in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(other) is cls and other == v
            assert [getattr(other, f) for f in FIELDS[cls]] == [getattr(v, f) for f in FIELDS[cls]]
        for name in FIELDS[cls] + ("other",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                delattr(v, name)
    for v, r in zip(values, refs):
        for w, s in zip(values, refs):
            assert (v == w) == (r == s)
            assert (v != w) == (r != s)
            if cls in ORDERED:
                assert (v < w, v <= w, v > w, v >= w) == (r < s, r <= s, r > s, r >= s)
    if cls not in ORDERED:
        with pytest.raises(TypeError):
            values[0] < values[0]


def test_enumeration_orders_are_the_dataclass_orders():
    RefSet, RefChain = REFERENCES[FibonacciSet], REFERENCES[Chain]

    def ref_chain(c):
        return RefChain(tuple(RefSet(s.rank, s.elements) for s in c.sets))

    for n in range(11):
        sets = enumerate_yfs(n)
        refs = [RefSet(s.rank, s.elements) for s in sets]
        assert refs == sorted(refs)
        assert list(sets) == sorted(sets)
        for s in sets:
            chains = saturated_chains(s)
            refs = [ref_chain(c) for c in chains]
            assert refs == sorted(refs)
            assert list(chains) == sorted(chains)


PUBLIC_NAMES = (
    "InternalInvariantError", "OkadaError", "PropagatingMismatchError", "RankMismatchError",
    "Chain", "FibonacciSet", "chain_count", "dominance_join", "dominance_leq", "dominance_lt",
    "dominance_meet", "dominance_rank", "enumerate_yfs", "free_set", "free_set_inverse",
    "is_fibonacci_set", "saturated_chains", "set_to_word", "word_to_set", "yf_covers",
    "Polynomial", "x_var", "y_var",
    "Heap", "NormalizationResult", "code", "diagram_to_perm", "heap_from_word",
    "multiply_perms", "multiply_words", "normalize", "perm_to_diagram", "reading", "rs",
    "rs_inverse", "word_from_code",
    "Arc", "ArcDiagram", "HalfArc", "HalfArcDiagram", "LoopRecord", "bra", "chain_inverse",
    "chain_of", "compose", "enumerate_diagrams", "enumerate_half", "generator", "glue",
    "identity", "iota", "ket", "mirror", "peel", "product_y1", "prop_lab", "restrict",
    "validate", "validate_half",
    "AlgebraElement", "cell_action", "cell_datum", "free_element", "free_involution",
    "gram_matrix", "ideal_basis", "triangular_factorization",
    "GreenClasses", "aperiodicity_index", "green_classes", "is_idempotent", "is_involutive",
    "j_class_rep", "mproduct", "r_class_rep",
)


def test_package_exports_every_public_name_lazily():
    assert sorted(okada.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(okada, name)
        assert value is vars(importlib.import_module(value.__module__))[name], name
        assert name in dir(okada)
    namespace = {}
    exec("from okada import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert okada.monoid is importlib.import_module("okada.monoid")
    with pytest.raises(AttributeError):
        okada.no_such_name
    src = str(Path(okada.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = "import sys, okada; print(sorted(m for m in sys.modules if m.startswith('okada')))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['okada']"
