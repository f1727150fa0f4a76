"""The value protocol is written once, in ``okada._immutable``.

Equality, hashing, ordering and pickling of the value classes come from
``Immutable``; a class keeps its own copy only where it differs.  The
exceptions are listed here, so that a new hand-written copy fails.
"""

import ast
from pathlib import Path

import okada

SRC = Path(okada.__file__).parent
PROTOCOL = {"__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__", "__reduce__"}
OVERRIDES = {
    # through the trusted builders: the constructors take arcs, not arrays
    ("diagrams", "ArcDiagram", "__reduce__"),
    ("diagrams", "HalfArcDiagram", "__reduce__"),
    # the hash of (rank, full_arcs, half_arcs), pinned by the tests
    ("diagrams", "HalfArcDiagram", "__hash__"),
    # not a value class: equality coerces integers to constants
    ("polynomials", "Polynomial", "__eq__"),
    ("polynomials", "Polynomial", "__hash__"),
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_class_outside_the_base_writes_the_protocol():
    found, setters = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "_immutable":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                found.update(
                    (path.stem, cls.name, name) for name in _defined_names(item) if name in PROTOCOL
                )
        setters += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__set__"
        ]
    assert found == OVERRIDES
    assert setters == []
