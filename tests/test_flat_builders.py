"""Values are built from flat arrays inside ``okada.diagrams``.

``_from_arrays`` and ``_half_from_arrays`` skip the checks of the public
constructors, so only ``diagrams`` calls them.  The one exception is
``rewriting._diagram_of_runs``, the dictionary between the permutation
and diagram models.  A new caller elsewhere fails here.
"""

import ast
from pathlib import Path

import okada

SRC = Path(okada.__file__).parent
BUILDERS = {"_from_arrays", "_half_from_arrays"}
OUTSIDE = {("rewriting", "_diagram_of_runs", "_from_arrays")}


def test_only_diagrams_builds_from_flat_arrays():
    found = set()  # (module, innermost function, builder) of each use by name or as an attribute
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "diagrams":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in BUILDERS:
                inner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.add((path.stem, inner and inner.name, name))
    assert found == OUTSIDE
