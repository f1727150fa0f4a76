"""Values are built unchecked only where the library trusts its input.

``_from_arrays`` and ``_half_from_arrays`` skip the checks of the public
diagram constructors, so only ``diagrams`` calls them.  The one exception
is ``rewriting._diagram_of_runs``, the dictionary between the permutation
and diagram models.  Every unchecked build goes through a class's
``_trusted`` (``okada._immutable``), and each function that calls it
builds from values already checked; those functions are listed here, and
``object.__new__`` appears nowhere else.  A new caller fails here.
"""

import ast
from pathlib import Path

import okada

SRC = Path(okada.__file__).parent
BUILDERS = {"_from_arrays", "_half_from_arrays"}
OUTSIDE = {("rewriting", "_diagram_of_runs", "_from_arrays")}
TRUSTED = {
    ("algebra", "_from_checked"),  # sums and products of checked elements
    ("diagrams", "_from_arrays"),
    ("diagrams", "_half_from_arrays"),
    ("diagrams", "_glue_cell"),
    ("diagrams", "chain_of"),  # after half_violations
    ("fibonacci", "enumerate_yfs"),
    ("fibonacci", "yf_covers"),
    ("fibonacci", "yf_down_covers"),
    ("fibonacci", "saturated_chains"),
    ("fibonacci", "dominance_meet"),
    ("fibonacci", "dominance_join"),
    ("fibonacci", "_dominance_tables"),
    ("rewriting", "heap_from_word"),  # after check_word
}


def _uses(names, skip):
    """(module, innermost function, name) of each use of ``names`` by name
    or as an attribute, in every module but ``skip``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names:
                inner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.add((path.stem, inner and inner.name, name))
    return found


def test_only_diagrams_builds_from_flat_arrays():
    assert _uses(BUILDERS, "diagrams") == OUTSIDE


def test_only_the_listed_functions_build_unchecked():
    assert {(module, func) for module, func, _ in _uses({"_trusted"}, "_immutable")} == TRUSTED
    assert [p.name for p in sorted(SRC.glob("*.py")) if "object.__new__" in p.read_text(encoding="utf-8")] == [
        "_immutable.py"]
