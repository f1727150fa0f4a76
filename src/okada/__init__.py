"""Exact diagram calculus for the Okada algebra and monoid.

The package implements the rank-``n`` Okada algebra (generators
``E_1..E_{n-1}`` with ``E_i^2 = x_i E_i``, distant commutation, and
``E_{i+1} E_i E_{i+1} = y_i E_{i+1}``) through two cross-checked models:
a confluent rewriting system on generator words and a monoid of
height-labeled non-crossing arc diagrams.  On top sit the
Young-Fibonacci combinatorics, the diagrammatic Robinson-Schensted
correspondence, the structure theory of the monoid (Green relations,
idempotents, aperiodicity), and the cellular basis with its cell modules
and Gram forms.
"""

__version__ = "0.1.0"

# Public name -> defining submodule.  Nothing is imported until a name
# is first used, so ``import okada`` (and every CLI call) loads only the
# submodules it needs.
_EXPORTS = {
    "InternalInvariantError": "errors",
    "OkadaError": "errors",
    "PropagatingMismatchError": "errors",
    "RankMismatchError": "errors",
    "Chain": "fibonacci",
    "FibonacciSet": "fibonacci",
    "chain_count": "fibonacci",
    "dominance_join": "fibonacci",
    "dominance_leq": "fibonacci",
    "dominance_lt": "fibonacci",
    "dominance_meet": "fibonacci",
    "dominance_rank": "fibonacci",
    "enumerate_yfs": "fibonacci",
    "free_set": "fibonacci",
    "free_set_inverse": "fibonacci",
    "is_fibonacci_set": "fibonacci",
    "saturated_chains": "fibonacci",
    "set_to_word": "fibonacci",
    "word_to_set": "fibonacci",
    "yf_covers": "fibonacci",
    "Polynomial": "polynomials",
    "x_var": "polynomials",
    "y_var": "polynomials",
    "Heap": "rewriting",
    "NormalizationResult": "rewriting",
    "code": "rewriting",
    "diagram_to_perm": "rewriting",
    "heap_from_word": "rewriting",
    "multiply_perms": "rewriting",
    "multiply_words": "rewriting",
    "normalize": "rewriting",
    "perm_to_diagram": "rewriting",
    "reading": "rewriting",
    "rs": "rewriting",
    "rs_inverse": "rewriting",
    "word_from_code": "rewriting",
    "Arc": "diagrams",
    "ArcDiagram": "diagrams",
    "HalfArc": "diagrams",
    "HalfArcDiagram": "diagrams",
    "LoopRecord": "diagrams",
    "bra": "diagrams",
    "chain_inverse": "diagrams",
    "chain_of": "diagrams",
    "compose": "diagrams",
    "enumerate_diagrams": "diagrams",
    "enumerate_half": "diagrams",
    "generator": "diagrams",
    "glue": "diagrams",
    "identity": "diagrams",
    "iota": "diagrams",
    "ket": "diagrams",
    "mirror": "diagrams",
    "peel": "diagrams",
    "product_y1": "diagrams",
    "prop_lab": "diagrams",
    "restrict": "diagrams",
    "validate": "diagrams",
    "validate_half": "diagrams",
    "AlgebraElement": "algebra",
    "cell_action": "algebra",
    "cell_datum": "algebra",
    "free_element": "algebra",
    "free_involution": "algebra",
    "gram_matrix": "algebra",
    "ideal_basis": "algebra",
    "triangular_factorization": "algebra",
    "GreenClasses": "monoid",
    "aperiodicity_index": "monoid",
    "green_classes": "monoid",
    "is_idempotent": "monoid",
    "is_involutive": "monoid",
    "j_class_rep": "monoid",
    "mproduct": "monoid",
    "r_class_rep": "monoid",
}

# ``okada.<submodule>`` works without importing it first.
_SUBMODULES = frozenset((
    "algebra", "cli", "diagrams", "errors", "fibonacci",
    "monoid", "polynomials", "render", "rewriting", "serialize",
))

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A plain import binds the submodule here, and ``-X importtime`` logs
    # it (it does not log ``importlib.import_module``).
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
