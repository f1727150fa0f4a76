"""Outside-in tracing of the okada layers.

The tracer replaces library functions with wrappers that record one span
per call: the metric name, start, end and the enclosing span.  Spans are
kept in flat arrays in memory and written out when the run ends.  Nothing
inside ``src/okada`` is changed; a function is wrapped at every module or
class attribute that is bound to it, so ``okada.algebra.multiply_perms``
and ``okada.rewriting.multiply_perms`` are both covered.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import sys
import time
from array import array
from collections import Counter

# Metric name -> wrap targets, each "module:attribute" or
# "module:Class.attribute".  The module is where the object is defined;
# every other binding of the same object is found by scanning.
LAYERS = {
    "diagrams.construct": ["okada.diagrams:ArcDiagram.__init__"],
    "diagrams.half_construct": ["okada.diagrams:HalfArcDiagram.__init__"],
    "diagrams.compose": ["okada.diagrams:compose"],
    "diagrams.glue": ["okada.diagrams:glue"],
    "diagrams.halves": [
        "okada.diagrams:bra",
        "okada.diagrams:ket",
        "okada.diagrams:mirror",
        "okada.diagrams:prop_lab",
    ],
    "diagrams.peel": ["okada.diagrams:peel"],
    "diagrams.enumerate_half": ["okada.diagrams:enumerate_half"],
    "rewriting.normalize": ["okada.rewriting:normalize"],
    "rewriting.multiply_perms": ["okada.rewriting:multiply_perms"],
    "rewriting.perm_to_diagram": ["okada.rewriting:perm_to_diagram"],
    "rewriting.diagram_to_perm": ["okada.rewriting:diagram_to_perm"],
    "polynomials.mul": ["okada.polynomials:Polynomial.__mul__"],
    "polynomials.add": ["okada.polynomials:Polynomial.__add__"],
    "fibonacci.enumerate": [
        "okada.fibonacci:enumerate_yfs",
        "okada.fibonacci:saturated_chains",
    ],
    "fibonacci.dominance": [
        "okada.fibonacci:dominance_leq",
        "okada.fibonacci:dominance_meet",
    ],
    "algebra.gram_matrix": ["okada.algebra:gram_matrix"],
    "algebra.triangular_factorization": ["okada.algebra:triangular_factorization"],
    "algebra.gram_det": ["okada.algebra:gram_det"],
    "algebra.element_mul": ["okada.algebra:AlgebraElement.__mul__"],
    "monoid.census_counts": ["okada.monoid:census_counts"],
    "monoid.green_classes": ["okada.monoid:green_classes"],
    "monoid.mproduct": ["okada.monoid:mproduct"],
    "serialize.dumps": ["okada.serialize:dumps"],
    "serialize.parse": [
        "okada.serialize:obj_to_fibset",
        "okada.serialize:obj_to_diagram",
        "okada.serialize:obj_to_half",
        "okada.serialize:obj_to_chain",
        "okada.serialize:obj_to_element",
        "okada.serialize:parse_word",
        "okada.serialize:parse_perm",
    ],
}

# Counted descendants: (scope span, descendant span) -> metric name.  The
# ratio's base (calls or elements) is supplied by the workload.
SCOPED_COUNTS = {
    ("algebra.triangular_factorization", "diagrams.compose"): "algebra.factorize.compose",
    ("monoid.census_counts", "diagrams.compose"): "monoid.census.compose",
    ("monoid.green_classes", "diagrams.compose"): "monoid.green.compose",
}


def _normalize_reductions(args, kwargs, result) -> int:
    word = args[0] if args else kwargs["word"]
    return len(word) - len(result.word)


# Layer -> (counter name, function of (args, kwargs, result) summed over calls).
OBSERVERS = {"rewriting.normalize": ("rewriting.normalize.reductions", _normalize_reductions)}


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.observed: Counter[str] = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped so that each call records one span named ``name``."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        observed = self.observed

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observed[observe[0]] += observe[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every target of ``layers`` at every place it is bound.

        A target that no longer exists is recorded in ``missing`` and its
        metrics are reported as null.
        """
        modules = [m for k, m in sorted(sys.modules.items()) if k == "okada" or k.startswith("okada.")]
        for metric, targets in layers.items():
            self.name_id(metric)
            for target in targets:
                module_name = target.split(":")[0]
                if module_name not in sys.modules and importlib.util.find_spec(module_name):
                    continue  # never imported in this process, so never called
                owner, attr = _resolve_owner(target)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(target)
                    print(f"perfbench: wrap target {target} not found", file=sys.stderr)
                    continue
                wrapper = self.wrap(metric, original, OBSERVERS.get(metric))
                for place, name in _bindings(original, owner, modules):
                    self._restore.append((place, name, original))
                    setattr(place, name, wrapper)

    def uninstall(self) -> None:
        for place, name, original in reversed(self._restore):
            setattr(place, name, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Calls, self time and scoped counts per metric name."""
        return summarize(
            self.names, self.span_name, self.span_parent, self.span_start, self.span_end
        ) | {"observed": dict(self.observed), "missing": list(self.missing)}

    def as_dict(self) -> dict:
        """The spans as parallel arrays, times in nanoseconds from the
        first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - origin) * 1e9) for t in self.span_start],
            "end_ns": [round((t - origin) * 1e9) for t in self.span_end],
        }


def write_json_gz(path, obj) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(obj, fh)


def summarize(names, span_name, span_parent, span_start, span_end) -> dict:
    """Per-name calls and self seconds; self time is the span's duration
    minus the time its child spans cover.  Parents always precede their
    children, so one forward pass suffices."""
    count = len(span_name)
    child = [0.0] * count
    scope = [0] * count
    scope_bits = {}
    for (outer, _), _metric in SCOPED_COUNTS.items():
        if outer in names:
            scope_bits.setdefault(names.index(outer), 1 << len(scope_bits))
    durations = [e - s for s, e in zip(span_start, span_end)]
    for i in range(count):
        p = span_parent[i]
        bit = scope_bits.get(span_name[i], 0)
        if p >= 0:
            child[p] += durations[i]
            scope[i] = scope[p] | bit
        else:
            scope[i] = bit
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    scoped: Counter[str] = Counter()
    wanted = {}
    for (outer, inner), metric in SCOPED_COUNTS.items():
        if outer in names and inner in names:
            wanted.setdefault(names.index(inner), []).append(
                (scope_bits[names.index(outer)], metric)
            )
    for i in range(count):
        name = names[span_name[i]]
        calls[name] += 1
        self_s[name] += durations[i] - child[i]
        for bit, metric in wanted.get(span_name[i], ()):
            if scope[i] & bit:
                scoped[metric] += 1
    return {"calls": dict(calls), "self_s": dict(self_s), "scoped": dict(scoped)}


def _resolve_owner(target: str):
    module_name, path = target.split(":")
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1]


def _bindings(original, owner, modules):
    """Every (namespace, attribute) bound to ``original``: the defining
    module or class, other okada modules that imported it, and aliases
    such as ``__rmul__ = __mul__`` in the same class."""
    found = []
    spaces = [owner] + [m for m in modules if m is not owner]
    for space in spaces:
        for name, value in list(vars(space).items()):
            if value is original:
                found.append((space, name))
    return found


def lru_caches(prefix: str = "okada") -> dict[str, object]:
    """Every ``functools.lru_cache`` found in the attributes of the
    package's modules, keyed by qualified name.  Call it before
    ``Tracer.install``, which hides the caches behind wrappers."""
    found = {}
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == prefix or key.startswith(prefix + ".")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and callable(
                getattr(value, "cache_clear", None)
            ):
                found[value.__qualname__] = value
    return found


def cache_stats(caches: dict[str, object]) -> dict[str, dict]:
    out = {}
    for key, cache in caches.items():
        info = cache.cache_info()
        lookups = info.hits + info.misses
        out[key] = {
            "currsize": info.currsize,
            "hits": info.hits,
            "misses": info.misses,
            "hit_ratio": info.hits / lookups if lookups else 0.0,
        }
    return out


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()
