"""Fuzz the CLI input boundary.

Random and mutated JSON objects, words and permutations are fed to
``okada.cli.main``.  Whatever the input, the command must end with exit 0
(an answer), 2 (usage, including requests over a rank cap) or 3 (invalid
input), never with an uncaught exception, and a refused request must
print nothing on stdout.  Examples are derandomized so that the suite
stays deterministic; the ranks stay small enough for each call to take
milliseconds, apart from requests over a cap, which are refused up front.
"""

import io
import json
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from okada.cli import main

# Valid inputs that the mutations below start from.
DIAGRAM = {
    "schema": "okada.diagram/1",
    "rank": 3,
    "arcs": [
        {"ends": [1, 2], "height": 1},
        {"ends": [3, -3], "height": 3},
        {"ends": [-2, -1], "height": 1},
    ],
}
HALF = {
    "schema": "okada.half/1",
    "rank": 3,
    "full_arcs": [{"ends": [1, 2], "height": 1}],
    "half_arcs": [{"end": 3, "height": 3}],
}
ELEMENT = {
    "schema": "okada.element/1",
    "rank": 3,
    "terms": [
        {"perm": [2, 1, 3], "coeff": [{"x": [1, 0], "y": [0], "c": 2}]},
        {"perm": [1, 3, 2], "coeff": [{"x": [0, 0], "y": [1], "c": -1}]},
    ],
}


def _chain(*sets):
    return {"sets": [{"rank": r, "elements": list(s)} for r, s in enumerate(sets)]}


RS = {
    "schema": "okada.rs/1",
    "perm": [3, 1, 2],
    "left": _chain((), (1,), (1, 2), (1,)),
    "right": _chain((), (1,), (2,), (1,)),
}
KEYS = ("schema", "rank", "arcs", "ends", "height", "full_arcs", "half_arcs", "end",
        "terms", "perm", "coeff", "x", "y", "c", "left", "right", "sets", "elements")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=12)
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, base):
    """``base`` with one value replaced, removed or added somewhere inside."""
    obj = json.loads(json.dumps(base))
    node = obj
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(("replace", "delete", "insert")))
        if action == "replace":
            node[key] = draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(json_values)
        else:
            node.insert(key, draw(json_values))
        break
    return obj


@st.composite
def json_text(draw, base):
    """A JSON argument: the valid object, a mutation, random JSON, or broken text."""
    kind = draw(st.sampled_from(("valid", "mutated", "mutated", "random", "text")))
    if kind == "valid":
        return json.dumps(base)
    if kind == "mutated":
        return json.dumps(draw(mutated(base)))
    if kind == "random":
        return json.dumps(draw(json_values))
    text = json.dumps(base)
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:cut] + draw(st.text(alphabet='{}[]:,"0123456789-.eE x', max_size=4))


def _text_of(items, sep):
    return sep.join(str(v) for v in items)


words = st.one_of(
    st.builds(_text_of, st.lists(st.integers(min_value=-2, max_value=12), max_size=12), st.sampled_from((" ", ","))),
    st.builds(_text_of, st.lists(st.integers(min_value=1, max_value=40), max_size=3), st.just(" ")),
    st.text(alphabet="0123456789 ,-+x.", max_size=10),
)


@st.composite
def perms(draw, max_rank):
    """A permutation of rank at most ``max_rank``, sometimes broken."""
    p = list(draw(st.permutations(range(1, draw(st.integers(min_value=0, max_value=max_rank)) + 1))))
    if p and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(p) - 1))
        if draw(st.booleans()):
            p[i] = draw(st.integers(min_value=-2, max_value=max_rank + 2))
        else:
            del p[i]
    return _text_of(p, draw(st.sampled_from((" ", ","))))


ranks = st.integers(min_value=-2, max_value=12)
rank_flag = st.one_of(st.just([]), st.builds(lambda n: ["--n", str(n)], st.integers(min_value=-2, max_value=40)))
diagram_inputs = st.one_of(json_text(DIAGRAM), words)


def _cmd(*parts):
    return st.tuples(*parts).map(lambda t: [x for part in t for x in (part if isinstance(part, list) else [part])])


# Ranks stay where a valid request takes milliseconds (green and gram
# below 7); the ranks over each cap are refused up front.
OVER_CAP_PERM = " ".join(str(v) for v in range(1025, 0, -1))
argvs = st.one_of(
    _cmd(st.just("normalize"), words, rank_flag),
    _cmd(st.just("multiply"), st.just("generic"), words, words, rank_flag),
    _cmd(st.just("multiply"), st.just("generic"), json_text(ELEMENT), json_text(ELEMENT)),
    _cmd(st.just("multiply"), st.sampled_from(("y1", "monoid")), diagram_inputs, diagram_inputs, rank_flag),
    _cmd(st.just("rs"), st.one_of(perms(8), st.just(OVER_CAP_PERM))),
    _cmd(st.just("rs-inverse"), json_text(RS)),
    _cmd(st.just("factorize"), st.one_of(perms(8), st.just(OVER_CAP_PERM))),
    _cmd(st.just("render"), st.just("diagram"), st.just("--format"), st.sampled_from(("svg", "tikz")),
         st.just("--input"), json_text(DIAGRAM)),
    _cmd(st.just("render"), st.just("half"), st.just("--format"), st.sampled_from(("svg", "tikz")),
         st.just("--input"), json_text(HALF)),
    _cmd(st.just("render"), st.sampled_from(("dominance", "yfs")), st.just("--format"), st.just("svg"),
         st.one_of(st.just([]), st.builds(lambda n: ["--n", str(n)], st.sampled_from((-1, 0, 3, 9, 17, 10**6))))),
    _cmd(st.just("green"), st.just("--n"), st.sampled_from(("-1", "0", "3", "9", "11"))),
    _cmd(st.just("gram"), st.just("--n"), st.sampled_from(("-1", "0", "4", "9")), st.just("--set"), words),
    _cmd(st.just("enumerate"), st.just("half"), st.just("--n"), ranks.map(str), st.just("--set"), words,
         st.just("--count-only")),
)


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_any_input_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("")):  # an argument "-" reads stdin
        rc = main(argv, stdout=out, stderr=err)
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc:
        assert out.getvalue() == "", argv
