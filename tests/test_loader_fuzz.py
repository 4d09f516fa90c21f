"""Loader fuzz: every input loader, given an arbitrary JSON-shaped value
or arbitrary text, returns a valid object or raises a PredictorError,
never anything else.

Most inputs start from a valid document and are mutated: subtrees
replaced by arbitrary JSON values, keys dropped or added, lines of text
dropped, duplicated, re-indented or with a word swapped. That reaches the
checks deep inside a document, which a wholly random value rarely passes
the first of. A loaded object must also survive its writer: written out
and loaded again, it gives the same object.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accel_predict import (
    HardwareConfig,
    LayerShape,
    PredictorError,
    hardware_from_json,
    hardware_preset,
    hardware_to_json,
    layer_from_json,
    layer_to_json,
    lower,
    mapping_from_json,
    mapping_to_json,
    parse,
    render,
    validate_structure,
)
from tests.test_model import _hw
from tests.test_oracle import legal_instances

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# the words the loaders look for, so a drawn key or value sometimes hits one
_VOCABULARY = [
    "name", "m", "c", "r", "s", "e", "f", "stride",
    "pe_rows", "pe_cols", "capacity", "bw", "buffering_factor", "unit_costs",
    "precision", "description", "e_mac", "e_access", "t_comp", "clock_hz",
    "bits_input", "bits_output", "bits_weight", "unbounded",
    "levels", "refresh", "dim", "bound", "mem", "spatial",
    "DRAM", "GB", "NoC", "RF", "I", "O", "W",
]
_KEYS = st.sampled_from(_VOCABULARY) | st.text(max_size=4)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 2**70)
    | st.floats()
    | st.sampled_from(_VOCABULARY)
    | st.text(max_size=6)
)
json_values = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10,
)
# what replaces a node: often a value of the wrong type or range
_REPLACEMENTS = st.sampled_from([
    None, True, 0, -1, 1.5, 2**64, math.nan, math.inf, "", "x", [], {}, [1], {"": 0},
]) | json_values


def _leaves(tree, path=()):
    """The path to every leaf of a JSON tree, an empty object or list
    counting as a leaf."""
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ()
    )
    if not items:
        yield path
    for key, value in items:
        yield from _leaves(value, (*path, key))


_DROP = object()


def _edited(tree, path, edit):
    """A copy of `tree` with the node at `path` replaced by edit(node), or
    removed if that returns _DROP."""
    if not path:
        return edit(tree)
    key, rest = path[0], path[1:]
    if isinstance(tree, dict):
        out = dict(tree)
    else:
        out = list(tree)
    new = _edited(tree[key], rest, edit)
    if new is _DROP:
        del out[key]
    else:
        out[key] = new
    return out


@st.composite
def mutated(draw, tree):
    """`tree` after up to three edits, each at a random leaf: the leaf
    replaced by an arbitrary value or dropped, or its parent given one
    more key or item."""
    for _ in range(draw(st.sampled_from((0, 1, 2, 3)))):
        path = draw(st.sampled_from(list(_leaves(tree))))
        if not path:
            break
        op = draw(st.integers(0, 2))
        value = draw(_REPLACEMENTS)
        if op == 0:
            tree = _edited(tree, path, lambda _: value)
        elif op == 1:
            tree = _edited(tree, path, lambda _: _DROP)
        else:
            key = draw(_KEYS)
            tree = _edited(tree, path[:-1], lambda node: (
                {**node, key: value} if isinstance(node, dict) else [*node, value]
            ))
    return tree


def documents(valid):
    """Mutations of the valid documents drawn from `valid`, and arbitrary
    JSON values."""
    return valid.flatmap(mutated) | json_values


def _loads_or_refuses(load, data, write, same=lambda a, b: a == b):
    """load(data), or None if it raised a PredictorError; what it loads,
    written out and loaded again, must be the `same`."""
    try:
        got = load(data)
    except PredictorError:
        return None
    assert same(load(write(got)), got)
    return got


_layers = st.builds(
    LayerShape,
    **{d: st.integers(1, 300) for d in ("m", "c", "r", "s", "e", "f")},
    stride=st.integers(1, 4),
    name=st.text(max_size=5),
)


@FUZZ
@given(documents(_layers.map(layer_to_json)))
def test_layer_json(data):
    got = _loads_or_refuses(layer_from_json, data, layer_to_json)
    assert got is None or isinstance(got, LayerShape)


_hardware = st.sampled_from([
    hardware_to_json(hardware_preset("eyeriss_normalized")),
    hardware_to_json(_hw()),
])


@FUZZ
@given(documents(_hardware))
def test_hardware_json(data):
    # written out, absent unit costs become zeros: compare what each writes
    got = _loads_or_refuses(
        hardware_from_json, data, hardware_to_json,
        lambda a, b: hardware_to_json(a) == hardware_to_json(b),
    )
    assert got is None or isinstance(got, HardwareConfig)


def _mapping_loader(load, layer):
    def loaded(data):
        nest, refresh = load(data, layer)
        assert validate_structure(nest, refresh) == []
        # the loops cover the layer, so the padded MACs are at least its MACs
        assert math.prod(lv.bound for lv in nest.levels) >= math.prod(
            layer.dims().values()
        )
        return nest, refresh
    return loaded


@FUZZ
@given(legal_instances().flatmap(lambda inst: st.tuples(
    st.just(inst[0].layer), documents(st.just(mapping_to_json(*inst[:2])))
)))
def test_mapping_json(case):
    layer, data = case
    _loads_or_refuses(
        _mapping_loader(mapping_from_json, layer), data,
        lambda pair: mapping_to_json(*pair),
    )


_WORDS = st.sampled_from([
    "for", "parallel-for", "refresh", "in", "0..", "0..0", "0..1", "0..3",
    "0..9" * 20, "1..3", "@GB", "@RF", "@NoC", "@DRAM", "@L2", "@", "I", "O",
    "W", "X", "m", "e", "q", "#", "..",
]) | st.text(max_size=5)


@st.composite
def mutated_text(draw, text):
    """`text` with now and then a line dropped, duplicated or re-indented,
    or one of its words swapped for another."""
    lines = []
    for line in text.splitlines():
        op = draw(st.integers(0, 12))
        if op == 0:
            continue
        if op == 1:
            lines.append(line)
        elif op == 2:
            line = " " * draw(st.integers(0, 8)) + line.strip()
        elif op == 3:
            words = line.split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(_WORDS)
            line = " ".join(words)
        lines.append(line)
    return "\n".join(lines)


@FUZZ
@given(legal_instances().flatmap(lambda inst: st.tuples(
    st.just(inst[0].layer),
    mutated_text(render(*inst[:2])) | st.text(max_size=40),
)))
def test_dflow_text(case):
    layer, text = case
    _loads_or_refuses(
        _mapping_loader(lambda t, lay: lower(parse(t), lay), layer), text,
        lambda pair: render(*pair),
    )
