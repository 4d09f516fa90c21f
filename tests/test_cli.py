"""Command-line interface and file formats."""

import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import types
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accel_predict import (
    ConfigError,
    LayerShape,
    MappingError,
    MemLevel,
    Options,
    SearchSpace,
    build_nest,
    canonical_json,
    canonical_refresh,
    explore,
    hardware_from_json,
    hardware_preset,
    hardware_to_json,
    layer_from_json,
    layer_to_json,
    load_layer,
    load_mapping,
    main,
    mapping_from_json,
    mapping_to_json,
)
import accel_predict.predictor
from accel_predict.cli import build_parser
from accel_predict.model import UNBOUNDED
from accel_predict.serialize import csv_text, report_rows
from tests.test_cli_golden import GOLDEN
from tests.test_model import _hw

GB, RF = MemLevel.GB, MemLevel.RF

NOT_INTEGERS = [12.7, float("nan"), True, "3"]
NOT_NUMBERS = ["1e3", True, "abc", None]


def _set(data, dotted: str, value):
    *parents, last = dotted.split(".")
    for key in parents:
        data = data[int(key) if key.isdigit() else key]
    data[last] = value


# -------------------------------------------------------- canonical JSON


class TestCanonicalJson:
    def test_insertion_order_kept(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}\n'

    def test_float_seventeen_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001\n"
        assert canonical_json(1.0) == "1\n"

    def test_ints_bools_null(self):
        assert canonical_json([1, True, None]) == "[1, true, null]\n"

    def test_nesting(self):
        assert canonical_json({"x": [{"y": 2.5}]}) == '{"x": [{"y": 2.5}]}\n'

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json(float("nan"))
        with pytest.raises(ConfigError):
            canonical_json({"v": float("inf")})

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json({1, 2})

    def test_key_text_cache_is_bounded(self):
        from accel_predict import serialize

        bound = serialize._KEY_TEXT_BOUND
        data = {f"k{i}": i for i in range(bound + 10)}
        assert canonical_json(data) == _reference_json(data)
        assert len(serialize._KEY_TEXT) <= bound


# The writer canonical_json used before it dispatched on exact types,
# kept verbatim as the reference the current writer must reproduce.


def _write_json(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            raise ConfigError(f"cannot serialize non-finite number {obj}")
        out.append(f"{obj:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def _reference_json(obj) -> str:
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out) + "\n"


def _outcome(write, obj):
    """The text `write` gives for obj, or the error it raises."""
    try:
        return write(obj)
    except ConfigError as exc:
        return ("ConfigError", str(exc))


class _Level(int):
    """An int subclass, as IntEnum members are."""


class _Real(float):
    """A float subclass."""


class _Text(str):
    """A str subclass."""


# The writer inlines only a dict's exact-type int, float and str values, so
# the trees mix in subclass leaves and keys (IntEnum members among them).
_subclass_leaves = (
    st.integers().map(_Level) | st.floats().map(_Real) | st.text().map(_Text)
    | st.sampled_from(list(MemLevel))
)
json_keys = st.text() | st.integers() | st.booleans() | _subclass_leaves
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | _subclass_leaves,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(json_keys, inner)
        | st.dictionaries(json_keys, inner).map(types.MappingProxyType)
    ),
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_canonical_json_matches_reference(tree):
    assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(json_keys, _subclass_leaves | st.booleans(), min_size=1))
def test_subclass_dict_values_match_reference(tree):
    # every value is a subclass or a bool, so none is written inline
    assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


@pytest.mark.parametrize("tree", [
    {"level": _Level(3), "real": _Real(0.1), "text": _Text("a\"b"),
     "gb": MemLevel.GB, "yes": True, "no": False},
    {"bad": _Real("nan")},
    {"bad": _Real("-inf"), "late": 1},
    [_Real(2.5), _Level(-4), _Text("x"), MemLevel.RF, True],
    {_Text("k"): {_Level(1): _Real(1e300)}, MemLevel.NOC: [False, None]},
])
def test_subclass_leaves_match_reference(tree):
    assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


@pytest.mark.parametrize("tree", [
    {"big": 2**70, "neg": -(2**64), "zero": -0.0, "tiny": 5e-324,
     "huge": 1e308, "third": 1 / 3},
    [True, False, None, 0, 1, -1],
    {"ключ": "значение", "emoji": "\U0001f600", "ctl": "a\"b\\c\n\t\x00",
     "lone": "\ud800"},
    [{1: "int key"}, {True: "bool key"}, {2.5: "float key"}, {None: "none"}],
    {MemLevel.GB: "enum key", "level": MemLevel.RF, "sub": _Level(7)},
    types.MappingProxyType({"a": types.MappingProxyType({"b": (1, [2.0])})}),
    ((), [], {}, ""),
])
def test_canonical_json_edge_values_match_reference(tree):
    assert canonical_json(tree) == _reference_json(tree)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), {"v": [float("nan")]},
    {1, 2}, b"bytes", object(), {"x": complex(1, 2)},
])
def test_canonical_json_rejects_like_reference(bad):
    with pytest.raises(ConfigError) as exc:
        canonical_json(bad)
    with pytest.raises(ConfigError) as ref:
        _reference_json(bad)
    assert str(exc.value) == str(ref.value)


# ------------------------------------------------------ JSON round trips


class TestLayerJson:
    def test_round_trip(self):
        layer = LayerShape(m=96, c=3, r=11, s=11, e=55, f=55, stride=4,
                           name="CONV1")
        assert layer_from_json(layer_to_json(layer)) == layer

    def test_defaults(self):
        layer = layer_from_json({"m": 1, "c": 1, "r": 1, "s": 1, "e": 1, "f": 1})
        assert layer.stride == 1 and layer.name == ""

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            layer_from_json({"m": 1, "c": 1, "r": 1, "s": 1, "e": 1, "f": 1,
                             "pad": 3})
        assert "pad" in str(exc.value)

    def test_missing_key(self):
        with pytest.raises(ConfigError) as exc:
            layer_from_json({"m": 1, "c": 1})
        assert "missing" in str(exc.value)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("key", ["m", "f", "stride"])
    def test_integer_fields_not_coerced(self, key, value):
        data = {"m": 1, "c": 1, "r": 1, "s": 1, "e": 1, "f": 1}
        data[key] = value
        with pytest.raises(ConfigError) as exc:
            layer_from_json(data)
        assert f"layer JSON: {key}: expected an integer" in str(exc.value)

    @pytest.mark.parametrize("value", [None, 5, {"a": 1}, ["CONV1"]])
    def test_name_not_coerced(self, value):
        data = {"m": 1, "c": 1, "r": 1, "s": 1, "e": 1, "f": 1, "name": value}
        with pytest.raises(ConfigError) as exc:
            layer_from_json(data)
        assert str(exc.value) == (
            f"layer JSON: name: expected a string, got {value!r}"
        )


class TestHardwareJson:
    def test_round_trip(self):
        hw = _hw()
        assert hardware_from_json(hardware_to_json(hw)) == hw

    def test_round_trip_per_kind_values(self):
        from accel_predict import DataKind
        hw = _hw(
            capacity_rf={DataKind.INPUT: 192, DataKind.OUTPUT: 384,
                         DataKind.WEIGHT: 3584},
            bw_gb={DataKind.INPUT: 1e9, DataKind.OUTPUT: 2e9,
                   DataKind.WEIGHT: 3e9},
        )
        assert hardware_from_json(hardware_to_json(hw)) == hw

    def test_unbounded_bandwidth(self):
        hw = _hw(bw_dram=UNBOUNDED)
        data = hardware_to_json(hw)
        assert data["bw"]["DRAM"] == "unbounded"
        assert hardware_from_json(data).bw_dram == UNBOUNDED

    def test_missing_section(self):
        with pytest.raises(ConfigError) as exc:
            hardware_from_json({"pe_rows": 2, "pe_cols": 2})
        assert "capacity" in str(exc.value)

    def test_unknown_key(self):
        data = hardware_to_json(_hw())
        data["frequency"] = 1e9
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert "frequency" in str(exc.value)

    def test_nan_cost_rejected_with_field_path(self):
        data = hardware_to_json(_hw())
        data["unit_costs"]["e_mac"] = float("nan")
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert "unit_costs.e_mac" in str(exc.value)

    def test_capacity_must_be_integer_bits(self):
        data = hardware_to_json(_hw())
        data["capacity"]["GB"] = 1024.5
        with pytest.raises(ConfigError):
            hardware_from_json(data)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("field", [
        "pe_rows", "pe_cols", "buffering_factor", "precision.bits_input",
        "precision.bits_weight",
    ])
    def test_integer_fields_not_coerced(self, field, value):
        data = hardware_to_json(_hw())
        _set(data, field, value)
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert f"{field}: expected an integer" in str(exc.value)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("field, path", [
        ("unit_costs.e_mac", "unit_costs.e_mac"),
        ("unit_costs.t_comp", "unit_costs.t_comp"),
        ("unit_costs.clock_hz", "unit_costs.clock_hz"),
        ("unit_costs.e_access.GB", "unit_costs.e_access[GB]"),
    ])
    def test_float_fields_not_coerced(self, field, path, value):
        data = hardware_to_json(_hw())
        _set(data, field, value)
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert f"{path}: expected a number" in str(exc.value)

    def test_float_fields_accept_json_integers(self):
        data = hardware_to_json(_hw())
        data["unit_costs"]["e_mac"] = 3
        e_mac = hardware_from_json(data).unit_costs.e_mac
        assert e_mac == 3.0 and isinstance(e_mac, float)

    @pytest.mark.parametrize("field", [
        "precision.bits_wieght", "unit_costs.e_mak", "capacity.NoC",
        "bw.NoC", "unit_costs.e_access.L2",
    ])
    def test_unknown_nested_keys_rejected(self, field):
        data = hardware_to_json(_hw())
        _set(data, field, 8)
        section, key = field.rsplit(".", 1)
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert f"{section}: unknown keys ['{key}']" in str(exc.value)

    @pytest.mark.parametrize("field", ["precision", "unit_costs.e_access"])
    def test_nested_section_must_be_object(self, field):
        data = hardware_to_json(_hw())
        _set(data, field, [16, 16, 16])
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert f"{field}: expected an object" in str(exc.value)

    @pytest.mark.parametrize("field, value, message", [
        ("bw.GB", {"I": 1e9, "O": 1e9}, "bw[GB]: missing data kinds ['W']"),
        ("capacity.RF", {"I": 192, "W": 3584},
         "capacity[RF]: missing data kinds ['O']"),
        ("unit_costs.e_access.RF", {"I": 1.0},
         "unit_costs.e_access[RF]: missing data kinds ['O', 'W']"),
    ], ids=["bw", "capacity", "e_access"])
    def test_partial_per_kind_map_rejected(self, field, value, message):
        data = hardware_to_json(_hw())
        _set(data, field, value)
        with pytest.raises(ConfigError) as exc:
            hardware_from_json(data)
        assert message in str(exc.value)


class TestMappingJson:
    def _pair(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=3, f=1)
        nest = build_nest(layer, {
            GB: {"m": 4, "e": 3}, RF: {"c": 2},
        })
        refresh = canonical_refresh(nest, "weight_stationary")
        return layer, nest, refresh

    def test_round_trip(self):
        layer, nest, refresh = self._pair()
        got_nest, got_refresh = mapping_from_json(
            mapping_to_json(nest, refresh), layer
        )
        assert got_nest == nest
        assert got_refresh == refresh

    def test_illegal_refresh_position_rejected(self):
        layer, nest, refresh = self._pair()
        data = mapping_to_json(nest, refresh)
        data["refresh"]["W"]["GB"] = 99
        with pytest.raises(MappingError):
            mapping_from_json(data, layer)

    def test_float_refresh_position_rejected(self):
        layer, nest, refresh = self._pair()
        data = mapping_to_json(nest, refresh)
        data["refresh"]["W"]["GB"] = 1.5
        with pytest.raises(ConfigError) as exc:
            mapping_from_json(data, layer)
        assert "refresh[W][GB]: expected an integer" in str(exc.value)

    def test_missing_levels(self):
        with pytest.raises(ConfigError):
            mapping_from_json({}, LayerShape(m=1, c=1, r=1, s=1, e=1, f=1))

    def test_dflow_suffix_is_parsed_as_text(self, tmp_path):
        layer, nest, refresh = self._pair()
        path = tmp_path / "map.dflow"
        path.write_text("for m in 0..4 @GB\nfor e in 0..3 @GB\nfor c in 0..2 @RF\n")
        got_nest, got_refresh = load_mapping(path, layer)
        assert math.prod(lv.bound for lv in got_nest.levels) == 24

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError) as exc:
            load_mapping(path, LayerShape(m=1, c=1, r=1, s=1, e=1, f=1))
        assert "broken.json" in str(exc.value)


class TestCsv:
    def test_report_csv_rows(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=3, f=1, name="tiny")
        nest = build_nest(layer, {GB: {"m": 4, "e": 3}, RF: {"c": 2}})
        refresh = canonical_refresh(nest, "weight_stationary")
        from accel_predict import predict_layer
        rep = predict_layer(layer, nest, refresh,
                            _hw(capacity_gb=10**9, capacity_rf=10**6))
        text = csv_text(*report_rows([rep]))
        lines = text.strip().split("\n")
        assert lines[0] == "layer,level,kind,accesses,energy_units"
        assert len(lines) == 1 + 12  # 4 levels x 3 kinds
        assert all(line.startswith("tiny,") for line in lines[1:])


# ------------------------------------------------------------------ CLI


@pytest.fixture
def files(tmp_path):
    layer = tmp_path / "layer.json"
    layer.write_text(json.dumps({
        "name": "tiny", "m": 4, "c": 2, "r": 1, "s": 1, "e": 3, "f": 1,
        "stride": 1,
    }))
    hw = tmp_path / "hw.json"
    hw.write_text(json.dumps({
        "pe_rows": 2, "pe_cols": 3,
        "capacity": {"GB": 10**9, "RF": 10**6},
        "bw": {"DRAM": 1e9, "GB": 2e9, "RF": 4e9},
        "unit_costs": {
            "e_mac": 1.0,
            "e_access": {"DRAM": 200.0, "GB": 6.0, "NoC": 2.0, "RF": 1.0},
            "t_comp": 1e-9,
        },
    }))
    mapping = tmp_path / "map.dflow"
    mapping.write_text(
        "for m in 0..4 @GB\nfor e in 0..3 @GB\nparallel-for c in 0..2 @NoC\n"
    )
    return {"layer": str(layer), "hw": str(hw), "mapping": str(mapping),
            "dir": tmp_path}


def run(args):
    return main(args)


class TestPredictCommand:
    def test_json_exit_zero_and_stable_bytes(self, files, capsys):
        args = ["predict", "--layer", files["layer"], "--hw", files["hw"],
                "--mapping", files["mapping"], "--format", "json"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["layer"]["name"] == "tiny"
        assert "energy_units" in data and "latency_s" in data
        assert "throughput_gops" in data

    def test_csv(self, files, capsys):
        assert run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "layer,level,kind,accesses,energy_units"
        assert len(lines) == 13

    def test_table(self, files, capsys):
        assert run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"]]) == 0
        out = capsys.readouterr().out
        assert "GOPS" in out and "tiny" in out

    def test_output_file(self, files, capsys):
        dest = files["dir"] / "out.json"
        assert run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"], "--format", "json",
                    "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["layer"]["name"] == "tiny"

    def test_missing_file_exits_two(self, files, capsys):
        code = run(["predict", "--layer", "/no/such/layer.json",
                    "--hw", files["hw"], "--mapping", files["mapping"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/such/layer.json" in err

    def test_model_flags_change_the_numbers(self, files, capsys):
        base = ["predict", "--layer", files["layer"], "--hw", files["hw"],
                "--mapping", files["mapping"], "--format", "json"]
        run(base)
        plain = json.loads(capsys.readouterr().out)
        run(base + ["--literal-eq8"])
        literal = json.loads(capsys.readouterr().out)
        assert literal["latency_s"]["comp"] > plain["latency_s"]["comp"]
        run(base + ["--psum-rw-factor", "4"])
        psum4 = json.loads(capsys.readouterr().out)
        assert psum4["model_notes"]["psum_rw_factor"] == 4

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "0.5"])
    def test_psum_factor_out_of_range_exits_two(self, files, capsys, value):
        assert run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"],
                    "--psum-rw-factor", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: psum_rw_factor: must be a finite number >= 1, "
            f"got {float(value)!r}\n"
        )

    @pytest.mark.parametrize("key, rule", [
        ("e_mac", "must be finite and >= 0"),
        ("t_comp", "must be finite and > 0"),
    ])
    def test_infinite_cost_exits_two(self, files, capsys, key, rule):
        hw = Path(files["hw"])
        data = json.loads(hw.read_text())
        data["unit_costs"][key] = math.inf
        hw.write_text(json.dumps(data))  # written as Infinity
        assert run(["predict", "--layer", files["layer"], "--hw", str(hw),
                    "--mapping", files["mapping"]]) == 2
        assert capsys.readouterr().err == (
            f"error: hardware: unit_costs.{key}: {rule}\n"
        )

    def test_preset_round(self, capsys):
        assert run(["predict", "--layer", "preset:alexnet_conv1",
                    "--hw", "preset:eyeriss_normalized",
                    "--mapping", "preset:row_stationary",
                    "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_mac"] == 105_415_200

    def test_network_preset_fans_out(self, capsys):
        assert run(["predict", "--layer", "preset:alexnet_conv",
                    "--hw", "preset:eyeriss_normalized",
                    "--mapping", "preset:row_stationary"]) == 0
        out = capsys.readouterr().out
        assert out.count("CONV") == 5
        assert "total:" in out

    def test_network_with_mapping_file_rejected(self, files, capsys):
        code = run(["predict", "--layer", "preset:alexnet_conv",
                    "--hw", files["hw"], "--mapping", files["mapping"]])
        assert code == 2
        assert "network" in capsys.readouterr().err


    def test_nan_hardware_exits_two(self, files, capsys):
        data = json.loads((files["dir"] / "hw.json").read_text())
        data["unit_costs"]["e_mac"] = float("nan")
        nan_hw = files["dir"] / "nan.json"
        nan_hw.write_text(json.dumps(data))  # writes the NaN literal
        code = run(["predict", "--layer", files["layer"], "--hw", str(nan_hw),
                    "--mapping", files["mapping"]])
        assert code == 2
        assert "unit_costs.e_mac" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, path", [
        ("pe_rows", float("nan"), "pe_rows"),
        ("bw.GB", {"I": 2e9, "O": 2e9}, "bw[GB]"),
        ("unit_costs.e_mac", "abc", "unit_costs.e_mac"),
        ("unit_costs.e_mak", 1.0, "unit_costs: unknown keys"),
    ], ids=["nan-pe_rows", "partial-bw", "str-e_mac", "unknown-unit-cost"])
    def test_malformed_hardware_exits_two(self, files, capsys, field, value,
                                          path):
        data = json.loads((files["dir"] / "hw.json").read_text())
        _set(data, field, value)
        bad_hw = files["dir"] / "bad.json"
        bad_hw.write_text(json.dumps(data))
        code = run(["predict", "--layer", files["layer"], "--hw", str(bad_hw),
                    "--mapping", files["mapping"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err

    @pytest.mark.parametrize("field, value, message", [
        ("levels", "ab", "levels: expected a list"),
        ("levels", [5], "levels[0]: expected an object"),
        ("levels.0.bogus", 1, "levels[0]: unknown keys ['bogus']"),
        ("levels.0.dim", 5, "levels[0]: unknown loop dimension 5"),
        ("levels.0.bound", True, "levels[0].bound: expected an integer"),
        ("levels.2.spatial", "no", "levels[2].spatial: expected a bool"),
        ("levels.0.spatial", True,
         "levels[0].spatial: spatial loops are only allowed at NoC"),
        ("refresh.I", 3, "refresh[I]: expected an object"),
        ("refresh.W.NoC", 1, "refresh[W]: unknown keys ['NoC']"),
    ], ids=["str-levels", "int-entry", "unknown-entry-key", "int-dim",
            "bool-bound", "str-spatial", "gb-spatial", "int-refresh",
            "unknown-refresh-level"])
    def test_malformed_mapping_exits_two(self, files, capsys, field, value,
                                         message):
        data = mapping_to_json(
            *load_mapping(files["mapping"], load_layer(files["layer"]))
        )
        _set(data, field, value)
        bad_mapping = files["dir"] / "bad_map.json"
        bad_mapping.write_text(json.dumps(data))
        code = run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", str(bad_mapping)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_overflow_message_is_the_same_in_every_process(self, files):
        # The weight tile overflows: 2^40 * 2^30 * 3 * 2^20 = 3 * 2^90.
        dims = {"m": 2**40, "c": 2**30, "r": 3, "s": 2**20, "e": 1, "f": 1}
        layer = files["dir"] / "huge.json"
        layer.write_text(json.dumps({"name": "huge", **dims, "stride": 1}))
        mapping = files["dir"] / "huge_map.json"
        mapping.write_text(json.dumps({"levels": [
            {"dim": d, "bound": b, "mem": "RF"} for d, b in dims.items()
        ]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        errors = set()
        for seed in range(5):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-m", "accel_predict", "predict",
                 "--layer", str(layer), "--hw", files["hw"],
                 "--mapping", str(mapping)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2, proc.stderr
            errors.add(proc.stderr)
        assert errors == {
            "error: count 3713820117856140824697372672 exceeds 2^63-1\n"
        }


class TestUnreadableInputExitsTwo:
    """Inputs Python cannot decode or convert; each exited 1 with a
    traceback before they were mapped to ConfigError or DslError."""

    @pytest.mark.parametrize("flag", ["--layer", "--hw", "--mapping"])
    def test_predict_input_not_utf8(self, files, capsys, flag):
        name = "bad.dflow" if flag == "--mapping" else "bad.json"
        bad = files["dir"] / name
        bad.write_bytes(b"\xff\xfe{}")
        args = {"--layer": files["layer"], "--hw": files["hw"],
                "--mapping": files["mapping"], flag: str(bad)}
        assert run(["predict", *itertools.chain(*args.items())]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_fmt_input_not_utf8(self, files, capsys):
        bad = files["dir"] / "bad.dflow"
        bad.write_bytes(b"\xff\xfefor m in 0..4 @GB\n")
        assert run(["fmt", str(bad)]) == 2
        assert f"error: cannot read {bad}: 'utf-8' codec" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("text, reason", [
        ('{"m": 1' + "0" * 4_300 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["4301-digit-int", "nested-100000-deep"])
    def test_json_python_cannot_load(self, files, capsys, text, reason):
        bad = files["dir"] / "bad.json"
        bad.write_text(text)
        assert run(["predict", "--layer", str(bad), "--hw", files["hw"],
                    "--mapping", files["mapping"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON: ")
        assert reason in err

    def test_dflow_bound_python_cannot_convert(self, files, capsys):
        fits = files["dir"] / "fits.dflow"
        fits.write_text("for m in 0.." + "9" * 4_300 + " @GB\n")
        assert run(["fmt", str(fits)]) == 0
        assert capsys.readouterr().out == fits.read_text()
        over = files["dir"] / "over.dflow"
        over.write_text("for m in 0..4 @GB\n  for c in 0.." + "9" * 4_301
                        + " @RF\n")
        assert run(["fmt", str(over)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2, column 15: loop bound of 4301 digits is too long "
            "to read\n"
        )


class TestCheckCommand:
    def test_match_exits_zero(self, files, capsys):
        assert run(["check", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"]]) == 0
        assert "match" in capsys.readouterr().out

    def test_csv_rows(self, files, capsys):
        assert run(["check", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "metric,level,kind,analytic,oracle,ok"
        assert len(lines) == 1 + 12 + 6  # element cells + refresh cells
        assert all(line.endswith(",true") for line in lines[1:])

    def test_mismatch_exits_three(self, files, capsys, monkeypatch):
        true_counts = accel_predict.predictor.access_counts

        def skewed(plan, options=Options()):
            counts = true_counts(plan, options)
            counts[GB][next(iter(counts[GB]))] += 1
            return counts

        monkeypatch.setattr(
            accel_predict.predictor, "access_counts", skewed
        )
        code = run(["check", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"]])
        assert code == 3
        assert "MISMATCH" in capsys.readouterr().out

    def test_cap_exits_two(self, files, capsys):
        code = run(["check", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"], "--cap", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidateCommand:
    def test_legal(self, files, capsys):
        assert run(["validate", "--layer", files["layer"],
                    "--hw", files["hw"], "--mapping", files["mapping"]]) == 0
        assert "legal" in capsys.readouterr().out

    def test_illegal_exits_two_and_lists_violations(self, files, capsys):
        tight = files["dir"] / "tight.json"
        data = json.loads((files["dir"] / "hw.json").read_text())
        data["capacity"]["RF"] = 1
        tight.write_text(json.dumps(data))
        code = run(["validate", "--layer", files["layer"], "--hw", str(tight),
                    "--mapping", files["mapping"]])
        assert code == 2
        assert "capacity_rf" in capsys.readouterr().out


class TestExploreCommand:
    def test_matches_library_result(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--levels", "GB,RF", "--top", "3",
                    "--format", "json"]) == 0
        out = capsys.readouterr().out

        from accel_predict import load_hardware, load_layer
        space = SearchSpace(
            hw=load_hardware(files["hw"]), levels=(GB, RF),
        )
        expect = explore(space, load_layer(files["layer"]), top_k=3)
        assert out == canonical_json(expect.to_dict())

    def test_levels_in_any_order(self, files, capsys):
        outs = []
        for levels in ("RF,GB", "GB,RF"):
            assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                        "--levels", levels, "--strategy", "random",
                        "--samples", "7", "--seed", "3", "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_table_shows_best_mapping(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--levels", "GB,RF", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "best mapping:" in out
        assert "space: 24 candidates" in out

    def test_unknown_refresh_style_exits_two(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--strategy", "random", "--samples", "1", "--seed", "0",
                    "--styles", "weight_stationary,bogus"]) == 2
        assert "unknown refresh style 'bogus'" in capsys.readouterr().err

    def test_repeated_refresh_style_exits_two(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--styles", "output_stationary,output_stationary"]) == 2
        assert "refresh styles must be distinct" in capsys.readouterr().err

    def test_bad_level_name(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--levels", "GB,L2"]) == 2
        assert "L2" in capsys.readouterr().err

    def test_allow_nondivisor(self, files, capsys):
        assert run(["explore", "--layer", files["layer"], "--hw", files["hw"],
                    "--levels", "GB,RF", "--allow-nondivisor"]) == 0
        # e = 3 gains the padded cover 2 x 2: 36 candidates, not 24
        assert "space: 36 candidates" in capsys.readouterr().out
        conv2 = ["explore", "--layer", "preset:alexnet_conv2",
                 "--hw", "preset:eyeriss_normalized", "--allow-nondivisor"]
        assert run(conv2) == 2
        assert "space has 1974414700800 candidates" in capsys.readouterr().err
        assert run([*conv2, "--strategy", "random", "--samples", "50",
                    "--seed", "0"]) == 0


class TestFmtCommand:
    def test_canonicalizes_and_is_idempotent(self, files, capsys):
        messy = files["dir"] / "messy.dflow"
        messy.write_text("FOR M IN 0..4 @gb # outer\n   for c in 0..2 @RF")
        assert run(["fmt", str(messy)]) == 0
        once = capsys.readouterr().out
        assert once == "for m in 0..4 @GB\n  for c in 0..2 @RF\n"
        clean = files["dir"] / "clean.dflow"
        clean.write_text(once)
        assert run(["fmt", str(clean)]) == 0
        assert capsys.readouterr().out == once

    def test_parse_error_exits_two_with_position(self, files, capsys):
        bad = files["dir"] / "bad.dflow"
        bad.write_text("for m in 0..4 @GB\nfor q in 0..2 @RF\n")
        assert run(["fmt", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'q'" in err


class TestPresetsCommand:
    def test_table_lists_known_names(self, capsys):
        assert run(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("eyeriss_normalized", "alexnet_conv", "row_stationary"):
            assert name in out

    def test_json_categories(self, capsys):
        assert run(["presets", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"hardware", "networks", "layers", "mappings"}


class TestHugeUnitCosts:
    """conv3 on row_stationary with `e_mac` near the largest float."""

    def _predict(self, tmp_path, e_mac, fmt):
        data = hardware_to_json(hardware_preset("eyeriss_normalized"))
        data["unit_costs"]["e_mac"] = e_mac
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(data))
        return run(["predict", "--layer", "preset:alexnet_conv3",
                    "--hw", str(hw), "--mapping", "preset:row_stationary",
                    "--format", fmt])

    def test_finite_energy_prints_finite_shares_in_every_format(
        self, tmp_path, capsys
    ):
        outs = {}
        for fmt in ("table", "json", "csv"):
            assert self._predict(tmp_path, 1e300, fmt) == 0, fmt
            outs[fmt] = capsys.readouterr().out
            assert "inf" not in outs[fmt] and "nan" not in outs[fmt], fmt
        shares = json.loads(outs["json"])["onchip_breakdown_pct"]
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_energy_past_the_float_range_exits_two_in_every_format(
        self, tmp_path, capsys
    ):
        for fmt in ("table", "json", "csv"):
            assert self._predict(tmp_path, 1.7e308, fmt) == 2, fmt
            err = capsys.readouterr().err
            assert "energy: the comp term exceeds the largest float" in err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("command, flag, value", [
        ("explore", "--samples", "-3"),
        ("explore", "--top", "0"),
        ("explore", "--beam-width", "-1"),
        ("explore", "--cap", "-1"),
        ("check", "--cap", "-5"),
        ("check", "--cap", "1e9"),
    ])
    def test_count_flags_below_one_exit_two_naming_the_flag(
        self, files, capsys, command, flag, value
    ):
        args = [command, "--layer", files["layer"], "--hw", files["hw"],
                flag, value]
        if command == "check":
            args += ["--mapping", files["mapping"]]
        else:
            args += ["--strategy", "random"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 1, got '{value}'" in err

    def test_no_command_exits_two(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_exits_two(self, files, capsys):
        assert run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"], "--turbo"]) == 2

    def test_internal_error_exits_one(self, files, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("accel_predict.cli.predict_layer", boom)
        code = run(["predict", "--layer", files["layer"], "--hw", files["hw"],
                    "--mapping", files["mapping"]])
        assert code == 1
        assert "wires crossed" in capsys.readouterr().err


class TestLayerHelp:
    HELP = "layer JSON path or preset:NAME"

    def test_only_predict_says_a_network_fans_out(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {
            name: action.help
            for name, p in sub.choices.items()
            for action in p._actions if "--layer" in action.option_strings
        }
        assert helps == {
            "predict": f"{self.HELP} (a network preset fans out)",
            **{name: f"{self.HELP} (one layer, not a network)"
               for name in ("check", "explore", "validate")},
        }

    @pytest.mark.parametrize("command", ["check", "explore", "validate"])
    def test_single_layer_commands_refuse_a_network(self, command, capsys):
        args = [command, "--layer", "preset:alexnet_conv",
                "--hw", "preset:eyeriss_normalized"]
        if command != "explore":
            args += ["--mapping", "preset:row_stationary"]
        assert run(args) == 2
        assert "runs on a single layer, not a network" in capsys.readouterr().err


class TestColdStart:
    """What a fresh interpreter imports, run in a subprocess each."""

    SEARCH = ("accel_predict.explore", "accel_predict.oracle")

    def _python(self, code: str, *flags: str) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_loads_neither_search_nor_oracle(self):
        out = self._python(
            "import sys, accel_predict\n"
            f"print([m for m in {self.SEARCH!r} if m in sys.modules])\n"
            "print(all(hasattr(accel_predict, n) for n in accel_predict.__all__))\n"
            f"print([m for m in {self.SEARCH!r} if m in sys.modules])\n"
        )
        assert out == "[]\nTrue\n['accel_predict.explore', 'accel_predict.oracle']\n"

    def test_predict_loads_neither_and_prints_the_same_json(self):
        out = self._python(
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from accel_predict import cli\n"
            "buf = io.StringIO()\n"
            "with redirect_stdout(buf):\n"
            "    code = cli.main(['predict', '--layer', 'preset:alexnet_conv',\n"
            "                     '--hw', 'preset:eyeriss_normalized',\n"
            "                     '--mapping', 'preset:row_stationary',\n"
            "                     '--format', 'json'])\n"
            f"print(code, [m for m in {self.SEARCH!r} if m in sys.modules])\n"
            "sys.stdout.write(buf.getvalue())\n"
        )
        status, text = out.split("\n", 1)
        assert status == "0 []"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            GOLDEN["predict-net.json"][1]
        )

    def test_the_explore_function_survives_its_module_loading_first(self):
        out = self._python(
            "import accel_predict.explore as first\n"
            "from accel_predict.explore import SearchSpace\n"
            "import accel_predict\n"
            "from accel_predict import explore\n"
            "print(callable(first), explore is accel_predict.explore,\n"
            "      callable(explore), SearchSpace is accel_predict.SearchSpace)\n"
        )
        assert out == "True True True True\n"

    def test_submodules_still_resolve_as_attributes(self):
        out = self._python(
            "import accel_predict as ap\n"
            "print(ap.oracle.DEFAULT_CAP, ap.presets.NETWORK_PRESETS,\n"
            "      ap.cli.main is ap.main)\n"
        )
        assert out == "10000000 ('alexnet_conv',) True\n"

    def test_a_preset_loads_no_zipfile(self):
        # -S: without site, nothing has imported zipfile or the resource
        # readers before the package does
        out = self._python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "from accel_predict import hardware_preset\n"
            "hardware_preset('eyeriss_normalized')\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m == 'zipfile' or m.startswith('importlib.re')))\n",
            "-S",
        )
        assert out == "[]\n"
