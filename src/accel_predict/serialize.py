"""File formats: layer/hardware/mapping JSON, canonical JSON output, CSV.

Output JSON is byte-stable: insertion-ordered keys and floats printed
with 17 significant digits, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from math import isfinite
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dsl import lower, parse
from .errors import ConfigError
from .loopnest import LoopLevel, LoopNest, RefreshLocations, assemble_mapping
from .model import (
    DIMS,
    KINDS,
    LEVELS_OUTER_FIRST,
    UNBOUNDED,
    HardwareConfig,
    LayerShape,
    MemLevel,
    Precision,
    UnitCosts,
    _per_kind,
    int_field,
)

_LEVEL_BY_LABEL = {lvl.label: lvl for lvl in MemLevel}
_KIND_BY_LABEL = {str(k): k for k in KINDS}
# bound once: reading a member off an Enum class runs EnumType's slow hook
_NOC = MemLevel.NOC
_REFRESH_LEVELS = {"GB": MemLevel.GB, "RF": MemLevel.RF}


def canonical_json(obj) -> str:
    """Deterministic JSON text; floats use 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out) + "\n"


# '"key": ' per str key: reports repeat a few dozen keys, and the cache stops
# growing at the bound
_KEY_TEXT: dict[str, str] = {}
_KEY_TEXT_BOUND = 4096


def _key_text(key: str) -> str:
    text = encode_basestring_ascii(key) + ": "
    if len(_KEY_TEXT) < _KEY_TEXT_BOUND:
        _KEY_TEXT[key] = text
    return text


def _write_json(obj, out: list[str]) -> None:
    """Append one value as JSON text. Each test tries the exact type before
    isinstance (an exact dict skips them), keeping the precedence of
    subclasses (IntEnum prints as int) and Mappings; a dict writes its
    exact-type int, float and str values itself."""
    t = type(obj)
    if obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is int or t is not dict and isinstance(obj, int):
        out.append(str(obj))
    elif t is float or t is not dict and isinstance(obj, float):
        if not isfinite(obj):
            raise ConfigError(f"cannot serialize non-finite number {obj}")
        out.append(f"{obj:.17g}")
    elif t is str or t is not dict and isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif t is dict or isinstance(obj, Mapping):
        # each item ends in ", ", and the last one's becomes the closing brace
        out.append("{")
        for k, v in obj.items():
            out.append((_KEY_TEXT.get(k) or _key_text(k)) if type(k) is str
                       else encode_basestring_ascii(str(k)) + ": ")
            t = type(v)
            if t is float and isfinite(v):
                out.append(f"{v:.17g}")
            elif t is int:
                out.append(str(v))
            elif t is str:
                out.append(encode_basestring_ascii(v))
            else:
                _write_json(v, out)
            out.append(", ")
        out[-1] = "}" if out[-1] == ", " else "{}"
    elif t is list or t is tuple or isinstance(obj, (list, tuple)):
        out.append("[" + ", ".join([canonical_json(v)[:-1] for v in obj]) + "]")
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def _float_field(raw, path: str) -> float:
    """A JSON number as a float; bools and strings are rejected, not
    coerced. NaN passes here and is refused by the HardwareConfig
    constructor."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    return float(raw)


def _object(data, path: str, known) -> Mapping:
    """A JSON object whose keys all lie in `known`."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return data


# ---------------------------------------------------------------- layers

_LAYER_KEYS = {*DIMS, "stride", "name"}


def layer_from_json(data: Mapping) -> LayerShape:
    _object(data, "layer JSON", _LAYER_KEYS)
    missing = set(DIMS) - set(data)
    if missing:
        raise ConfigError(f"layer JSON: missing keys {sorted(missing)}")
    fields = {
        key: int_field(data[key], f"layer JSON: {key}")
        for key in (*DIMS, "stride")
        if key in data
    }
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ConfigError(f"layer JSON: name: expected a string, got {name!r}")
    return LayerShape(**fields, name=name)


def layer_to_json(layer: LayerShape) -> dict:
    return {
        "name": layer.name,
        "m": layer.m,
        "c": layer.c,
        "r": layer.r,
        "s": layer.s,
        "e": layer.e,
        "f": layer.f,
        "stride": layer.stride,
    }


# -------------------------------------------------------------- hardware


def _bw_value(raw, path: str) -> float:
    if raw == "unbounded":
        return UNBOUNDED
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise ConfigError(f'{path}: expected a number or "unbounded"')


def _per_kind_map(raw, path: str, convert) -> dict | float | int:
    """One shared value, or a map giving exactly one value per data kind."""
    if not isinstance(raw, Mapping):
        return convert(raw, path)
    out = {}
    for key, value in raw.items():
        kind = _KIND_BY_LABEL.get(key)
        if kind is None:
            raise ConfigError(f"{path}: unknown data kind {key!r}")
        out[kind] = convert(value, f"{path}[{key}]")
    missing = [str(k) for k in KINDS if k not in out]
    if missing:
        raise ConfigError(f"{path}: missing data kinds {missing}")
    return out


def hardware_from_json(data: Mapping) -> HardwareConfig:
    known = {
        "pe_rows",
        "pe_cols",
        "capacity",
        "bw",
        "buffering_factor",
        "unit_costs",
        "precision",
        "description",
    }
    _object(data, "hardware JSON", known)
    for key in ("pe_rows", "pe_cols", "capacity", "bw"):
        if key not in data:
            raise ConfigError(f"hardware JSON: missing key {key!r}")

    cap = _object(data["capacity"], "capacity", ("GB", "RF"))
    if not {"GB", "RF"} <= set(cap):
        raise ConfigError('hardware JSON: capacity needs "GB" and "RF"')
    bw = _object(data["bw"], "bw", ("DRAM", "GB", "RF"))
    if not {"DRAM", "GB", "RF"} <= set(bw):
        raise ConfigError('hardware JSON: bw needs "DRAM", "GB" and "RF"')

    uc_data = _object(
        data.get("unit_costs", {}),
        "unit_costs",
        ("e_mac", "e_access", "t_comp", "clock_hz"),
    )
    e_access = {
        _LEVEL_BY_LABEL[label]: _per_kind(_per_kind_map(
            per_kind, f"unit_costs.e_access[{label}]", _float_field
        ))
        for label, per_kind in _object(
            uc_data.get("e_access", {}), "unit_costs.e_access", _LEVEL_BY_LABEL
        ).items()
    }
    unit_costs = UnitCosts(
        e_mac=_float_field(uc_data.get("e_mac", 0.0), "unit_costs.e_mac"),
        e_access=e_access,
        **{
            key: _float_field(uc_data[key], f"unit_costs.{key}")
            for key in ("t_comp", "clock_hz")
            if key in uc_data
        },
    )
    prec_data = _object(
        data.get("precision", {}),
        "precision",
        ("bits_input", "bits_output", "bits_weight"),
    )
    precision = Precision(**{
        key: int_field(value, f"precision.{key}")
        for key, value in prec_data.items()
    })
    return HardwareConfig(
        pe_rows=int_field(data["pe_rows"], "pe_rows"),
        pe_cols=int_field(data["pe_cols"], "pe_cols"),
        capacity_gb=_per_kind_map(cap["GB"], "capacity[GB]", int_field),
        capacity_rf=_per_kind_map(cap["RF"], "capacity[RF]", int_field),
        bw_dram=_bw_value(bw["DRAM"], "bw[DRAM]"),
        bw_gb=_per_kind_map(bw["GB"], "bw[GB]", _bw_value),
        bw_rf=_per_kind_map(bw["RF"], "bw[RF]", _bw_value),
        unit_costs=unit_costs,
        precision=precision,
        buffering_factor=int_field(
            data.get("buffering_factor", 1), "buffering_factor"
        ),
    )


def _per_kind_json(value):
    """A shared or per-kind value as hardware JSON; math.inf is "unbounded"."""
    if isinstance(value, Mapping):
        return {str(k): _per_kind_json(v) for k, v in value.items()}
    return "unbounded" if value == UNBOUNDED else value


def hardware_to_json(hw: HardwareConfig) -> dict:
    uc = hw.unit_costs
    out = {
        "pe_rows": hw.pe_rows,
        "pe_cols": hw.pe_cols,
        "capacity": {
            "GB": _per_kind_json(hw.capacity_gb),
            "RF": _per_kind_json(hw.capacity_rf),
        },
        "bw": {
            "DRAM": _per_kind_json(hw.bw_dram),
            "GB": _per_kind_json(hw.bw_gb),
            "RF": _per_kind_json(hw.bw_rf),
        },
        "buffering_factor": hw.buffering_factor,
        "unit_costs": {
            "e_mac": uc.e_mac,
            "e_access": {
                lvl.label: {str(k): uc.access(lvl, k) for k in KINDS}
                for lvl in LEVELS_OUTER_FIRST
            },
        },
        "precision": {
            "bits_input": hw.precision.bits_input,
            "bits_output": hw.precision.bits_output,
            "bits_weight": hw.precision.bits_weight,
        },
    }
    if uc.t_comp is not None:
        out["unit_costs"]["t_comp"] = uc.t_comp
    if uc.clock_hz is not None:
        out["unit_costs"]["clock_hz"] = uc.clock_hz
    return out


# -------------------------------------------------------------- mappings


def mapping_from_json(data: Mapping, layer: LayerShape) -> tuple[LoopNest, RefreshLocations]:
    _object(data, "mapping JSON", ("levels", "refresh"))
    if "levels" not in data:
        raise ConfigError('mapping JSON: missing "levels"')
    if not isinstance(data["levels"], list):
        raise ConfigError("levels: expected a list")
    levels = []
    for i, raw in enumerate(data["levels"]):
        path = f"levels[{i}]"
        entry = _object(raw, path, ("dim", "bound", "mem", "spatial"))
        label = entry.get("mem")
        mem = _LEVEL_BY_LABEL.get(label) if isinstance(label, str) else None
        if mem is None:
            raise ConfigError(f"{path}: unknown memory level {label!r}")
        dim = entry.get("dim")
        if dim not in DIMS:
            raise ConfigError(f"{path}: unknown loop dimension {dim!r}")
        bound = int_field(entry.get("bound"), f"{path}.bound")
        if bound < 1:
            raise ConfigError(f"{path}: bound must be an integer >= 1")
        spatial = entry.get("spatial", False)
        if not isinstance(spatial, bool):
            raise ConfigError(f"{path}.spatial: expected a bool, got {spatial!r}")
        if spatial and mem is not _NOC:
            raise ConfigError(f"{path}.spatial: spatial loops are only allowed at NoC")
        levels.append(LoopLevel(dim, bound, mem, spatial))

    given = {}
    per_kind = _object(data.get("refresh", {}), "refresh", _KIND_BY_LABEL)
    for key, raw in per_kind.items():
        for label, pos in _object(raw, f"refresh[{key}]", _REFRESH_LEVELS).items():
            given[(_KIND_BY_LABEL[key], _REFRESH_LEVELS[label])] = int_field(
                pos, f"refresh[{key}][{label}]"
            )
    return assemble_mapping(levels, layer, given)


def mapping_to_json(nest: LoopNest, refresh: RefreshLocations) -> dict:
    return {
        "levels": [
            {
                "dim": lv.dim,
                "bound": lv.bound,
                "mem": lv.mem.label,
                "spatial": lv.spatial,
            }
            for lv in nest.levels
        ],
        "refresh": {
            str(k): {"GB": refresh.gb[k], "RF": refresh.rf[k]} for k in KINDS
        },
    }


# ----------------------------------------------------------------- files


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    # ValueError also covers an integer literal over Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_layer(path: str | Path) -> LayerShape:
    return layer_from_json(_read_json(Path(path)))


def load_hardware(path: str | Path) -> HardwareConfig:
    return hardware_from_json(_read_json(Path(path)))


def load_mapping(path: str | Path, layer: LayerShape) -> tuple[LoopNest, RefreshLocations]:
    path = Path(path)
    if path.suffix == ".dflow":
        return lower(parse(_read_text(path)), layer)
    return mapping_from_json(_read_json(path), layer)


# ------------------------------------------------------------------- CSV


def csv_text(header, rows) -> str:
    """CSV text; a non-string cell prints as canonical JSON prints it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            c if isinstance(c, str) else canonical_json(c)[:-1] for c in row
        ))
    return "\n".join(lines) + "\n"


def report_rows(reports) -> tuple[list[str], list[list]]:
    """CSV header and one row per layer x level x kind: accesses, energy."""
    header = ["layer", "level", "kind", "accesses", "energy_units"]
    return header, [
        [rep.layer.name or "layer", lvl.label, str(k), rep.access[lvl][k],
         rep.energy.by_level_kind[lvl][k]]
        for rep in reports
        for lvl in LEVELS_OUTER_FIRST
        for k in KINDS
    ]
