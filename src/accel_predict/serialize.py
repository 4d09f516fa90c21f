"""File formats: layer/hardware/mapping JSON, canonical JSON output, CSV.

Output JSON is byte-stable: insertion-ordered keys and floats printed
with 17 significant digits, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path

from .dsl import lower, parse
from .errors import ConfigError, MappingError
from .loopnest import LoopLevel, LoopNest, RefreshLocations, validate_structure
from .model import (
    KINDS,
    UNBOUNDED,
    DataKind,
    HardwareConfig,
    LayerShape,
    MemLevel,
    Precision,
    UnitCosts,
    validate_hardware,
)

_LEVEL_BY_LABEL = {lvl.label: lvl for lvl in MemLevel}
_KIND_BY_LABEL = {str(k): k for k in KINDS}


def canonical_json(obj) -> str:
    """Deterministic JSON text; floats use 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out) + "\n"


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


# ---------------------------------------------------------------- layers

_LAYER_KEYS = {"m", "c", "r", "s", "e", "f", "stride", "name"}


def layer_from_json(data: Mapping) -> LayerShape:
    unknown = set(data) - _LAYER_KEYS
    if unknown:
        raise ConfigError(f"layer JSON: unknown keys {sorted(unknown)}")
    missing = {"m", "c", "r", "s", "e", "f"} - set(data)
    if missing:
        raise ConfigError(f"layer JSON: missing keys {sorted(missing)}")
    return LayerShape(
        m=int(data["m"]),
        c=int(data["c"]),
        r=int(data["r"]),
        s=int(data["s"]),
        e=int(data["e"]),
        f=int(data["f"]),
        stride=int(data.get("stride", 1)),
        name=str(data.get("name", "")),
    )


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
    if isinstance(raw, Mapping):
        out = {}
        for key, value in raw.items():
            kind = _KIND_BY_LABEL.get(key)
            if kind is None:
                raise ConfigError(f"{path}: unknown data kind {key!r}")
            out[kind] = convert(value, f"{path}[{key}]")
        return out
    return convert(raw, path)


def _capacity_value(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: capacity must be an integer bit count")
    return raw


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
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"hardware JSON: unknown keys {sorted(unknown)}")
    for key in ("pe_rows", "pe_cols", "capacity", "bw"):
        if key not in data:
            raise ConfigError(f"hardware JSON: missing key {key!r}")

    cap = data["capacity"]
    if not isinstance(cap, Mapping) or not {"GB", "RF"} <= set(cap):
        raise ConfigError('hardware JSON: capacity needs "GB" and "RF"')
    bw = data["bw"]
    if not isinstance(bw, Mapping) or not {"DRAM", "GB", "RF"} <= set(bw):
        raise ConfigError('hardware JSON: bw needs "DRAM", "GB" and "RF"')

    uc_data = data.get("unit_costs", {})
    e_access = {}
    for label, per_kind in uc_data.get("e_access", {}).items():
        lvl = _LEVEL_BY_LABEL.get(label)
        if lvl is None:
            raise ConfigError(f"unit_costs.e_access: unknown level {label!r}")
        value = _per_kind_map(
            per_kind,
            f"unit_costs.e_access[{label}]",
            lambda v, p: float(v),
        )
        e_access[lvl] = (
            value if isinstance(value, dict) else {k: value for k in KINDS}
        )
    unit_costs = UnitCosts(
        e_mac=float(uc_data.get("e_mac", 0.0)),
        e_access=e_access,
        t_comp=(
            float(uc_data["t_comp"]) if "t_comp" in uc_data else None
        ),
        clock_hz=(
            float(uc_data["clock_hz"]) if "clock_hz" in uc_data else None
        ),
    )
    prec_data = data.get("precision", {})
    precision = Precision(
        bits_input=int(prec_data.get("bits_input", 16)),
        bits_output=int(prec_data.get("bits_output", 16)),
        bits_weight=int(prec_data.get("bits_weight", 16)),
    )
    hw = HardwareConfig(
        pe_rows=int(data["pe_rows"]),
        pe_cols=int(data["pe_cols"]),
        capacity_gb=_per_kind_map(cap["GB"], "capacity[GB]", _capacity_value),
        capacity_rf=_per_kind_map(cap["RF"], "capacity[RF]", _capacity_value),
        bw_dram=_bw_value(bw["DRAM"], "bw[DRAM]"),
        bw_gb=_per_kind_map(bw["GB"], "bw[GB]", _bw_value),
        bw_rf=_per_kind_map(bw["RF"], "bw[RF]", _bw_value),
        unit_costs=unit_costs,
        precision=precision,
        buffering_factor=int(data.get("buffering_factor", 1)),
    )
    violations = validate_hardware(hw)
    if violations:
        raise ConfigError(
            "hardware JSON: " + "; ".join(str(v) for v in violations)
        )
    return hw


def _bw_json(value):
    if isinstance(value, Mapping):
        return {str(k): _bw_json(v) for k, v in value.items()}
    if math.isinf(value):
        return "unbounded"
    return value


def hardware_to_json(hw: HardwareConfig) -> dict:
    uc = hw.unit_costs
    out = {
        "pe_rows": hw.pe_rows,
        "pe_cols": hw.pe_cols,
        "capacity": {
            "GB": _kindmap_json(hw.capacity_gb),
            "RF": _kindmap_json(hw.capacity_rf),
        },
        "bw": {
            "DRAM": _bw_json(hw.bw_dram),
            "GB": _bw_json(hw.bw_gb),
            "RF": _bw_json(hw.bw_rf),
        },
        "buffering_factor": hw.buffering_factor,
        "unit_costs": {
            "e_mac": uc.e_mac,
            "e_access": {
                lvl.label: {str(k): uc.access(lvl, k) for k in KINDS}
                for lvl in (MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF)
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


def _kindmap_json(value):
    if isinstance(value, Mapping):
        return {str(k): v for k, v in value.items()}
    return value


# -------------------------------------------------------------- mappings


def mapping_from_json(data: Mapping, layer: LayerShape) -> tuple[LoopNest, RefreshLocations]:
    if "levels" not in data:
        raise ConfigError('mapping JSON: missing "levels"')
    levels = []
    for i, entry in enumerate(data["levels"]):
        path = f"levels[{i}]"
        mem = _LEVEL_BY_LABEL.get(entry.get("mem"))
        if mem is None:
            raise ConfigError(f"{path}: unknown memory level {entry.get('mem')!r}")
        dim = entry.get("dim")
        bound = entry.get("bound")
        if not isinstance(bound, int) or bound < 1:
            raise ConfigError(f"{path}: bound must be an integer >= 1")
        levels.append(
            LoopLevel(dim, bound, mem, spatial=bool(entry.get("spatial", False)))
        )
    nest = LoopNest(tuple(levels), layer)

    p_gb = nest.group_start(MemLevel.GB)
    p_rf = nest.group_start(MemLevel.RF)
    gb = {k: p_gb for k in KINDS}
    rf = {k: p_rf for k in KINDS}
    for key, per_mem in data.get("refresh", {}).items():
        kind = _KIND_BY_LABEL.get(key)
        if kind is None:
            raise ConfigError(f"refresh: unknown data kind {key!r}")
        for label, pos in per_mem.items():
            if label == "GB":
                gb[kind] = int(pos)
            elif label == "RF":
                rf[kind] = int(pos)
            else:
                raise ConfigError(f"refresh[{key}]: level must be GB or RF")
    refresh = RefreshLocations(gb=gb, rf=rf)
    violations = validate_structure(nest, refresh)
    if violations:
        raise MappingError(violations)
    return nest, refresh


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
            str(k): {
                "GB": refresh.loc(k, MemLevel.GB),
                "RF": refresh.loc(k, MemLevel.RF),
            }
            for k in KINDS
        },
    }


# ----------------------------------------------------------------- files


def _read_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_layer(path: str | Path) -> LayerShape:
    return layer_from_json(_read_json(Path(path)))


def load_hardware(path: str | Path) -> HardwareConfig:
    return hardware_from_json(_read_json(Path(path)))


def load_mapping(path: str | Path, layer: LayerShape) -> tuple[LoopNest, RefreshLocations]:
    path = Path(path)
    if path.suffix == ".dflow":
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
        return lower(parse(text), layer)
    return mapping_from_json(_read_json(path), layer)


# ------------------------------------------------------------------- CSV

_CSV_LEVELS = (MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF)


def counts_csv(counts_by_layer: Mapping[str, Mapping]) -> str:
    """Access counts as `layer,level,kind,accesses` rows."""
    lines = ["layer,level,kind,accesses"]
    for layer_name, counts in counts_by_layer.items():
        for lvl in _CSV_LEVELS:
            for k in KINDS:
                lines.append(f"{layer_name},{lvl.label},{k},{counts[lvl][k]}")
    return "\n".join(lines) + "\n"


def report_csv(reports) -> str:
    """One row per layer x level x kind with accesses and energy."""
    lines = ["layer,level,kind,accesses,energy_units"]
    for rep in reports:
        name = rep.layer.name or "layer"
        for lvl in _CSV_LEVELS:
            for k in KINDS:
                acc = rep.access[lvl][k]
                en = rep.energy.by_level_kind[lvl][k]
                lines.append(f"{name},{lvl.label},{k},{acc},{en:.17g}")
    return "\n".join(lines) + "\n"
