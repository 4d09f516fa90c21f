"""Bundled example configurations and a reference mapping recipe.

The hardware preset is a normalized 168-PE spatial array; the layer
presets are the AlexNet convolutional layers it is usually exercised
with. The row-stationary recipe reproduces the characteristic mapping
for that pairing: kernel rows and output rows spread across the PE
array, filter rows pinned in the registers, and channel/filter tiles
escalated to DRAM only when the global buffer overflows.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, MappingError, Violation
from .loopnest import (
    LoopNest,
    RefreshLocations,
    build_nest,
    canonical_refresh,
    validate_nest,
)
from .model import KINDS, DataKind, HardwareConfig, LayerShape, MemLevel, Options
from .serialize import hardware_from_json, layer_from_json

HARDWARE_PRESETS = ("eyeriss_normalized",)
NETWORK_PRESETS = ("alexnet_conv",)
MAPPING_PRESETS = (
    "row_stationary",
    "weight_stationary",
    "output_stationary",
)


def _load_data(name: str) -> dict:
    # package-data ships presets/*.json beside this module; a plain read
    # imports none of importlib.resources' readers (nor zipfile)
    path = Path(__file__).with_name("presets") / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no bundled preset file {name!r}") from None
    return json.loads(text)


def hardware_preset(name: str) -> HardwareConfig:
    if name not in HARDWARE_PRESETS:
        raise ConfigError(
            f"unknown hardware preset {name!r}; available: {HARDWARE_PRESETS}"
        )
    return hardware_from_json(_load_data(name))


def network_preset(name: str) -> list[LayerShape]:
    if name not in NETWORK_PRESETS:
        raise ConfigError(
            f"unknown network preset {name!r}; available: {NETWORK_PRESETS}"
        )
    data = _load_data(name)
    return [layer_from_json(entry) for entry in data["layers"]]


def layer_preset(name: str) -> LayerShape:
    """Single layers address into a network preset: alexnet_conv1..5
    (or just conv1..5)."""
    for net in NETWORK_PRESETS:
        for layer in network_preset(net):
            if name in (f"{net}{layer.name[-1].lower()}", layer.name.lower()):
                return layer
    raise ConfigError(f"unknown layer preset {name!r}")


def list_presets() -> dict:
    out = {"hardware": {}, "layers": {}, "networks": {}, "mappings": {}}
    for name in HARDWARE_PRESETS:
        out["hardware"][name] = _load_data(name).get("description", "")
    for name in NETWORK_PRESETS:
        data = _load_data(name)
        out["networks"][name] = data.get("description", "")
        for entry in data["layers"]:
            layer = layer_from_json(entry)
            key = f"{name}{layer.name[-1].lower()}"
            out["layers"][key] = (
                f"{layer.name}: {layer.m}x{layer.c}x{layer.r}x{layer.s}"
                f" over {layer.e}x{layer.f}, stride {layer.stride}"
            )
    out["mappings"] = {
        "row_stationary": (
            "kernel rows and output columns spread over the array, filter "
            "rows pinned per PE; built per layer and hardware"
        ),
        "weight_stationary": (
            "row-stationary tiling with weights held across the whole "
            "buffer pass"
        ),
        "output_stationary": (
            "row-stationary tiling with partial sums held across the whole "
            "buffer pass"
        ),
    }
    return out


# --------------------------------------------------------------- recipe


def _largest_divisor_at_most(n: int, cap: int) -> int:
    cap = min(n, max(1, cap))
    for d in range(cap, 0, -1):
        if n % d == 0:
            return d
    return 1


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


_RECIPE_ORDERINGS = {
    MemLevel.DRAM: ("e", "c", "f", "m", "r", "s"),
    MemLevel.GB: ("m", "c", "f", "r", "s", "e"),
    MemLevel.NOC: ("m", "r", "e", "c", "s", "f"),
    MemLevel.RF: ("c", "m", "s", "e", "f", "r"),
}


def row_stationary_mapping(
    layer: LayerShape,
    hw: HardwareConfig,
    options: Options = Options(),
) -> tuple[LoopNest, RefreshLocations]:
    """Derive the row-stationary nest and refresh points for a layer.

    Kernel rows map to PE rows (with output channels sharing the row
    dimension when kernels are short), output rows map to PE columns in
    ceil-divided strips. Register tiles keep a whole filter row plus as
    many output channels as the accumulator file allows. Leftover factors
    start at the global buffer and move outward to DRAM one smallest
    prime factor at a time, channels first, until the buffer fits.
    """
    budgets = {k: elements for k, (_, elements) in zip(KINDS, hw.rf_budgets)}
    if min(budgets.values()) < 1:
        raise MappingError(
            [
                Violation(
                    "capacity",
                    "capacity_rf",
                    "register files cannot hold one element",
                )
            ]
        )

    r_sp = _largest_divisor_at_most(layer.r, hw.pe_rows)
    m_sp = _largest_divisor_at_most(layer.m, hw.pe_rows // r_sp)
    strips = _ceil_div(layer.e, hw.pe_cols)
    e_sp = _ceil_div(layer.e, strips)

    w_budget = budgets[DataKind.WEIGHT]
    s_rf = _largest_divisor_at_most(layer.s, w_budget)
    m_rf = _largest_divisor_at_most(
        layer.m // m_sp, min(budgets[DataKind.OUTPUT], w_budget // s_rf)
    )
    c_rf = _largest_divisor_at_most(
        layer.c,
        min(w_budget // (m_rf * s_rf), budgets[DataKind.INPUT] // s_rf),
    )

    tiling: dict[MemLevel, dict[str, int]] = {
        MemLevel.DRAM: {"e": strips},
        MemLevel.GB: {
            "m": layer.m // (m_sp * m_rf),
            "c": layer.c // c_rf,
            "f": layer.f,
            "r": layer.r // r_sp,
            "s": layer.s // s_rf,
        },
        MemLevel.NOC: {"m": m_sp, "r": r_sp, "e": e_sp},
        MemLevel.RF: {"m": m_rf, "c": c_rf, "s": s_rf},
    }

    while True:
        nest = build_nest(layer, tiling, ordering=_RECIPE_ORDERINGS)
        refresh = canonical_refresh(nest, "row_stationary_like", hw, options)
        violations = validate_nest(nest, hw, refresh, options)
        gb_full = [v for v in violations if v.field.startswith("capacity_gb")]
        if not gb_full:
            if violations:
                raise MappingError(violations)
            return nest, refresh
        for d in ("c", "f", "m"):
            here = tiling[MemLevel.GB].get(d, 1)
            if here > 1:
                p = _smallest_prime_factor(here)
                tiling[MemLevel.GB][d] = here // p
                dram = tiling[MemLevel.DRAM]
                dram[d] = dram.get(d, 1) * p
                break
        else:
            raise MappingError(gb_full)


def mapping_preset(
    name: str,
    layer: LayerShape,
    hw: HardwareConfig,
    options: Options = Options(),
) -> tuple[LoopNest, RefreshLocations]:
    if name not in MAPPING_PRESETS:
        raise ConfigError(
            f"unknown mapping preset {name!r}; available: {MAPPING_PRESETS}"
        )
    nest, refresh = row_stationary_mapping(layer, hw, options)
    if name == "row_stationary":
        return nest, refresh
    return nest, canonical_refresh(nest, name, hw, options)
