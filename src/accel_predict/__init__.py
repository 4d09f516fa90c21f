"""Analytic pre-implementation performance model for DNN accelerators.

Estimate energy, latency and throughput of a convolutional layer on a
tiled spatial architecture from three ingredients: the layer shape, a
hardware description (PE array, buffer capacities, bandwidths, unit
costs) and a mapping, written either as a four-level tiled loop nest
with per-tensor refresh points or in the small `.dflow` text language.

A brute-force counting simulator independently reproduces the access
counts the closed forms predict, and an explorer searches tilings, loop
orders and refresh styles for the cheapest legal mapping.
"""

import importlib
import sys
import types

from .dsl import DslDocument, fmt, lower, parse, render, render_document
from .errors import (
    ConfigError,
    CountOverflowError,
    DslError,
    InstanceTooLargeError,
    MappingError,
    PredictorError,
    Violation,
)
from .loopnest import (
    LoopLevel,
    LoopNest,
    RefreshLocations,
    RefreshPlan,
    build_nest,
    canonical_refresh,
    checked_plan,
    refresh_plan,
    validate_nest,
    validate_structure,
)
from .model import (
    DataKind,
    HardwareConfig,
    LayerShape,
    MemLevel,
    Options,
    Precision,
    UnitCosts,
    mac_count,
    tile_volumes,
)
from .predictor import (
    EnergyReport,
    LatencyReport,
    NetworkReport,
    PredictionReport,
    access_counts,
    energy,
    latency,
    predict_layer,
    predict_network,
)
from .serialize import (
    canonical_json,
    hardware_from_json,
    hardware_to_json,
    layer_from_json,
    layer_to_json,
    load_hardware,
    load_layer,
    load_mapping,
    mapping_from_json,
    mapping_to_json,
)

__version__ = "0.1.0"

# The search, the oracle, the presets and the CLI load on first use (PEP 562):
# importing the package, or running the model alone, imports none of them.
_LAZY = {name: module for module, names in (
    ("explore", "SearchEntry SearchResult SearchSpace explore space_size"),
    ("oracle", "AccessCounters DiffReport check diff_counts simulate"),
    ("presets", "hardware_preset layer_preset list_presets mapping_preset "
                "network_preset row_stationary_mapping"),
    ("cli", "main"),
) for name in names.split()}


def __getattr__(name):
    if name in ("cli", "oracle", "presets"):  # the submodules themselves
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = getattr(module, name)
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # loading the explore submodule must not rebind the explore function
        if name != "explore" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "AccessCounters",
    "ConfigError",
    "CountOverflowError",
    "DataKind",
    "DiffReport",
    "DslDocument",
    "DslError",
    "EnergyReport",
    "HardwareConfig",
    "InstanceTooLargeError",
    "LatencyReport",
    "LayerShape",
    "LoopLevel",
    "LoopNest",
    "MappingError",
    "MemLevel",
    "NetworkReport",
    "Options",
    "Precision",
    "PredictionReport",
    "PredictorError",
    "RefreshLocations",
    "RefreshPlan",
    "SearchEntry",
    "SearchResult",
    "SearchSpace",
    "UnitCosts",
    "Violation",
    "access_counts",
    "build_nest",
    "canonical_json",
    "canonical_refresh",
    "check",
    "checked_plan",
    "diff_counts",
    "energy",
    "explore",
    "fmt",
    "hardware_from_json",
    "hardware_preset",
    "hardware_to_json",
    "latency",
    "layer_from_json",
    "layer_preset",
    "layer_to_json",
    "list_presets",
    "load_hardware",
    "load_layer",
    "load_mapping",
    "lower",
    "main",
    "mac_count",
    "mapping_from_json",
    "mapping_preset",
    "mapping_to_json",
    "network_preset",
    "parse",
    "predict_layer",
    "predict_network",
    "refresh_plan",
    "render",
    "render_document",
    "row_stationary_mapping",
    "simulate",
    "space_size",
    "tile_volumes",
    "validate_nest",
    "validate_structure",
]
