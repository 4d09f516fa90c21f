"""Domain types: layer shapes, data kinds, memory levels, hardware configs,
and the one tile-volume formula every access count is built from.

Everything here is an immutable value type. Counts are kept as Python ints
but checked against a 64-bit budget (checked_count) so that silently huge
products are reported instead of propagated.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from types import MappingProxyType

from .errors import ConfigError, CountOverflowError

INT64_MAX = 2**63 - 1

DIMS = ("m", "c", "r", "s", "e", "f")

# The explorer's objectives and strategies and the oracle's cap live with the
# model every command imports: the CLI builds its parser from them without
# importing explore or oracle.
OBJECTIVES = ("energy", "latency", "edp")
STRATEGIES = ("exhaustive", "random", "beam")

# The oracle's cap bounds the work: the temporal steps walked (the loops
# above the deepest refresh point), the PE instances grouped and the
# relevant tile points. Each distinct refresh depth (at most 6) enumerates
# the steps above it, so the refresh count runs at most 6x the capped
# steps. An AlexNet layer checks in under a millisecond; 10**7 steps take
# ~0.25 s over seven loops of 10, and ~1.5 s in the worst case, six depths
# each enumerating them all past bound-1 loops, which cost nothing (23
# loops of 2 take as long; Python 3.11, one core of a shared 2-core host).
# Grouping 10**6 PE instances over three spatial loops takes ~0.2 s and
# holds one column of them per loop, ~24 MiB.
DEFAULT_CAP = 10**7


class DataKind(Enum):
    INPUT = "I"
    OUTPUT = "O"
    WEIGHT = "W"

    # Members are singletons, so the identity hash is exact and spares hot
    # kind-keyed lookups Enum's Python-level __hash__.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# Canonical kind order used in reports and serialized output.
KINDS = (DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT)


class MemLevel(IntEnum):
    RF = 0
    NOC = 1
    GB = 2
    DRAM = 3

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]


_LEVEL_LABELS = {
    MemLevel.RF: "RF",
    MemLevel.NOC: "NoC",
    MemLevel.GB: "GB",
    MemLevel.DRAM: "DRAM",
}

LEVELS_OUTER_FIRST = (MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF)

# Which loop dimensions index each tensor. Inputs couple e/r and f/s through
# the sliding window, so their volume needs the halo composition rather than
# a plain product; see tile_volumes().
RELEVANT_DIMS = {
    DataKind.WEIGHT: frozenset({"m", "c", "r", "s"}),
    DataKind.OUTPUT: frozenset({"m", "e", "f"}),
    DataKind.INPUT: frozenset({"c", "r", "s", "e", "f"}),
}


def int_field(raw, path: str) -> int:
    """An integer; bools, floats and strings are rejected, not coerced."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: expected an integer, got {raw!r}")
    return raw


def checked_count(n: int) -> int:
    """The overflow rule: a count beyond 2^63-1 raises, naming the count."""
    if n > INT64_MAX:
        raise CountOverflowError(f"count {n} exceeds 2^63-1")
    return n


def checked_product(factors) -> int:
    """The product of `factors`, each partial product under checked_count."""
    out = 1
    for x in factors:
        out *= x
        if out > INT64_MAX:
            checked_count(out)
    return out


@dataclass(frozen=True)
class LayerShape:
    """One CONV layer: m output channels, c input channels, r x s kernel,
    e x f output map, plus the stride. Fully-connected layers use
    r=s=e=f=1."""

    m: int
    c: int
    r: int
    s: int
    e: int
    f: int
    stride: int = 1
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"layer name: expected a string, got {self.name!r}")
        for key in (*DIMS, "stride"):
            int_field(getattr(self, key), f"layer {self.name!r}: {key}")
        bad = [d for d in (*DIMS, "stride") if getattr(self, d) < 1]
        if bad:
            raise ConfigError(
                f"layer {self.name!r}: fields must be >= 1: {', '.join(bad)}"
            )

    def dim(self, name: str) -> int:
        return getattr(self, name)

    def dims(self) -> dict[str, int]:
        return {d: getattr(self, d) for d in DIMS}


def mac_count(layer: LayerShape) -> int:
    """Total multiply-accumulates for one layer, m*c*r*s*e*f."""
    return checked_product((layer.m, layer.c, layer.r, layer.s, layer.e, layer.f))


def tile_volumes(ext: Sequence[int], stride: int) -> list[int]:
    """Elements of each kind (KINDS order) covered by a tile whose per-dim
    extents, in DIMS order, are `ext`: inputs use the halo composition (the
    input rows covering e output rows with an r-row kernel span (e - 1) x
    stride + r, columns likewise), outputs and weights are plain products.
    Unchecked; pass each volume kept through checked_count (extents are
    >= 1, so no partial product exceeds the final one)."""
    m, c, r, s, e, f = ext
    return [c * ((e - 1) * stride + r) * ((f - 1) * stride + s), m * e * f,
            m * c * r * s]


@dataclass(frozen=True)
class Precision:
    bits_input: int = 16
    bits_output: int = 16
    bits_weight: int = 16

    def __post_init__(self):
        bits = (self.bits_input, self.bits_output, self.bits_weight)
        # bits per kind, in KINDS order
        object.__setattr__(self, "by_kind", bits)

    def bits(self, kind: DataKind) -> int:
        return self.by_kind[KINDS.index(kind)]


@dataclass(frozen=True)
class UnitCosts:
    """Per-event costs. Energy is unit-agnostic; time is seconds."""

    e_mac: float = 0.0
    # e_access[level][kind]: energy per element moved across that boundary.
    e_access: Mapping[MemLevel, Mapping[DataKind, float]] = field(
        default_factory=dict
    )
    t_comp: float | None = None
    clock_hz: float | None = None

    def __post_init__(self):
        # Read-only copies, so no later write undoes the costs a
        # HardwareConfig checked and tabulated; a malformed map is left as
        # given, for that check to report.
        costs = self.e_access
        if isinstance(costs, Mapping) and all(
                isinstance(row, Mapping) for row in costs.values()):
            object.__setattr__(self, "e_access", MappingProxyType(
                {lvl: MappingProxyType(dict(row)) for lvl, row in costs.items()}))

    def access(self, level: MemLevel, kind: DataKind) -> float:
        return self.e_access.get(level, {}).get(kind, 0.0)

    def mac_time(self) -> float:
        if self.t_comp is not None:
            return self.t_comp
        if self.clock_hz:
            return 1.0 / self.clock_hz
        raise ConfigError("unit_costs: need t_comp or clock_hz")


UNBOUNDED = math.inf


def _per_kind(value) -> dict[DataKind, float]:
    if isinstance(value, Mapping):
        return dict(value)
    return {k: value for k in KINDS}


@dataclass(frozen=True)
class HardwareConfig:
    """Array geometry, storage, bandwidth, and unit costs.

    Capacities are bits: `capacity_gb` is the whole buffer, `capacity_rf`
    is per PE. Either may be a single shared number or a per-kind mapping
    (shared capacity is checked against the sum of resident tiles).
    Bandwidths are bits/second; math.inf means unbounded. Per-kind maps
    are kept as read-only copies: the checks, and every score and report,
    read tables built from the fields once, at construction.
    """

    pe_rows: int
    pe_cols: int
    capacity_gb: int | Mapping[DataKind, int]
    capacity_rf: int | Mapping[DataKind, int]
    bw_dram: float
    bw_gb: float | Mapping[DataKind, float]
    bw_rf: float | Mapping[DataKind, float]
    unit_costs: UnitCosts = field(default_factory=UnitCosts)
    precision: Precision = field(default_factory=Precision)
    buffering_factor: int = 1

    def __post_init__(self):
        # Read-only copies; any other value is left for the check to report.
        for name in ("capacity_gb", "capacity_rf", "bw_gb", "bw_rf"):
            value = getattr(self, name)
            if isinstance(value, Mapping):
                object.__setattr__(self, name, MappingProxyType(dict(value)))
        # Per-kind bandwidths; the fields keep the form hardware JSON prints.
        object.__setattr__(self, "_gb_bw", _per_kind(self.bw_gb))
        object.__setattr__(self, "_rf_bw", _per_kind(self.bw_rf))
        bad = _hardware_violations(self)
        if bad:
            raise ConfigError("hardware: " + "; ".join(bad))
        # The capacity rule's table, GB then RF: the field, the bits an
        # element of each kind needs (KINDS order, buffering included),
        # whether the capacity is shared, and the capacity or per-kind ones.
        need = tuple(b * self.buffering_factor for b in self.precision.by_kind)
        table = []
        for name in ("capacity_gb", "capacity_rf"):
            cap = getattr(self, name)
            shared = not isinstance(cap, Mapping)
            table.append((name, need, shared,
                          cap if shared else tuple(cap[k] for k in KINDS)))
        object.__setattr__(self, "capacities", tuple(table))
        # Each kind's register budget per PE (KINDS order) as (bits,
        # elements): its own capacity or a shared one split three ways.
        _, _, shared, rf = table[1]
        bits = (rf // 3,) * len(KINDS) if shared else rf
        object.__setattr__(self, "rf_budgets", tuple(
            (b, b // n) for b, n in zip(bits, need)))
        # The one table energy, latency and price_totals price mappings from:
        # e_mac, the MAC time, each level's costs (outermost first, KINDS
        # order), and per kind bits, min(GB, DRAM), GB, min(RF, GB) bandwidth.
        uc = self.unit_costs
        object.__setattr__(self, "score_table", (
            uc.e_mac, uc.mac_time(),
            MappingProxyType({lvl: tuple(uc.access(lvl, k) for k in KINDS)
                              for lvl in LEVELS_OUTER_FIRST}),
            tuple((b, min(g, self.bw_dram), g, min(self._rf_bw[k], g))
                  for k, b, g in zip(KINDS, self.precision.by_kind,
                                     map(self._gb_bw.get, KINDS))),
        ))

    @property
    def n_pe(self) -> int:
        return self.pe_rows * self.pe_cols

    def gb_bw(self, kind: DataKind) -> float:
        return self._gb_bw[kind]

    def rf_bw(self, kind: DataKind) -> float:
        return self._rf_bw[kind]


_FLOAT_MAX = sys.float_info.max


def _hardware_violations(hw: HardwareConfig) -> list[str]:
    """Every broken hardware rule as 'path: message', in field order.

    Counts are integers and other values numbers (bools are neither), a
    per-kind map names exactly I, O and W, and only bandwidths may be
    math.inf. Bounds are written so that NaN fails them.
    """
    out: list[str] = []

    def check(path: str, value, integer: bool, ok, rule: str) -> None:
        if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)
        ):
            expected = "an integer" if integer else "a number"
            out.append(f"{path}: expected {expected}, got {value!r}")
        elif not ok(value):
            out.append(f"{path}: {rule}")

    check("pe_rows", hw.pe_rows, True, lambda n: n >= 1, "must be >= 1")
    check("pe_cols", hw.pe_cols, True, lambda n: n >= 1, "must be >= 1")

    def per_kind(name: str, integer: bool, rule: str) -> None:
        value = getattr(hw, name)
        if not isinstance(value, Mapping):
            check(name, value, integer, lambda x: x > 0, rule)
            return
        if set(value) != set(KINDS):
            out.append(f"{name}: expected exactly the data kinds "
                       f"['I', 'O', 'W'], got {[str(k) for k in value]}")
        for kind, x in value.items():
            check(f"{name}[{kind}]", x, integer, lambda x: x > 0, rule)

    per_kind("capacity_gb", True, "capacity must be > 0 bits")
    per_kind("capacity_rf", True, "capacity must be > 0 bits")
    check("bw_dram", hw.bw_dram, False, lambda x: x > 0, "bandwidth must be > 0")
    per_kind("bw_gb", False, "bandwidth must be > 0")
    per_kind("bw_rf", False, "bandwidth must be > 0")

    check("buffering_factor", hw.buffering_factor, True,
          lambda n: n in (1, 2), "must be 1 or 2")

    uc = hw.unit_costs
    costs = [("unit_costs.e_mac", uc.e_mac)]
    for level, row in uc.e_access.items():
        if not (isinstance(level, MemLevel) and isinstance(row, Mapping)
                and set(row) <= set(KINDS)):
            out.append("unit_costs.e_access: expected per-kind costs by "
                       f"memory level, got {level!r}: {row!r}")
            continue
        costs += [(f"unit_costs.e_access[{level.label}][{kind}]", x)
                  for kind, x in row.items()]
    for path, x in costs:
        check(path, x, False, lambda x: 0 <= x <= _FLOAT_MAX,
              "must be finite and >= 0")
    if uc.t_comp is None and uc.clock_hz is None:
        out.append("unit_costs: need t_comp or clock_hz")
    for key in ("t_comp", "clock_hz"):
        x = getattr(uc, key)
        if x is not None:
            check(f"unit_costs.{key}", x, False, lambda x: 0 < x <= _FLOAT_MAX,
                  "must be finite and > 0")

    for key in ("bits_input", "bits_output", "bits_weight"):
        check(f"precision.{key}", getattr(hw.precision, key), True,
              lambda n: 1 <= n <= 64, "must be in [1, 64]")
    return out


@dataclass(frozen=True)
class Options:
    """Model variant switches, all defaulting to the recommended forms."""

    # Pretend stride=1 in the input halo (reproduces the simplified
    # input-volume accounting some published models use).
    assume_stride_one: bool = False
    # Compute latency as total MACs x t_comp instead of dividing across
    # the active PEs.
    literal_eq8: bool = False
    # GB-side latency counts one transfer per multicast group instead of
    # one per PE delivery.
    gb_latency_multicast_aware: bool = False
    # Read+write factor for partial-sum recirculation of outputs; None
    # means the default of 2, else a finite number >= 1. Applies only
    # where the output buffer is refreshed more than once.
    psum_rw_factor: float | None = None

    def __post_init__(self):
        f = self.psum_rw_factor
        if f is not None and (
            isinstance(f, bool)
            or not isinstance(f, (int, float))
            or not 1 <= f <= _FLOAT_MAX
        ):
            raise ConfigError(
                f"psum_rw_factor: must be a finite number >= 1, got {f!r}"
            )

    def effective_stride(self, layer: LayerShape) -> int:
        return 1 if self.assume_stride_one else layer.stride

    def psum_factor(self) -> int | float:
        # Integral factors stay ints so access counts remain exact.
        f = 2 if self.psum_rw_factor is None else self.psum_rw_factor
        if isinstance(f, float) and f.is_integer():
            f = int(f)
        return f
