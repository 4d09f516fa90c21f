"""Energy, latency, and throughput from a refresh plan.

Access counts are the shared currency: every boundary's traffic is
counted once, energy multiplies each count by a unit cost, and latency
divides the same counts by bandwidths. Every cost and bandwidth comes
from one table built with the hardware, HardwareConfig.score_table.

The explorer's legal candidates get their energy and latency totals
from price_totals, which reads that table and builds no plan or report;
this report path is its bit-for-bit reference. It prices the integer
refresh counts and products that score_totals reads off flat loops, or
the explorer off a positional candidate's factors (see explore). The
report path and that kernel share three rules, each written once:
count_rows (psum and overflow), energy_terms (count x unit cost) and
latency_terms (setup + max(comp, DRAM, GB)), so both raise the same
errors; build_plan refuses what the kernel cannot price.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, MappingError
from .loopnest import (
    LoopNest,
    RefreshLocations,
    RefreshPlan,
    _BY_KIND,
    build_plan,
    checked_plan,
    loop_products,
    refresh_plan,
)
from .model import (
    DIMS,
    INT64_MAX,
    KINDS,
    LEVELS_OUTER_FIRST,
    DataKind,
    HardwareConfig,
    LayerShape,
    MemLevel,
    Options,
    _FLOAT_MAX,
    checked_count,
    checked_product,
    mac_count,
)

AccessCounts = dict[MemLevel, dict[DataKind, int]]

# bound once: reading a member off an Enum class runs EnumType's slow hook
_DRAM, _GB, _NOC, _RF = LEVELS_OUTER_FIRST
_INPUT, _OUTPUT, _WEIGHT = KINDS
# a plan's n_ref or v_ref values at the GB and at the RF, KINDS order
_AT_GB, _AT_RF = (itemgetter(*((k, mem) for k in KINDS)) for mem in (_GB, _RF))


def count_rows(gb_refreshes, rf_refreshes, multicast, n_pe: int, tiles, psum):
    """The DRAM, GB->array and NoC rows (KINDS order) of the refresh
    counts at the GB and the RF locations, each kind's multicast, the PE
    product, the resident tiles and the factor options.psum_factor().

    Partial sums recirculate where a buffer is refreshed: the output's
    DRAM count carries the factor only if its GB tile is refreshed more
    than once, its GB->array count only if its RF tile is. The first count
    past 2^63-1 raises CountOverflowError: per kind its deliveries, array
    and NoC counts, then the output's scaled ones under an integer factor
    only; the DRAM traffic last."""
    dram_row, array_row, noc_row, traffic = [], [], [], []
    for k, n_gb, v_gb, n_rf, v_rf, m in zip(KINDS, gb_refreshes, tiles[0],
                                            rf_refreshes, tiles[1], multicast):
        dram, delivered, groups = n_gb * v_gb, n_rf * v_rf, n_pe // m
        traffic.append(dram)  # DRAM traffic before the factor
        array, noc = delivered * groups, delivered * n_pe
        if delivered > INT64_MAX or array > INT64_MAX or noc > INT64_MAX:
            checked_product((delivered, groups))
            checked_product((delivered, n_pe))
        if k is _OUTPUT:
            f_dram, f_array = psum if n_gb > 1 else 1, psum if n_rf > 1 else 1
            if dram * f_dram > INT64_MAX or array * f_array > INT64_MAX:
                for count, factor in ((dram, f_dram), (array, f_array)):
                    if isinstance(factor, int):
                        checked_product((count, factor))
            dram, array = dram * f_dram, array * f_array
        dram_row.append(dram)
        array_row.append(array)
        noc_row.append(noc)
    if max(traffic) > INT64_MAX:
        for count in traffic:
            checked_count(count)
    return dram_row, array_row, noc_row


def access_counts(plan: RefreshPlan, options: Options = Options()) -> AccessCounts:
    """Elements crossing each boundary, per data kind (count_rows). The
    level key names the outer side of the boundary: DRAM rows are
    DRAM<->GB transfers, GB rows GB->array fetches (shared across
    multicast groups), NoC rows per-PE deliveries, RF rows the register
    reads feeding the MACs."""
    n_ref, v_ref = plan.n_ref, plan.v_ref
    dram, array, noc = count_rows(
        _AT_GB(n_ref), _AT_RF(n_ref), _BY_KIND(plan.multicast), plan.n_pe_active,
        (_AT_GB(v_ref), _AT_RF(v_ref)), options.psum_factor())
    return {_DRAM: {_INPUT: dram[0], _OUTPUT: dram[1], _WEIGHT: dram[2]},
            _GB: {_INPUT: array[0], _OUTPUT: array[1], _WEIGHT: array[2]},
            _NOC: {_INPUT: noc[0], _OUTPUT: noc[1], _WEIGHT: noc[2]},
            _RF: dict.fromkeys(KINDS, plan.n_mac_padded)}


class EnergyReport(NamedTuple):
    e_comp: float
    e_rf: float
    e_noc: float
    e_gb: float
    e_dram: float
    total: float
    by_level_kind: dict[MemLevel, dict[DataKind, float]]

    def onchip_breakdown_pct(self) -> dict[str, float]:
        """The four-column view (comp/RF/NoC/GB) used for chip comparisons,
        normalized without the DRAM share."""
        parts = {
            "comp": self.e_comp,
            "rf": self.e_rf,
            "noc": self.e_noc,
            "gb": self.e_gb,
        }
        return _shares(parts)


def _shares(parts: dict[str, float]) -> dict[str, float]:
    total = sum(parts.values())
    if total == 0:
        return {k: 0.0 for k in parts}
    if total <= _FLOAT_MAX / 100.0:
        return {k: 100.0 * v / total for k, v in parts.items()}
    # 100 x a term this large would overflow: take the ratio first
    return {k: v / total * 100.0 for k, v in parts.items()}


_TOO_SLOW = "the bandwidths are too small or the MAC time too large"


def _overflow(name: str, cause: str = "the unit costs are too large") -> ConfigError:
    return ConfigError(f"{name} exceeds the largest float; {cause} for this mapping")


def energy_terms(rows, costs, n_mac: int, e_mac):
    """The energy rule on four count rows (KINDS order), their unit costs
    (level -> cost row, in the rows' order) and the MAC product: the terms
    count x cost, each row's sum, the MAC term and the total. Raises
    ConfigError naming the first term past the largest float, MAC first."""
    (r0, r1, r2, r3), (c0, c1, c2, c3) = rows, costs.values()
    terms = ((r0[0] * c0[0], r0[1] * c0[1], r0[2] * c0[2]),
             (r1[0] * c1[0], r1[1] * c1[1], r1[2] * c1[2]),
             (r2[0] * c2[0], r2[1] * c2[1], r2[2] * c2[2]),
             (r3[0] * c3[0], r3[1] * c3[1], r3[2] * c3[2]))
    e_comp = n_mac * e_mac
    try:
        sums = list(map(sum, terms))
        total = e_comp + sum(sums)
    except OverflowError:  # an integer term past the float range
        total = math.inf
    # costs are >= 0, so a total in range keeps every term in range
    if not total <= _FLOAT_MAX:
        named = {"comp": e_comp, **{f"{lvl.label}[{k}]": v for lvl, row in
                                    zip(costs, terms) for k, v in zip(KINDS, row)}}
        name = next((n for n, v in named.items() if not v <= _FLOAT_MAX), None)
        raise _overflow(f"energy: the {name} term" if name else "energy: the total")
    return terms, sums, e_comp, total


def energy(plan: RefreshPlan, counts: AccessCounts,
           hw: HardwareConfig) -> EnergyReport:
    """The report of energy_terms on the counts, each level at its own
    unit costs, and the plan's MAC product."""
    e_mac, _, costs, _ = hw.score_table
    terms, sums, e_comp, total = energy_terms(
        list(map(_BY_KIND, counts.values())), {lvl: costs[lvl] for lvl in counts},
        plan.n_mac_padded, e_mac)
    e = dict(zip(counts, sums))
    return EnergyReport(e_comp, e[_RF], e[_NOC], e[_GB], e[_DRAM], total,
                        {lvl: {_INPUT: i, _OUTPUT: o, _WEIGHT: w}
                         for lvl, (i, o, w) in zip(counts, terms)})


class LatencyReport(NamedTuple):
    l_comp_s: float
    l_dram_s: float
    l_gb_s: float
    l_setup_s: float
    l_total_s: float
    bottleneck: str  # which of comp/dram/gb attained the max
    dram_kind: DataKind | None
    gb_kind: DataKind | None
    setup_kind: DataKind | None


def latency_terms(dram, array, noc, tiles, n_mac: int, n_pe: int,
                  hw: HardwareConfig, options: Options):
    """The latency rule on count_rows' rows, the (GB, RF) resident tiles
    (KINDS order) and the MAC and PE products: l_comp, l_dram, l_gb,
    l_setup, l_setup + max(l_dram, l_gb, l_comp) and the DRAM, GB and
    first-tile fill terms (KINDS order; the output's fill is 0.0, as
    outputs are produced, not staged). Each max over kinds is the largest
    term, or 0.0. Compute and both transfers overlap fully, whatever the
    buffers hold: hw.buffering_factor only scales the tiles' capacity. A
    total past the largest float raises ConfigError (terms are >= 0)."""
    _, t_mac, _, per_kind = hw.score_table
    (b_i, dram_i, gb_i, fill_i), (b_o, dram_o, gb_o, _), \
        (b_w, dram_w, gb_w, fill_w) = per_kind
    (v_i, _, v_w), (w_i, _, w_w) = tiles
    sent = array if options.gb_latency_multicast_aware else noc
    dram_terms = (dram[0] * b_i / dram_i, dram[1] * b_o / dram_o,
                  dram[2] * b_w / dram_w)
    gb_terms = (sent[0] * b_i / gb_i, sent[1] * b_o / gb_o, sent[2] * b_w / gb_w)
    setup_terms = (max(v_i * b_i / dram_i, w_i * b_i / fill_i), 0.0,
                   max(v_w * b_w / dram_w, w_w * b_w / fill_w))
    # spatial bounds divide the padded MAC product exactly
    l_comp = (n_mac if options.literal_eq8 else n_mac // n_pe) * t_mac
    l_dram, l_gb, l_setup = (max(0.0, *dram_terms), max(0.0, *gb_terms),
                             max(0.0, *setup_terms))
    total = l_setup + max(l_dram, l_gb, l_comp)
    if not total <= _FLOAT_MAX:
        raise _overflow("latency: the total", _TOO_SLOW)
    return l_comp, l_dram, l_gb, l_setup, total, (dram_terms, gb_terms, setup_terms)


def latency(
    plan: RefreshPlan,
    counts: AccessCounts,
    hw: HardwareConfig,
    options: Options = Options(),
) -> LatencyReport:
    """The report of latency_terms on the plan's counts and tiles: each
    term, the bottleneck (comp, then dram, then gb, on a tie) and the first
    kind with the largest term above 0, if any, for each max over kinds."""
    l_comp, l_dram, l_gb, l_setup, total, (dram, gb, setup) = latency_terms(
        _BY_KIND(counts[_DRAM]), _BY_KIND(counts[_GB]), _BY_KIND(counts[_NOC]),
        (_AT_GB(plan.v_ref), _AT_RF(plan.v_ref)), plan.n_mac_padded,
        plan.n_pe_active, hw, options)
    bottleneck = ("comp" if l_comp >= l_dram and l_comp >= l_gb
                  else "dram" if l_dram >= l_gb else "gb")
    return LatencyReport(l_comp, l_dram, l_gb, l_setup, total, bottleneck,
                         KINDS[dram.index(l_dram)] if l_dram > 0 else None,
                         KINDS[gb.index(l_gb)] if l_gb > 0 else None,
                         KINDS[setup.index(l_setup)] if l_setup > 0 else None)


def score_totals(
    loops, gb, rf, tiles, hw: HardwareConfig, options: Options = Options()
) -> tuple[float, float]:
    """energy(...).total and latency(...).l_total_s of build_plan(loops,
    gb, rf, tiles), bit for bit, or the same error: loop_products' refresh
    counts and products, priced by price_totals. A bound under 1, or a MAC
    product outside 1..2^63-1, goes to build_plan, which refuses it: a
    count past 2^63-1 first, then a MappingError for the bound."""
    above, multicast, n_pe, n_mac = loop_products(loops)
    totals = None if any(b < 1 for _, b, _ in loops) else price_totals(
        [above[p] for p in gb], [above[p] for p in rf], multicast, n_pe, n_mac,
        tiles, hw, options)
    if totals is None:
        build_plan(loops, gb, rf, tiles)  # which refuses it
    return totals


def price_totals(
    gb_refreshes, rf_refreshes, multicast, n_pe: int, n_mac: int, tiles,
    hw: HardwareConfig, options: Options = Options(),
) -> tuple[float, float] | None:
    """The energy and latency totals of a plan given as count_rows'
    integers (KINDS order) and the MAC product: count_rows' rows, priced
    by energy_terms and latency_terms from hw.score_table, with no plan or
    report built. Each rule raises what and where the report path does.
    None for a MAC product outside 1..2^63-1, which build_plan refuses."""
    if not 0 < n_mac <= INT64_MAX:
        return None
    dram, array, noc = count_rows(gb_refreshes, rf_refreshes, multicast, n_pe,
                                  tiles, options.psum_factor())
    e_mac, _, costs, _ = hw.score_table
    return (energy_terms((dram, array, noc, (n_mac,) * 3), costs, n_mac, e_mac)[3],
            latency_terms(dram, array, noc, tiles, n_mac, n_pe, hw, options)[4])


class PredictionReport(NamedTuple):
    layer: LayerShape
    nest: LoopNest
    refresh: RefreshLocations
    options: Options
    plan: RefreshPlan
    n_mac: int
    n_mac_padded: int
    n_pe_active: int
    access: AccessCounts
    energy: EnergyReport
    latency: LatencyReport
    throughput_gops: float

    def to_dict(self) -> dict:
        lat = self.latency
        return {
            "layer": {
                "name": self.layer.name,
                **self.layer.dims(),
                "stride": self.layer.stride,
            },
            "n_mac": self.n_mac,
            "n_mac_padded": self.n_mac_padded,
            "n_pe_active": self.n_pe_active,
            "access_counts_elements": {
                label: {s: self.access[lvl][k] for k, s in _KIND_LABELS}
                for lvl, label in _LEVEL_LABELS
            },
            "energy_units": {
                "comp": self.energy.e_comp,
                "rf": self.energy.e_rf,
                "noc": self.energy.e_noc,
                "gb": self.energy.e_gb,
                "dram": self.energy.e_dram,
                "total": self.energy.total,
                "by_level_kind": {
                    label: {
                        s: self.energy.by_level_kind[lvl][k] for k, s in _KIND_LABELS
                    }
                    for lvl, label in _LEVEL_LABELS
                },
            },
            "onchip_breakdown_pct": self.energy.onchip_breakdown_pct(),
            "latency_s": {
                "comp": lat.l_comp_s,
                "dram": lat.l_dram_s,
                "gb": lat.l_gb_s,
                "setup": lat.l_setup_s,
                "total": lat.l_total_s,
                "bottleneck": lat.bottleneck,
                "dram_kind": str(lat.dram_kind) if lat.dram_kind else None,
                "gb_kind": str(lat.gb_kind) if lat.gb_kind else None,
                "setup_kind": str(lat.setup_kind) if lat.setup_kind else None,
            },
            "throughput_gops": self.throughput_gops,
            "model_notes": _model_notes(self.options),
        }


# Report key text per level and kind, in canonical order.
_LEVEL_LABELS = tuple((lvl, lvl.label) for lvl in LEVELS_OUTER_FIRST)
_KIND_LABELS = tuple((k, str(k)) for k in KINDS)


def _model_notes(options: Options) -> dict:
    return {
        # The GB-side latency numerator multiplies refresh count by tile
        # volume; a literal count-times-count reading is not implemented.
        "gb_latency_numerator": "count_times_volume",
        "gb_latency_multicast_aware": options.gb_latency_multicast_aware,
        "literal_eq8": options.literal_eq8,
        "assume_stride_one": options.assume_stride_one,
        "psum_rw_factor": options.psum_factor(),
    }


def _shape(layer: LayerShape) -> tuple[int, ...]:
    """What the counts depend on: the dims (DIMS order) and the stride."""
    return (*(layer.dim(d) for d in DIMS), layer.stride)


def predict_layer(
    layer: LayerShape,
    nest: LoopNest,
    refresh: RefreshLocations,
    hw: HardwareConfig,
    options: Options = Options(),
    validate: bool = True,
) -> PredictionReport:
    """Access counts, energy, latency and throughput of one mapped layer.

    Raises MappingError unless the mapping passes the structure and
    hardware checks. validate=False skips both, for a mapping known legal;
    refresh_plan still refuses a refresh location outside the nest."""
    if layer is not nest.layer and _shape(layer) != _shape(nest.layer):
        raise ConfigError(
            f"layer {layer.name!r} does not match the mapping's layer "
            f"{nest.layer.name!r}: (m, c, r, s, e, f, stride) "
            f"{_shape(layer)} != {_shape(nest.layer)}"
        )
    if validate:
        plan, violations = checked_plan(nest, hw, refresh, options)
        if violations:
            raise MappingError(violations)
    else:
        plan = refresh_plan(nest, refresh, options)
    counts = access_counts(plan, options)
    e = energy(plan, counts, hw)
    lat = latency(plan, counts, hw, options)
    n_mac = mac_count(layer)
    return PredictionReport(layer, nest, refresh, options, plan, n_mac,
                            plan.n_mac_padded, plan.n_pe_active, counts, e, lat,
                            2.0 * n_mac / lat.l_total_s / 1e9)


class NetworkReport(NamedTuple):
    reports: tuple[PredictionReport, ...]
    energy_total: float
    latency_total_s: float
    n_mac: int
    n_mac_padded: int
    throughput_gops: float

    def to_dict(self) -> dict:
        return {
            "layers": [r.to_dict() for r in self.reports],
            "totals": {
                "n_mac": self.n_mac,
                "n_mac_padded": self.n_mac_padded,
                "energy_units": self.energy_total,
                "latency_s": self.latency_total_s,
                "throughput_gops": self.throughput_gops,
            },
        }


def predict_network(
    items,
    hw: HardwareConfig,
    options: Options = Options(),
) -> NetworkReport:
    """Aggregate over (layer, nest, refresh) triples, each one checked;
    layers run back to back, each paying its own setup."""
    reports = tuple(
        predict_layer(layer, nest, refresh, hw, options)
        for layer, nest, refresh in items
    )
    if not reports:
        raise ConfigError("predict_network needs at least one layer")
    energy_total = sum(r.energy.total for r in reports)
    if not energy_total <= _FLOAT_MAX:
        raise _overflow("energy: the network total")
    latency_total = sum(r.latency.l_total_s for r in reports)
    if not latency_total <= _FLOAT_MAX:
        raise _overflow("latency: the network total", _TOO_SLOW)
    n_mac = sum(r.n_mac for r in reports)
    return NetworkReport(reports, energy_total, latency_total, n_mac,
                         sum(r.n_mac_padded for r in reports),
                         2.0 * n_mac / latency_total / 1e9)
