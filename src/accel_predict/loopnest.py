"""Tiled loop-nest IR: levels, refresh locations, and the refresh plan.

A dataflow is an ordered list of tiled loops, outermost first, grouped by
memory level DRAM -> GB -> NoC -> RF. Spatial loops (the PE array) live in
the NoC group. A refresh location is an index into that list: the buffer
for a data kind at a memory level is refilled every time any loop above
the index advances, and holds one tile spanning the loops below it.

A loop is a `LoopLevel` named tuple, the record the `.dflow` parser emits
too; a `LoopNest` checks each loop's types, dim and placement. Both mapping
loaders build their checked (nest, refresh) pair with `assemble_mapping`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import ConfigError, MappingError, Violation
from .model import (
    DIMS,
    KINDS,
    RELEVANT_DIMS,
    DataKind,
    INT64_MAX,
    HardwareConfig,
    LayerShape,
    LEVELS_OUTER_FIRST,
    MemLevel,
    Options,
    checked_count,
    checked_product,
    tile_volumes,
)


# bound once: reading a member off an Enum class runs EnumType's slow hook
_DRAM, _GB, _NOC, _RF = LEVELS_OUTER_FIRST
_KIND_SET = frozenset(KINDS)


# one per loop in a nest or a document: a named tuple is built about
# twice as fast as a frozen dataclass
class LoopLevel(NamedTuple):
    dim: str
    bound: int
    mem: MemLevel
    spatial: bool = False


@dataclass(frozen=True)
class LoopNest:
    levels: tuple[LoopLevel, ...]
    layer: LayerShape

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        # Nests are immutable, so one walk builds these once: the planner's flat
        # loops, each (dim index in DIMS, bound, spatial), outermost first; the
        # GB, NoC and RF group starts; and for _structure_violations, the levels
        # out of bound or group order, the spatial indices and the dim products.
        first = [len(levels)] * 3 + [0]  # by MemLevel: first loop at it or inner
        low = _DRAM
        loops, odd, spatial_at = [], [], []
        products = [1] * len(DIMS)
        for i, (dim, bound, mem, spatial) in enumerate(levels):
            if type(bound) is not int or type(mem) is not MemLevel:
                what = (f"bound {bound!r} is not an integer" if type(bound) is not int
                        else f"level {mem!r} is not a MemLevel")
                raise ConfigError(f"levels[{i}]: {what}")
            if dim not in DIMS:
                raise ConfigError(f"levels[{i}]: unknown loop dimension {dim!r}")
            if spatial and mem is not _NOC:
                raise ConfigError(f"levels[{i}]: spatial loops are only allowed at NoC")
            if bound < 1 or mem > low:
                odd.append((i, bound, mem, low))
            if mem < low:
                first[mem:low] = [i] * (low - mem)
                low = mem
            if spatial:
                spatial_at.append(i)
            loops.append((d := _DIM_INDEX[dim], bound, spatial))
            products[d] *= bound
        object.__setattr__(self, "loops", tuple(loops))
        object.__setattr__(self, "starts", (first[_GB], first[_NOC], first[_RF]))
        object.__setattr__(self, "_walk", (first, odd, spatial_at, products))
        object.__setattr__(self, "structure_violations", _structure_violations(self))

    def group_start(self, mem: MemLevel) -> int:
        """Index of the first loop at `mem` or inner; len(levels) if none."""
        return self._walk[0][mem]

    def n_pe_active(self) -> int:
        return checked_product([lv.bound for lv in self.levels if lv.spatial])


@dataclass(frozen=True)
class RefreshLocations:
    """Per (kind, mem in {GB, RF}) buffer-refill positions."""

    gb: Mapping[DataKind, int]
    rf: Mapping[DataKind, int]

    def __post_init__(self):
        # types and keys here; ranges depend on the nest (validate_structure).
        # Each map is kept as a read-only copy, so no later write undoes them.
        for label, name in (("GB", "gb"), ("RF", "rf")):
            given = getattr(self, name)
            # one copy, made once the type passes; exact types are tested
            # first, since the Mapping ABC's isinstance test is slow
            locs = (dict(given) if type(given) is dict
                    or type(given) is MappingProxyType
                    or isinstance(given, Mapping) else None)
            if locs is None or locs.keys() != _KIND_SET:
                raise ConfigError(f"refresh[{label}]: expected a location for "
                                  f"each of I, O and W, got {given!r}")
            for kind, loc in locs.items():
                if type(loc) is not int:
                    raise ConfigError(f"refresh[{kind}][{label}]: location "
                                      f"{loc!r} is not an integer")
            object.__setattr__(self, name, MappingProxyType(locs))

    def loc(self, kind: DataKind, mem: MemLevel) -> int:
        if mem is _GB:
            return self.gb[kind]
        if mem is _RF:
            return self.rf[kind]
        raise ConfigError(f"no refresh location at {mem.label}")

    @classmethod
    def outermost(cls, nest: LoopNest) -> "RefreshLocations":
        """Defaults: each buffer refilled at the top of its level's group."""
        p_gb, _, p_rf = nest.starts
        return cls(gb={k: p_gb for k in KINDS}, rf={k: p_rf for k in KINDS})


class RefreshPlan(NamedTuple):
    """Refresh counts and volumes, the operands of all traffic formulas.

    n_ref counts sequential refreshes (temporal loop bounds above the
    location; the PE array is not a sequence). v_ref at GB is the
    array-wide tile below the location; v_ref at RF is one PE's tile
    (temporal loops only), so RF capacity checks and per-PE delivery
    counts read it directly.
    """

    n_ref: Mapping[tuple[DataKind, MemLevel], int]
    v_ref: Mapping[tuple[DataKind, MemLevel], int]
    multicast: Mapping[DataKind, int]
    n_pe_active: int
    n_mac_padded: int

    def traffic(self, kind: DataKind, mem: MemLevel) -> int:
        return self.n_ref[(kind, mem)] * self.v_ref[(kind, mem)]


_DIM_INDEX = {d: i for i, d in enumerate(DIMS)}
# the indices of the dims each kind depends on, KINDS order
_RELEVANT = tuple(
    frozenset(_DIM_INDEX[d] for d in RELEVANT_DIMS[k]) for k in KINDS
)
# the keys of a plan's n_ref and v_ref: GB then RF, KINDS order within each
_PLAN_KEYS = tuple((k, mem) for mem in (_GB, _RF) for k in KINDS)
_BY_KIND = itemgetter(*KINDS)  # a per-kind map's values, KINDS order

# The positional styles and the kind each keeps stationary. Every refresh
# point they place sits at a level-group boundary, so their tiles depend
# only on the per-level factors, never on the loop order: the explorer sizes
# them from a candidate's per-dim factor rows, with the _volumes_below walk
# (which places row_stationary_like points) as its reference.
STATIONARY_KIND = {
    "weight_stationary": DataKind.WEIGHT,
    "output_stationary": DataKind.OUTPUT,
}


def positional_points(starts, kept: int):
    """The GB and the RF refresh locations (KINDS order) of the positional
    style keeping kind index `kept` on flat loops whose GB, NoC and RF
    groups start at `starts`: the kept kind's GB buffer loads once
    (location 0) and its RF tile is pinned across the whole GB group; the
    other kinds refresh at the top of each level's group."""
    p_gb, _, p_rf = starts
    gb, rf = [p_gb] * len(KINDS), [p_rf] * len(KINDS)
    gb[kept], rf[kept] = 0, p_gb
    return gb, rf


def _volumes_below(loops, gb, rf, stride: int):
    """tile_volumes (unchecked) of the loops below each location in `gb`,
    spatial loops included, and in `rf`, temporal loops only: two dicts
    by location, filled in one pass from the innermost loop out."""
    array, pe = [1] * len(DIMS), [1] * len(DIMS)
    gb_volumes, rf_volumes = {}, {}
    for p in range(len(loops), -1, -1):
        if p in gb:
            gb_volumes[p] = tile_volumes(array, stride)
        if p in rf:
            rf_volumes[p] = tile_volumes(pe, stride)
        if p:
            d, bound, spatial = loops[p - 1]
            array[d] *= bound
            if not spatial:
                pe[d] *= bound
    return gb_volumes, rf_volumes


def place_refresh(
    loops, starts, style: str, hw: HardwareConfig | None = None, stride: int = 1
):
    """The GB and the RF refresh locations (KINDS order) of a named
    stationarity style on flat loops whose GB, NoC and RF groups start at
    `starts`, and the one _volumes_below walk that placed them: its GB
    volumes at the GB locations and its RF volumes at every location an RF
    tile may sit at, for resident_tiles.

    weight_stationary / output_stationary are positional
    (positional_points); the explorer sizes their tiles from its
    candidates' factors (explore._score_positional), and this walk is
    that sizing's reference. row_stationary_like is capacity-driven and needs
    hardware: GB locations slide past leading GB loops whose dims the kind
    depends on (which leaves traffic unchanged but shrinks the resident
    tile), and each RF location is the outermost position whose per-PE
    tile fits that kind's register budget. It raises MappingError when
    none does; the innermost tile is one element of each kind, so that is
    exactly when a budget is under one element, whatever the loops.
    """
    kept = STATIONARY_KIND.get(style)
    if kept is not None:
        gb, rf = positional_points(starts, KINDS.index(kept))
        return gb, rf, *_volumes_below(loops, gb, rf, stride)
    if style != "row_stationary_like":
        raise ConfigError(f"unknown refresh style {style!r}")
    if hw is None:
        raise ConfigError("row_stationary_like needs a hardware config")

    p_gb, p_noc, _ = starts
    gb, rf = [], []
    for relevant in _RELEVANT:
        loc = p_gb
        while loc < p_noc and loops[loc][0] in relevant:
            loc += 1
        gb.append(loc)
    gb_volumes, volumes = _volumes_below(loops, gb, range(p_gb, len(loops) + 1),
                                         stride)
    for i, (kind, (bits, budget)) in enumerate(zip(KINDS, hw.rf_budgets)):
        for p in range(gb[i], len(loops) + 1):
            if (v := volumes[p][i]) > INT64_MAX:
                checked_count(v)
            if v <= budget:
                rf.append(p)
                break
        else:
            raise MappingError([Violation(
                "refresh_style", f"refresh[{kind}][RF]",
                f"no location fits the {bits}-bit register budget",
            )])
    return gb, rf, gb_volumes, volumes


def resident_tiles(gb, rf, gb_volumes, rf_volumes) -> tuple[list[int], list[int]]:
    """The GB and the RF resident tiles, in elements per kind (KINDS
    order), below refresh locations `gb` and `rf`, read off the
    _volumes_below walk of their loops (place_refresh returns its own): a
    GB tile is the array-wide tile of every loop below its location, an RF
    tile one PE's tile (temporal loops only). Each passes checked_count."""
    tiles = ([gb_volumes[p][i] for i, p in enumerate(gb)],
             [rf_volumes[p][i] for i, p in enumerate(rf)])
    if max(*tiles[0], *tiles[1]) > INT64_MAX:
        for v in (*tiles[0], *tiles[1]):
            checked_count(v)
    return tiles


def loop_products(loops):
    """One pass over flat loops: the temporal product above each location
    0..n, each kind's multicast (the spatial bounds of the dims it does not
    depend on, KINDS order), the spatial product and the product of every
    bound."""
    above, multicast = [1], [1] * len(KINDS)
    t = n_pe = 1
    for d, b, sp in loops:
        if sp:
            n_pe *= b
            for i, relevant in enumerate(_RELEVANT):
                if d not in relevant:
                    multicast[i] *= b
        else:
            t *= b
        above.append(t)
    return above, multicast, n_pe, t * n_pe


def build_plan(loops, gb, rf, tiles) -> RefreshPlan:
    """The RefreshPlan of flat loops refreshed at `gb` and `rf` (KINDS
    order), given their resident_tiles: each refresh count is the product
    of the temporal bounds above its location."""
    above, multicast, n_pe, n_mac = loop_products(loops)
    # Each count divides n_mac, so one overflows (as and where it would) only
    # outside 1..2^63-1; then a bound under 1 raises, as the oracle refuses it.
    if not 0 < n_mac <= INT64_MAX:
        for p in (*gb, *rf):
            checked_product([b for _, b, sp in loops[:p] if not sp])
        for relevant in _RELEVANT:
            checked_product(b for d, b, sp in loops if sp and d not in relevant)
        checked_product(b for _, b, sp in loops if sp)
        checked_product(b for _, b, _ in loops)
    if any(b < 1 for _, b, _ in loops):
        raise MappingError([Violation("structure", f"levels[{i}]", NO_ITERATIONS)
                            for i, (_, b, _) in enumerate(loops) if b < 1])
    return RefreshPlan(dict(zip(_PLAN_KEYS, [above[p] for p in (*gb, *rf)])),
                       dict(zip(_PLAN_KEYS, (*tiles[0], *tiles[1]))),
                       dict(zip(KINDS, multicast)), n_pe, n_mac)


def refresh_plan(
    nest: LoopNest, refresh: RefreshLocations, options: Options = Options()
) -> RefreshPlan:
    """The refresh plan of an unchecked mapping. Raises MappingError, with
    validate_structure's violations, for a location outside 0..n."""
    gb, rf = _BY_KIND(refresh.gb), _BY_KIND(refresh.rf)
    if min(*gb, *rf) < 0 or max(*gb, *rf) > len(nest.loops):
        raise MappingError(validate_structure(nest, refresh))
    stride = options.effective_stride(nest.layer)
    tiles = resident_tiles(gb, rf, *_volumes_below(nest.loops, gb, rf, stride))
    return build_plan(nest.loops, gb, rf, tiles)


def _check_coverage(true_dim: int, factors) -> tuple[int, list[int]]:
    """The minimal-cover rule: the factors' product, and each factor that
    could shrink with it still covering `true_dim` (none if it falls short)."""
    product = math.prod(factors)
    if product <= true_dim:  # shrinking any factor leaves less than product
        return product, []
    return product, [b for b in factors
                     if b > 1 and (product // b) * (b - 1) >= true_dim]


# the violation of a loop whose bound is below 1, which the oracle refuses
NO_ITERATIONS = "bound must be >= 1"


def _structure_violations(nest: LoopNest) -> tuple[Violation, ...]:
    """The checks on the nest alone (bounds, grouping order, spatial contiguity,
    coverage, minimal padding), read from what the nest's one walk collected."""
    out: list[Violation] = []

    def flag(field: str, message: str) -> None:
        out.append(Violation("structure", field, message))

    _, odd, spatial, products = nest._walk
    for i, bound, mem, prev in odd:
        if bound < 1:
            flag(f"levels[{i}]", NO_ITERATIONS)
        if mem > prev:
            flag(
                f"levels[{i}]",
                f"{mem.label} loop after {prev.label}; groups must "
                "run DRAM->GB->NoC->RF outermost to innermost",
            )

    if spatial and spatial[-1] - spatial[0] != len(spatial) - 1:
        flag("levels", "spatial loops must be contiguous within NoC")

    layer = nest.layer
    for i, (d, product) in enumerate(zip(DIMS, products)):
        true_dim = getattr(layer, d)
        if product == true_dim:  # covered exactly: nothing to shrink
            continue
        product, shrinkable = _check_coverage(
            true_dim, [b for j, b, _ in nest.loops if j == i])
        if product < true_dim:
            flag(f"dim {d}", f"tiling product {product} < layer dim {true_dim}")
        for b in shrinkable:
            flag(f"dim {d}", f"padding is not minimal: factor {b} could shrink "
                 f"({product}//{b}*{b - 1} still covers {true_dim})")
    return tuple(out)


def validate_structure(nest: LoopNest, refresh: RefreshLocations) -> list[Violation]:
    """Hardware-independent legality: grouping, coverage, location ranges.
    The nest's own checks ran when it was built."""
    out = list(nest.structure_violations)

    def flag(field: str, message: str) -> None:
        out.append(Violation("structure", field, message))

    n = len(nest.levels)
    p_noc = nest.starts[1]
    for kind in KINDS:
        gb = refresh.gb[kind]
        rf = refresh.rf[kind]
        if not 0 <= gb <= p_noc:
            flag(
                f"refresh[{kind}][GB]",
                f"location {gb} outside [0, {p_noc}] (must sit "
                "within or above the GB group)",
            )
        if not 0 <= rf <= n:
            flag(f"refresh[{kind}][RF]", f"location {rf} outside [0, {n}]")
        if rf < gb:
            flag(
                f"refresh[{kind}][RF]",
                f"RF location {rf} is above GB location {gb}; inner "
                "buffers refresh at least as often",
            )
    return out


def assemble_mapping(
    levels: Sequence[LoopLevel],
    layer: LayerShape,
    given: Mapping[tuple[DataKind, MemLevel], int],
) -> tuple[LoopNest, RefreshLocations]:
    """The nest of `levels` and the refresh locations `given` by (kind, GB
    or RF), each one not given at the top of its level's group. Raises
    MappingError unless the pair passes validate_structure."""
    nest = LoopNest(tuple(levels), layer)
    p_gb, _, p_rf = nest.starts
    refresh = RefreshLocations(
        gb={k: given.get((k, _GB), p_gb) for k in KINDS},
        rf={k: given.get((k, _RF), p_rf) for k in KINDS},
    )
    violations = validate_structure(nest, refresh)
    if violations:
        raise MappingError(violations)
    return nest, refresh


def _overflows(hw: HardwareConfig, gb_tiles, rf_tiles):
    """The capacity rule. Resident tiles are given in elements per kind
    (KINDS order); a tile needs volume x bits x buffering_factor bits,
    checked per kind or, for a shared capacity, summed over the kinds.
    Yields (field, kind or None if shared, bits needed, capacity) for
    each capacity exceeded, GB first. It and buffers_fit read the rule's
    table, hw.capacities."""
    for (name, per, shared, cap), tiles in zip(hw.capacities,
                                               (gb_tiles, rf_tiles)):
        need = [v * n for v, n in zip(tiles, per)]
        if shared:
            if sum(need) > cap:
                yield name, None, sum(need), cap
            continue
        for kind, n, c in zip(KINDS, need, cap):
            if n > c:
                yield name, kind, n, c


def buffers_fit(
    hw: HardwareConfig, gb_tiles: Sequence[int], rf_tiles: Sequence[int]
) -> bool:
    """The capacity rule's verdict on flat tiles (elements per kind,
    KINDS order), without building a violation: _overflows yields none."""
    for (_, (x, y, z), shared, cap), (a, b, c) in zip(hw.capacities,
                                                      (gb_tiles, rf_tiles)):
        if shared:
            if a * x + b * y + c * z > cap:
                return False
        elif a * x > cap[0] or b * y > cap[1] or c * z > cap[2]:
            return False
    return True


def checked_plan(
    nest: LoopNest,
    hw: HardwareConfig,
    refresh: RefreshLocations,
    options: Options = Options(),
) -> tuple[RefreshPlan | None, list[Violation]]:
    """Check the structure, build the refresh plan, then check the
    hardware fit (PE count and buffer sizes) against that plan: buffers_fit
    gives the capacity verdict, and _overflows names each overflow past it.

    The plan is None when the structure is illegal; the mapping is legal
    when the violation list is empty.
    """
    out = validate_structure(nest, refresh)
    if out:
        return None, out
    plan = refresh_plan(nest, refresh, options)
    if plan.n_pe_active > hw.n_pe:
        out.append(Violation(
            "pe_array", "levels", f"{plan.n_pe_active} spatial instances > "
            f"{hw.pe_rows}x{hw.pe_cols} array",
        ))
    tiles = [plan.v_ref[key] for key in _PLAN_KEYS]
    gb, rf = tiles[:3], tiles[3:]
    if buffers_fit(hw, gb, rf):
        return plan, out
    for name, kind, need, cap in _overflows(hw, gb, rf):
        if kind is None:
            message = f"resident tiles need {need} bits > capacity {cap}"
        else:
            name = f"{name}[{kind}]"
            message = f"tile needs {need} bits > capacity {cap}"
        out.append(Violation("capacity", name, message))
    return plan, out


def validate_nest(
    nest: LoopNest,
    hw: HardwareConfig,
    refresh: RefreshLocations,
    options: Options = Options(),
) -> list[Violation]:
    """Structure checks plus the hardware fit: PE count and buffer sizes."""
    return checked_plan(nest, hw, refresh, options)[1]


def check_ordering(ordering: Mapping[MemLevel, Sequence[str]]) -> None:
    """Raise ConfigError unless each key is a MemLevel and each level's
    loop order (all dims when a level is absent) is a permutation of the
    dims."""
    for mem in ordering:
        if type(mem) is not MemLevel:  # LoopNest's rule
            raise ConfigError(f"ordering: {mem!r} is not a MemLevel")
    for mem in LEVELS_OUTER_FIRST:
        if sorted(ordering.get(mem, DIMS)) != sorted(DIMS):
            raise ConfigError(
                f"ordering for {mem.label} must be a permutation of {DIMS}"
            )


def build_nest(
    layer: LayerShape,
    tiling: Mapping[MemLevel, Mapping[str, int]],
    ordering: Mapping[MemLevel, Sequence[str]] | None = None,
) -> LoopNest:
    """Assemble a nest from per-level tiling factors and dim orderings.

    Factors default to 1 and bound-1 loops are dropped; NoC-level loops
    come out spatial. Per-dim factor products must cover the layer dims
    minimally: no factor can shrink without losing coverage.
    """
    ordering = ordering or {}
    check_ordering(ordering)
    for mem in LEVELS_OUTER_FIRST:
        for d, b in tiling.get(mem, {}).items():
            if d not in DIMS:
                raise ConfigError(f"unknown dim {d!r} in tiling")
            if b < 1:
                raise ConfigError(f"tiling factor {d}@{mem.label} must be >= 1")

    levels = []
    for mem in LEVELS_OUTER_FIRST:
        order = tuple(ordering.get(mem, DIMS))
        per_level = tiling.get(mem, {})
        for d in order:
            b = per_level.get(d, 1)
            if b > 1:
                levels.append(
                    LoopLevel(d, b, mem, spatial=(mem is _NOC))
                )
    # Loops come out grouped and contiguous: only coverage or padding can fail.
    nest = LoopNest(tuple(levels), layer)
    if nest.structure_violations:
        raise MappingError(nest.structure_violations)
    return nest


def canonical_refresh(
    nest: LoopNest,
    style: str,
    hw: HardwareConfig | None = None,
    options: Options = Options(),
) -> RefreshLocations:
    """Refresh locations for a named stationarity style (place_refresh)."""
    gb, rf, *_ = place_refresh(
        nest.loops, nest.starts, style, hw, options.effective_stride(nest.layer)
    )
    return RefreshLocations(gb=dict(zip(KINDS, gb)), rf=dict(zip(KINDS, rf)))


REFRESH_STYLES = (
    "weight_stationary",
    "output_stationary",
    "row_stationary_like",
)
