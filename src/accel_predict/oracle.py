"""Brute-force reference counts: run the loop nest and watch the buffers.

No closed forms: every iteration of each loop that can change a count is
run. Refreshes are observed: a buffer is refilled once per iteration of
the temporal loops above its location, and for each refresh depth those
iterations are enumerated one by one (itertools.product) and counted in
C. Tile volumes are measured by collecting the coordinates each kind
touches (distinct values for weights/outputs, the bounding box for
inputs, whose fetches are contiguous rows), each coordinate
(c, e*stride + r, f*stride + s, or a weight/output dim) over its own
loops below the location. Spatial loops expand into per-PE instances; multicast is
measured by grouping PEs that land on identical tiles.
"""

from __future__ import annotations

import math
from itertools import compress, product, repeat
from operator import itemgetter
from typing import NamedTuple

from . import predictor
from .errors import ConfigError, InstanceTooLargeError, MappingError
from .loopnest import (
    LoopNest,
    RefreshLocations,
    checked_plan,
    refresh_plan,
    validate_structure,
)
from .model import (
    DEFAULT_CAP,
    KINDS,
    LEVELS_OUTER_FIRST,
    RELEVANT_DIMS,
    DataKind,
    HardwareConfig,
    MemLevel,
    Options,
)

# bound once: reading a member off an Enum class runs EnumType's slow hook
_DRAM, _GB, _NOC, _RF = LEVELS_OUTER_FIRST
_INPUT, _OUTPUT = KINDS[:2]


class AccessCounters(NamedTuple):
    """What the brute-force run observed."""

    refreshes: dict[MemLevel, dict[DataKind, int]]  # GB and RF
    elements_moved: dict[MemLevel, dict[DataKind, int]]  # all four levels
    multicast: dict[DataKind, int]
    body_iterations: int
    macs_per_pe: int
    n_pe_active: int


def _count_refresh_events(bounds: list[int], depths: set[int]) -> dict[int, int]:
    """For each depth d, the iterations of the loops over bounds[:d]: a
    buffer at depth d is refilled once per such iteration. Each is
    enumerated, and counted in C. A bound-1 loop adds its one iteration
    without a range of its own, and product() of no ranges yields one
    empty, falsy tuple, so a prefix with none counts its one fill directly."""
    counts = {}
    for d in depths:
        ranges = [range(b) for b in bounds[:d] if b != 1]
        counts[d] = sum(compress(repeat(1), product(*ranges))) if ranges else 1
    return counts


def _touched(loops, scale: dict[str, int]) -> set[int]:
    """Every value of sum(scale[d] * index of d) over one full pass of the
    loops over the dims in `scale`, where a dim's index composes its loop
    indices mixed-radix, outer-major."""
    axes = []
    for dim, place in scale.items():
        for lv in reversed([lv for lv in loops if lv.dim == dim]):
            axes.append(range(0, lv.bound * place, place))
            place *= lv.bound
    return set(map(sum, product(*axes)))


def _measure_tile(loops, kind: DataKind, stride: int, cap: int) -> int:
    """Elements of `kind` touched across one full pass of `loops`."""
    # Loops over dims the tensor does not depend on revisit the same
    # elements, so the cap counts the points of the relevant loops only.
    size = 1
    for lv in loops:
        if lv.dim in RELEVANT_DIMS[kind]:
            size *= lv.bound
    if size > cap:
        raise InstanceTooLargeError(
            f"tile enumeration of {size} points exceeds cap {cap}"
        )
    if kind is _INPUT:
        cs = _touched(loops, {"c": 1})
        hs = _touched(loops, {"e": stride, "r": 1})
        ws = _touched(loops, {"f": stride, "s": 1})
        # rows are fetched whole, gaps included
        return len(cs) * (max(hs) - min(hs) + 1) * (max(ws) - min(ws) + 1)
    # the touched set is the product of the per-dim sets
    return math.prod(len(_touched(loops, {d: 1})) for d in RELEVANT_DIMS[kind])


def _multicast(spatial_loops) -> dict[DataKind, int]:
    """Per kind, PE instances over the groups of instances that land on
    identical tiles: every instance is projected onto its indices of the
    loops the kind depends on, and equal projections form one group."""
    points = list(product(*(range(lv.bound) for lv in spatial_loops)))
    multicast = {}
    for kind in KINDS:
        relevant = [
            i for i, lv in enumerate(spatial_loops)
            if lv.dim in RELEVANT_DIMS[kind]
        ]
        # with no relevant loop, every instance lands on the one tile
        groups = set(map(itemgetter(*relevant), points)) if relevant else {()}
        multicast[kind] = len(points) // len(groups)
    return multicast


def simulate(
    nest: LoopNest,
    refresh: RefreshLocations,
    *,
    options: Options = Options(),
    cap: int = DEFAULT_CAP,
) -> AccessCounters:
    if type(cap) is not int or cap < 1:
        raise ConfigError(f"cap: expected an integer >= 1, got {cap!r}")
    stride = options.effective_stride(nest.layer)
    temporal_positions = [
        i for i, lv in enumerate(nest.levels) if not lv.spatial
    ]
    spatial_loops = [lv for lv in nest.levels if lv.spatial]
    n_pe = math.prod(lv.bound for lv in spatial_loops)
    bounds = [nest.levels[i].bound for i in temporal_positions]
    steps = math.prod(bounds)

    # Spatial loops are parallel hardware, not iterations: a location is
    # mapped to its temporal depth, so positions inside the spatial group
    # all see the same refresh cadence.
    def temporal_depth(p: int) -> int:
        return sum(1 for i in temporal_positions if i < p)

    locs = {
        (kind, mem): refresh.loc(kind, mem)
        for kind in KINDS
        for mem in (_GB, _RF)
    }
    depth_of = {key: temporal_depth(p) for key, p in locs.items()}
    depths = set(depth_of.values())
    # The refresh count enumerates the temporal loops above the deepest
    # refresh point, once per depth, and the multicast grouping the PE
    # instances; neither runs their product.
    walked = math.prod(bounds[:max(depths)])
    if walked > cap:
        raise InstanceTooLargeError(f"{walked} temporal steps exceed cap {cap}")
    if n_pe > cap:
        raise InstanceTooLargeError(
            f"{n_pe} spatial instances exceed cap {cap}"
        )
    body = steps * n_pe

    event_counts = _count_refresh_events(bounds, depths)
    refreshes = {
        _GB: {k: event_counts[depth_of[(k, _GB)]] for k in KINDS},
        _RF: {k: event_counts[depth_of[(k, _RF)]] for k in KINDS},
    }

    volumes = {}
    for kind in KINDS:
        for mem in (_GB, _RF):
            below = nest.levels[locs[(kind, mem)]:]
            if mem is _RF:
                below = [lv for lv in below if not lv.spatial]
            volumes[(kind, mem)] = _measure_tile(below, kind, stride, cap)

    multicast = _multicast(spatial_loops)

    psum = options.psum_factor()
    moved: dict[MemLevel, dict[DataKind, int]] = {
        lvl: {} for lvl in LEVELS_OUTER_FIRST
    }
    for k in KINDS:
        n_gb = refreshes[_GB][k]
        n_rf = refreshes[_RF][k]
        dram = n_gb * volumes[(k, _GB)]
        gb = n_rf * volumes[(k, _RF)] * (n_pe // multicast[k])
        noc = n_rf * volumes[(k, _RF)] * n_pe
        if k is _OUTPUT:
            if n_gb > 1:
                dram *= psum
            if n_rf > 1:
                gb *= psum
        moved[_DRAM][k] = dram
        moved[_GB][k] = gb
        moved[_NOC][k] = noc
        moved[_RF][k] = body
    return AccessCounters(refreshes, moved, multicast, body, steps, n_pe)


# check builds 18 per call: a named tuple is built about twice as fast as
# a frozen dataclass
class DiffRow(NamedTuple):
    metric: str  # "elements" or "refreshes"
    level: MemLevel
    kind: DataKind
    analytic: int
    oracle: int

    @property
    def ok(self) -> bool:
        return self.analytic == self.oracle


class DiffReport(NamedTuple):
    rows: tuple[DiffRow, ...]

    @property
    def mismatches(self) -> tuple[DiffRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def diff_counts(plan, analytic, counters: AccessCounters) -> DiffReport:
    rows = []
    for lvl in LEVELS_OUTER_FIRST:
        for k in KINDS:
            rows.append(
                DiffRow(
                    "elements",
                    lvl,
                    k,
                    analytic[lvl][k],
                    counters.elements_moved[lvl][k],
                )
            )
    for mem in (_GB, _RF):
        for k in KINDS:
            rows.append(
                DiffRow(
                    "refreshes",
                    mem,
                    k,
                    plan.n_ref[(k, mem)],
                    counters.refreshes[mem][k],
                )
            )
    return DiffReport(tuple(rows))


def check(
    nest: LoopNest,
    refresh: RefreshLocations,
    hw: HardwareConfig | None = None,
    *,
    options: Options = Options(),
    cap: int = DEFAULT_CAP,
) -> DiffReport:
    """Analytic counts vs. a brute-force run of the same nest, which must
    be legal in structure and, when hw is given, fit it."""
    if hw is None:
        violations = validate_structure(nest, refresh)
        plan = None if violations else refresh_plan(nest, refresh, options)
    else:
        plan, violations = checked_plan(nest, hw, refresh, options)
    if violations:
        raise MappingError(violations)
    analytic = predictor.access_counts(plan, options)
    counters = simulate(nest, refresh, options=options, cap=cap)
    return diff_counts(plan, analytic, counters)
