"""Brute-force reference counts: run the loop nest and watch the buffers.

No closed forms: every iteration of each loop that can change a count is
run. Refreshes are observed: a buffer is refilled once per iteration of
the temporal loops above its location, and for each refresh depth those
iterations are enumerated one by one (itertools.product) and counted in
C. Tile volumes are measured by collecting the coordinates each kind
touches (distinct values for weights/outputs, the bounding box for
inputs, whose fetches are contiguous rows). One walk from the innermost
loop out lists each dim's loops below every location as axes (a loop's
indices times its place value); each distinct axis list is enumerated
once per check into the dim's touched indices, and an input row
e*stride + r (column f*stride + s) is taken over every pair of touched
indices. Spatial loops expand into per-PE instances, listed loop by loop
as columns; multicast is measured by grouping the instances whose
projections onto a kind's loops are equal.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, chain, compress, product, repeat
from operator import add, itemgetter
from typing import NamedTuple

from . import predictor
from .errors import ConfigError, InstanceTooLargeError, MappingError, Violation
from .loopnest import (
    NO_ITERATIONS,
    LoopNest,
    RefreshLocations,
    checked_plan,
    refresh_plan,
    validate_structure,
)
from .model import (
    DEFAULT_CAP,
    DIMS,
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


def _touched(axes) -> set[int]:
    """Every index of one dim over a pass of its loops. `axes` holds, per
    loop from the innermost out, the loop's indices times its place value
    (the product of the dim's loops inside it); each loop adds its values
    to every index the loops inside it built."""
    touched = {0}
    for axis in axes:
        touched = {t + a for t in touched for a in axis}
    return touched


def _grow(axes: tuple, bound: int) -> tuple:
    """`axes` with one more loop outside them, whose place value is the
    product of the loops inside: the last axis's stop."""
    place = axes[-1].stop if axes else 1
    return (*axes, range(0, bound * place, place))


def _span(outer: set[int], inner: set[int], stride: int) -> int:
    """Input rows (or columns) a tile spans: every touched index
    e*stride + r (f*stride + s), gaps included, since rows are fetched
    whole."""
    hs = {o * stride + i for o in outer for i in inner}
    return max(hs) - min(hs) + 1


# per kind, its dims' entries of a row (the input's read as c, e, f, r, s)
_ROW_DIMS = {kind: itemgetter(*sorted(RELEVANT_DIMS[kind])) for kind in KINDS}


def _measure_tiles(levels, locs, stride: int, cap: int) -> dict:
    """Elements of each (kind, level) tile touched across one full pass of
    the loops below its location: every loop for GB, the temporal ones for
    RF. One walk from the innermost loop out keeps each dim's axes below
    the current position, over all loops and over the temporal ones, and
    takes a row at each location (a bound-1 loop adds no axis). Each
    distinct axis list is enumerated once, however many tiles share it."""
    at = {(mem, p) for (_, mem), p in locs.items()}
    top = min(locs.values())
    below = dict.fromkeys(DIMS, ())  # every loop: GB tiles
    below_t = dict(below)  # temporal loops only: RF tiles
    rows = {}
    for p in range(len(levels), top - 1, -1):
        if (_GB, p) in at:
            rows[(_GB, p)] = dict(below)
        if (_RF, p) in at:
            rows[(_RF, p)] = dict(below_t)
        if p > top:
            dim, bound, _, spatial = levels[p - 1]
            if bound != 1:
                below[dim] = _grow(below[dim], bound)
                if not spatial:
                    below_t[dim] = _grow(below_t[dim], bound)

    seen: dict[tuple, set[int]] = {}
    volumes = {}
    for (kind, mem), p in locs.items():
        per_dim = _ROW_DIMS[kind](rows[(mem, p)])
        # Loops over dims the tensor does not depend on revisit the same
        # elements, so the cap counts the points of the relevant loops only.
        size = math.prod([len(axis) for axes in per_dim for axis in axes])
        if size > cap:
            raise InstanceTooLargeError(
                f"tile enumeration of {size} points exceeds cap {cap}"
            )
        coords = []
        for axes in per_dim:
            touched = seen.get(axes)
            if touched is None:
                touched = seen[axes] = _touched(axes)
            coords.append(touched)
        if kind is _INPUT:
            c, e, f, r, s = coords
            volumes[(kind, mem)] = (
                len(c) * _span(e, r, stride) * _span(f, s, stride)
            )
        else:
            # the touched set is the product of the per-dim sets
            volumes[(kind, mem)] = math.prod(map(len, coords))
    return volumes


# two columns (or a projection and a column) summed entry by entry
_add_columns = partial(map, add)


def _multicast(spatial_loops) -> dict[DataKind, int]:
    """Per kind, PE instances over the groups of instances that land on
    identical tiles. Column j lists every instance's index on spatial loop
    j (odometer order, the last loop fastest) times its place value, so an
    instance's sum over the loops a kind depends on numbers its projection
    onto them, and equal projections form one group."""
    n_pe = math.prod(lv.bound for lv in spatial_loops)
    columns = []
    inner = 1
    for lv in reversed(spatial_loops):
        if lv.bound == 1:  # every instance's index is 0
            continue
        values = range(0, lv.bound * inner, inner)
        column = list(chain.from_iterable(map(repeat, values, repeat(inner))))
        column *= n_pe // (lv.bound * inner)
        columns.append((lv.dim, column))
        inner *= lv.bound
    multicast = {}
    for kind in KINDS:
        relevant = [c for dim, c in columns if dim in RELEVANT_DIMS[kind]]
        # with no relevant loop, every instance lands on the one tile
        groups = len(set(reduce(_add_columns, relevant))) if relevant else 1
        multicast[kind] = n_pe // groups
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
    levels = nest.levels
    n = len(levels)
    locs = {
        (kind, mem): at[kind]
        for kind in KINDS
        for mem, at in ((_GB, refresh.gb), (_RF, refresh.rf))
    }
    # A loop of no iterations, or a location outside the nest, leaves
    # nothing to enumerate.
    bad = [v for v in nest.structure_violations if v.message == NO_ITERATIONS]
    bad += [
        Violation("structure", f"refresh[{k}][{mem.label}]",
                  f"location {p} outside [0, {n}]")
        for (k, mem), p in locs.items() if not 0 <= p <= n
    ]
    if bad:
        raise MappingError(bad)
    stride = options.effective_stride(nest.layer)
    spatial_loops = [lv for lv in levels if lv.spatial]
    bounds = [lv.bound for lv in levels if not lv.spatial]
    # Spatial loops are parallel hardware, not iterations: a location is
    # mapped to its temporal depth, a running count of the temporal loops
    # above it, so positions inside the spatial group all see the same
    # refresh cadence.
    depth_at = list(accumulate([not lv.spatial for lv in levels], initial=0))
    n_pe = math.prod(lv.bound for lv in spatial_loops)
    steps = math.prod(bounds)

    depth_of = {key: depth_at[p] for key, p in locs.items()}
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
    volumes = _measure_tiles(levels, locs, stride, cap)
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
