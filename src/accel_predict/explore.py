"""Mapping search over tilings, loop orderings and refresh styles.

A search space is the cross product of per-dimension tiling choices
(ordered factor tuples across the chosen memory levels, which the space
keeps outermost first whatever order they are given in), loop-ordering
templates and refresh styles. Candidates are screened against the
hardware (PE count, buffer capacities) and scored with the analytic
model under one of three objectives: energy, latency or their product.

A candidate is checked on plain integers, the same way for every
refresh style, in the order of the full check's codes. What no tiling
can change is decided once per search: a row_stationary_like register
budget under one element, or a positional style's kept tensor alone
overflowing the GB. The PE rule then reads the candidate's NoC factors.
Those two rules run once per candidate. Every strategy names a
candidate by its index (a mixed radix in itertools.product order) and
settles a batch of indices in one loop, reading the rules off each
index's style digit and its tilings' NoC factors. A random sample is
the one random.sample draws, drawn with one getrandbits call per pick.
Every dim's tilings hold its whole tiling (n, 1, ..., 1), so a beam
completion, which leaves the unassigned dims whole, is a candidate index
too. A positional survivor is scored from six per-dim rows, one per
tiling: its refresh points sit on level-group boundaries, so each
resident tile is a product of per-level factors, and its refresh
counts, multicast, PE and MAC products are products of the rows too.
A dim's tilings and rows depend only on its extent, the space's levels
and whether it pads, never on hardware, stride, orderings or styles, so
they are built once per process for each of those and shared by every
search (a bounded cache); the verdicts, the PE count and the index radix
are the search's own, rebuilt per call. A capacity discard builds
nothing, and a legal positional one builds flat loops only for a MAC
product past 2^63-1, which build_plan refuses. A row_stationary_like
survivor's flat loops are built from its factors and ordering and
walked once: that walk places its refresh points and sizes its resident
tiles, and it is the row scorer's reference. Both price a legal
candidate with predictor.price_totals (the walk through score_totals),
which builds no plan or report; the report path is its bit-for-bit
reference, and only the returned entries get a full report. Generated
nests are legal in structure, so this discards exactly what the full
check would, under the same code. A discard counts under the code of the
first violation it hit. A beam stage whose first style is doomed scores
nothing, so it builds only the first beam_width partials, the ones it
keeps.

Results rank on (value, mapping text, index), but a candidate's
RefreshLocations, LoopNest and text are built only when it is kept, or
when its value ties another legal one's within the kept places;
elsewhere the text cannot change the order. The nest is built from the
same flat loops the scorer planned, unranked from the result's index.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .dsl import render
from .errors import ConfigError, MappingError
from .loopnest import (
    REFRESH_STYLES,
    STATIONARY_KIND,
    LoopLevel,
    LoopNest,
    RefreshLocations,
    _RELEVANT,
    _check_coverage,
    buffers_fit,
    check_ordering,
    place_refresh,
    positional_points,
    resident_tiles,
)
from .model import (
    DIMS,
    INT64_MAX,
    KINDS,
    HardwareConfig,
    LayerShape,
    LEVELS_OUTER_FIRST,
    OBJECTIVES,
    STRATEGIES,
    MemLevel,
    Options,
    checked_count,
    tile_volumes,
)
from .predictor import PredictionReport, predict_layer, price_totals, score_totals

_FACTOR_ENUM_CAP = 2_000_000


@dataclass(frozen=True)
class SearchSpace:
    """What the explorer is allowed to try.

    levels lists the memories each dimension may tile across; they are
    kept outermost first, whatever order they are given in, so the order
    changes no candidate or result. orderings holds loop-order templates,
    each either one dim permutation applied at every level or a per-level
    mapping. Each dim tiles into every ordered tuple of its divisors
    whose product is the dim; allow_nondivisor adds its minimal covers
    (no factor can shrink and still cover the dim): a far larger space,
    which suits a directed search better than random sampling. Either way
    a dim's tilings hold its whole extent at the outermost level, so no
    space is empty.
    """

    hw: HardwareConfig
    levels: tuple[MemLevel, ...] = LEVELS_OUTER_FIRST
    orderings: tuple = ((),)
    refresh_styles: tuple[str, ...] = ("weight_stationary", "output_stationary")
    allow_nondivisor: bool = False
    options: Options = Options()
    exhaustive_cap: int = 500_000

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("search space needs at least one memory level")
        for i, mem in enumerate(self.levels):
            if type(mem) is not MemLevel:  # LoopNest's rule
                raise ConfigError(f"levels[{i}]: {mem!r} is not a MemLevel")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError("search space levels must be distinct")
        # outermost first, whatever order they came in: the order sets the
        # tiling tuples and so the candidate indices a seed picks
        object.__setattr__(self, "levels", tuple(
            mem for mem in LEVELS_OUTER_FIRST if mem in self.levels))
        if not self.refresh_styles:
            raise ConfigError("search space needs at least one refresh style")
        for style in self.refresh_styles:
            if style not in REFRESH_STYLES:
                raise ConfigError(f"unknown refresh style {style!r}; pick "
                                  f"from {REFRESH_STYLES}")
        if len(set(self.refresh_styles)) != len(self.refresh_styles):
            raise ConfigError("search space refresh styles must be distinct")
        if not self.orderings:
            raise ConfigError("search space needs at least one ordering")
        if type(self.exhaustive_cap) is not int or self.exhaustive_cap < 1:
            raise ConfigError("exhaustive_cap: expected an integer >= 1, got "
                              f"{self.exhaustive_cap!r}")
        # per ordering and level (outermost first), the (dim index, slot in
        # a tiling tuple) of each loop it emits
        slot = {mem: j for j, mem in enumerate(self.levels)}
        groups = tuple(tuple(
            tuple((DIMS.index(d), slot[mem]) for d in order.get(mem, DIMS))
            if mem in slot else () for mem in LEVELS_OUTER_FIRST
        ) for order in map(_normalize_ordering, self.orderings))
        if len(set(groups)) != len(groups):
            raise ConfigError("search space orderings must emit distinct loops "
                              "over its levels")
        object.__setattr__(self, "groups", groups)
        # the RF's, GB's, NoC's and DRAM's slot in a tiling tuple, None for
        # a level the space lacks
        object.__setattr__(self, "slots", tuple(map(
            slot.get, (MemLevel.RF, MemLevel.GB, MemLevel.NOC, MemLevel.DRAM))))


def _normalize_ordering(template) -> dict[MemLevel, tuple[str, ...]]:
    if isinstance(template, Mapping):
        ordering = {mem: tuple(order) for mem, order in template.items()}
    else:
        order = tuple(template)
        ordering = {mem: order for mem in LEVELS_OUTER_FIRST} if order else {}
    check_ordering(ordering)
    return ordering


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending, found up to its square root."""
    small = [b for b in range(1, math.isqrt(n) + 1) if not n % b]
    return small + [n // b for b in reversed(small) if b * b != n]


def _tilings(value: int, k: int, padded: bool) -> list[tuple[int, ...]]:
    """Per-level factor tuples of `value` across k levels, in lexicographic
    order: its divisor tilings or, if `padded`, its minimal covers. Each
    node carries rest = ceil(value / prefix product). The last factor is
    rest: a larger one could shrink, and a smaller one does not cover."""
    factors = functools.cache(  # for this call: rests repeat
        (lambda rest: range(1, rest + 1)) if padded else _divisors)
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec(rest: int, prefix: tuple[int, ...]):
        nonlocal nodes
        if padded and (nodes := nodes + 1) > _FACTOR_ENUM_CAP:
            raise ConfigError("too many padded tilings to enumerate; disable "
                              "allow_nondivisor")
        if len(prefix) == k - 1:
            tiling = prefix + (rest,)
            if not (padded and _check_coverage(value, tiling)[1]):
                out.append(tiling)
            return
        for b in factors(rest):
            rec(-(-rest // b), prefix + (b,))

    rec(value, ())
    return out


class _DimPart(NamedTuple):
    # what a dim's searches share: its tilings, each one's NoC factor and
    # row (see _Prepared), and its largest tiling product
    tilings: tuple[tuple[int, ...], ...]
    nocs: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    largest: int


@functools.lru_cache(maxsize=128)  # a few networks' extents, a few level sets
def _dim_part(value: int, padded: bool, slots: tuple) -> _DimPart:
    """The tilings of a dim of extent `value` over the levels whose RF,
    GB, NoC and DRAM slots are `slots` (SearchSpace.slots), with their
    NoC factors and rows. None of it depends on hardware, stride or the
    rest of the space, so every search of that extent shares it; an error
    from _tilings is raised again on every call."""
    # the RF, GB, NoC and DRAM factors' slots in a tiling with a 1
    # appended, which a level the space lacks reads
    last = sum(j is not None for j in slots)
    rf, gb, noc, dram = [last if j is None else j for j in slots]
    tilings = tuple(_tilings(value, last, padded))
    rows = []
    for t in tilings:
        t += (1,)
        gb_rf = t[gb] * t[rf]
        array = gb_rf * t[noc]
        rows.append((t[noc], t[rf], gb_rf, array, array * t[dram], t[dram],
                     t[dram] * t[gb]))
    return _DimPart(tilings, tuple(row[0] for row in rows), tuple(rows),
                    max(map(math.prod, tilings)))


class _Prepared:
    """One search's view of its space: each dim's shared _DimPart, and
    what depends on the hardware and the rest of the space, rebuilt per
    call."""

    def __init__(self, parts, styles, groups, slots, kept, stride, doomed, n_pe):
        self.tilings: dict[str, tuple[tuple[int, ...], ...]] = {
            d: part.tilings for d, part in zip(DIMS, parts)}
        self.styles: list[str] = styles
        self.groups, self.slots = groups, slots  # SearchSpace.groups, .slots
        # per style, the index in KINDS of the kind it keeps, or None
        self.kept: list[int | None] = kept
        self.stride: int = stride
        # per style, the code every candidate of it is discarded under, or
        # None: "refresh_style" when a register budget is under one element,
        # "capacity" when a positional style's kept tensor overflows the GB
        self.doomed: list[str | None] = doomed
        self.n_pe: int = n_pe
        # the mixed radix of a candidate index, most significant first, and
        # each dim digit's place value
        self.radices = [len(part.tilings) for part in parts]
        self.radices += [len(groups), len(styles)]
        self.places = [math.prod(self.radices[i + 1:]) for i in range(len(DIMS))]
        # Per dim, what _settle reads off an index digit: its tilings' NoC
        # factors (1 without a NoC level) and rows, its place value and its
        # radix. A tiling's row is its NoC factor, the dim's extent across
        # the RF, GB*RF, GB*NoC*RF and every level, and its DRAM and
        # DRAM*GB products. The factors and rows are the shared _DimPart's.
        self.table = [(part.nocs, part.rows, p, n) for part, p, n
                      in zip(parts, self.places, self.radices)]

    @property
    def size(self) -> int:
        return math.prod(self.radices)


def _doomed(hw: HardwareConfig, style: str, dims, stride: int) -> str | None:
    """The code every candidate of `style` fails under, or None. A
    positional style's kept GB tile spans every level, so it holds at
    least its kind's whole tensor (`dims`, DIMS order), and neither
    tile_volumes nor the capacity rule eases as extents grow. A
    row_stationary_like placement fails on a nest iff on no loops."""
    kept = STATIONARY_KIND.get(style)
    if kept is not None:
        whole = tile_volumes(dims, stride)
        tiles = [v if k is kept else 0 for k, v in zip(KINDS, whole)]
        return None if buffers_fit(hw, tiles, [0, 0, 0]) else "capacity"
    try:
        place_refresh((), (0, 0, 0), style, hw, stride)
    except MappingError:
        return "refresh_style"
    return None


def _prepare(space: SearchSpace, layer: LayerShape) -> _Prepared:
    dims = [layer.dim(d) for d in DIMS]
    parts = [_dim_part(n, space.allow_nondivisor, space.slots) for n in dims]
    stride = space.options.effective_stride(layer)
    # No verdict where a tile can overflow, so CountOverflowError stays where
    # it is raised: a dim's whole extent is at most its largest tiling
    # product.
    largest = [part.largest for part in parts]
    decided = max(tile_volumes(largest, stride)) <= INT64_MAX
    return _Prepared(
        parts=parts,
        styles=list(space.refresh_styles),
        groups=space.groups,
        slots=space.slots,
        kept=[None if (k := STATIONARY_KIND.get(s)) is None else KINDS.index(k)
              for s in space.refresh_styles],
        stride=stride,
        doomed=[
            _doomed(space.hw, s, dims, stride) if decided else None
            for s in space.refresh_styles
        ],
        n_pe=space.hw.n_pe,
    )


def space_size(space: SearchSpace, layer: LayerShape) -> int:
    """Candidate count before legality screening."""
    return _prepare(space, layer).size


# ------------------------------------------------------------ evaluation

Candidate = tuple  # (per-dim factor tuples..., ordering index, style index)


def _unrank(prep: _Prepared, index: int) -> Candidate:
    """Candidate `index` of the space, in itertools.product order."""
    n_orderings, n_styles = prep.radices[-2:]
    return (*[prep.tilings[d][index // p % n]
              for d, p, n in zip(DIMS, prep.places, prep.radices)],
            index // n_styles % n_orderings, index % n_styles)


def _candidate_loops(prep: _Prepared, cand: Candidate):
    """A candidate's flat loops, each (dim index, bound, spatial), and the
    starts of its GB, NoC and RF groups."""
    loops, starts = [], []
    for spatial, group in zip((False, False, True, False), prep.groups[cand[-2]]):
        starts.append(len(loops))
        for d, j in group:
            if (b := cand[d][j]) > 1:
                loops.append((d, b, spatial))
    return loops, starts[1:]


def _candidate_nest(layer: LayerShape, prep: _Prepared, cand: Candidate) -> LoopNest:
    """A candidate's LoopNest: its flat loops, each at the level of the
    group it falls in."""
    loops, starts = _candidate_loops(prep, cand)
    return LoopNest(tuple(
        LoopLevel(DIMS[d], b, LEVELS_OUTER_FIRST[bisect.bisect_right(starts, i)],
                  spatial)
        for i, (d, b, spatial) in enumerate(loops)
    ), layer)


def _rejected(prep: _Prepared, style: int, noc_product: int) -> str | None:
    """The code a candidate of style index `style` whose NoC factors
    multiply to `noc_product` is discarded under before its loops are
    built, or None: a doomed style's, unless the PE rule comes first."""
    doomed = prep.doomed[style]
    if doomed != "refresh_style" and noc_product > prep.n_pe:
        return "pe_array"
    return doomed


def _score(space: SearchSpace, prep: _Prepared, objective: str, index: int):
    """Check row_stationary_like candidate `index`, which passed
    _rejected, against the rest of the hardware, in the full check's
    order of codes (refresh_style, then capacity), and score a legal one
    with score_totals. Its flat loops are walked once (place_refresh),
    the walk that is the positional scorer's reference; no nest is built.

    Returns ("ok", value, index, (gb, rf)), its refresh locations in
    KINDS order, or ("discard", code of the first violation found).
    """
    cand = _unrank(prep, index)
    loops, starts = _candidate_loops(prep, cand)
    try:
        gb, rf, *walk = place_refresh(loops, starts, prep.styles[cand[-1]],
                                      space.hw, prep.stride)
    except MappingError as exc:
        return ("discard", exc.violations[0].code)
    tiles = resident_tiles(gb, rf, *walk)
    if not buffers_fit(space.hw, *tiles):
        return ("discard", "capacity")
    e, lat = score_totals(loops, gb, rf, tiles, space.hw, space.options)
    value = {"energy": e, "latency": lat, "edp": e * lat}[objective]
    return ("ok", value, index, (gb, rf))


def _score_positional(space: SearchSpace, prep: _Prepared, objective: str,
                      rows, index: int, style: int):
    """_score of positional candidate `index` of style index `style`,
    which passed _rejected, read off its six rows (DIMS order), with the
    same results as the walk. Its refresh points (positional_points) sit
    on level-group boundaries, so its resident tiles, refresh counts (1,
    DRAM, DRAM*GB), multicast, PE and MAC products are products of
    per-level factors. The GB tiles pass checked_count in KINDS order, as
    in resident_tiles (an RF tile lies within its GB tile). Flat loops
    are built only for a MAC product past 2^63-1, which price_totals
    hands over to score_totals (and build_plan refuses).
    """
    kept, st = prep.kept[style], prep.stride
    m, c, r, s, e, f = rows
    # tile_volumes, inline, of row column 3 (GB*NoC*RF) for the GB tiles
    # and 1 (RF) for the RF tiles; the kept kind's of 4 and 2
    gb = [c[3] * ((e[3] - 1) * st + r[3]) * ((f[3] - 1) * st + s[3]),
          m[3] * e[3] * f[3], m[3] * c[3] * r[3] * s[3]]
    rf = [c[1] * ((e[1] - 1) * st + r[1]) * ((f[1] - 1) * st + s[1]),
          m[1] * e[1] * f[1], m[1] * c[1] * r[1] * s[1]]
    gb[kept] = (c[4] * ((e[4] - 1) * st + r[4]) * ((f[4] - 1) * st + s[4]),
                m[4] * e[4] * f[4], m[4] * c[4] * r[4] * s[4])[kept]
    rf[kept] = (c[2] * ((e[2] - 1) * st + r[2]) * ((f[2] - 1) * st + s[2]),
                m[2] * e[2] * f[2], m[2] * c[2] * r[2] * s[2])[kept]
    if max(gb) > INT64_MAX:
        for v in gb:
            checked_count(v)
    if not buffers_fit(space.hw, gb, rf):
        return ("discard", "capacity")
    nocs, _, _, _, wholes, drams, dram_gbs = zip(*rows)
    # each group starts after the loops above it, one per factor over 1
    p_gb = sum([d > 1 for d in drams])
    p_noc = p_gb + sum([dg > d for d, dg in zip(drams, dram_gbs)])
    gb_locs, rf_locs = positional_points(
        (p_gb, p_noc, p_noc + sum([n > 1 for n in nocs])), kept)
    dram = math.prod(drams)
    gb_counts, rf_counts = [dram] * 3, [math.prod(dram_gbs)] * 3
    gb_counts[kept], rf_counts[kept] = 1, dram
    # per kind, the NoC factors of the dims it does not depend on
    multicast = [math.prod([n for i, n in enumerate(nocs) if i not in relevant])
                 for relevant in _RELEVANT]
    totals = price_totals(gb_counts, rf_counts, multicast, math.prod(nocs),
                          math.prod(wholes), (gb, rf), space.hw, space.options)
    if totals is None:
        totals = score_totals(_candidate_loops(prep, _unrank(prep, index))[0],
                              gb_locs, rf_locs, (gb, rf), space.hw, space.options)
    energy, latency = totals
    value = {"energy": energy, "latency": latency,
             "edp": energy * latency}[objective]
    return ("ok", value, index, (gb_locs, rf_locs))


def _settle(space: SearchSpace, prep: _Prepared, objective: str, indices):
    """Judge candidates `indices` in one loop: the "ok" results and the
    other codes, in the order of `indices`. _rejected reads an index's
    style and six NoC digits, building nothing. A row_stationary_like
    survivor is walked (_score); a positional one is scored off its
    digits' rows."""
    (f0, t0, p0, n0), (f1, t1, p1, n1), (f2, t2, p2, n2), \
        (f3, t3, p3, n3), (f4, t4, p4, n4), (f5, t5, p5, n5) = prep.table
    n_styles = prep.radices[-1]
    kept = prep.kept
    legal, codes = [], []
    for i in indices:
        noc = (f0[i // p0 % n0] * f1[i // p1 % n1] * f2[i // p2 % n2]
               * f3[i // p3 % n3] * f4[i // p4 % n4] * f5[i // p5 % n5])
        style = i % n_styles
        if code := _rejected(prep, style, noc):
            codes.append(code)
            continue
        if kept[style] is None:
            res = _score(space, prep, objective, i)
        else:
            rows = (t0[i // p0 % n0], t1[i // p1 % n1], t2[i // p2 % n2],
                    t3[i // p3 % n3], t4[i // p4 % n4], t5[i // p5 % n5])
            res = _score_positional(space, prep, objective, rows, i, style)
        if res[0] == "ok":
            legal.append(res)
        else:
            codes.append(res[1])
    return legal, codes


def _builder(space: SearchSpace, layer: LayerShape, prep: _Prepared):
    """A per-search memo from an "ok" result to its mapping text, nest
    and refresh locations, built the first time they are asked for from
    the candidate its index names."""
    memo: dict[int, tuple[str, LoopNest, RefreshLocations]] = {}

    def built(res) -> tuple[str, LoopNest, RefreshLocations]:
        index, (gb, rf) = res[2:]
        if index not in memo:
            nest = _candidate_nest(layer, prep, _unrank(prep, index))
            refresh = RefreshLocations(gb=dict(zip(KINDS, gb)),
                                       rf=dict(zip(KINDS, rf)))
            memo[index] = render(nest, refresh), nest, refresh
        return memo[index]
    return built


def _order(scored, n: int, built) -> list[int]:
    """The indices of the n best results in `scored`, best first: by
    value, then mapping text, then index, a discard counting as value
    inf and text "". Text is built only for the legal members of a value
    tie that reaches the first n places."""
    # the flag puts a discard before a legal inf, as "" sorts before text
    keys = [(r[1], 1) if r[0] == "ok" else (math.inf, 0) for r in scored]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    start, n = 0, min(n, len(order))
    while start < n:
        key = keys[order[start]]
        end = bisect.bisect_right(order, key, start, key=keys.__getitem__)
        if key[1] and end - start > 1:
            order[start:end] = sorted(
                order[start:end], key=lambda i: built(scored[i])[0]
            )
        start = end
    return order[:n]


# --------------------------------------------------------------- results


class SearchEntry(NamedTuple):
    objective_value: float
    dsl: str
    nest: LoopNest
    refresh: RefreshLocations
    report: PredictionReport


class SearchResult:
    def __init__(self, feasible: bool, objective: str, strategy: str,
                 entries: tuple[SearchEntry, ...], stats: dict):
        self.feasible, self.objective, self.strategy = feasible, objective, strategy
        self.entries, self.stats = entries, stats

    @property
    def best(self) -> SearchEntry | None:
        return self.entries[0] if self.entries else None

    def to_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "objective": self.objective,
            "strategy": self.strategy,
            "stats": dict(self.stats),
            "top": [
                {
                    "rank": i + 1,
                    "objective_value": e.objective_value,
                    "energy_units": e.report.energy.total,
                    "latency_s": e.report.latency.l_total_s,
                    "throughput_gops": e.report.throughput_gops,
                    "mapping": e.dsl,
                }
                for i, e in enumerate(self.entries)
            ],
        }
        out["best_report"] = (
            self.entries[0].report.to_dict() if self.entries else None
        )
        return out


def _draw(seed: int, size: int, n: int) -> list[int]:
    """sorted(random.Random(seed).sample(range(size), n)), the same picks.
    Where sample rejection-samples into a set (a population larger than
    its set's table size), each draw here is one getrandbits call under
    sample's own accept rule, with no _randbelow call around it."""
    rng = random.Random(seed)
    if size <= 21 + (4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 0):
        return sorted(rng.sample(range(size), n))
    getrandbits, bits, picked = rng.getrandbits, size.bit_length(), set()
    for _ in range(n):
        j = getrandbits(bits)
        while j >= size or j in picked:
            j = getrandbits(bits)
        picked.add(j)
    return sorted(picked)


def explore(
    space: SearchSpace,
    layer: LayerShape,
    objective: str = "energy",
    strategy: str = "exhaustive",
    top_k: int = 10,
    seed: int = 0,
    n_samples: int = 1000,
    beam_width: int = 64,
) -> SearchResult:
    """Search the space and return the top_k mappings, best first.

    exhaustive scores every candidate (refusing spaces larger than the
    cap), random scores a seeded sample without replacement, and beam
    builds tilings one dimension at a time, keeping beam_width partial
    assignments scored by a cheap completion (remaining dims left
    untouched at the outermost level). Ties break on the canonical
    mapping text, so equal-cost mappings rank deterministically.
    """
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; pick from {OBJECTIVES}"
        )
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; pick from {STRATEGIES}"
        )
    for name, count in (("top_k", top_k), ("seed", seed),
                        ("n_samples", n_samples), ("beam_width", beam_width)):
        if type(count) is not int:  # bools too: True would print as true
            raise ConfigError(f"{name}: expected an integer, got {count!r}")
    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    if strategy == "random" and n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if strategy == "beam" and beam_width < 1:
        raise ConfigError("beam_width must be >= 1")
    prep = _prepare(space, layer)
    size = prep.size
    stats = {"space_size": size, "strategy": strategy, "objective": objective}
    if strategy == "exhaustive" and size > space.exhaustive_cap:
        raise ConfigError(
            f"space has {size} candidates, above the exhaustive cap "
            f"{space.exhaustive_cap}; use random or beam"
        )
    built = _builder(space, layer, prep)
    if strategy == "beam":
        scored, evaluated = _beam(space, layer, prep, objective, beam_width, built)
        legal = [r for r in scored if r[0] == "ok"]
        codes = [r[1] for r in scored if r[0] == "discard"]
    else:
        indices = range(size)
        if strategy == "random":
            n = min(n_samples, size)
            indices = _draw(seed, size, n)
            stats.update(seed=seed, n_samples=n)
        legal, codes = _settle(space, prep, objective, indices)
        evaluated = len(indices)

    discards = Counter(codes)
    stats.update(evaluated=evaluated, legal=len(legal), discarded=dict(discards))
    if strategy == "beam":
        stats["beam_width"] = beam_width
    entries = []
    for i in _order(legal, top_k, built):
        dsl, nest, refresh = built(legal[i])
        report = predict_layer(
            layer, nest, refresh, space.hw, space.options, validate=False
        )
        entries.append(SearchEntry(legal[i][1], dsl, nest, refresh, report))
    return SearchResult(bool(entries), objective, strategy, tuple(entries), stats)


def _beam(
    space: SearchSpace,
    layer: LayerShape,
    prep: _Prepared,
    objective: str,
    beam_width: int,
    built,
):
    """The scored finalists of a beam search, and how many candidates it
    evaluated; `built` is the search's _builder. A partial is the index
    sum of its assigned dims' digits. Its completion adds the digits of
    the other dims' whole tilings and ordering and style 0, both digit 0:
    an unassigned dim stays whole at the outermost search level."""
    ones = (1,) * (len(space.levels) - 1)
    wholes = [prep.tilings[d].index((layer.dim(d),) + ones) * p
              for d, p in zip(DIMS, prep.places)]
    memo = {}  # rounds and finalists revisit candidates

    def evaluate(indices: list[int]) -> list:
        # one _settle of the candidates not yet judged, aligned to indices
        new = [i for i in indices if i not in memo]
        legal, codes = _settle(space, prep, objective, new)
        ok, codes = {r[2]: r for r in legal}, iter(codes)
        for i in new:
            memo[i] = ok.get(i) or ("discard", next(codes))
        return [memo[i] for i in indices]

    evaluated = 0
    pool = [0]
    for j, (n, place) in enumerate(zip(prep.radices, prep.places)):
        rest = sum(wholes[j + 1:])
        evaluated += len(pool) * n
        expanded = (p + t * place for p in pool for t in range(n))
        if prep.doomed[0]:
            # completions are style 0, all discarded alike: the stage keeps
            # its first beam_width partials and builds no others
            pool = list(itertools.islice(expanded, beam_width))
            continue
        expanded = list(expanded)
        scored = evaluate([p + rest for p in expanded])
        pool = [expanded[i] for i in _order(scored, beam_width, built)]

    # tilings fixed; widen over orderings, then styles
    n_orderings, n_styles = prep.radices[-2:]
    with_orderings = [p + o * n_styles for p in pool for o in range(n_orderings)]
    if n_orderings > 1:
        scored = evaluate(with_orderings)
        evaluated += len(with_orderings)
        with_orderings = [
            with_orderings[i] for i in _order(scored, beam_width, built)
        ]

    finalists = [c + s for c in with_orderings for s in range(n_styles)]
    return evaluate(finalists), evaluated + len(finalists)
