"""The plan-to-score kernels against their reference implementations.

`loopnest.build_plan` and `predictor.access_counts`, `energy` and
`latency` compute every count from one pass over the loops and read the
plan once per kind; `energy` and `latency` read every cost and bandwidth
from `HardwareConfig.score_table`, the one table built when the hardware
is constructed. The `_ref_*` functions below are the earlier forms, kept
verbatim: a product of loop bounds per refresh count, a term dict per
max over kinds, and costs and bandwidths read from the hardware's own
fields, so they check that table too. On every instance both must give
the same plan, counts, energy and latency, bit for bit and in the same
key order, or raise the same exception with the same message. The one
intended difference is DRAM traffic: the reference leaves input and
weight DRAM counts (and output ones under a fractional read+write
factor) unchecked, and the kernel passes them through the overflow rule.
An instance with a refresh location outside 0..n is excluded: the
reference cuts the loops there as a slice would, and the kernel refuses
it with a MappingError.

`loopnest.checked_plan` asks `buffers_fit` for the capacity verdict and
builds the overflow violations only when a tile does not fit; its former
self, which built them on every call, is its reference.

`predictor.score_totals`, the explorer's score, returns the energy and
latency totals without a plan or reports: it builds the count rows with
`count_rows` and prices them with `energy_terms` and `latency_terms`, the
rules the report path uses. Its reference is that report path itself:
`energy(...).total` and `latency(...).l_total_s` of `build_plan` and
`access_counts`, bit for bit, or the same exception with the same
message. It hands over to `build_plan` only a nest that path refuses: a
MAC product outside 1..2^63-1 or a bound under 1.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accel_predict import (
    ConfigError,
    CountOverflowError,
    DataKind,
    LayerShape,
    LoopLevel,
    LoopNest,
    MappingError,
    MemLevel,
    Options,
    Precision,
    RefreshLocations,
    UnitCosts,
    access_counts,
    Violation,
    energy,
    hardware_preset,
    latency,
    mapping_preset,
    network_preset,
    predict_layer,
    refresh_plan,
    validate_structure,
)
from accel_predict import loopnest, predictor
from accel_predict.loopnest import (
    _RELEVANT,
    RefreshPlan,
    _overflows,
    _volumes_below,
    build_plan,
    checked_plan,
    resident_tiles,
)
from accel_predict.model import (
    INT64_MAX,
    KINDS,
    LEVELS_OUTER_FIRST,
    _FLOAT_MAX,
    checked_product,
)
from accel_predict.predictor import (
    AccessCounts,
    EnergyReport,
    LatencyReport,
    score_totals,
)
from tests.test_model import _hw
from tests.test_oracle import legal_instances

DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


# ---------------------------------------------------------- references


def _ref_build_plan(loops, gb, rf, tiles) -> RefreshPlan:
    n_ref: dict[tuple[DataKind, MemLevel], int] = {}
    v_ref: dict[tuple[DataKind, MemLevel], int] = {}
    for mem, locs, volumes in zip((MemLevel.GB, MemLevel.RF), (gb, rf), tiles):
        for kind, p, v in zip(KINDS, locs, volumes):
            n_ref[(kind, mem)] = checked_product(
                [b for _, b, sp in loops[:p] if not sp]
            )
            v_ref[(kind, mem)] = v
    spatial = [(d, b) for d, b, sp in loops if sp]
    return RefreshPlan(
        n_ref=n_ref,
        v_ref=v_ref,
        multicast={
            kind: checked_product(b for d, b in spatial if d not in relevant)
            for kind, relevant in zip(KINDS, _RELEVANT)
        },
        n_pe_active=checked_product(b for _, b in spatial),
        n_mac_padded=checked_product(b for _, b, _ in loops),
    )


def _ref_refresh_plan(nest, refresh, options=Options()) -> RefreshPlan:
    # unchecked locations: one outside 0..n cuts the loops as a slice would
    n = len(nest.loops)
    gb, rf = ([slice(locs[k], None).indices(n)[0] for k in KINDS]
              for locs in (refresh.gb, refresh.rf))
    stride = options.effective_stride(nest.layer)
    tiles = resident_tiles(gb, rf, *_volumes_below(nest.loops, gb, rf, stride))
    return _ref_build_plan(nest.loops, gb, rf, tiles)


def _ref_access_counts(plan: RefreshPlan, options: Options = Options()) -> AccessCounts:
    psum = options.psum_factor()
    n_pe = plan.n_pe_active

    def out_factor(mem: MemLevel):
        return psum if plan.n_ref[(DataKind.OUTPUT, mem)] > 1 else 1

    def _scale(count: int, factor):
        if isinstance(factor, int):
            return checked_product((count, factor))
        return count * factor

    counts: AccessCounts = {lvl: {} for lvl in LEVELS_OUTER_FIRST}
    for k in KINDS:
        dram = plan.traffic(k, MemLevel.GB)
        gb = checked_product(
            (plan.traffic(k, MemLevel.RF), n_pe // plan.multicast[k])
        )
        noc = checked_product((plan.traffic(k, MemLevel.RF), n_pe))
        if k is DataKind.OUTPUT:
            dram = _scale(dram, out_factor(MemLevel.GB))
            gb = _scale(gb, out_factor(MemLevel.RF))
        counts[MemLevel.DRAM][k] = dram
        counts[MemLevel.GB][k] = gb
        counts[MemLevel.NOC][k] = noc
        counts[MemLevel.RF][k] = plan.n_mac_padded
    return counts


def _ref_energy(plan: RefreshPlan, counts: AccessCounts, hw) -> EnergyReport:
    uc = hw.unit_costs
    by_level_kind: dict[MemLevel, dict[DataKind, float]] = {}
    level_totals: dict[MemLevel, float] = {}
    for lvl, per_kind in counts.items():
        by_level_kind[lvl] = {
            k: per_kind[k] * uc.access(lvl, k) for k in KINDS
        }
        level_totals[lvl] = sum(by_level_kind[lvl].values())
    e_comp = plan.n_mac_padded * uc.e_mac
    total = e_comp + sum(level_totals.values())
    return EnergyReport(
        e_comp=e_comp,
        e_rf=level_totals[MemLevel.RF],
        e_noc=level_totals[MemLevel.NOC],
        e_gb=level_totals[MemLevel.GB],
        e_dram=level_totals[MemLevel.DRAM],
        total=total,
        by_level_kind=by_level_kind,
    )


def _ref_bw_checked(value: float, name: str, kind: DataKind | None = None) -> float:
    if not value > 0:
        path = name if kind is None else f"{name}[{kind}]"
        raise ConfigError(f"{path}: bandwidth must be > 0")
    return value


def _ref_max_over_kinds(terms: dict[DataKind, float]) -> tuple[float, DataKind | None]:
    best_kind = None
    best = 0.0
    for k in KINDS:
        if k in terms and terms[k] > best:
            best, best_kind = terms[k], k
    return best, best_kind


def _ref_latency(plan, counts, hw, options=Options()) -> LatencyReport:
    t_comp = hw.unit_costs.mac_time()
    if options.literal_eq8:
        l_comp = plan.n_mac_padded * t_comp
    else:
        # spatial bounds divide the padded MAC product exactly
        l_comp = (plan.n_mac_padded // plan.n_pe_active) * t_comp

    bits = hw.precision.bits
    bw_dram = _ref_bw_checked(hw.bw_dram, "bw_dram")

    dram_terms = {}
    gb_terms = {}
    for k in KINDS:
        gb_bw = _ref_bw_checked(hw.gb_bw(k), "bw_gb", k)
        dram_terms[k] = counts[MemLevel.DRAM][k] * bits(k) / min(gb_bw, bw_dram)
        gb_level = MemLevel.GB if options.gb_latency_multicast_aware else MemLevel.NOC
        gb_terms[k] = counts[gb_level][k] * bits(k) / gb_bw
    l_dram, dram_kind = _ref_max_over_kinds(dram_terms)
    l_gb, gb_kind = _ref_max_over_kinds(gb_terms)

    # First-tile fill before steady state; outputs are produced, not staged.
    setup_terms = {}
    for k in (DataKind.INPUT, DataKind.WEIGHT):
        gb_bw = _ref_bw_checked(hw.gb_bw(k), "bw_gb", k)
        rf_bw = _ref_bw_checked(hw.rf_bw(k), "bw_rf", k)
        fill_gb = plan.v_ref[(k, MemLevel.GB)] * bits(k) / min(gb_bw, bw_dram)
        fill_rf = plan.v_ref[(k, MemLevel.RF)] * bits(k) / min(rf_bw, gb_bw)
        setup_terms[k] = max(fill_gb, fill_rf)
    l_setup, setup_kind = _ref_max_over_kinds(setup_terms)

    steady = max(l_dram, l_gb, l_comp)
    if steady == l_comp:
        bottleneck = "comp"
    elif steady == l_dram:
        bottleneck = "dram"
    else:
        bottleneck = "gb"
    return LatencyReport(
        l_comp_s=l_comp,
        l_dram_s=l_dram,
        l_gb_s=l_gb,
        l_setup_s=l_setup,
        l_total_s=l_setup + steady,
        bottleneck=bottleneck,
        dram_kind=dram_kind,
        gb_kind=gb_kind,
        setup_kind=setup_kind,
    )


# ----------------------------------------------------------- instances


def _outcome(fn, *args):
    """fn(*args) as its repr, which spells every float exactly and every
    dict in key order, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


# a bandwidth; zero and NaN are refused when hardware is built
_BANDWIDTHS = st.sampled_from(
    [1e9, 2e9, 3.3e9, 7.7e8, 5e9, 1.1e10, 4e9, 6e8, math.inf]
)
# costs whose sums round, so a changed summation order shows
_COSTS = st.floats(0.0, 300.0, allow_nan=False)
# for the score kernel also, now and then, an integer cost, whose products
# stay exact, or one whose products pass the float range
_SCORE_COSTS = st.one_of(_COSTS, st.integers(0, 300), st.just(10**300))


@st.composite
def _bandwidth(draw):
    if draw(st.booleans()):
        return draw(_BANDWIDTHS)
    return {k: draw(_BANDWIDTHS) for k in KINDS}


@st.composite
def kernel_instances(draw, costs=_COSTS):
    """A legal nest and refresh with bounds small or large enough to
    overflow, a stride up to 2^31 now and then (an input tile then counts
    the gaps between windows, so DRAM traffic can outgrow every array-side
    count), a location now and then outside 0..n, every model option, and
    hardware with shared or per-kind bandwidths and costs that round."""
    max_bound = draw(st.sampled_from([3, 2**12, 2**24]))
    nest, refresh, options = draw(legal_instances(max_bound=max_bound))
    stride = draw(st.sampled_from([None, 2**8, 2**20, 2**31]))
    if stride:
        nest = LoopNest(nest.levels, dataclasses.replace(nest.layer, stride=stride))
    if draw(st.integers(0, 9)) == 0:
        n = len(nest.loops)
        refresh = RefreshLocations(
            gb=refresh.gb,
            rf={k: draw(st.sampled_from([-n - 1, -1, n + 1])) for k in KINDS},
        )
    options = dataclasses.replace(
        options,
        psum_rw_factor=draw(st.sampled_from([None, 1, 1.5, 2.0, 3])),
        literal_eq8=draw(st.booleans()),
        gb_latency_multicast_aware=draw(st.booleans()),
        assume_stride_one=draw(st.booleans()),
    )
    levels = draw(st.lists(st.sampled_from(LEVELS_OUTER_FIRST), unique=True))
    hw = _hw(
        bw_dram=draw(_BANDWIDTHS),
        bw_gb=draw(_bandwidth()),
        bw_rf=draw(_bandwidth()),
        unit_costs=UnitCosts(
            e_mac=draw(costs),
            e_access={
                lvl: {k: draw(costs) for k in KINDS
                      if draw(st.integers(0, 5))}
                for lvl in levels
            },
            t_comp=1e-9,
        ),
        precision=Precision(*(draw(st.integers(1, 64)) for _ in KINDS)),
    )
    return nest, refresh, options, hw


def _check_against_reference(nest, refresh, options, hw):
    plan = _outcome(refresh_plan, nest, refresh, options)
    assert plan == _outcome(_ref_refresh_plan, nest, refresh, options)
    if isinstance(plan, tuple):
        return
    plan = refresh_plan(nest, refresh, options)

    counts = _outcome(_ref_access_counts, plan, options)
    if isinstance(counts, tuple):
        assert _outcome(access_counts, plan, options) == counts
        return
    counts = _ref_access_counts(plan, options)
    overflow = [t for t in (plan.traffic(k, GB) for k in KINDS) if t > INT64_MAX]
    if overflow:
        # the one intended difference: the reference returns DRAM traffic
        # beyond 2^63-1, the kernel raises on the first such count
        assert _outcome(access_counts, plan, options) == (
            CountOverflowError, f"count {overflow[0]} exceeds 2^63-1"
        )
    else:
        assert _outcome(access_counts, plan, options) == repr(counts)

    assert _outcome(energy, plan, counts, hw) == _outcome(
        _ref_energy, plan, counts, hw
    )
    # costs pair with levels by key, in whatever order the counts come
    reverse = dict(reversed(counts.items()))
    assert _outcome(energy, plan, reverse, hw) == _outcome(
        _ref_energy, plan, reverse, hw
    )
    assert _outcome(latency, plan, counts, hw, options) == _outcome(
        _ref_latency, plan, counts, hw, options
    )


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kernel_instances())
def test_kernel_matches_reference(instance):
    nest, refresh, options, _ = instance
    n = len(nest.loops)
    if any(not 0 <= p <= n for locs in (refresh.gb, refresh.rf)
           for p in locs.values()):
        with pytest.raises(MappingError):
            refresh_plan(nest, refresh, options)
        return
    _check_against_reference(*instance)


def _instance(loops, at, stride=1, psum=None):
    """A nest of (dim, bound, level) loops, NoC ones spatial, with every
    refresh location at `at`, on a layer the loops need not cover (the
    kernel reads only its stride)."""
    layer = LayerShape(m=1, c=1, r=1, s=1, e=1, f=1, stride=stride)
    nest = LoopNest(tuple(LoopLevel(d, b, mem, spatial=mem is NOC)
                          for d, b, mem in loops), layer)
    refresh = RefreshLocations(gb=dict.fromkeys(KINDS, at), rf=dict.fromkeys(KINDS, at))
    return nest, refresh, Options(psum_rw_factor=psum), _hw()


# Overflows the random instances rarely reach, each with the error both
# forms raise.
EDGE_CASES = {
    # one PE's input tile spans 2^62 + 1 columns, sent to both PEs
    "noc-input-deliveries": (
        _instance([("m", 2, NOC), ("f", 2, RF)], 0, stride=2**62),
        f"count {2 * (2**62 + 1)} exceeds 2^63-1",
    ),
    # 2^62 output elements cross DRAM, times the read+write factor 3
    "output-dram-times-psum": (
        _instance([("c", 2**31, DRAM), ("m", 2**31, RF)], 1, psum=3),
        f"count {3 * 2**62} exceeds 2^63-1",
    ),
    # the weights' multicast over a 2^64-wide e row, before n_pe_active
    "multicast": (
        _instance([("e", 2**64, NOC)], 1),
        f"count {2**64} exceeds 2^63-1",
    ),
    # a bound of 0 (an unvalidated nest) after one of 2^70
    "zero-bound-after-an-overflow": (
        _instance([("m", 2**70, DRAM), ("c", 0, GB)], 2),
        f"count {2**70} exceeds 2^63-1",
    ),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_kernel_matches_reference_at_the_edges(name):
    instance, message = EDGE_CASES[name]
    _check_against_reference(*instance)
    nest, refresh, options, _ = instance
    with pytest.raises(CountOverflowError) as exc:
        access_counts(refresh_plan(nest, refresh, options), options)
    assert str(exc.value) == message
    # the score kernel raises the report path's error itself, and hands
    # over only a MAC product outside 1..2^63-1
    assert _score_against_report_path(*instance) is (
        name in ("multicast", "zero-bound-after-an-overflow"))


def test_dram_traffic_passes_the_overflow_rule():
    # Below GB location 1 (the f loop) each input tile spans
    # (2^31 - 1) x 2^31 + 1 columns, and the e loop above it brings one in
    # 2^31 times: 2^93 - 2^62 + 2^31 input elements cross DRAM.
    layer = LayerShape(m=1, c=1, r=1, s=1, e=2**31, f=2**31, stride=2**31)
    nest = LoopNest((LoopLevel("e", 2**31, DRAM), LoopLevel("f", 2**31, GB)), layer)
    refresh = RefreshLocations(gb=dict.fromkeys(KINDS, 1), rf=dict.fromkeys(KINDS, 2))
    hw = dataclasses.replace(
        hardware_preset("eyeriss_normalized"), capacity_gb=2**80, capacity_rf=2**80
    )
    with pytest.raises(CountOverflowError) as exc:
        predict_layer(layer, nest, refresh, hw, Options(psum_rw_factor=1))
    assert str(exc.value) == "count 9903520309671356182913089536 exceeds 2^63-1"
    # the score kernel raises the same error, without handing over
    assert _score_against_report_path(
        nest, refresh, Options(psum_rw_factor=1), hw) is False


# ------------------------------------------------------- score kernel


def _score_against_report_path(nest, refresh, options, hw):
    """score_totals against energy(...).total and latency(...).l_total_s
    of the same loops, locations and resident tiles. Returns whether the
    kernel handed the instance to the report path."""
    loops, n = nest.loops, len(nest.loops)
    gb, rf = ([locs[k] for k in KINDS] for locs in (refresh.gb, refresh.rf))
    if not all(0 <= p <= n for p in (*gb, *rf)):
        return None  # refresh_plan refuses these before any count
    try:
        stride = options.effective_stride(nest.layer)
        tiles = resident_tiles(gb, rf, *_volumes_below(loops, gb, rf, stride))
    except CountOverflowError:
        return None  # no tiles to score

    def report_path():
        plan = build_plan(loops, gb, rf, tiles)
        counts = access_counts(plan, options)
        return (energy(plan, counts, hw).total,
                latency(plan, counts, hw, options).l_total_s)

    handed = []

    def spy(*args):
        handed.append(args)
        return build_plan(*args)

    # the kernel builds a plan only when it hands an instance over
    with mock.patch.object(predictor, "build_plan", spy):
        got = _outcome(score_totals, loops, gb, rf, tiles, hw, options)
    assert got == _outcome(report_path)
    return bool(handed)


def _in_range(nest, refresh, options, hw) -> bool:
    """Whether every count of the instance is at most 2^63-1 and both of
    its totals are finite: where the kernel must not hand over."""
    plan = refresh_plan(nest, refresh, options)
    counts = access_counts(plan, options)
    totals = (energy(plan, counts, hw).total,
              latency(plan, counts, hw, options).l_total_s)
    return (all(x <= INT64_MAX for row in counts.values() for x in row.values())
            and all(t <= _FLOAT_MAX for t in totals))


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kernel_instances(costs=_SCORE_COSTS))
def test_score_kernel_matches_the_report_path(instance):
    handed = _score_against_report_path(*instance)
    if handed and _outcome(_in_range, *instance) is True:
        raise AssertionError("an in-range instance went to the report path")


# ------------------------------------------------------ checked plan
#
# checked_plan before it asked buffers_fit for the capacity verdict, kept
# verbatim as the reference: it read the tiles back from the plan per level
# and drained _overflows on every call. Both must return the same plan and
# the same violations (code, field, message, order), or raise the same.


def _ref_checked_plan(nest, hw, refresh, options=Options()):
    out = validate_structure(nest, refresh)
    if out:
        return None, out
    plan = refresh_plan(nest, refresh, options)
    if plan.n_pe_active > hw.n_pe:
        out.append(Violation(
            "pe_array", "levels", f"{plan.n_pe_active} spatial instances > "
            f"{hw.pe_rows}x{hw.pe_cols} array",
        ))
    gb, rf = (
        [plan.v_ref[(k, mem)] for k in KINDS] for mem in (GB, RF)
    )
    for name, kind, need, cap in _overflows(hw, gb, rf):
        if kind is None:
            message = f"resident tiles need {need} bits > capacity {cap}"
        else:
            name = f"{name}[{kind}]"
            message = f"tile needs {need} bits > capacity {cap}"
        out.append(Violation("capacity", name, message))
    return plan, out


@st.composite
def capacity_instances(draw):
    """A kernel instance on hardware sized against its own plan: each
    buffer's capacity is shared or per kind, under a buffering factor of 1
    or 2, and the tiles sit at it, one bit or one element over it, or well
    under it; the PE array fits the spatial loops or is one PE short."""
    nest, refresh, options, hw = draw(kernel_instances())
    bf = draw(st.sampled_from((1, 2)))
    try:
        plan = refresh_plan(nest, refresh, options)
    except (MappingError, CountOverflowError):
        return nest, refresh, options, dataclasses.replace(hw, buffering_factor=bf)
    per = [b * bf for b in hw.precision.by_kind]

    def capacity(mem):
        # the bits each kind's tile needs, and a capacity at that need, one
        # bit or one element short of it, or roomy (at it or roomy two times
        # in three, so that one overflow alone often decides the verdict):
        # per kind, or shared by the kinds' sum
        need = [plan.v_ref[k, mem] * n for k, n in zip(KINDS, per)]
        if draw(st.booleans()):
            return max(1, sum(need) + draw(st.sampled_from((0, 0, -1, -per[0], 5, 5))))
        return {k: max(1, t + draw(st.sampled_from((0, 0, -1, -n, 5 * n, 5 * n))))
                for k, t, n in zip(KINDS, need, per)}

    pes = max(1, plan.n_pe_active - draw(st.sampled_from((0, 1))))
    return nest, refresh, options, dataclasses.replace(
        hw, capacity_gb=capacity(GB), capacity_rf=capacity(RF),
        buffering_factor=bf, pe_rows=1, pe_cols=pes,
    )


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(capacity_instances())
def test_checked_plan_matches_reference(instance):
    nest, refresh, options, hw = instance
    assert _outcome(checked_plan, nest, hw, refresh, options) == _outcome(
        _ref_checked_plan, nest, hw, refresh, options
    )


def test_a_mapping_that_fits_never_builds_overflows(monkeypatch):
    hw = hardware_preset("eyeriss_normalized")
    # the recipe itself tries mappings that overflow, so it runs first
    mapped = [(layer, *mapping_preset("row_stationary", layer, hw))
              for layer in network_preset("alexnet_conv")]

    def refuse(*args):
        raise AssertionError("_overflows called")

    monkeypatch.setattr(loopnest, "_overflows", refuse)
    for layer, nest, refresh in mapped:
        assert checked_plan(nest, hw, refresh)[1] == []
        predict_layer(layer, nest, refresh, hw)
    # a mapping that does not fit still names each overflow
    small = dataclasses.replace(hw, capacity_gb=16)
    with pytest.raises(AssertionError, match="_overflows called"):
        checked_plan(nest, small, refresh)
