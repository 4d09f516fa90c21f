"""Brute-force counting simulator vs. the closed-form access model."""

import dataclasses
import itertools
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accel_predict import (
    ConfigError,
    DataKind,
    InstanceTooLargeError,
    LayerShape,
    LoopLevel,
    LoopNest,
    MappingError,
    MemLevel,
    Options,
    RefreshLocations,
    access_counts,
    build_nest,
    check,
    diff_counts,
    hardware_preset,
    layer_preset,
    mapping_from_json,
    mapping_preset,
    mapping_to_json,
    refresh_plan,
    simulate,
)
from accel_predict import oracle
from accel_predict.model import DIMS, RELEVANT_DIMS
from tests.test_model import _hw

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT
DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


def nest_of(layer, *levels):
    return LoopNest(tuple(LoopLevel(*lv) for lv in levels), layer)


class TestWorkedExample:
    def _setup(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, DRAM), ("c", 2, GB), ("m", 2, RF))
        refresh = RefreshLocations(
            gb={I: 1, O: 1, W: 1}, rf={I: 2, O: 2, W: 2}
        )
        return nest, refresh

    def test_two_weight_refreshes_of_four_elements(self):
        nest, refresh = self._setup()
        counters = simulate(nest, refresh)
        assert counters.refreshes[GB][W] == 2
        assert counters.elements_moved[DRAM][W] == 2 * 4

    def test_oracle_matches_analytic_on_the_example(self):
        nest, refresh = self._setup()
        assert check(nest, refresh).ok

    def test_body_iterations_equal_padded_mac_count(self):
        nest, refresh = self._setup()
        counters = simulate(nest, refresh)
        assert counters.body_iterations == 8 == math.prod(lv.bound for lv in nest.levels)


class TestMeasurementDetails:
    def test_rf_traffic_is_one_operand_per_mac(self):
        layer = LayerShape(m=2, c=2, r=2, s=2, e=2, f=2)
        nest = nest_of(
            layer, ("m", 2, GB), ("c", 2, GB), ("r", 2, RF), ("s", 2, RF),
            ("e", 2, RF), ("f", 2, RF),
        )
        counters = simulate(nest, RefreshLocations.outermost(nest))
        for kind in DataKind:
            assert counters.elements_moved[RF][kind] == 64

    def test_input_rows_fetched_whole_when_stride_skips(self):
        # stride 3 with a 1x1 kernel touches every third row; transfers
        # are whole rows, so the gaps ride along
        layer = LayerShape(m=1, c=1, r=1, s=1, e=3, f=3, stride=3)
        nest = nest_of(
            layer, ("e", 3, RF), ("f", 3, RF)
        )
        refresh = RefreshLocations.outermost(nest)
        counters = simulate(nest, refresh)
        plan = refresh_plan(nest, refresh)
        assert counters.elements_moved[DRAM][I] == 7 * 7
        assert plan.v_ref[(I, GB)] == 7 * 7

    def test_multicast_measured_from_spatial_projections(self):
        layer = LayerShape(m=2, c=3, r=1, s=1, e=5, f=1)
        nest = nest_of(
            layer,
            ("m", 2, GB), ("c", 3, NOC, True), ("e", 5, NOC, True),
        )
        counters = simulate(nest, RefreshLocations.outermost(nest))
        assert counters.n_pe_active == 15
        assert counters.multicast == {I: 1, O: 3, W: 5}

    def test_psum_factor_inflates_recirculating_outputs_only(self):
        layer = LayerShape(m=2, c=4, r=1, s=1, e=1, f=1)
        # c iterates above the output refreshes: partials recirculate
        nest = nest_of(layer, ("c", 4, GB), ("m", 2, RF))
        refresh = RefreshLocations(
            gb={I: 0, O: 1, W: 0}, rf={I: 1, O: 1, W: 1}
        )
        base = simulate(nest, refresh, options=Options(psum_rw_factor=1))
        twice = simulate(nest, refresh)
        assert twice.elements_moved[DRAM][O] == 2 * base.elements_moved[DRAM][O]
        assert twice.elements_moved[GB][O] == 2 * base.elements_moved[GB][O]
        # reads feeding MACs and per-PE deliveries stay flat forms
        assert twice.elements_moved[NOC][O] == base.elements_moved[NOC][O]
        assert twice.elements_moved[RF][O] == base.elements_moved[RF][O]
        # refresh event counts are raw in both runs
        assert twice.refreshes == base.refreshes

    def test_single_load_outputs_not_inflated(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 8, RF))
        refresh = RefreshLocations.outermost(nest)
        counters = simulate(nest, refresh)
        # one refresh -> written once, no read-modify-write traffic
        assert counters.refreshes[GB][O] == 1
        assert counters.elements_moved[DRAM][O] == 8

    def test_oversize_instance_refused(self):
        layer = LayerShape(m=512, c=512, r=1, s=1, e=64, f=64)
        nest = nest_of(
            layer, ("m", 512, GB), ("c", 512, GB), ("e", 64, RF),
            ("f", 64, RF),
        )
        with pytest.raises(InstanceTooLargeError):
            simulate(nest, RefreshLocations.outermost(nest), cap=10**6)

    def test_cap_bounds_steps_and_pe_instances_separately(self):
        # 4 temporal steps on 8 PEs: the loop body runs 32 times, but the
        # oracle walks only the 4 steps and, for multicast, the 8 PEs
        layer = LayerShape(m=8, c=4, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("c", 4, GB), ("m", 8, NOC, True))
        refresh = RefreshLocations(
            gb={I: 1, O: 1, W: 1}, rf={I: 1, O: 1, W: 1}
        )
        assert simulate(nest, refresh, cap=8).body_iterations == 32
        assert check(nest, refresh, cap=8).ok
        with pytest.raises(InstanceTooLargeError, match="8 spatial instances"):
            simulate(nest, refresh, cap=7)
        with pytest.raises(InstanceTooLargeError, match="4 temporal steps"):
            simulate(nest, refresh, cap=3)

    @pytest.mark.parametrize(
        "cap", [float("nan"), "10", True, 1.5e9, 0, -5],
        ids=["nan", "str", "bool", "float", "zero", "negative"],
    )
    def test_cap_must_be_an_integer_of_at_least_one(self, cap):
        # unchecked, nan makes every cap comparison false (no bound at
        # all), "10" fails mid-walk with a TypeError, True is compared as
        # 1 and 1.5e9 as a float
        layer = LayerShape(m=8, c=4, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("c", 4, GB), ("m", 8, NOC, True))
        refresh = RefreshLocations.outermost(nest)
        message = f"cap: expected an integer >= 1, got {cap!r}"
        for run in (simulate, check):
            with pytest.raises(ConfigError) as err:
                run(nest, refresh, cap=cap)
            assert str(err.value) == message

    def test_assume_stride_one_matches_on_both_sides(self):
        layer = LayerShape(m=2, c=2, r=3, s=3, e=4, f=4, stride=2)
        nest = nest_of(
            layer, ("m", 2, GB), ("c", 2, GB), ("r", 3, RF), ("s", 3, RF),
            ("e", 4, RF), ("f", 4, RF),
        )
        refresh = RefreshLocations.outermost(nest)
        opts = Options(assume_stride_one=True)
        assert check(nest, refresh, options=opts).ok
        relaxed = simulate(nest, refresh, options=opts)
        strided = simulate(nest, refresh)
        assert (
            relaxed.elements_moved[DRAM][I] < strided.elements_moved[DRAM][I]
        )

    @pytest.mark.parametrize("dim", ["e", "r", "f", "s"])
    def test_bound_zero_loop_below_the_input_tile_is_a_mapping_error(
        self, dim
    ):
        # below the input tile, the loop leaves no touched row to span
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, GB), (dim, 0, RF))
        with pytest.raises(MappingError) as err:
            simulate(nest, RefreshLocations.outermost(nest))
        assert [str(v) for v in err.value.violations] == [
            "levels[1]: bound must be >= 1"
        ]

    def test_bound_zero_spatial_loop_is_a_mapping_error(self):
        # outputs and weights depend on m, and no PE instance leaves no
        # group to divide the PE count by
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("c", 2, GB), ("m", 0, NOC, True), ("m", 2, RF))
        with pytest.raises(MappingError) as err:
            simulate(nest, RefreshLocations.outermost(nest))
        assert err.value.violations == [
            v for v in nest.structure_violations
            if v.message == "bound must be >= 1"
        ]
        assert str(err.value) == "levels[1]: bound must be >= 1"

    @pytest.mark.parametrize("location", [4, -1])
    def test_location_outside_the_nest_is_a_mapping_error(self, location):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, DRAM), ("c", 2, GB), ("m", 2, RF))
        refresh = RefreshLocations(
            gb={I: 0, O: 0, W: 0}, rf={I: 3, O: location, W: 3}
        )
        with pytest.raises(MappingError) as err:
            simulate(nest, refresh)
        assert str(err.value) == (
            f"refresh[O][RF]: location {location} outside [0, 3]"
        )


class TestDiff:
    def _small(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, DRAM), ("c", 2, GB), ("m", 2, RF))
        refresh = RefreshLocations(
            gb={I: 1, O: 1, W: 1}, rf={I: 2, O: 2, W: 2}
        )
        return nest, refresh

    def test_fault_injection_names_the_bad_cell(self):
        nest, refresh = self._small()
        plan = refresh_plan(nest, refresh)
        analytic = access_counts(plan)
        analytic[GB][W] += 1  # inject a mistake
        diff = diff_counts(plan, analytic, simulate(nest, refresh))
        assert not diff.ok
        bad = diff.mismatches
        assert len(bad) == 1
        assert (bad[0].metric, bad[0].level, bad[0].kind) == ("elements", GB, W)
        assert bad[0].analytic == bad[0].oracle + 1

    def test_diff_covers_all_cells(self):
        nest, refresh = self._small()
        plan = refresh_plan(nest, refresh)
        diff = diff_counts(plan, access_counts(plan), simulate(nest, refresh))
        elements = [r for r in diff.rows if r.metric == "elements"]
        refreshes = [r for r in diff.rows if r.metric == "refreshes"]
        assert len(elements) == 12  # 4 levels x 3 kinds
        assert len(refreshes) == 6  # GB/RF x 3 kinds

    @pytest.mark.parametrize("name", [f"conv{i}" for i in range(1, 6)])
    def test_alexnet_row_stationary_matches_at_default_cap(self, name):
        hw = hardware_preset("eyeriss_normalized")
        nest, refresh = mapping_preset("row_stationary", layer_preset(name), hw)
        assert check(nest, refresh, hw).ok

    def test_check_validates_against_hardware_when_given(self):
        layer = LayerShape(m=17, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 17, NOC, True))
        hw = _hw(pe_rows=4, pe_cols=4)
        with pytest.raises(MappingError):
            check(nest, RefreshLocations.outermost(nest), hw)

    # a Python slice would cut the loops at 5 or -10 as at 4 or 0
    @pytest.mark.parametrize("location", [5, -10, -1])
    def test_check_without_hardware_rejects_a_location_outside_the_nest(
        self, location
    ):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=2, f=1)
        nest = build_nest(layer, {GB: {"m": 2}, RF: {"m": 2, "c": 2, "e": 2}})
        refresh = RefreshLocations(
            gb={I: 0, O: 0, W: 0},
            rf={I: location, O: location, W: location},
        )
        with pytest.raises(MappingError) as exc:
            check(nest, refresh)
        first = exc.value.violations[0]
        assert (first.code, first.field) == ("structure", "refresh[I][RF]")
        assert first.message == f"location {location} outside [0, 4]"


# ------------------------- randomized equivalence (small, fast cases)


@st.composite
def legal_instances(draw, max_loops=7, max_bound=3):
    """A random legal nest + refresh with a small temporal space."""
    n_loops = draw(st.integers(1, max_loops))
    mems = sorted(
        draw(
            st.lists(
                st.sampled_from(list(MemLevel)),
                min_size=n_loops, max_size=n_loops,
            )
        ),
        reverse=True,
    )
    levels = []
    products = {d: 1 for d in DIMS}
    for mem in mems:
        dim = draw(st.sampled_from(DIMS))
        bound = draw(st.integers(1, max_bound))
        products[dim] *= bound
        levels.append(LoopLevel(dim, bound, mem, spatial=(mem is NOC)))
    stride = draw(st.integers(1, 3))
    layer = LayerShape(
        **{d: products[d] for d in DIMS}, stride=stride
    )
    nest = LoopNest(tuple(levels), layer)

    p_noc = nest.group_start(NOC)
    end = len(levels)
    gb, rf = {}, {}
    for kind in DataKind:
        gb[kind] = draw(st.integers(0, p_noc))
        rf[kind] = draw(st.integers(gb[kind], end))
    psum = draw(st.sampled_from([None, 1, 3]))
    return nest, RefreshLocations(gb=gb, rf=rf), Options(psum_rw_factor=psum)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(legal_instances())
def test_analytic_counts_equal_brute_force(instance):
    nest, refresh, options = instance
    diff = check(nest, refresh, options=options)
    assert diff.ok, "\n".join(str(r) for r in diff.mismatches)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(legal_instances())
def test_body_iterations_match_padded_macs(instance):
    nest, refresh, options = instance
    counters = simulate(nest, refresh, options=options)
    assert counters.body_iterations == math.prod(lv.bound for lv in nest.levels)
    assert counters.macs_per_pe * counters.n_pe_active == counters.body_iterations


# ------------------------- reference walkers over the full nest
#
# An odometer over every temporal step, a point-by-point walk over all
# of a tile's relevant loops, and a PE grouping that projects each
# instance element by element. The narrower and faster walks in
# accel_predict.oracle must reproduce their counts exactly.


def _ref_count_refresh_events(bounds: list[int], depths: set[int]) -> dict[int, int]:
    """Run the odometer over `bounds`; for each depth d, count iterations
    where some index at position < d changed (the first iteration counts
    everywhere)."""
    counts = {d: 0 for d in depths}
    prev = None
    for point in itertools.product(*(range(b) for b in bounds)):
        if prev is None:
            for d in depths:
                counts[d] += 1
        else:
            changed = 0
            while point[changed] == prev[changed]:
                changed += 1
            for d in depths:
                if changed < d:
                    counts[d] += 1
        prev = point
    return counts


def _ref_dim_subindex(loops, assignment, dim: str) -> int:
    """Mixed-radix composition of one dim's loop indices, outer-major."""
    value = 0
    for lv, idx in zip(loops, assignment):
        if lv.dim == dim:
            value = value * lv.bound + idx
    return value


def _ref_measure_tile(loops, kind: DataKind, stride: int, cap: int) -> int:
    """Elements of `kind` touched across one full pass of `loops`."""
    # Loops over dims the tensor does not depend on revisit the same
    # elements; skipping them shrinks the enumeration without changing
    # the touched set.
    loops = [lv for lv in loops if lv.dim in RELEVANT_DIMS[kind]]
    size = 1
    for lv in loops:
        size *= lv.bound
    if size > cap:
        raise InstanceTooLargeError(
            f"tile enumeration of {size} points exceeds cap {cap}"
        )
    if kind is DataKind.INPUT:
        cs: set[int] = set()
        hs: set[int] = set()
        ws: set[int] = set()
        for pt in itertools.product(*(range(lv.bound) for lv in loops)):
            cs.add(_ref_dim_subindex(loops, pt, "c"))
            e = _ref_dim_subindex(loops, pt, "e")
            r = _ref_dim_subindex(loops, pt, "r")
            f = _ref_dim_subindex(loops, pt, "f")
            s = _ref_dim_subindex(loops, pt, "s")
            hs.add(e * stride + r)
            ws.add(f * stride + s)
        # rows are fetched whole, gaps included
        return len(cs) * (max(hs) - min(hs) + 1) * (max(ws) - min(ws) + 1)
    dims = sorted(RELEVANT_DIMS[kind])
    seen = {
        tuple(_ref_dim_subindex(loops, pt, d) for d in dims)
        for pt in itertools.product(*(range(lv.bound) for lv in loops))
    }
    return len(seen)


def _ref_multicast(spatial_loops) -> dict[DataKind, int]:
    """Per kind, PE instances over the groups of instances with equal
    projections onto the loops the kind depends on."""
    n_pe = 1
    for lv in spatial_loops:
        n_pe *= lv.bound
    multicast = {}
    for kind in DataKind:
        projections = {
            tuple(
                idx
                for lv, idx in zip(spatial_loops, pt)
                if lv.dim in RELEVANT_DIMS[kind]
            )
            for pt in itertools.product(
                *(range(lv.bound) for lv in spatial_loops)
            )
        }
        multicast[kind] = n_pe // len(projections)
    return multicast


def _ref_measure_tiles(levels, locs, stride: int, cap: int) -> dict:
    """The seam `oracle._measure_tiles` fills: each (kind, level) tile
    measured on its own from the loops below its location, every loop for
    GB and the temporal ones for RF."""
    volumes = {}
    for (kind, mem), loc in locs.items():
        below = levels[loc:]
        if mem is RF:
            below = [lv for lv in below if not lv.spatial]
        volumes[(kind, mem)] = _ref_measure_tile(below, kind, stride, cap)
    return volumes


def reference_simulate(nest, refresh, options):
    with mock.patch.object(
        oracle, "_count_refresh_events", _ref_count_refresh_events
    ), mock.patch.object(
        oracle, "_measure_tiles", _ref_measure_tiles
    ), mock.patch.object(oracle, "_multicast", _ref_multicast):
        return simulate(nest, refresh, options=options)


@st.composite
def reference_instances(draw):
    nest, refresh, options = draw(legal_instances(max_loops=8, max_bound=4))
    options = dataclasses.replace(
        options, assume_stride_one=draw(st.booleans())
    )
    return nest, refresh, options


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(reference_instances())
def test_simulate_equals_full_nest_walk(instance):
    nest, refresh, options = instance
    assert simulate(nest, refresh, options=options) == reference_simulate(
        nest, refresh, options
    )


def test_refresh_walk_equals_full_odometer():
    # every bound tuple over {1, 2, 3} up to four loops, every depth set
    for n in range(5):
        depth_sets = [
            set(ds)
            for size in range(1, n + 2)
            for ds in itertools.combinations(range(n + 1), size)
        ]
        for bounds in itertools.product((1, 2, 3), repeat=n):
            for depths in depth_sets:
                assert oracle._count_refresh_events(list(bounds), depths) == (
                    _ref_count_refresh_events(list(bounds), depths)
                ), (bounds, depths)


def test_bound_one_loops_stay_out_of_the_enumeration(monkeypatch):
    # bound-1 loops innermost in the enumerated prefix (and between its
    # loops): each still counts its one iteration, and none reaches product()
    seen = []
    product = oracle.product

    def spy(*ranges):
        seen.extend(ranges)
        return product(*ranges)

    monkeypatch.setattr(oracle, "product", spy)
    prefixes = [p for n in range(4) for p in itertools.product((2, 3), repeat=n)]
    for prefix in prefixes:
        for ones in range(1, 5):
            for bounds in ([*prefix, *[1] * ones], [1, *prefix, 1, *[1] * ones]):
                n = len(bounds)
                for depths in itertools.chain(
                    ({d} for d in range(n + 1)),
                    itertools.combinations(range(n + 1), 3),
                ):
                    assert oracle._count_refresh_events(bounds, set(depths)) == (
                        _ref_count_refresh_events(bounds, set(depths))
                    ), (bounds, depths)
    assert seen and range(1) not in seen


def test_bound_zero_loop_still_counts_nothing_below_it():
    counts = oracle._count_refresh_events([2, 0, 1, 3, 1], set(range(6)))
    assert counts == {0: 1, 1: 2, 2: 0, 3: 0, 4: 0, 5: 0}


def test_bound_one_loops_cost_no_enumeration_steps(monkeypatch):
    # 3,000 bound-1 loops innermost in the prefix: the enumeration sees
    # only the two loops of 10, so each of its tuples has two entries
    widths = set()
    product = oracle.product

    def spy(*ranges):
        for point in product(*ranges):
            widths.add(len(point))
            yield point

    monkeypatch.setattr(oracle, "product", spy)
    bounds = [10, 10, *[1] * 3000]
    assert oracle._count_refresh_events(bounds, {2, 3002}) == {2: 100, 3002: 100}
    assert widths == {2}


def test_cap_bounds_the_walked_steps_not_all_steps():
    # 32 temporal steps, but every refresh sits below the c loop, so only
    # its 4 steps are walked
    layer = LayerShape(m=8, c=4, r=1, s=1, e=1, f=1)
    nest = nest_of(layer, ("c", 4, GB), ("m", 8, RF))
    refresh = RefreshLocations(gb={I: 1, O: 1, W: 1}, rf={I: 1, O: 1, W: 1})
    assert check(nest, refresh, cap=8).ok
    assert simulate(nest, refresh, cap=8).macs_per_pe == 32
    with pytest.raises(InstanceTooLargeError, match="4 temporal steps"):
        simulate(nest, refresh, cap=3)


def test_thousands_of_loops_above_the_refresh_points_check():
    # .dflow drops bound-1 loops; a JSON mapping keeps them, so the walk
    # runs through 3,000 loops above every refresh point
    hw = hardware_preset("eyeriss_normalized")
    layer = layer_preset("conv5")
    data = mapping_to_json(*mapping_preset("row_stationary", layer, hw))
    n = 3000
    data["levels"][:0] = [{"dim": "m", "bound": 1, "mem": "DRAM"}] * n
    for locs in data["refresh"].values():
        for mem in locs:
            locs[mem] += n
    nest, refresh = mapping_from_json(data, layer)
    assert len(nest.levels) > n
    assert check(nest, refresh, hw).ok


# ------------------------- tiles and multicast against their references


@st.composite
def tile_instances(draw):
    """Loops in group order over a few dims, so dims repeat, with bound-1
    loops between them; 1-3 spatial loops of bound up to 6; locations
    drawn from a few positions, so kinds share a dim's loops below them;
    stride 1-4, or 1 under assume_stride_one."""
    dims = draw(st.lists(st.sampled_from(DIMS), min_size=1, max_size=4,
                         unique=True))
    bound = st.one_of(st.just(1), st.integers(2, 4))
    levels = []
    for mem, count, spatial in (
        (DRAM, st.integers(0, 3), False),
        (GB, st.integers(0, 3), False),
        (NOC, st.integers(1, 3), True),
        (RF, st.integers(0, 4), False),
    ):
        for _ in range(draw(count)):
            levels.append(LoopLevel(
                draw(st.sampled_from(dims)),
                draw(st.integers(1, 6) if spatial else bound),
                mem,
                spatial,
            ))
    positions = draw(st.lists(st.integers(0, len(levels)), min_size=1,
                              max_size=3))
    locs = {
        (kind, mem): draw(st.sampled_from(positions))
        for kind in DataKind
        for mem in (GB, RF)
    }
    layer_stride = draw(st.integers(1, 4))
    stride = 1 if draw(st.booleans()) else layer_stride  # assume_stride_one
    cap = draw(st.one_of(st.just(10**9), st.integers(1, 300)))
    return tuple(levels), locs, stride, cap


def _outcome(measure, *args):
    try:
        return measure(*args)
    except InstanceTooLargeError as err:
        return str(err)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tile_instances())
def test_each_tile_volume_equals_its_own_walk(instance):
    levels, locs, stride, cap = instance
    # the same volume for each (kind, level), or the same first refusal
    assert _outcome(oracle._measure_tiles, levels, locs, stride, cap) == (
        _outcome(_ref_measure_tiles, levels, locs, stride, cap)
    )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tile_instances())
def test_multicast_equals_the_projection_walk(instance):
    levels = instance[0]
    spatial = [lv for lv in levels if lv.spatial]
    assert oracle._multicast(spatial) == _ref_multicast(spatial)


def _tile_loops(nest, refresh, kind, mem):
    below = nest.levels[refresh.loc(kind, mem):]
    return [lv for lv in below if not lv.spatial] if mem is RF else below


@pytest.mark.parametrize("name", [f"conv{i}" for i in range(1, 6)])
def test_each_distinct_axis_list_is_enumerated_once(name, monkeypatch):
    # The 24 (tile, relevant dim) lookups of a check share axis lists: a
    # dim's loops below two locations, or two dims' loops of equal bounds.
    hw = hardware_preset("eyeriss_normalized")
    nest, refresh = mapping_preset("row_stationary", layer_preset(name), hw)
    wanted = {
        tuple(lv.bound for lv in reversed(loops)
              if lv.dim == d and lv.bound != 1)
        for kind in DataKind
        for mem in (GB, RF)
        for loops in [_tile_loops(nest, refresh, kind, mem)]
        for d in RELEVANT_DIMS[kind]
    }
    calls = []
    touched = oracle._touched

    def spy(*args):
        calls.append(args)
        return touched(*args)

    monkeypatch.setattr(oracle, "_touched", spy)
    assert check(nest, refresh, hw).ok
    assert len(calls) == len(wanted)
    # each call's axes, by their loops' bounds innermost first
    assert {tuple(map(len, axes)) for axes, in calls} == wanted


@pytest.mark.parametrize("name", [f"conv{i}" for i in range(1, 6)])
def test_cap_one_below_the_largest_tile_names_the_first_tile_over_it(name):
    hw = hardware_preset("eyeriss_normalized")
    nest, refresh = mapping_preset("row_stationary", layer_preset(name), hw)
    points = {
        (kind, mem): math.prod(
            lv.bound for lv in _tile_loops(nest, refresh, kind, mem)
            if lv.dim in RELEVANT_DIMS[kind]
        )
        for kind in DataKind
        for mem in (GB, RF)
    }
    cap = max(points.values()) - 1
    first = next(n for n in points.values() if n > cap)
    # the walked steps and the PE instances stay within the cap
    assert check(nest, refresh, hw, cap=cap + 1).ok
    with pytest.raises(InstanceTooLargeError) as err:
        simulate(nest, refresh, cap=cap)
    assert str(err.value) == f"tile enumeration of {first} points exceeds cap {cap}"
