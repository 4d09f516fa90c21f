"""Nest construction, legality checks, and refresh-count derivation."""

import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accel_predict import (
    ConfigError,
    DataKind,
    LayerShape,
    LoopLevel,
    LoopNest,
    MappingError,
    MemLevel,
    Options,
    RefreshLocations,
    Violation,
    build_nest,
    canonical_refresh,
    checked_plan,
    hardware_preset,
    layer_preset,
    lower,
    mapping_from_json,
    mapping_to_json,
    mapping_preset,
    parse,
    predict_layer,
    refresh_plan,
    render,
    validate_nest,
    validate_structure,
)
from accel_predict.loopnest import (
    _check_coverage,
    _overflows,
    buffers_fit,
    check_ordering,
    place_refresh,
)
from accel_predict.model import DIMS, KINDS, LEVELS_OUTER_FIRST, Precision
from tests.test_model import _hw
from tests.test_oracle import legal_instances

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT
DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


def nest_of(layer, *levels):
    return LoopNest(tuple(LoopLevel(*lv) for lv in levels), layer)


def uniform_refresh(nest):
    return RefreshLocations.outermost(nest)


class TestLoopLevel:
    def test_nest_rejects_unknown_dim(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError, match=r"^levels\[1\]: unknown loop "
                           "dimension 'x'$"):
            nest_of(layer, ("m", 2, DRAM), ("x", 2, GB), ("c", 2, RF))

    def test_nest_rejects_spatial_outside_noc(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError, match=r"^levels\[2\]: spatial loops "
                           "are only allowed at NoC$"):
            nest_of(layer, ("c", 2, DRAM), ("e", 1, GB), ("m", 2, GB, True))

    # a float bound reached the plan as an n_mac_padded of 2.0
    @pytest.mark.parametrize("bound", [2.0, True, "2"])
    def test_nest_rejects_a_bound_that_is_not_an_integer(self, bound):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError, match=rf"^levels\[1\]: bound "
                           rf"{bound!r} is not an integer$"):
            nest_of(layer, ("c", 2, DRAM), ("m", bound, GB))

    # a level given by its label failed later, in group_start's comparison
    @pytest.mark.parametrize("mem", ["GB", 2, None])
    def test_nest_rejects_a_level_that_is_not_a_memlevel(self, mem):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError, match=rf"^levels\[1\]: level "
                           rf"{mem!r} is not a MemLevel$"):
            nest_of(layer, ("c", 2, DRAM), ("m", 2, mem))

    def test_spatial_at_noc_ok(self):
        lv = LoopLevel("m", 2, NOC, spatial=True)
        assert lv.spatial


@settings(max_examples=100, deadline=None)
@given(legal_instances())
def test_both_loaders_assemble_what_was_written(instance):
    nest, refresh, _ = instance
    layer = nest.layer
    data = mapping_to_json(nest, refresh)
    assert mapping_from_json(data, layer) == (nest, refresh)
    # lower drops bound-1 loops by design
    if all(lv.bound > 1 for lv in nest.levels):
        assert lower(parse(render(nest, refresh)), layer) == (nest, refresh)


class TestBuildNest:
    def test_single_group_nest(self):
        layer = LayerShape(m=2, c=3, r=1, s=1, e=2, f=2)
        nest = build_nest(layer, {RF: {"m": 2, "c": 3, "e": 2, "f": 2}})
        assert all(lv.mem is RF for lv in nest.levels)
        assert len(nest.levels) == 4  # bound-1 dims dropped

    def test_all_dims_two_at_dram(self):
        layer = LayerShape(m=2, c=2, r=2, s=2, e=2, f=2)
        nest = build_nest(layer, {DRAM: {d: 2 for d in "mcrsef"}})
        assert len(nest.levels) == 6
        assert all(lv.mem is DRAM and lv.bound == 2 for lv in nest.levels)

    def test_exact_split_across_levels(self):
        layer = LayerShape(m=6, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {DRAM: {"m": 2}, GB: {"m": 3}})
        assert [(lv.dim, lv.bound, lv.mem) for lv in nest.levels] == [
            ("m", 2, DRAM), ("m", 3, GB)
        ]

    def test_noc_levels_come_out_spatial(self):
        layer = LayerShape(m=4, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {NOC: {"m": 4}})
        assert nest.levels[0].spatial

    def test_undercoverage_always_rejected(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(MappingError):
            build_nest(layer, {DRAM: {"m": 2}, GB: {"m": 2}})

    def test_minimal_padding_accepted(self):
        # 2*2 covers 3 and neither factor can shrink
        layer = LayerShape(m=3, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {DRAM: {"m": 2}, GB: {"m": 2}})
        assert math.prod(lv.bound for lv in nest.levels if lv.dim == "m") == 4

    def test_reducible_padding_rejected(self):
        # a single factor 4 over dim 3 could be 3
        layer = LayerShape(m=3, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(MappingError):
            build_nest(layer, {DRAM: {"m": 4}})

    def test_ordering_controls_level_order(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest = build_nest(
            layer,
            {GB: {"m": 2, "c": 2}},
            ordering={GB: ("c", "m", "r", "s", "e", "f")},
        )
        assert [lv.dim for lv in nest.levels] == ["c", "m"]

    def test_bad_ordering_rejected(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError):
            build_nest(layer, {GB: {"m": 2}}, ordering={GB: ("m", "m")})

    # a label key used to pass, and build_nest used the default order
    @pytest.mark.parametrize("key", ["GB", 1, None])
    def test_ordering_key_must_be_a_mem_level(self, key):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError) as exc:
            build_nest(layer, {GB: {"m": 2, "c": 2}},
                       ordering={key: ("c", "m", "r", "s", "e", "f")})
        assert str(exc.value) == f"ordering: {key!r} is not a MemLevel"
        with pytest.raises(ConfigError):
            check_ordering({key: DIMS})

    def test_bad_factor_rejected(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError):
            build_nest(layer, {GB: {"m": 0}})


# ------------------------------------------ the nest's one walk, referenced
#
# LoopNest builds its flat loops, group starts and structure violations in
# one walk. Before that, the group starts came from three group_start scans
# and the violations from a walk of their own; both are kept here verbatim
# as the reference.


def _ref_group_start(levels, mem):
    """Index of the first loop at `mem` or inner; len(levels) if none."""
    for i, lv in enumerate(levels):
        if lv.mem <= mem:
            return i
    return len(levels)


def _ref_check_coverage(true_dim, factors):
    product = math.prod(factors)
    shrinkable = []
    for b in factors:
        if b > 1 and (product // b) * (b - 1) >= true_dim:
            shrinkable.append(b)
    return product, shrinkable


def _ref_structure_violations(nest):
    out = []

    def flag(field, message):
        out.append(Violation("structure", field, message))

    prev = DRAM
    per_dim = {d: [] for d in DIMS}
    for i, lv in enumerate(nest.levels):
        if lv.bound < 1:
            flag(f"levels[{i}]", "bound must be >= 1")
        if lv.mem > prev:
            flag(
                f"levels[{i}]",
                f"{lv.mem.label} loop after {prev.label}; groups must "
                "run DRAM->GB->NoC->RF outermost to innermost",
            )
        elif lv.mem < prev:
            prev = lv.mem
        per_dim[lv.dim].append(lv.bound)

    spatial = [i for i, lv in enumerate(nest.levels) if lv.spatial]
    if spatial and spatial[-1] - spatial[0] != len(spatial) - 1:
        flag("levels", "spatial loops must be contiguous within NoC")

    for d in DIMS:
        true_dim = getattr(nest.layer, d)
        product, shrinkable = _ref_check_coverage(true_dim, per_dim[d])
        if product < true_dim:
            flag(f"dim {d}", f"tiling product {product} < layer dim {true_dim}")
        for b in shrinkable:
            flag(f"dim {d}", f"padding is not minimal: factor {b} could shrink "
                 f"({product}//{b}*{b - 1} still covers {true_dim})")
    return tuple(out)


def _assert_walk_matches_reference(nest):
    levels = nest.levels
    assert nest.loops == tuple(
        (DIMS.index(lv.dim), lv.bound, lv.spatial) for lv in levels
    )
    assert nest.starts == tuple(_ref_group_start(levels, m) for m in (GB, NOC, RF))
    for mem in MemLevel:
        assert nest.group_start(mem) == _ref_group_start(levels, mem)
    # same violations, in the same order, with the same text
    assert nest.structure_violations == _ref_structure_violations(nest)


@st.composite
def any_nests(draw):
    """Nests of any level order, bounds 0..6 (so coverage falls short, pads
    minimally or not), with spatial loops anywhere in the NoC group."""
    layer = LayerShape(**{d: draw(st.integers(1, 8)) for d in DIMS})
    levels = []
    for _ in range(draw(st.integers(0, 9))):
        mem = draw(st.sampled_from(list(MemLevel)))
        levels.append(LoopLevel(
            draw(st.sampled_from(DIMS)), draw(st.integers(0, 6)), mem,
            mem is NOC and draw(st.booleans()),
        ))
    return LoopNest(tuple(levels), layer)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(0, 12), max_size=5))
def test_coverage_rule_matches_reference(true_dim, factors):
    # _check_coverage skips the shrink test when the product is not above
    # true_dim, since shrinking a factor b takes product // b off
    assert _check_coverage(true_dim, factors) == _ref_check_coverage(
        true_dim, factors
    )


@settings(max_examples=400, deadline=None)
@given(any_nests())
def test_one_walk_matches_the_scans_it_replaced(nest):
    _assert_walk_matches_reference(nest)


@pytest.mark.parametrize("levels", [
    # GB after RF, and DRAM after NoC: each level out of order is flagged
    [("m", 2, DRAM), ("c", 2, RF), ("e", 2, GB), ("f", 2, NOC), ("r", 2, DRAM)],
    # spatial loops split by a temporal NoC loop, and by another group
    [("m", 2, NOC, True), ("c", 2, NOC), ("r", 2, NOC, True)],
    [("m", 2, NOC, True), ("c", 2, RF), ("r", 2, NOC, True), ("s", 2, RF)],
    # bound-0 loops, one of them also out of group order
    [("m", 0, GB), ("c", 0, DRAM), ("e", 3, RF)],
    # padding that is not minimal: 4 x 4 covers 5 with room to shrink
    [("m", 4, DRAM), ("m", 4, GB), ("c", 8, RF)],
    # every group empty but one (m falls short), and no loops at all
    [("m", 4, RF), ("c", 3, RF)],
    [],
], ids=["misgrouped", "split-in-noc", "split-across-groups", "bound-0",
        "padding", "rf-only", "empty"])
def test_one_walk_matches_on_illegal_nests(levels):
    layer = LayerShape(m=5, c=3, r=2, s=2, e=2, f=2)
    nest = nest_of(layer, *levels)
    _assert_walk_matches_reference(nest)
    assert nest.structure_violations  # each breaks a rule, coverage at least


class TestStructureValidation:
    def test_group_order_must_be_monotone(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, GB), ("c", 2, DRAM))
        fields = {v.field for v in nest.structure_violations}
        assert any("levels[1]" in f for f in fields)

    def test_spatial_loops_must_be_contiguous(self):
        layer = LayerShape(m=2, c=2, r=2, s=1, e=1, f=1)
        nest = nest_of(
            layer,
            ("m", 2, NOC, True), ("c", 2, NOC), ("r", 2, NOC, True),
        )
        assert any(
            "contiguous" in v.message for v in nest.structure_violations
        )

    def test_refresh_below_rf_group_end_rejected(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, RF))
        end = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: 1 for k in DataKind}
        )
        assert validate_structure(nest, end) == []  # below the last loop
        past = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: 2 for k in DataKind}
        )
        assert validate_structure(nest, past) != []

    def test_gb_refresh_must_stay_above_noc_group(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, GB), ("c", 2, NOC, True))
        bad = RefreshLocations(
            gb={k: 2 for k in DataKind}, rf={k: 2 for k in DataKind}
        )
        assert any(
            "refresh" in v.field for v in validate_structure(nest, bad)
        )

    def test_rf_refresh_may_not_sit_above_gb_refresh(self):
        layer = LayerShape(m=4, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, GB), ("m", 2, RF))
        bad = RefreshLocations(
            gb={k: 1 for k in DataKind},
            rf={k: 0 for k in DataKind},
        )
        assert any(
            "refresh" in v.field for v in validate_structure(nest, bad)
        )


class TestRefreshLocations:
    """Types and keys are checked when the locations are built, before a
    prediction or an oracle check reads them."""

    @pytest.fixture
    def conv5(self):
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("alexnet_conv5")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        return hw, layer, nest, refresh

    @pytest.mark.parametrize("loc", [1.0, "1", None, True])
    def test_non_integer_location(self, conv5, loc):
        hw, layer, nest, refresh = conv5
        with pytest.raises(ConfigError, match=r"refresh\[W\]\[GB\]: location"):
            bad = RefreshLocations(gb={**refresh.gb, W: loc}, rf=refresh.rf)
            predict_layer(layer, nest, bad, hw)

    @pytest.mark.parametrize("mem", ["gb", "rf"])
    @pytest.mark.parametrize("keys", [(I, O), (I, O, W, "X"), ("I", "O", "W")],
                             ids=["missing", "extra", "strings"])
    def test_map_must_name_exactly_the_three_kinds(self, conv5, mem, keys):
        hw, layer, nest, refresh = conv5
        fields = {"gb": refresh.gb, "rf": refresh.rf}
        fields[mem] = dict.fromkeys(keys, 1)
        with pytest.raises(ConfigError, match=rf"refresh\[{mem.upper()}\]: "
                                              "expected a location for each"):
            predict_layer(layer, nest, RefreshLocations(**fields), hw)

    # a write after construction used to reach build_plan as a bare
    # TypeError from a float list index
    def test_stored_maps_are_read_only(self, conv5):
        hw, layer, nest, refresh = conv5
        want = predict_layer(layer, nest, refresh, hw).to_dict()
        for locs in (refresh.gb, refresh.rf):
            with pytest.raises(TypeError):
                locs[W] = 1.0
        assert predict_layer(layer, nest, refresh, hw).to_dict() == want

    def test_caller_maps_are_copied(self, conv5):
        hw, layer, nest, refresh = conv5
        want = predict_layer(layer, nest, refresh, hw).to_dict()
        gb, rf = dict(refresh.gb), dict(refresh.rf)
        copied = RefreshLocations(gb=gb, rf=rf)
        gb[W] = rf[W] = 1.0
        assert copied == refresh
        assert predict_layer(layer, nest, copied, hw).to_dict() == want


class TestCapacityRule:
    # buffers_fit is the explorer's plain-integer form of the rule that
    # _overflows states; tiles sit at or one over each kind's own limit
    # (0 too, so a shared capacity sees sums on both sides of it), and a
    # capacity may be an exact multiple of a kind's need, where a tile at
    # the limit fills it to the bit
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_buffers_fit_agrees_with_overflows(self, data):
        bits = st.integers(1, 64)
        # HardwareConfig refuses a buffering factor outside 1..2
        bf = data.draw(st.sampled_from((1, 2)))
        precision = Precision(data.draw(bits), data.draw(bits), data.draw(bits))
        per = [b * bf for b in precision.by_kind]

        def amount(need):
            return st.one_of(st.integers(1, 10**6),
                             st.integers(1, 10**4).map(lambda n: n * need))

        capacity = st.one_of(
            st.sampled_from(per).flatmap(amount),
            st.fixed_dictionaries({k: amount(n) for k, n in zip(KINDS, per)}),
        )
        hw = _hw(capacity_gb=data.draw(capacity),
                 capacity_rf=data.draw(capacity),
                 buffering_factor=bf, precision=precision)

        def tiles(cap):
            out = []
            for kind, need in zip(KINDS, per):
                limit = (cap[kind] if isinstance(cap, Mapping) else cap) // need
                out.append(data.draw(st.sampled_from((0, limit, limit + 1))))
            return out

        gb, rf = tiles(hw.capacity_gb), tiles(hw.capacity_rf)
        assert buffers_fit(hw, gb, rf) == (
            next(_overflows(hw, gb, rf), None) is None
        )


class TestRefreshPlan:
    def test_worked_example_weight_refresh_between_groups(self):
        # m=4, c=2: [m:2 @DRAM, c:2 @GB, m:2 @RF], W refreshed below the
        # DRAM loop. Two loads of a 4-element weight block.
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, DRAM), ("c", 2, GB), ("m", 2, RF))
        refresh = RefreshLocations(
            gb={I: 1, O: 1, W: 1}, rf={I: 2, O: 2, W: 2}
        )
        plan = refresh_plan(nest, refresh)
        assert plan.n_ref[(W, GB)] == 2
        assert plan.v_ref[(W, GB)] == 4

    def test_outermost_refresh_loads_footprint_once(self):
        layer = LayerShape(m=4, c=3, r=2, s=2, e=5, f=5, stride=2)
        nest = build_nest(
            layer,
            {GB: {"m": 4, "c": 3}, RF: {"r": 2, "s": 2, "e": 5, "f": 5}},
        )
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind},
            rf={k: 0 for k in DataKind},
        )
        plan = refresh_plan(nest, refresh)
        # written out: c x H x W with the halo (H = W = (5-1)*2+2 = 10),
        # m x e x f and m x c x r x s
        whole = {I: 3 * 10 * 10, O: 4 * 5 * 5, W: 4 * 3 * 2 * 2}
        for kind in DataKind:
            assert plan.n_ref[(kind, GB)] == 1
            assert plan.v_ref[(kind, GB)] == whole[kind]

    def test_innermost_refresh_single_elements(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=2, f=2)
        nest = build_nest(layer, {RF: {"m": 2, "c": 2, "e": 2, "f": 2}})
        end = len(nest.levels)
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: end for k in DataKind}
        )
        plan = refresh_plan(nest, refresh)
        for kind in DataKind:
            assert plan.v_ref[(kind, RF)] == 1
            assert plan.n_ref[(kind, RF)] == 16

    def test_spatial_bounds_do_not_multiply_refresh_counts(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(
            layer, ("m", 2, GB), ("c", 2, NOC, True), ("m", 2, RF)
        )
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: 2 for k in DataKind}
        )
        plan = refresh_plan(nest, refresh)
        # two temporal loops above the RF location; the spatial c loop
        # fans out PEs instead of repeating loads in time
        assert plan.n_ref[(W, RF)] == 2
        assert plan.n_pe_active == 2

    def test_spatial_bounds_do_count_into_gb_tile_volumes(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(
            layer, ("m", 2, GB), ("c", 2, NOC, True), ("m", 2, RF)
        )
        refresh = RefreshLocations(
            gb={k: 1 for k in DataKind}, rf={k: 2 for k in DataKind}
        )
        plan = refresh_plan(nest, refresh)
        assert plan.v_ref[(W, GB)] == 4  # c:2 spatial x m:2
        assert plan.v_ref[(W, RF)] == 2  # per-PE: m:2 only

    def test_multicast_complement_identity(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=3, f=1)
        nest = nest_of(
            layer,
            ("m", 4, GB),
            ("c", 2, NOC, True), ("e", 3, NOC, True),
        )
        refresh = uniform_refresh(nest)
        plan = refresh_plan(nest, refresh)
        assert plan.n_pe_active == 6
        # weight cares about c, not e; input cares about both; output
        # cares about e, not c
        assert plan.multicast[W] == 3
        assert plan.multicast[I] == 1
        assert plan.multicast[O] == 2
        for kind in DataKind:
            relevant = plan.n_pe_active // plan.multicast[kind]
            assert plan.multicast[kind] * relevant == plan.n_pe_active

    def test_input_halo_with_stride(self):
        layer = LayerShape(m=1, c=2, r=3, s=3, e=4, f=4, stride=2)
        nest = build_nest(
            layer, {RF: {"c": 2, "r": 3, "s": 3, "e": 4, "f": 4}}
        )
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: 0 for k in DataKind}
        )
        plan = refresh_plan(nest, refresh)
        # height = width = (4-1)*2 + 3 = 9
        assert plan.v_ref[(I, RF)] == 2 * 9 * 9

    def test_assume_stride_one_shrinks_input_tiles(self):
        layer = LayerShape(m=1, c=2, r=3, s=3, e=4, f=4, stride=2)
        nest = build_nest(
            layer, {RF: {"c": 2, "r": 3, "s": 3, "e": 4, "f": 4}}
        )
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind}, rf={k: 0 for k in DataKind}
        )
        plan = refresh_plan(nest, refresh, Options(assume_stride_one=True))
        assert plan.v_ref[(I, RF)] == 2 * 6 * 6

    def test_outward_moves_never_increase_weight_or_output_traffic(self):
        layer = LayerShape(m=4, c=3, r=2, s=2, e=6, f=5)
        nest = build_nest(
            layer,
            {DRAM: {"m": 2}, GB: {"c": 3, "e": 3}, RF: {"m": 2, "r": 2,
                                                        "s": 2, "e": 2,
                                                        "f": 5}},
        )
        p_gb = nest.group_start(GB)
        for kind in (W, O):
            prev = None
            for loc in range(p_gb, -1, -1):  # move outward
                refresh = RefreshLocations(
                    gb={k: min(loc, p_gb) if k is kind else p_gb
                        for k in DataKind},
                    rf={k: nest.group_start(RF) for k in DataKind},
                )
                plan = refresh_plan(nest, refresh)
                traffic = plan.n_ref[(kind, GB)] * plan.v_ref[(kind, GB)]
                if prev is not None:
                    assert traffic <= prev
                prev = traffic

    # a Python slice would cut the loops at n + 1, -1 or -10 as at n, n - 1 or 0
    def test_a_location_outside_the_nest_is_refused(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=2, f=1)
        nest = build_nest(layer, {GB: {"m": 2}, RF: {"m": 2, "c": 2, "e": 2}})
        n = len(nest.levels)
        for outside in (n + 1, -1, -10):
            refresh = RefreshLocations(
                gb={k: 0 for k in DataKind}, rf={k: outside for k in DataKind}
            )
            with pytest.raises(MappingError) as exc:
                refresh_plan(nest, refresh)
            assert exc.value.violations == validate_structure(nest, refresh)
            assert exc.value.violations[0].message == (
                f"location {outside} outside [0, {n}]"
            )

    def test_rf_traffic_dominates_gb_traffic_without_multicast(self):
        layer = LayerShape(m=4, c=3, r=2, s=2, e=2, f=2)
        nest = build_nest(
            layer,
            {DRAM: {"m": 2}, GB: {"c": 3}, RF: {"m": 2, "r": 2, "s": 2,
                                                "e": 2, "f": 2}},
        )
        refresh = RefreshLocations(
            gb={k: 0 for k in DataKind},
            rf={k: nest.group_start(RF) for k in DataKind},
        )
        plan = refresh_plan(nest, refresh)
        for kind in DataKind:
            inner = plan.n_ref[(kind, RF)] * plan.v_ref[(kind, RF)]
            outer = plan.n_ref[(kind, GB)] * plan.v_ref[(kind, GB)]
            assert plan.multicast[kind] == 1
            assert inner >= outer


class TestValidateNest:
    def test_spatial_overflow_on_4x4_array(self):
        layer = LayerShape(m=17, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 17, NOC, True))
        hw = _hw(pe_rows=4, pe_cols=4)
        violations = validate_nest(nest, hw, uniform_refresh(nest))
        assert any("17" in v.message for v in violations)

    def test_rf_capacity_violation_512_weights_do_not_fit_1k(self):
        # 512 resident weights x 16 bits x double buffering = 16,384 bits,
        # over a 1 KiB (8,192-bit) register file
        layer = LayerShape(m=8, c=8, r=4, s=2, e=1, f=1)
        nest = build_nest(layer, {RF: {"m": 8, "c": 8, "r": 4, "s": 2}})
        hw = _hw(capacity_rf=8 * 1024, capacity_gb=10**9,
                 buffering_factor=2)
        violations = validate_nest(nest, hw, uniform_refresh(nest))
        # weights alone need 16,384 of the 8,192 bits; the shared check
        # reports the three-kind total
        assert any(
            v.field == "capacity_rf" and "8192" in v.message
            for v in violations
        )

    def test_same_tile_fits_8k_rf(self):
        layer = LayerShape(m=8, c=8, r=4, s=2, e=1, f=1)
        nest = build_nest(layer, {RF: {"m": 8, "c": 8, "r": 4, "s": 2}})
        hw = _hw(capacity_rf=8 * 1024 * 8, capacity_gb=10**9,
                 buffering_factor=2)
        assert validate_nest(nest, hw, uniform_refresh(nest)) == []

    def test_per_kind_capacity_checked_separately(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {RF: {"m": 8}})
        hw = _hw(capacity_rf={I: 16, O: 16, W: 1024}, capacity_gb=10**9)
        violations = validate_nest(nest, hw, uniform_refresh(nest))
        # the 8-element output tile busts the 16-bit output partition
        assert any("capacity_rf[O]" in v.field for v in violations)

    def test_empty_nest_is_legal(self):
        layer = LayerShape(m=1, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {})
        assert validate_nest(nest, _hw(), uniform_refresh(nest)) == []

    def test_structure_violations_short_circuit(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 2, GB), ("c", 2, DRAM))
        violations = validate_nest(nest, _hw(), uniform_refresh(nest))
        assert violations  # structural report, no capacity crash
        assert {v.code for v in violations} == {"structure"}
        assert checked_plan(nest, _hw(), uniform_refresh(nest))[0] is None

    def test_codes_list_pe_array_before_capacity(self):
        layer = LayerShape(m=17, c=1, r=1, s=1, e=1, f=1)
        nest = nest_of(layer, ("m", 17, NOC, True))
        hw = _hw(pe_rows=4, pe_cols=4, capacity_gb=1)
        violations = validate_nest(nest, hw, uniform_refresh(nest))
        assert [v.code for v in violations] == ["pe_array", "capacity"]

    def test_checked_plan_is_the_refresh_plan(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {RF: {"m": 8}})
        refresh = uniform_refresh(nest)
        hw = _hw(capacity_rf=10**6)
        plan, violations = checked_plan(nest, hw, refresh)
        assert violations == []
        assert plan == refresh_plan(nest, refresh)


class TestCanonicalRefresh:
    def _nest(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=2, f=2)
        return build_nest(
            layer,
            {DRAM: {"m": 2}, GB: {"c": 2}, NOC: {"e": 2}, RF: {"m": 2,
                                                               "f": 2}},
        )

    def test_weight_stationary_pins_weights_at_the_top(self):
        nest = self._nest()
        refresh = canonical_refresh(nest, "weight_stationary")
        assert refresh.loc(W, GB) == 0
        assert refresh.loc(W, RF) == nest.group_start(GB)
        assert refresh.loc(I, GB) == nest.group_start(GB)
        assert refresh.loc(I, RF) == nest.group_start(RF)

    def test_output_stationary_mirrors_for_outputs(self):
        nest = self._nest()
        refresh = canonical_refresh(nest, "output_stationary")
        assert refresh.loc(O, GB) == 0
        assert refresh.loc(O, RF) == nest.group_start(GB)
        assert refresh.loc(W, GB) == nest.group_start(GB)

    def test_row_stationary_like_needs_hardware(self):
        with pytest.raises(ConfigError):
            canonical_refresh(self._nest(), "row_stationary_like")

    def test_row_stationary_like_slides_past_relevant_prefix(self):
        nest = self._nest()  # GB group is the c:2 loop
        hw = _hw(capacity_rf=16 * 64, capacity_gb=10**9)
        refresh = canonical_refresh(nest, "row_stationary_like", hw)
        p_gb = nest.group_start(GB)
        # c is relevant to weights and inputs: their GB locations slide
        # past it; outputs do not care about c and stay put
        assert refresh.loc(W, GB) == p_gb + 1
        assert refresh.loc(I, GB) == p_gb + 1
        assert refresh.loc(O, GB) == p_gb

    def test_row_stationary_like_rf_locations_fit_budget(self):
        nest = self._nest()
        hw = _hw(capacity_rf=16 * 64, capacity_gb=10**9)
        refresh = canonical_refresh(nest, "row_stationary_like", hw)
        plan = refresh_plan(nest, refresh)
        for kind in DataKind:
            assert plan.v_ref[(kind, RF)] * 16 <= 16 * 64 // 3

    # under one element: a shared capacity split three ways, one kind's
    # own capacity, or a double-buffered 31 bits; the message names the
    # budget in bits
    @pytest.mark.parametrize("capacity_rf, bf, field, bits", [
        (8, 1, "refresh[I][RF]", 2),
        ({I: 10**4, O: 31, W: 10**4}, 2, "refresh[O][RF]", 31),
        (95, 2, "refresh[I][RF]", 31),
    ])
    def test_row_stationary_like_unfittable_raises(
        self, capacity_rf, bf, field, bits
    ):
        nest = self._nest()
        hw = _hw(capacity_rf=capacity_rf, capacity_gb=10**9,
                 buffering_factor=bf)
        with pytest.raises(MappingError) as exc:
            canonical_refresh(nest, "row_stationary_like", hw)
        assert exc.value.violations == [Violation(
            "refresh_style", field,
            f"no location fits the {bits}-bit register budget",
        )]

    # The explorer decides once per search that a row_stationary_like
    # candidate cannot place its refresh points, from the empty loop list:
    # sound only if every nest fails exactly when that one does.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_stationary_like_fails_exactly_when_no_loops_do(self, data):
        factor = st.integers(1, 3)
        tiling = {mem: {d: data.draw(factor) for d in DIMS}
                  for mem in LEVELS_OUTER_FIRST}
        layer = LayerShape(
            **{d: tiling[DRAM][d] * tiling[GB][d] * tiling[NOC][d]
               * tiling[RF][d] for d in DIMS},
            stride=data.draw(st.integers(1, 3)),
        )
        ordering = {mem: data.draw(st.permutations(DIMS))
                    for mem in LEVELS_OUTER_FIRST}
        nest = build_nest(layer, tiling, ordering)
        bits = st.integers(1, 16)
        capacity_rf = data.draw(st.one_of(
            st.integers(1, 300),
            st.fixed_dictionaries({k: st.integers(1, 100) for k in KINDS}),
        ))
        hw = _hw(
            capacity_rf=capacity_rf,
            buffering_factor=data.draw(st.sampled_from((1, 2))),
            precision=Precision(data.draw(bits), data.draw(bits),
                                data.draw(bits)),
        )
        stride = layer.stride

        def raises(place) -> bool:
            try:
                place()
            except MappingError:
                return True
            return False
        assert raises(
            lambda: canonical_refresh(nest, "row_stationary_like", hw)
        ) == raises(
            lambda: place_refresh((), (0, 0, 0), "row_stationary_like", hw,
                                  stride)
        )

    def test_unknown_style_rejected(self):
        with pytest.raises(ConfigError):
            canonical_refresh(self._nest(), "fully_unrolled")
