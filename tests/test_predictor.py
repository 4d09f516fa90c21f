"""Energy, latency, and throughput closed forms."""

import dataclasses
import math
import re
from collections import Counter

import pytest

from accel_predict import dsl, loopnest, predictor
from accel_predict import (
    ConfigError,
    DataKind,
    LayerShape,
    LoopLevel,
    LoopNest,
    MappingError,
    MemLevel,
    Options,
    Precision,
    PredictorError,
    RefreshLocations,
    UnitCosts,
    access_counts,
    build_nest,
    energy,
    hardware_preset,
    layer_preset,
    mapping_preset,
    latency,
    mac_count,
    predict_layer,
    predict_network,
    refresh_plan,
)
from accel_predict.model import INT64_MAX
from accel_predict.oracle import simulate
from tests.test_model import _hw

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT
DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


def single_pe_setup():
    """Everything in one PE's registers, loaded exactly once."""
    layer = LayerShape(m=2, c=3, r=2, s=2, e=4, f=4)
    nest = build_nest(
        layer,
        {RF: {"m": 2, "c": 3, "r": 2, "s": 2, "e": 4, "f": 4}},
    )
    refresh = RefreshLocations.outermost(nest)
    return layer, nest, refresh


# single_pe_setup's whole tensors, written out: c x H x W with the halo
# (H = (4-1)*1+2 = 5, W = 5), m x e x f and m x c x r x s.
FOOTPRINTS = {I: 3 * 5 * 5, O: 2 * 4 * 4, W: 2 * 3 * 2 * 2}


class TestAccessCounts:
    def test_single_pe_counts_footprints_once_and_macs_at_rf(self):
        layer, nest, refresh = single_pe_setup()
        counts = access_counts(refresh_plan(nest, refresh))
        n = mac_count(layer)
        for kind in DataKind:
            foot = FOOTPRINTS[kind]
            assert counts[DRAM][kind] == foot
            assert counts[GB][kind] == foot
            assert counts[NOC][kind] == foot
            assert counts[RF][kind] == n

    def test_counts_are_integers(self):
        layer, nest, refresh = single_pe_setup()
        counts = access_counts(refresh_plan(nest, refresh))
        for level in counts.values():
            for v in level.values():
                assert isinstance(v, int)

    def test_psum_factor_applies_at_dram_and_gb_only(self):
        layer = LayerShape(m=2, c=4, r=1, s=1, e=1, f=1)
        nest = LoopNest(
            (LoopLevel("c", 4, GB), LoopLevel("m", 2, RF)), layer
        )
        refresh = RefreshLocations(
            gb={I: 0, O: 1, W: 0}, rf={I: 1, O: 1, W: 1}
        )
        plan = refresh_plan(nest, refresh)
        flat = access_counts(plan, Options(psum_rw_factor=1))
        doubled = access_counts(plan)
        assert doubled[DRAM][O] == 2 * flat[DRAM][O]
        assert doubled[GB][O] == 2 * flat[GB][O]
        assert doubled[NOC][O] == flat[NOC][O]
        assert doubled[RF][O] == flat[RF][O]
        for kind in (I, W):
            for lvl in (DRAM, GB, NOC, RF):
                assert doubled[lvl][kind] == flat[lvl][kind]


class TestCountRows:
    """access_counts and the explorer's price_totals count with one row
    builder, predictor.count_rows; the oracle observes its own counts."""

    def test_fractional_psum_past_int64_is_priced_by_the_kernel(self, monkeypatch):
        # 2 x 3*2^60 output elements cross DRAM and reach the array, each
        # count under 2^63-1 until the read+write factor 1.5 scales it
        layer = LayerShape(m=3 * 2**60, c=2, r=1, s=1, e=1, f=1)
        nest = LoopNest((LoopLevel("c", 2, DRAM), LoopLevel("m", 3 * 2**60, RF)),
                        layer)
        refresh = RefreshLocations(gb=dict.fromkeys(DataKind, 1),
                                   rf=dict.fromkeys(DataKind, 1))
        options, hw = Options(psum_rw_factor=1.5), _hw()
        plan = refresh_plan(nest, refresh, options)
        counts = access_counts(plan, options)
        assert counts[DRAM][O] == 1.5 * 6 * 2**60 == pytest.approx(1.0376e19, rel=1e-4)
        assert counts[DRAM][O] > INT64_MAX
        reference = (energy(plan, counts, hw).total,
                     latency(plan, counts, hw, options).l_total_s)

        def refuse(*args):
            raise AssertionError("build_plan called")

        loops = nest.loops
        gb, rf = [1] * 3, [1] * 3
        tiles = loopnest.resident_tiles(
            gb, rf, *loopnest._volumes_below(loops, gb, rf, 1))
        monkeypatch.setattr(predictor, "build_plan", refuse)
        assert predictor.score_totals(loops, gb, rf, tiles, hw, options) == reference

    def test_one_builder_call_per_count_and_none_from_the_oracle(self, monkeypatch):
        calls = []
        builder = predictor.count_rows

        def counted(*args):
            calls.append(args)
            return builder(*args)

        monkeypatch.setattr(predictor, "count_rows", counted)
        layer, nest, refresh = single_pe_setup()
        plan = refresh_plan(nest, refresh)
        access_counts(plan)
        assert len(calls) == 1
        tiles = ([plan.v_ref[k, GB] for k in DataKind],
                 [plan.v_ref[k, RF] for k in DataKind])
        assert predictor.price_totals(
            [plan.n_ref[k, GB] for k in DataKind],
            [plan.n_ref[k, RF] for k in DataKind],
            [plan.multicast[k] for k in DataKind], plan.n_pe_active,
            plan.n_mac_padded, tiles, roomy_hw()) is not None
        assert len(calls) == 2
        simulate(nest, refresh)
        assert len(calls) == 2


class TestLatencyTerms:
    """latency and the explorer's price_totals take latency from one rule,
    predictor.latency_terms; the oracle observes counts and prices none."""

    def test_one_rule_call_per_latency_and_none_from_the_oracle(self, monkeypatch):
        calls = []
        rule = predictor.latency_terms

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(predictor, "latency_terms", counted)
        layer, nest, refresh = single_pe_setup()
        hw = roomy_hw()
        plan = refresh_plan(nest, refresh)
        report = latency(plan, access_counts(plan), hw)
        assert len(calls) == 1
        tiles = ([plan.v_ref[k, GB] for k in DataKind],
                 [plan.v_ref[k, RF] for k in DataKind])
        totals = predictor.price_totals(
            [plan.n_ref[k, GB] for k in DataKind],
            [plan.n_ref[k, RF] for k in DataKind],
            [plan.multicast[k] for k in DataKind], plan.n_pe_active,
            plan.n_mac_padded, tiles, hw)
        assert totals[1] == report.l_total_s
        assert len(calls) == 2
        simulate(nest, refresh)
        assert len(calls) == 2


class TestEnergyTerms:
    """energy and the explorer's price_totals take energy from one rule,
    predictor.energy_terms; the oracle observes counts and prices none."""

    def test_one_rule_call_per_energy_and_none_from_the_oracle(self, monkeypatch):
        calls = []
        rule = predictor.energy_terms

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(predictor, "energy_terms", counted)
        layer, nest, refresh = single_pe_setup()
        hw = roomy_hw()
        plan = refresh_plan(nest, refresh)
        report = energy(plan, access_counts(plan), hw)
        assert len(calls) == 1
        tiles = ([plan.v_ref[k, GB] for k in DataKind],
                 [plan.v_ref[k, RF] for k in DataKind])
        totals = predictor.price_totals(
            [plan.n_ref[k, GB] for k in DataKind],
            [plan.n_ref[k, RF] for k in DataKind],
            [plan.multicast[k] for k in DataKind], plan.n_pe_active,
            plan.n_mac_padded, tiles, hw)
        assert totals[0] == report.total
        assert len(calls) == 2
        simulate(nest, refresh)
        assert len(calls) == 2


class TestEnergy:
    def test_single_pe_closed_form(self):
        layer, nest, refresh = single_pe_setup()
        hw = _hw()
        plan = refresh_plan(nest, refresh)
        rep = energy(plan, access_counts(plan), hw)
        n = mac_count(layer)
        feet = FOOTPRINTS
        assert rep.e_comp == pytest.approx(1.0 * n)
        assert rep.e_rf == pytest.approx(1.0 * n * 3)
        assert rep.e_noc == pytest.approx(2.0 * sum(feet.values()))
        assert rep.e_gb == pytest.approx(6.0 * sum(feet.values()))
        assert rep.e_dram == pytest.approx(200.0 * sum(feet.values()))
        assert rep.total == pytest.approx(
            rep.e_comp + rep.e_rf + rep.e_noc + rep.e_gb + rep.e_dram
        )

    def test_energy_scales_linearly_with_unit_costs(self):
        layer, nest, refresh = single_pe_setup()
        plan = refresh_plan(nest, refresh)
        base = energy(plan, access_counts(plan), _hw())
        uc = UnitCosts(
            e_mac=3.0,
            e_access={
                DRAM: {k: 600.0 for k in DataKind},
                GB: {k: 18.0 for k in DataKind},
                NOC: {k: 6.0 for k in DataKind},
                RF: {k: 3.0 for k in DataKind},
            },
            t_comp=1e-9,
        )
        tripled = energy(plan, access_counts(plan), _hw(unit_costs=uc))
        assert tripled.total == pytest.approx(3 * base.total)

    def test_breakdowns_sum_to_hundred(self):
        layer, nest, refresh = single_pe_setup()
        plan = refresh_plan(nest, refresh)
        rep = energy(plan, access_counts(plan), _hw())
        assert sum(rep.onchip_breakdown_pct().values()) == pytest.approx(100.0)

    def test_zero_cost_hardware_reports_zero_shares(self):
        layer, nest, refresh = single_pe_setup()
        hw = _hw(unit_costs=UnitCosts(e_mac=0.0, t_comp=1e-9))
        plan = refresh_plan(nest, refresh)
        rep = energy(plan, access_counts(plan), hw)
        assert rep.total == 0.0
        assert set(rep.onchip_breakdown_pct().values()) == {0.0}


    def test_integer_cost_past_the_float_range_names_the_term(self):
        layer = layer_preset("conv3")
        hw = hardware_preset("eyeriss_normalized")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        hw = dataclasses.replace(hw, unit_costs=dataclasses.replace(
            hw.unit_costs, e_mac=10**308
        ))
        with pytest.raises(PredictorError, match="^energy: the comp term "
                           "exceeds the largest float"):
            predict_layer(layer, nest, refresh, hw)

    def test_network_total_past_the_float_range_raises(self):
        layer = layer_preset("conv3")
        hw = hardware_preset("eyeriss_normalized")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        hw = dataclasses.replace(hw, unit_costs=dataclasses.replace(
            hw.unit_costs, e_mac=1e300
        ))
        assert predict_layer(layer, nest, refresh, hw).energy.total < math.inf
        with pytest.raises(PredictorError, match="^energy: the network total "
                           "exceeds the largest float"):
            predict_network([(layer, nest, refresh)] * 2, hw)


class TestLatency:
    def test_total_past_the_float_range_raises(self):
        # a DRAM bandwidth of 5e-324 bits/s takes the DRAM term to inf
        layer = layer_preset("conv3")
        hw = hardware_preset("eyeriss_normalized")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        hw = dataclasses.replace(hw, bw_dram=5e-324)
        with pytest.raises(PredictorError, match="^latency: the total "
                           "exceeds the largest float"):
            predict_layer(layer, nest, refresh, hw)

    def test_single_pe_terms(self):
        layer, nest, refresh = single_pe_setup()
        hw = _hw()  # dram 1e9, gb 2e9, rf 4e9, t_comp 1ns
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        rep = latency(plan, counts, hw)
        n = mac_count(layer)
        assert rep.l_comp_s == pytest.approx(n * 1e-9)
        worst_dram = max(FOOTPRINTS[k] * 16 / 1e9 for k in DataKind)
        assert rep.l_dram_s == pytest.approx(worst_dram)
        worst_gb = max(FOOTPRINTS[k] * 16 / 2e9 for k in DataKind)
        assert rep.l_gb_s == pytest.approx(worst_gb)
        fill = max(FOOTPRINTS[k] * 16 / 1e9 for k in (I, W))
        assert rep.l_setup_s == pytest.approx(fill)  # rf fill is faster
        assert rep.l_total_s == pytest.approx(
            rep.l_setup_s + max(rep.l_comp_s, rep.l_dram_s, rep.l_gb_s)
        )

    def test_setup_fill_streams_through_the_gb_port(self):
        # An RF location above the GB one (unchecked) is where the RF fill
        # can outgrow the GB fill: conv5's weights refilled in the GB at n
        # (one element) and in the RF at 0 (36,864 per PE). The RF fill
        # streams from the GB, so it runs at min(RF, GB) = 51.2e9, not the
        # RF's 102.4e9 (5.76e-6 s). The inputs' GB tile is emptied too, so
        # the weights' fill is the setup term.
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("alexnet_conv5")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        n = len(nest.levels)
        refresh = RefreshLocations(gb={**refresh.gb, I: n, W: n},
                                   rf={**refresh.rf, W: 0})
        assert (hw.bw_gb, hw.bw_rf) == (51.2e9, 102.4e9)
        rep = predict_layer(layer, nest, refresh, hw, validate=False)
        assert rep.latency.setup_kind is W
        assert rep.latency.l_setup_s == 36_864 * 16 / 51.2e9 == 1.152e-5

    def test_bottleneck_labels(self):
        layer, nest, refresh = single_pe_setup()
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        slow_dram = latency(plan, counts, _hw(bw_dram=1e3))
        assert slow_dram.bottleneck == "dram"
        fast_mem = latency(
            plan, counts, _hw(bw_dram=math.inf, bw_gb=math.inf,
                              bw_rf=math.inf)
        )
        assert fast_mem.bottleneck == "comp"
        assert fast_mem.l_dram_s == 0.0
        assert fast_mem.l_gb_s == 0.0
        assert fast_mem.l_setup_s == 0.0
        assert fast_mem.dram_kind is fast_mem.gb_kind is fast_mem.setup_kind is None

    def test_a_tie_names_the_first_kind(self):
        # four inputs and four weights, at the same width and bandwidths,
        # tie on every DRAM, GB and fill term
        layer = LayerShape(m=1, c=4, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {RF: {"c": 4}})
        plan = refresh_plan(nest, RefreshLocations.outermost(nest))
        rep = latency(plan, access_counts(plan), _hw())
        assert rep.dram_kind is rep.gb_kind is rep.setup_kind is I
        assert rep.bottleneck == "dram"

    def test_gb_bound_mapping(self):
        # heavy reuse: NoC deliveries far exceed DRAM traffic, so a slow
        # buffer port dominates while DRAM stays fast
        layer = LayerShape(m=8, c=8, r=1, s=1, e=8, f=8)
        nest = build_nest(
            layer, {GB: {"c": 8}, RF: {"m": 8, "e": 8, "f": 8}}
        )
        refresh = RefreshLocations.outermost(nest)
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        rep = latency(plan, counts, _hw(bw_dram=1e12, bw_gb=1e6))
        assert rep.bottleneck == "gb"

    def test_zero_bandwidth_raises_named_error(self):
        layer, nest, refresh = single_pe_setup()
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        with pytest.raises(ConfigError) as exc:
            latency(plan, counts, _hw(bw_dram=0.0))
        assert "bw_dram" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            latency(plan, counts, _hw(bw_gb={I: 1e9, O: 1e9, W: 0.0}))
        assert "bw_gb[W]" in str(exc.value)

    def test_literal_compute_bound_ignores_spatial_speedup(self):
        layer = LayerShape(m=4, c=1, r=1, s=1, e=2, f=2)
        nest = build_nest(layer, {NOC: {"m": 4}, RF: {"e": 2, "f": 2}})
        refresh = RefreshLocations.outermost(nest)
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        hw = _hw()
        parallel = latency(plan, counts, hw)
        serial = latency(plan, counts, hw, Options(literal_eq8=True))
        assert serial.l_comp_s == pytest.approx(4 * parallel.l_comp_s)

    def test_multicast_aware_buffer_term_is_never_slower(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=3, f=1)
        nest = build_nest(
            layer, {GB: {"m": 4}, NOC: {"c": 2, "e": 3}}
        )
        refresh = RefreshLocations.outermost(nest)
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        hw = _hw(pe_rows=3, pe_cols=2)
        default = latency(plan, counts, hw)
        aware = latency(
            plan, counts, hw, Options(gb_latency_multicast_aware=True)
        )
        assert aware.l_gb_s <= default.l_gb_s

    @pytest.mark.parametrize("field", ["bw_dram", "bw_gb", "bw_rf"])
    def test_latency_monotone_in_each_bandwidth(self, field):
        layer = LayerShape(m=4, c=3, r=2, s=2, e=5, f=5, stride=2)
        nest = build_nest(
            layer,
            {DRAM: {"m": 2}, GB: {"c": 3}, NOC: {"e": 5},
             RF: {"m": 2, "r": 2, "s": 2, "f": 5}},
        )
        refresh = RefreshLocations.outermost(nest)
        plan = refresh_plan(nest, refresh)
        counts = access_counts(plan)
        prev = None
        for bw in (1e6, 1e7, 1e8, 1e9, 1e10, 1e11, math.inf):
            rep = latency(plan, counts, _hw(**{field: bw}))
            if prev is not None:
                assert rep.l_total_s <= prev + 1e-15
            prev = rep.l_total_s


def roomy_hw():
    return _hw(capacity_gb=10**9, capacity_rf=10**6)


class TestPredictLayer:
    def test_throughput_identity(self):
        layer, nest, refresh = single_pe_setup()
        rep = predict_layer(layer, nest, refresh, roomy_hw())
        expected = 2 * mac_count(layer) / rep.latency.l_total_s / 1e9
        assert rep.throughput_gops == pytest.approx(expected, rel=1e-12)

    def test_throughput_counts_true_macs_not_padding(self):
        layer = LayerShape(m=3, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {RF: {"m": 2}, GB: {"m": 2}})  # pads to 4
        refresh = RefreshLocations.outermost(nest)
        rep = predict_layer(layer, nest, refresh, roomy_hw())
        assert rep.n_mac == 3
        assert rep.n_mac_padded == 4
        assert rep.throughput_gops == pytest.approx(
            2 * 3 / rep.latency.l_total_s / 1e9
        )

    def test_illegal_mapping_raises_before_prediction(self):
        layer = LayerShape(m=17, c=1, r=1, s=1, e=1, f=1)
        nest = LoopNest(
            (LoopLevel("m", 17, NOC, spatial=True),), layer
        )
        refresh = RefreshLocations.outermost(nest)
        hw = _hw(pe_rows=4, pe_cols=4)
        with pytest.raises(MappingError):
            predict_layer(layer, nest, refresh, hw)
        rep = predict_layer(layer, nest, refresh, hw, validate=False)
        assert rep.n_pe_active == 17

    # conv5's counts with conv1's MAC count gave n_mac 105,415,200 beside
    # n_mac_padded 74,760,192
    @pytest.mark.parametrize("validate", [True, False])
    def test_layer_must_match_the_mapping(self, validate):
        hw = hardware_preset("eyeriss_normalized")
        conv1, conv5 = layer_preset("alexnet_conv1"), layer_preset("alexnet_conv5")
        nest, refresh = mapping_preset("row_stationary", conv5, hw)
        with pytest.raises(ConfigError) as exc:
            predict_layer(conv1, nest, refresh, hw, validate=validate)
        assert str(exc.value) == (
            "layer 'CONV1' does not match the mapping's layer 'CONV5': "
            "(m, c, r, s, e, f, stride) (96, 3, 11, 11, 55, 55, 4) != "
            "(256, 192, 3, 3, 13, 13, 1)"
        )
        # the same shape under another name is the same layer
        renamed = dataclasses.replace(conv5, name="renamed")
        rep = predict_layer(renamed, nest, refresh, hw, validate=validate)
        assert rep.n_mac == mac_count(conv5) <= rep.n_mac_padded

    def test_validated_prediction_plans_once_and_counts_once(
        self, monkeypatch
    ):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        plan = counted("refresh_plan", loopnest.refresh_plan)
        monkeypatch.setattr(loopnest, "refresh_plan", plan)
        monkeypatch.setattr(predictor, "refresh_plan", plan)
        monkeypatch.setattr(
            predictor, "access_counts",
            counted("access_counts", predictor.access_counts),
        )
        layer, nest, refresh = single_pe_setup()
        predict_layer(layer, nest, refresh, roomy_hw(), validate=True)
        assert calls == {"refresh_plan": 1, "access_counts": 1}

    def test_parse_lower_predict_checks_the_nest_structure_once(
        self, monkeypatch
    ):
        layer, nest, refresh = single_pe_setup()
        text = dsl.render(nest, refresh)
        calls = Counter()
        structure = loopnest._structure_violations

        def counted(nest):
            calls["structure"] += 1
            return structure(nest)

        monkeypatch.setattr(loopnest, "_structure_violations", counted)
        lowered, locs = dsl.lower(dsl.parse(text), layer)
        predict_layer(layer, lowered, locs, roomy_hw(), validate=True)
        assert calls == {"structure": 1}

    @pytest.mark.parametrize("mem", [NOC, RF])
    def test_bound_zero_loop_is_refused_unvalidated(self, mem):
        # c 0 at NoC once divided the PE product by a multicast of 0; at RF
        # it priced a nest that runs no MAC
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest = LoopNest((LoopLevel("m", 2, GB),
                         LoopLevel("c", 0, mem, spatial=mem is NOC)), layer)
        refresh = RefreshLocations(gb=dict.fromkeys(DataKind, 0),
                                   rf=dict.fromkeys(DataKind, 2))
        message = "levels[1]: bound must be >= 1"
        with pytest.raises(MappingError, match=re.escape(message)):
            predict_layer(layer, nest, refresh, _hw(), validate=False)
        loops, gb, rf = nest.loops, [0] * 3, [2] * 3
        tiles = loopnest.resident_tiles(
            gb, rf, *loopnest._volumes_below(loops, gb, rf, 1))
        with pytest.raises(MappingError, match=re.escape(message)):
            predictor.score_totals(loops, gb, rf, tiles, _hw())

    @pytest.mark.parametrize("places", [(GB, RF), (NOC, NOC)])
    def test_negative_bounds_are_refused_whatever_the_mac_product(self, places):
        # m -1 and c -2 multiply to 2 MACs, a product in range, so no
        # overflow check sees them; priced, they give a negative energy
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest = LoopNest(tuple(LoopLevel(d, b, mem, spatial=mem is NOC)
                              for (d, b), mem in zip((("m", -1), ("c", -2)), places)),
                        layer)
        refresh = RefreshLocations(gb=dict.fromkeys(DataKind, 0),
                                   rf=dict.fromkeys(DataKind, 2))
        hw = hardware_preset("eyeriss_normalized")
        message = "levels[0]: bound must be >= 1; levels[1]: bound must be >= 1"
        with pytest.raises(MappingError, match=re.escape(message)):
            predict_layer(layer, nest, refresh, hw, validate=False)
        loops, gb, rf = nest.loops, [0] * 3, [2] * 3
        tiles = loopnest.resident_tiles(
            gb, rf, *loopnest._volumes_below(loops, gb, rf, 1))
        with pytest.raises(MappingError, match=re.escape(message)):
            predictor.score_totals(loops, gb, rf, tiles, hw)
        with pytest.raises(MappingError):
            simulate(nest, refresh)

    def test_to_dict_keys_carry_units(self):
        layer, nest, refresh = single_pe_setup()
        d = predict_layer(layer, nest, refresh, roomy_hw()).to_dict()
        assert "energy_units" in d
        assert "latency_s" in d
        assert "throughput_gops" in d
        assert "access_counts_elements" in d
        assert d["model_notes"]["psum_rw_factor"] == 2


class TestPredictNetwork:
    def test_totals_are_sums(self):
        layer, nest, refresh = single_pe_setup()
        items = [(layer, nest, refresh)] * 3
        net = predict_network(items, roomy_hw())
        single = predict_layer(layer, nest, refresh, roomy_hw())
        assert net.energy_total == pytest.approx(3 * single.energy.total)
        assert net.latency_total_s == pytest.approx(
            3 * single.latency.l_total_s
        )
        assert net.n_mac == 3 * single.n_mac
        assert net.throughput_gops == pytest.approx(
            2 * net.n_mac / net.latency_total_s / 1e9
        )

    def test_latency_total_past_the_float_range_raises(self):
        layer = layer_preset("conv3")
        hw = hardware_preset("eyeriss_normalized")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        hw = dataclasses.replace(hw, unit_costs=dataclasses.replace(
            hw.unit_costs, t_comp=1e302))
        assert predict_layer(layer, nest, refresh, hw).latency.l_total_s < math.inf
        with pytest.raises(PredictorError, match="^latency: the network total "
                           "exceeds the largest float"):
            predict_network([(layer, nest, refresh)] * 2, hw)

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigError):
            predict_network([], _hw())
