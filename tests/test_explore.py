"""Mapping search: tiling enumeration, strategies, ranking determinism."""

from collections import Counter

import pytest

from accel_predict import (
    ConfigError,
    LayerShape,
    MemLevel,
    SearchSpace,
    UnitCosts,
    enumerate_mappings,
    explore,
    hardware_preset,
    layer_preset,
    predict_layer,
    space_size,
)
from accel_predict.dsl import render
from accel_predict.explore import _divisor_tilings, _padded_tilings
from tests.test_model import _hw

GB, NOC, RF = MemLevel.GB, MemLevel.NOC, MemLevel.RF


def roomy_hw(**overrides):
    overrides.setdefault("capacity_gb", 10**9)
    overrides.setdefault("capacity_rf", 10**6)
    return _hw(**overrides)


def two_level_space(hw, **overrides):
    overrides.setdefault("levels", (GB, RF))
    return SearchSpace(hw=hw, **overrides)


class TestTilingEnumeration:
    def test_dim_four_two_slots(self):
        assert sorted(_divisor_tilings(4, 2, None)) == [(1, 4), (2, 2), (4, 1)]

    def test_dim_six_two_slots(self):
        assert len(_divisor_tilings(6, 2, None)) == 4

    def test_all_dims_two_across_two_levels(self):
        layer = LayerShape(m=2, c=2, r=2, s=2, e=2, f=2)
        space = two_level_space(_hw(), refresh_styles=("weight_stationary",))
        assert space_size(space, layer) == 2**6

    def test_all_dims_four_across_two_levels(self):
        layer = LayerShape(m=4, c=4, r=4, s=4, e=4, f=4)
        space = two_level_space(_hw(), refresh_styles=("weight_stationary",))
        assert space_size(space, layer) == 3**6  # 729

    def test_styles_and_orderings_multiply(self):
        layer = LayerShape(m=4, c=1, r=1, s=1, e=1, f=1)
        space = two_level_space(
            _hw(),
            orderings=((), ("m", "c", "r", "s", "e", "f")),
            refresh_styles=("weight_stationary", "output_stationary"),
        )
        assert space_size(space, layer) == 3 * 2 * 2

    def test_allowed_factors_prune(self):
        layer = LayerShape(m=4, c=1, r=1, s=1, e=1, f=1)
        space = two_level_space(
            _hw(),
            refresh_styles=("weight_stationary",),
            allowed_factors={"m": (2,)},
        )
        assert space_size(space, layer) == 1  # only 2x2 survives

    def test_padded_covers_are_minimal(self):
        # 2x2 covers 3 and cannot shrink; 1x4 and 4x1 can
        assert sorted(_padded_tilings(3, 2, None)) == [(1, 3), (2, 2), (3, 1)]

    def test_nondivisor_space_is_superset(self):
        layer = LayerShape(m=3, c=1, r=1, s=1, e=1, f=1)
        exact = two_level_space(_hw(), refresh_styles=("weight_stationary",))
        padded = two_level_space(
            _hw(),
            refresh_styles=("weight_stationary",),
            allow_nondivisor=True,
        )
        assert space_size(padded, layer) > space_size(exact, layer)

    def test_padded_enumeration_cap(self):
        with pytest.raises(ConfigError) as exc:
            _padded_tilings(10**6, 4, None)
        assert "allow_nondivisor" in str(exc.value)


class TestSpaceValidation:
    def test_empty_levels(self):
        with pytest.raises(ConfigError):
            SearchSpace(hw=_hw(), levels=())

    def test_duplicate_levels(self):
        with pytest.raises(ConfigError):
            SearchSpace(hw=_hw(), levels=(GB, GB))

    def test_empty_styles(self):
        with pytest.raises(ConfigError):
            SearchSpace(hw=_hw(), refresh_styles=())

    def test_empty_orderings(self):
        with pytest.raises(ConfigError):
            SearchSpace(hw=_hw(), orderings=())

    def test_unknown_objective(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError) as exc:
            explore(two_level_space(roomy_hw()), layer, objective="power")
        assert "power" in str(exc.value)

    def test_unknown_strategy(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError):
            explore(two_level_space(roomy_hw()), layer, strategy="anneal")

    def test_top_k_must_be_positive(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(ConfigError):
            explore(two_level_space(roomy_hw()), layer, top_k=0)

    def test_exhaustive_cap_refuses_large_space(self):
        layer = LayerShape(m=4, c=4, r=4, s=4, e=4, f=4)
        space = two_level_space(
            roomy_hw(),
            refresh_styles=("weight_stationary",),
            exhaustive_cap=100,
        )
        with pytest.raises(ConfigError) as exc:
            explore(space, layer)
        assert "729" in str(exc.value) and "100" in str(exc.value)


def _scan_best(space, layer, objective, top_k):
    """Independent reference: enumerate, predict, sort by (value, text)."""
    rows = []
    for nest, refresh in enumerate_mappings(space, layer):
        report = predict_layer(
            layer, nest, refresh, space.hw, space.options, validate=False
        )
        if objective == "energy":
            value = report.energy.total
        elif objective == "latency":
            value = report.latency.l_total_s
        else:
            value = report.energy.total * report.latency.l_total_s
        rows.append((value, render(nest, refresh)))
    rows.sort()
    return rows[:top_k]


SMALL = LayerShape(m=4, c=2, r=1, s=1, e=3, f=1, name="small")


class TestStrategies:
    @pytest.mark.parametrize("objective", ["energy", "latency", "edp"])
    def test_exhaustive_matches_linear_scan(self, objective):
        space = two_level_space(roomy_hw())
        result = explore(space, SMALL, objective=objective, top_k=24)
        got = [(e.objective_value, e.dsl) for e in result.entries]
        assert got == _scan_best(space, SMALL, objective, 24)
        assert result.feasible
        assert result.best is result.entries[0]

    def test_full_width_beam_matches_exhaustive(self):
        space = two_level_space(roomy_hw())
        size = space_size(space, SMALL)
        exhaustive = explore(space, SMALL, objective="energy", top_k=8)
        beam = explore(
            space, SMALL, objective="energy", strategy="beam",
            top_k=8, beam_width=size,
        )
        assert [(e.objective_value, e.dsl) for e in beam.entries] == [
            (e.objective_value, e.dsl) for e in exhaustive.entries
        ]

    def test_narrow_beam_still_finds_legal_mapping(self):
        space = two_level_space(roomy_hw())
        result = explore(
            space, SMALL, strategy="beam", beam_width=1, top_k=3
        )
        assert result.feasible
        assert result.stats["beam_width"] == 1

    def test_random_full_sample_matches_exhaustive(self):
        space = two_level_space(roomy_hw())
        size = space_size(space, SMALL)
        exhaustive = explore(space, SMALL, top_k=5)
        sampled = explore(
            space, SMALL, strategy="random", n_samples=size, top_k=5, seed=7
        )
        assert [(e.objective_value, e.dsl) for e in sampled.entries] == [
            (e.objective_value, e.dsl) for e in exhaustive.entries
        ]

    def test_random_is_deterministic_for_a_seed(self):
        space = two_level_space(roomy_hw())
        a = explore(space, SMALL, strategy="random", n_samples=6, seed=3)
        b = explore(space, SMALL, strategy="random", n_samples=6, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_random_subset_never_beats_exhaustive(self):
        space = two_level_space(roomy_hw())
        best = explore(space, SMALL, top_k=1).best.objective_value
        for seed in range(5):
            sub = explore(
                space, SMALL, strategy="random", n_samples=4, seed=seed
            )
            if sub.feasible:
                assert sub.best.objective_value >= best

    def test_repeat_runs_identical(self):
        space = two_level_space(roomy_hw())
        assert explore(space, SMALL).to_dict() == explore(space, SMALL).to_dict()


class TestObjectives:
    def test_edp_is_energy_times_latency(self):
        space = two_level_space(roomy_hw())
        result = explore(space, SMALL, objective="edp", top_k=4)
        for entry in result.entries:
            expect = entry.report.energy.total * entry.report.latency.l_total_s
            assert entry.objective_value == expect

    def test_energy_scale_leaves_winner_unchanged(self):
        base = roomy_hw()
        scaled = roomy_hw(unit_costs=UnitCosts(
            e_mac=base.unit_costs.e_mac * 8,
            e_access={
                mem: {k: 8 * v for k, v in per.items()}
                for mem, per in base.unit_costs.e_access.items()
            },
            t_comp=base.unit_costs.t_comp,
        ))
        a = explore(two_level_space(base), SMALL, objective="energy").best
        b = explore(two_level_space(scaled), SMALL, objective="energy").best
        assert a.dsl == b.dsl
        assert b.objective_value == pytest.approx(8 * a.objective_value)


class TestLegalityScreening:
    def test_pe_array_discards_counted(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        space = SearchSpace(
            hw=roomy_hw(),  # 2x3 = 6 PEs
            levels=(NOC, RF),
            refresh_styles=("weight_stationary",),
        )
        discards = Counter()
        legal = list(enumerate_mappings(space, layer, discards))
        assert len(legal) == 3  # m at NoC in {1, 2, 4}; 8 needs 8 PEs
        assert discards == {"pe_array": 1}

    def test_infeasible_space_reports_stats(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        space = two_level_space(roomy_hw(capacity_rf=1))
        result = explore(space, layer)
        assert not result.feasible
        assert result.best is None
        assert result.entries == ()
        assert result.stats["legal"] == 0
        assert sum(result.stats["discarded"].values()) == \
            result.stats["evaluated"] == space_size(space, layer)
        assert set(result.stats["discarded"]) == {"capacity"}
        assert result.to_dict()["top"] == []
        assert result.to_dict()["best_report"] is None

    def test_legal_count_matches_stats(self):
        space = two_level_space(_hw())  # tight buffers discard some
        result = explore(space, SMALL, top_k=1000)
        assert result.stats["legal"] == len(
            list(enumerate_mappings(space, SMALL))
        )
        assert len(result.entries) == result.stats["legal"]


class TestReadmeExample:
    def test_conv5_random_stats(self):
        # the shell example in README.md, objective left at its default
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        result = explore(space, layer_preset("alexnet_conv5"),
                         strategy="random", n_samples=300, seed=1, top_k=3)
        assert list(result.stats.items()) == [
            ("space_size", 28385280),
            ("strategy", "random"),
            ("objective", "energy"),
            ("seed", 1),
            ("n_samples", 300),
            ("evaluated", 300),
            ("legal", 3),
            ("discarded", {"capacity": 186, "pe_array": 111}),
        ]
        assert list(result.stats["discarded"]) == ["capacity", "pe_array"]


class TestResultShape:
    def test_to_dict_rank_and_fields(self):
        space = two_level_space(roomy_hw())
        result = explore(space, SMALL, top_k=3)
        d = result.to_dict()
        assert [row["rank"] for row in d["top"]] == [1, 2, 3]
        for row in d["top"]:
            assert set(row) == {
                "rank", "objective_value", "energy_units",
                "latency_s", "throughput_gops", "mapping",
            }
        assert d["best_report"]["layer"]["name"] == "small"
        assert d["stats"]["space_size"] == space_size(space, SMALL)

    def test_entries_sorted_by_value_then_text(self):
        space = two_level_space(roomy_hw())
        result = explore(space, SMALL, top_k=50)
        keys = [(e.objective_value, e.dsl) for e in result.entries]
        assert keys == sorted(keys)
