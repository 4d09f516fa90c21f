"""Mapping search: tiling enumeration, strategies, ranking determinism."""

import bisect
import dataclasses
import functools
import hashlib
import importlib
import itertools
import math
import random
from collections import Counter
from unittest import mock

import pytest

from accel_predict import (
    ConfigError,
    CountOverflowError,
    LayerShape,
    MemLevel,
    Options,
    SearchSpace,
    UnitCosts,
    build_nest,
    canonical_json,
    canonical_refresh,
    check,
    checked_plan,
    explore,
    hardware_from_json,
    hardware_preset,
    hardware_to_json,
    layer_preset,
    network_preset,
    predict_layer,
    space_size,
)
from accel_predict.dsl import render
from accel_predict.errors import MappingError, Violation
from accel_predict.loopnest import (
    REFRESH_STYLES,
    STATIONARY_KIND,
    RefreshLocations,
    buffers_fit,
    place_refresh,
    resident_tiles,
)
from accel_predict.predictor import price_totals, score_totals
from accel_predict.model import DIMS, KINDS, LEVELS_OUTER_FIRST
from accel_predict.explore import (
    Candidate,
    _Prepared,
    _candidate_loops,
    _candidate_nest,
    _draw,
    _order,
    _prepare,
    _settle,
    _tilings,
    _unrank,
)
from tests.test_model import _hw

# the package's `explore` attribute is the function, not this module
explore_module = importlib.import_module("accel_predict.explore")
loopnest_module = importlib.import_module("accel_predict.loopnest")
predictor_module = importlib.import_module("accel_predict.predictor")

DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


def _digits(prep, cand):
    """The dim digits of candidate tuple `cand`. Each dim's tilings are in
    lexicographic order, so a digit is found by bisection."""
    digits = [bisect.bisect_left(prep.tilings[d], t) for d, t in zip(DIMS, cand)]
    assert [prep.tilings[d][j] for d, j in zip(DIMS, digits)] == list(cand[:-2])
    return digits


def _rank(prep, cand):
    """The index of candidate tuple `cand`, _unrank's inverse."""
    return (sum(j * p for j, p in zip(_digits(prep, cand), prep.places))
            + cand[-2] * prep.radices[-1] + cand[-1])


def _rows(prep, cand):
    """The six per-dim rows of candidate tuple `cand`."""
    return [rows[j] for (_, rows, _, _), j in zip(prep.table, _digits(prep, cand))]


# The explorer's per-candidate path before every strategy judged candidate
# indices, kept as the reference for _settle: the NoC product read off the
# tuple, _rejected, then the scorer, whose result names the candidate by
# its index.
def _evaluate(space, prep, objective, cand):
    noc = 1 if (j := prep.slots[2]) is None else math.prod(
        [cand[i][j] for i in range(len(DIMS))])
    if code := explore_module._rejected(prep, cand[-1], noc):
        return ("discard", code)
    index = _rank(prep, cand)
    if prep.kept[cand[-1]] is None:
        return explore_module._score(space, prep, objective, index)
    return explore_module._score_positional(space, prep, objective,
                                            _rows(prep, cand), index, cand[-1])


def enumerate_mappings(space, layer, discards=None):
    """A linear-scan reference: yield every legal (nest, refresh) pair of
    the space in candidate order, counting each discard's code into
    `discards` if given."""
    prep = explore_module._prepare(space, layer)
    for i in range(prep.size):
        cand = explore_module._unrank(prep, i)
        res = _evaluate(space, prep, "energy", cand)
        if res[0] == "ok":
            refresh = RefreshLocations(*[dict(zip(KINDS, v)) for v in res[3]])
            yield explore_module._candidate_nest(layer, prep, cand), refresh
        elif discards is not None:
            discards[res[1]] += 1


def roomy_hw(**overrides):
    overrides.setdefault("capacity_gb", 10**9)
    overrides.setdefault("capacity_rf", 10**6)
    return _hw(**overrides)


def two_level_space(hw, **overrides):
    overrides.setdefault("levels", (GB, RF))
    return SearchSpace(hw=hw, **overrides)


# The enumeration before candidate factors: every integer up to the bound
# is tried at each node. Kept as the reference the faster one must match
# list for list, since candidate indices depend on the order.
def _ref_divisor_tilings(value: int, k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if len(prefix) == k - 1:
            out.append(prefix + (remaining,))
            return
        for b in range(1, remaining + 1):
            if not remaining % b:
                rec(remaining // b, prefix + (b,))

    rec(value, ())
    return out


def _ref_padded_tilings(value: int, k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def minimal(tup: tuple[int, ...]) -> bool:
        product = 1
        for b in tup:
            product *= b
        if product < value:
            return False
        for b in tup:
            if b > 1 and (product // b) * (b - 1) >= value:
                return False
        return True

    def rec(prefix: tuple[int, ...], product: int):
        if len(prefix) == k:
            if minimal(prefix):
                out.append(prefix)
            return
        top = 1 if product >= value else value
        for b in range(1, top + 1):
            rec(prefix + (b,), product * b)

    rec((), 1)
    return out


def _ref_minimal_covers(value: int, k: int) -> list[tuple[int, ...]]:
    """The minimal covers of `value` by characterization. A cover whose
    largest factor b > 1 could not shrink has product * (b - 1) / b < value,
    so its product is under 2 * value: the minimal covers are the divisor
    tilings of the extents value..2*value-1 that lose coverage when any one
    factor drops by 1, sorted."""
    def minimal(t: tuple[int, ...]) -> bool:
        return not any(b > 1 and math.prod(t[:i] + (b - 1,) + t[i + 1:]) >= value
                       for i, b in enumerate(t))

    return sorted(t for n in range(value, 2 * value)
                  for t in _tilings(n, k, padded=False) if minimal(t))


class TestTilingEnumeration:
    def test_dim_four_two_slots(self):
        assert sorted(_tilings(4, 2, padded=False)) == [(1, 4), (2, 2), (4, 1)]

    def test_dim_six_two_slots(self):
        assert len(_tilings(6, 2, padded=False)) == 4

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
            orderings=((), ("f", "e", "s", "r", "c", "m")),
            refresh_styles=("weight_stationary", "output_stationary"),
        )
        assert space_size(space, layer) == 3 * 2 * 2

    def test_padded_covers_are_minimal(self):
        # 2x2 covers 3 and cannot shrink; 1x4 and 4x1 can
        assert sorted(_tilings(3, 2, padded=True)) == [(1, 3), (2, 2), (3, 1)]

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
            _tilings(10**6, 4, padded=True)
        assert "allow_nondivisor" in str(exc.value)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_divisor_tilings_equal_the_full_scan(self, k):
        for value in range(1, 201):
            assert _tilings(value, k, padded=False) == (
                _ref_divisor_tilings(value, k)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_padded_tilings_equal_the_full_scan(self, k):
        # every factor up to the value is a candidate in both, and the
        # scans grow as value**k
        top = 40 if k > 1 else 200
        for value in range(1, top + 1):
            assert _tilings(value, k, padded=True) == (
                _ref_padded_tilings(value, k)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_padded_tilings_equal_the_minimal_covers(self, k):
        # up to the AlexNet dims, which the full scan cannot reach
        for value in [*range(1, 60), 96, 128, 192, 255, 256, 384]:
            assert _tilings(value, k, padded=True) == (
                _ref_minimal_covers(value, k)
            )

    # beam leaves an unassigned dim whole at the outermost level and finds
    # that tiling's digit in the dim's list, so the list must hold it; it
    # is the last, as no first factor exceeds the value
    @pytest.mark.parametrize("padded", [False, True], ids=["divisor", "padded"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_dim_tiles_whole(self, k, padded):
        alexnet = {layer.dim(d) for layer in network_preset("alexnet_conv")
                   for d in DIMS}
        for value in sorted(set(range(1, 201)) | alexnet):
            whole = (value,) + (1,) * (k - 1)
            assert _tilings(value, k, padded)[-1] == whole

    # candidate indices follow each dim's list, and _digits finds a tiling
    # in it by bisection
    @pytest.mark.parametrize("padded", [False, True], ids=["divisor", "padded"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tilings_are_in_lexicographic_order(self, k, padded):
        alexnet = {layer.dim(d) for layer in network_preset("alexnet_conv")
                   for d in DIMS}
        for value in sorted(set(range(1, 201)) | alexnet):
            tilings = _tilings(value, k, padded)
            assert tilings == sorted(set(tilings))

    # the whole tiling is a divisor tiling and a minimal cover, so every
    # space keeps at least one candidate either way
    @pytest.mark.parametrize("padded", [False, True], ids=["divisor", "padded"])
    def test_no_space_is_empty(self, padded):
        rng = random.Random(4)
        for _ in range(200):
            space, layer = _random_space(rng)
            space = dataclasses.replace(space, allow_nondivisor=padded)
            assert space_size(space, layer) >= 1


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

    # levels given in another order used to set other tiling tuples, so a
    # seed picked other candidates (conv5 random-2000: 26 legal, not 22)
    # and beam's whole dims landed at the RF (beam-16: 7 legal, not 0)
    def test_level_order_sets_no_result(self):
        hw = hardware_preset("eyeriss_normalized")
        reordered = SearchSpace(hw, levels=(RF, NOC, GB, DRAM))
        assert reordered.levels == (DRAM, GB, NOC, RF)
        assert reordered == SearchSpace(hw)
        conv5 = layer_preset("alexnet_conv5")
        for kwargs, legal in (({"strategy": "random", "n_samples": 2000}, 22),
                              ({"strategy": "beam", "beam_width": 16}, 0)):
            got = [explore(SearchSpace(hw, levels=levels), conv5,
                           objective="edp", seed=0, **kwargs).to_dict()
                   for levels in ((RF, NOC, GB, DRAM), LEVELS_OUTER_FIRST)]
            assert got[0] == got[1]
            assert got[0]["stats"]["legal"] == legal
        small = [explore(two_level_space(roomy_hw(), levels=levels), SMALL,
                         strategy="random", n_samples=50, seed=0).to_dict()
                 for levels in ((RF, GB), (GB, RF))]
        assert small[0] == small[1]

    # a label used to fail late, on a coverage error from build_nest; with
    # the nest built from the flat loops it would give an empty mapping
    @pytest.mark.parametrize("levels, where", [
        (("GB", "RF"), "levels[0]: 'GB'"), ((GB, 3), "levels[1]: 3"),
    ])
    def test_levels_must_be_mem_levels(self, levels, where):
        with pytest.raises(ConfigError) as exc:
            SearchSpace(hw=_hw(), levels=levels)
        assert str(exc.value) == f"{where} is not a MemLevel"

    # a repeated style or ordering used to rank each mapping twice
    def test_duplicate_styles(self):
        with pytest.raises(ConfigError, match="refresh styles must be distinct"):
            SearchSpace(hw=_hw(), refresh_styles=("output_stationary",) * 2)

    @pytest.mark.parametrize("orderings", [
        ((), ("m", "c", "r", "s", "e", "f")),
        # differs only at DRAM, which the space does not tile
        ((), {DRAM: ("f", "e", "s", "r", "c", "m")}),
        (("e", "f", "m", "c", "r", "s"), ("e", "f", "m", "c", "r", "s")),
    ])
    def test_orderings_emitting_the_same_loops(self, orderings):
        # refused when the space is constructed, or replaced
        space = two_level_space(roomy_hw())
        for build in (lambda: two_level_space(roomy_hw(), orderings=orderings),
                      lambda: dataclasses.replace(space, orderings=orderings)):
            with pytest.raises(ConfigError, match="orderings must emit distinct"):
                build()
        distinct = dataclasses.replace(
            space, orderings=((), {GB: ("f", "e", "s", "r", "c", "m")})
        )
        assert space_size(distinct, SMALL) == 2 * space_size(space, SMALL)

    # a label key used to pass, and its order was silently not used
    def test_ordering_keys_must_be_mem_levels(self):
        with pytest.raises(ConfigError) as exc:
            SearchSpace(
                hw=_hw(), orderings=({"GB": ("f", "e", "s", "r", "c", "m")},)
            )
        assert str(exc.value) == "ordering: 'GB' is not a MemLevel"

    # a restriction the space no longer takes must not pass unnoticed
    def test_allowed_factors_is_no_field(self):
        with pytest.raises(TypeError, match="allowed_factors"):
            SearchSpace(hw=_hw(), allowed_factors={"m": (2,)})

    # before the space checked its styles, random seeds 0, 2 and 5 drew
    # only the known style and returned an infeasible result
    @pytest.mark.parametrize("kwargs", [
        *({"strategy": "random", "n_samples": 1, "seed": seed}
          for seed in range(6)),
        {"strategy": "beam", "beam_width": 4},
    ], ids=[*(f"random-seed-{seed}" for seed in range(6)), "beam"])
    def test_unknown_refresh_style(self, kwargs):
        with pytest.raises(ConfigError) as exc:
            space = SearchSpace(
                hardware_preset("eyeriss_normalized"),
                refresh_styles=("weight_stationary", "bogus"),
            )
            explore(space, layer_preset("alexnet_conv3"), **kwargs)
        assert str(exc.value) == (
            "unknown refresh style 'bogus'; pick from ('weight_stationary', "
            "'output_stationary', 'row_stationary_like')"
        )

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"strategy": "random", "n_samples": 0}, "n_samples must be >= 1"),
        ({"strategy": "random", "n_samples": -3}, "n_samples must be >= 1"),
        ({"strategy": "beam", "beam_width": 0}, "beam_width must be >= 1"),
        ({"strategy": "anneal"}, "unknown strategy 'anneal'"),
        # counts are ints: these raised bare TypeErrors, were accepted, or
        # (True) printed as a JSON boolean in the stats
        ({"strategy": "random", "n_samples": 2.5},
         "n_samples: expected an integer, got 2.5"),
        ({"strategy": "random", "n_samples": "10"},
         "n_samples: expected an integer, got '10'"),
        ({"strategy": "random", "n_samples": True},
         "n_samples: expected an integer, got True"),
        ({"strategy": "beam", "beam_width": 2.0},
         "beam_width: expected an integer, got 2.0"),
        ({"strategy": "random", "n_samples": 5, "top_k": 1.5},
         "top_k: expected an integer, got 1.5"),
        ({"strategy": "random", "n_samples": 5, "seed": 1.5},
         "seed: expected an integer, got 1.5"),
    ])
    # a 16-bit GB holds no whole tensor of conv5: every candidate of the
    # doomed space is discarded alike, and bad arguments are still refused
    @pytest.mark.parametrize("capacity_gb", [None, 16], ids=["conv5", "doomed"])
    def test_search_arguments_checked(self, kwargs, message, capacity_gb):
        hw = hardware_preset("eyeriss_normalized")
        if capacity_gb is not None:
            hw = dataclasses.replace(hw, capacity_gb=capacity_gb)
        space, layer = SearchSpace(hw), layer_preset("alexnet_conv5")
        assert all(_prepare(space, layer).doomed) == (capacity_gb is not None)
        with pytest.raises(ConfigError) as exc:
            explore(space, layer, **kwargs)
        assert message in str(exc.value)

    # NaN compares false, so a NaN capacity would read "fits" everywhere
    @pytest.mark.parametrize("override, path", [
        ({"capacity_gb": float("nan")},
         "capacity_gb: expected an integer, got nan"),
        ({"pe_rows": 0}, "pe_rows: must be >= 1"),
    ])
    def test_invalid_hardware_rejected(self, override, path):
        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(hardware_preset("eyeriss_normalized"),
                                **override)
        assert path in str(exc.value)

    # the CLI's --cap takes only an integer >= 1
    @pytest.mark.parametrize("cap", [-1, 0, 1.5, True, "10"])
    def test_exhaustive_cap_must_be_a_count(self, cap):
        with pytest.raises(ConfigError) as exc:
            SearchSpace(hw=_hw(), exhaustive_cap=cap)
        assert str(exc.value) == (
            f"exhaustive_cap: expected an integer >= 1, got {cap!r}"
        )

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

    @pytest.mark.parametrize("objective", ["energy", "latency", "edp"])
    def test_full_width_beam_matches_exhaustive(self, objective):
        space = two_level_space(roomy_hw())
        size = space_size(space, SMALL)
        exhaustive = explore(space, SMALL, objective=objective, top_k=8)
        beam = explore(
            space, SMALL, objective=objective, strategy="beam",
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

    def test_draw_equals_the_sorted_sample(self, monkeypatch):
        # random.sample fills a set, rather than a pool list, when the
        # population is larger than the set's table; sizes either side of
        # that bound, n == size and the conv3 space, many seeds each
        def table(n):
            return 21 + (4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 0)
        cases = []
        for n, seeds in ((1, 200), (5, 200), (6, 200), (50, 40), (2000, 4)):
            t = table(n)
            for size in sorted({n, t - 1, t, t + 1, t + 2, 3 * t + 1, 40_550_400}):
                cases += [(seed, size, n) for seed in range(seeds) if size >= n]
        want = [sorted(random.Random(seed).sample(range(size), n))
                for seed, size, n in cases]
        sampled, real = [], random.Random.sample

        def sample(rng, population, k):
            sampled.append((population, k))
            return real(rng, population, k)
        monkeypatch.setattr(random.Random, "sample", sample)
        assert [_draw(*case) for case in cases] == want
        # on the set path, _draw draws with getrandbits alone
        assert sampled == [(range(size), n) for _, size, n in cases
                           if size <= table(n)]
        assert len(sampled) < len(cases)


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

    @pytest.mark.parametrize("objective", ["edp", "latency"])
    def test_latency_past_the_float_range_is_refused(self, objective):
        # zero costs and 5e-324 bits/s to DRAM: every latency is inf, and
        # edp 0 x inf = NaN; canonical_json can write neither
        hw = dataclasses.replace(hardware_preset("eyeriss_normalized"),
                                 unit_costs=UnitCosts(t_comp=1e-9), bw_dram=5e-324)
        with pytest.raises(ConfigError, match="^latency: the total exceeds "
                           "the largest float"):
            explore(SearchSpace(hw), LayerShape(m=4, c=3, r=3, s=1, e=4, f=2),
                    objective=objective, strategy="exhaustive")


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


def _full_path(space, layer, prep, cand, objective="edp"):
    """The build -> refresh -> check -> predict path, in the shape
    _evaluate returns; its nest comes from build_nest, given the
    candidate's tiling dict and ordering."""
    tiling = {mem: {} for mem in space.levels}
    for i, d in enumerate(DIMS):
        for mem, bound in zip(space.levels, cand[i]):
            tiling[mem][d] = bound
    ordering = explore_module._normalize_ordering(space.orderings[cand[-2]])
    nest = build_nest(layer, tiling, ordering=ordering)
    # the flat loops the scorer plans, and the nest built from them, are its
    assert _candidate_loops(prep, cand) == (list(nest.loops), list(nest.starts))
    assert _candidate_nest(layer, prep, cand) == nest
    try:
        refresh = canonical_refresh(
            nest, prep.styles[cand[-1]], space.hw, space.options
        )
    except MappingError as exc:
        return ("discard", exc.violations[0].code)
    violations = checked_plan(nest, space.hw, refresh, space.options)[1]
    if violations:
        return ("discard", violations[0].code)
    report = predict_layer(layer, nest, refresh, space.hw, space.options)
    e, lat = report.energy.total, report.latency.l_total_s
    value = {"energy": e, "latency": lat, "edp": e * lat}[objective]
    locs = [refresh.gb[k] for k in KINDS], [refresh.rf[k] for k in KINDS]
    return ("ok", value, _rank(prep, cand), locs)


def _walk_score(space, prep, cand, sized, objective="edp"):
    """The scorer's result by the loop walk alone, in its shape:
    resident_tiles(*place_refresh(...)), buffers_fit and score_totals on
    the candidate's flat loops; a raised error is returned in its place.
    Asserts that `sized`, the tiles the positional scorer passed to
    buffers_fit, are the walk's (none if the walk's tiles overflow)."""
    loops, starts = _candidate_loops(prep, cand)
    gb, rf, *walk = place_refresh(loops, starts, prep.styles[cand[-1]],
                                  space.hw, prep.stride)
    try:
        tiles = resident_tiles(gb, rf, *walk)
    except CountOverflowError as exc:
        assert sized == []
        return exc
    assert sized == [tiles]
    if not buffers_fit(space.hw, *tiles):
        return ("discard", "capacity")
    try:
        e, lat = score_totals(loops, gb, rf, tiles, space.hw, space.options)
    except (CountOverflowError, ConfigError) as exc:
        return exc
    value = {"energy": e, "latency": lat, "edp": e * lat}[objective]
    return ("ok", value, _rank(prep, cand), (gb, rf))


def _check_factor_sizing(space, prep, cand):
    """For a positional candidate that reaches _score_positional: the
    tiles it sizes from the rows, its verdict, value (bit for bit) and
    refresh locations equal the walk's, or both raise the same error of
    the same type. Returns the verdict ("overflow" for an error), or None
    for a candidate this does not apply to."""
    noc = 1 if (j := prep.slots[2]) is None else math.prod(
        [t[j] for t in cand[:-2]])
    if prep.kept[cand[-1]] is None or explore_module._rejected(
            prep, cand[-1], noc):
        return None
    rows = _rows(prep, cand)
    sized = []

    def fit(hw, gb, rf):
        sized.append((list(gb), list(rf)))
        return buffers_fit(hw, gb, rf)
    with mock.patch.object(explore_module, "buffers_fit", fit):
        try:
            got = explore_module._score_positional(
                space, prep, "edp", rows, _rank(prep, cand), cand[-1])
        except (CountOverflowError, ConfigError) as exc:
            got = exc
    want = _walk_score(space, prep, cand, sized)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), (space, cand)
        return "overflow"
    assert got == want, (space, cand)
    if got[0] == "ok":
        assert got[1].hex() == want[1].hex()
    return got[0] if got[0] == "ok" else got[1]


def _spy(monkeypatch, name, record, module=explore_module):
    """Wrap `module`'s `name` (the explore module's by default); returns
    the list that gets record(args, result) of each call."""
    log, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append(record(args, out))
        return out
    monkeypatch.setattr(module, name, wrapper)
    return log


def _random_space(rng):
    """A small seeded space: shared or per-kind capacities, buffering
    factor 1 or 2, stride 1 or 2, level subsets, padded covers, two
    orderings, every refresh style."""
    def capacity(sizes):
        if rng.random() < 0.5:
            return {k: 16 * rng.choice(sizes) for k in KINDS}
        return 16 * rng.choice(sizes)

    hw = _hw(
        pe_rows=2,
        pe_cols=rng.choice((2, 3)),
        capacity_gb=capacity((32, 128, 512, 4096)),
        capacity_rf=capacity((4, 8, 16, 64, 256)),
        buffering_factor=rng.choice((1, 2)),
    )
    layer = LayerShape(
        **{d: rng.choice((1, 1, 2, 3, 4)) for d in ("m", "c", "r", "s")},
        e=rng.choice((2, 3, 5)),
        f=rng.choice((1, 1, 2, 3)),
        stride=rng.choice((1, 2)),
    )
    space = SearchSpace(
        hw=hw,
        levels=rng.choice(
            [(GB, NOC, RF), (DRAM, GB, NOC, RF), (NOC, RF), (DRAM, NOC, RF),
             (GB, RF)]
        ),
        orderings=((), ("f", "e", "s", "r", "c", "m")),
        refresh_styles=REFRESH_STYLES,
        allow_nondivisor=rng.random() < 0.4,
        options=Options(assume_stride_one=rng.random() < 0.3),
    )
    return space, layer


def _screen_outcomes(seed, n_spaces, doomed_only, noc=False):
    """Every candidate of seeded random spaces: _evaluate's code, and for
    a legal one its value and refresh locations, against the full path,
    which also checks the flat loops and the nest against build_nest's;
    a positional one's factor sizing against the walk; and _settle over
    every index against _evaluate of each candidate, in itertools.product
    order. Counts (style, doomed code, code), and with `noc` whether the
    space has a NoC level."""
    rng = random.Random(seed)
    outcomes = Counter()
    spaces = 0
    while spaces < n_spaces:
        space, layer = _random_space(rng)
        if not 100 <= space_size(space, layer) <= 3000:
            continue
        spaces += 1
        prep = _prepare(space, layer)
        if doomed_only and not any(prep.doomed):
            continue
        candidates = [_unrank(prep, i) for i in range(prep.size)]
        # exhaustive ties break on the index, as they did on this order
        assert candidates == list(itertools.product(
            *[prep.tilings[d] for d in DIMS],
            range(len(space.orderings)), range(len(prep.styles)),
        ))
        results = []
        for cand in candidates:
            got = _evaluate(space, prep, "edp", cand)
            assert got == _full_path(space, layer, prep, cand), (
                layer, space, cand
            )
            _check_factor_sizing(space, prep, cand)
            results.append(got)
            style = prep.styles[cand[-1]]
            code = got[1] if got[0] == "discard" else None
            key = style, prep.doomed[cand[-1]], code
            outcomes[key + ((prep.slots[2] is not None,) if noc else ())] += 1
        assert _settle(space, prep, "edp", range(prep.size)) == (
            [r for r in results if r[0] == "ok"],
            [r[1] for r in results if r[0] == "discard"],
        ), (layer, space)
    return outcomes


class TestFactorScreen:
    def test_screen_code_equals_full_path_code(self):
        outcomes = _screen_outcomes(20, 20, doomed_only=False)
        assert {code for _, _, code in outcomes} == {
            None, "pe_array", "capacity", "refresh_style"
        }
        for style in REFRESH_STYLES:
            assert (style, None, None) in outcomes
        assert ("row_stationary_like", "refresh_style", "refresh_style") in (
            outcomes
        )

    def test_index_path_equals_the_candidate_path(self):
        # doomed styles, a row_stationary_like register verdict and spaces
        # without a NoC level among the indices checked both ways
        outcomes = _screen_outcomes(56, 31, doomed_only=False, noc=True)
        assert {(doomed, code, noc) for _, doomed, code, noc in outcomes} >= {
            ("capacity", "capacity", True), ("capacity", "pe_array", True),
            ("refresh_style", "refresh_style", True),
            ("capacity", "capacity", False),
            ("refresh_style", "refresh_style", False),
            (None, None, False), (None, "pe_array", True),
        }

    def test_hopeless_styles_screen_like_the_full_path(self):
        outcomes = _screen_outcomes(21, 300, doomed_only=True)
        assert {(doomed, code) for _, doomed, code in outcomes} == {
            ("refresh_style", "refresh_style"),
            ("capacity", "pe_array"), ("capacity", "capacity"),
            (None, "pe_array"), (None, "capacity"), (None, None),
        }
        assert {style for style, doomed, _ in outcomes if doomed} == set(
            REFRESH_STYLES
        )

    def test_factor_sizing_equals_the_walk(self):
        # seeded positional spaces: any subset of the levels in any order,
        # padded covers, shared or per-kind capacities, buffering factor 1
        # or 2, stride 1, 2 or 4; seeded index draws and beam completions
        rng = random.Random(23)
        seen = Counter()

        def capacity(sizes):
            size = 16 * rng.choice(sizes)
            return {k: size for k in KINDS} if rng.random() < 0.5 else size
        for _ in range(300):
            hw = _hw(pe_rows=rng.choice((2, 4)), pe_cols=rng.choice((3, 4)),
                     capacity_gb=capacity((64, 256, 1024, 4096)),
                     capacity_rf=capacity((8, 32, 128, 512)),
                     buffering_factor=rng.choice((1, 2)))
            layer = LayerShape(
                m=rng.choice((1, 2, 4, 6)), c=rng.choice((1, 3, 4)),
                r=rng.choice((1, 3, 5)), s=rng.choice((1, 3)),
                e=rng.choice((1, 4, 6, 7)), f=rng.choice((2, 5)),
                stride=rng.choice((1, 2, 4)),
            )
            levels = rng.sample((DRAM, GB, NOC, RF), rng.choice((2, 3, 4, 4)))
            space = SearchSpace(
                hw, levels=tuple(levels),
                orderings=((), ("f", "e", "s", "r", "c", "m")),
                refresh_styles=rng.sample(list(STATIONARY_KIND), 2),
                allow_nondivisor=rng.random() < 0.4,
            )
            prep = _prepare(space, layer)
            whole = {d: (layer.dim(d),) + (1,) * (len(levels) - 1) for d in DIMS}
            features = {
                "default levels" if tuple(levels) == (DRAM, GB, NOC, RF)
                else "reordered levels", f"stride {prep.stride}",
                f"buffering {hw.buffering_factor}",
                "padded" if space.allow_nondivisor else "divisors",
                *(f"no {mem.name}" for mem in (DRAM, GB, NOC) if mem not in levels),
                *(f"{name} {'shared' if isinstance(cap, int) else 'per-kind'}"
                  for name, cap in (("GB", hw.capacity_gb), ("RF", hw.capacity_rf))),
            }
            for draw in range(60):
                if draw % 3:
                    cand, drawn = _unrank(prep, rng.randrange(prep.size)), set()
                else:
                    # a beam completion: some dims whole at the outermost level
                    ts = [whole[d] if rng.random() < 0.5
                          else rng.choice(prep.tilings[d]) for d in DIMS]
                    cand = (*ts, rng.randrange(len(prep.groups)),
                            rng.randrange(len(prep.styles)))
                    drawn = {"completion"}
                verdict = _check_factor_sizing(space, prep, cand)
                if verdict is not None:
                    for feature in features | drawn:
                        seen[feature, verdict] += 1
        features = {feature for feature, _ in seen}
        assert features >= {
            "default levels", "reordered levels", "no DRAM", "no GB", "no NOC",
            "stride 4", "buffering 2", "padded", "completion",
            "GB shared", "GB per-kind", "RF shared", "RF per-kind",
        }
        for feature in features:
            assert seen[feature, "ok"] and seen[feature, "capacity"], feature

    # a legal candidate whose latency passes the largest float raises
    # ConfigError, as the report path does, and so does one whose energy
    # does; price_totals prices both itself. Only a MAC product past
    # 2^63-1 goes to score_totals' report path (a CountOverflowError
    # there); every candidate of each space
    @pytest.mark.parametrize("hw, layer, levels, verdicts, hands_over", [
        (_hw(bw_dram=1e-305), LayerShape(m=4, c=3, r=3, s=1, e=4, f=2),
         (DRAM, GB, RF), {"overflow", "capacity"}, False),
        (_hw(capacity_rf=256, unit_costs=UnitCosts(
            e_mac=1.0, t_comp=1e-9, e_access={DRAM: {k: 4e305 for k in KINDS}})),
         LayerShape(m=4, c=3, r=3, s=1, e=4, f=2), (DRAM, GB, RF),
         {"ok", "overflow", "capacity"}, False),
        (_hw(), LayerShape(m=1, c=1, r=2**31, s=2**32, e=1, f=1), (DRAM, RF),
         {"overflow", "capacity"}, True),
    ], ids=["latency", "energy", "count"])
    def test_report_path_hand_over_equals_the_walk(self, hw, layer, levels,
                                                   verdicts, hands_over):
        space = SearchSpace(hw, levels=levels,
                            refresh_styles=tuple(STATIONARY_KIND))
        prep = _prepare(space, layer)
        handed = []

        def priced(*args):
            out = price_totals(*args)
            handed.append(out is None)
            return out
        seen = Counter()
        with mock.patch.object(explore_module, "price_totals", priced):
            for i in range(prep.size):
                seen[_check_factor_sizing(space, prep, _unrank(prep, i))] += 1
        assert set(seen) - {None} == verdicts
        assert any(handed) is hands_over

    # the three spaces pinned with allowed_factors before the knob went,
    # now unrestricted; stats and sha256 of the canonical to_dict() JSON
    # captured while beam still judged candidate tuples
    @pytest.mark.parametrize("capacity_gb, capacity_rf, padded, strategy, pin", [
        (1024, 64, False, "random",
         (2000, 0, {"capacity": 1018, "pe_array": 982},
          "43d6ccf42010239745f677e59f3e65804e7a6b1846e40b4747de4c66c1101102")),
        (1024, 64, False, "beam",
         (218, 0, {"capacity": 8},
          "b3b92cd2a3b08826b26d9408f9419b9783b2c3782684c580440c9cacb843dfe0")),
        (4096, 256, True, "random",
         (2000, 57, {"capacity": 751, "pe_array": 1192},
          "964a0751d9d516263d6ff1223b75f71fe53dab5e8bac11612ac9236174af0bf5")),
        (4096, 256, True, "beam",
         (298, 4, {"capacity": 4},
          "96a2e7f292e790add4fbb696c44a530efb0918a317730e0f070b0649d1bf5e92")),
        (16384, 1024, False, "random",
         (2000, 783, {"capacity": 235, "pe_array": 982},
          "f84ea8671e428ee91a2d8a38e7ab4e0460d76f65f539a76f293c1e6060e1df5d")),
        (16384, 1024, False, "beam",
         (218, 4, {"capacity": 4},
          "b82793ced7e5a928cc5f0c5390b5c7378941eae89daee06f2aad1bb633ac7704")),
    ])
    def test_search_pin(self, capacity_gb, capacity_rf, padded, strategy, pin):
        layer = LayerShape(m=4, c=4, r=3, s=3, e=6, f=6)
        space = SearchSpace(
            _hw(capacity_gb=capacity_gb, capacity_rf=capacity_rf),
            allow_nondivisor=padded,
        )
        result = explore(space, layer, objective="edp", strategy=strategy,
                         n_samples=2000, beam_width=4, top_k=3)
        text = canonical_json(result.to_dict())
        assert (
            result.stats["evaluated"], result.stats["legal"],
            result.stats["discarded"], hashlib.sha256(text.encode()).hexdigest(),
        ) == pin

    def test_discards_build_no_violation(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(Violation(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(loopnest_module, "Violation", counted)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        result = explore(space, layer_preset("alexnet_conv5"),
                         strategy="random", n_samples=300, seed=1, top_k=3)
        assert result.stats["legal"] == 3
        assert sum(result.stats["discarded"].values()) == 297
        assert built == []

    def test_count_overflow_raised_where_the_tile_volumes_overflow(self):
        # outcomes of the first 20,001 candidates (sha256 of their
        # comma-joined sequence) captured with tile_volume doing the check
        layer = LayerShape(m=2**16, c=2**16, r=2**16, s=2**16, e=1, f=1)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        prep = _prepare(space, layer)
        outcomes = []
        for i in range(20_001):
            try:
                res = _evaluate(space, prep, "edp", _unrank(prep, i))
                outcomes.append(res[1] if res[0] == "discard" else "None")
            except CountOverflowError:
                outcomes.append("overflow")
        assert Counter(outcomes) == {
            "pe_array": 11_589, "overflow": 5_226, "capacity": 3_186
        }
        assert hashlib.sha256(",".join(outcomes).encode()).hexdigest() == (
            "720cdfd23a9bb8966f6a85c079d5e5a2a4b3a2b7f726732ba006ce3cee1317ca"
        )
        for kwargs in ({"strategy": "random", "n_samples": 200},
                       {"strategy": "beam", "beam_width": 4}):
            with pytest.raises(CountOverflowError):
                explore(space, layer, **kwargs)

    # the kept kind's whole tensor: weights m*c*r*s = 24, outputs m*e*f = 18
    @pytest.mark.parametrize("shared", [True, False],
                             ids=["shared", "per-kind"])
    @pytest.mark.parametrize("bf", [1, 2])
    @pytest.mark.parametrize("style, elements", [
        ("weight_stationary", 24), ("output_stationary", 18),
    ])
    def test_hopeless_from_one_bit_over_capacity(
        self, shared, bf, style, elements
    ):
        layer = LayerShape(m=2, c=4, r=3, s=1, e=3, f=3)
        kept = STATIONARY_KIND[style]

        def hopeless(bits):
            capacity = bits if shared else {
                k: bits if k is kept else 10**9 for k in KINDS
            }
            space = SearchSpace(
                _hw(capacity_gb=capacity, buffering_factor=bf),
                refresh_styles=(style,),
            )
            return _prepare(space, layer).doomed

        need = elements * 16 * bf
        assert hopeless(need) == [None]
        assert hopeless(need - 1) == ["capacity"]

    def test_no_verdict_where_a_tile_can_overflow(self):
        # whole weights 2^64 overflow; a hopeless verdict there would hide
        # the CountOverflowError some candidates raise
        huge = LayerShape(m=2**16, c=2**16, r=2**16, s=2**16, e=1, f=1)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        assert _prepare(space, huge).doomed == [None, None]
        # 2^48 (2^15 - 1) weights stay under 2^63
        fits = dataclasses.replace(huge, s=2**15 - 1)
        assert _prepare(space, fits).doomed == ["capacity", "capacity"]
        # but not when a dim can be padded: over two levels s = 2^15 - 1
        # has covers such as 2 x 2^14, whose product passes the dim
        padded = dataclasses.replace(space, levels=(GB, RF),
                                     allow_nondivisor=True)
        assert _prepare(padded, fits).doomed == [None, None]
        with pytest.raises(CountOverflowError) as exc:
            explore(padded, fits, strategy="random", n_samples=500)
        assert str(exc.value) == "count 9254486468453990400 exceeds 2^63-1"

    def test_hopeless_styles_compute_no_tiles(self, monkeypatch):
        # conv3: neither kept tensor fits the 884,736-bit GB; stats captured
        # before the verdict existed
        def refuse(*args):
            raise AssertionError("resident_tiles called")
        monkeypatch.setattr(explore_module, "resident_tiles", refuse)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        result = explore(space, layer_preset("alexnet_conv3"),
                         objective="edp", strategy="random", n_samples=300)
        assert result.stats == {
            "space_size": 40_550_400, "strategy": "random",
            "objective": "edp", "seed": 0, "n_samples": 300,
            "evaluated": 300, "legal": 0,
            "discarded": {"capacity": 201, "pe_array": 99},
        }

    # conv1: 960 without the memo, as rounds and finalists revisit 96;
    # conv2-5 doom their first style, so only the 32 finalists are judged
    @pytest.mark.parametrize("layer, unique, evaluated", [
        ("alexnet_conv1", 864, 960), ("alexnet_conv2", 32, 3205),
        ("alexnet_conv3", 32, 3408), ("alexnet_conv4", 32, 6144),
        ("alexnet_conv5", 32, 5829),
    ])
    def test_beam_scores_each_candidate_once(self, monkeypatch, layer,
                                             unique, evaluated):
        settled = _spy(monkeypatch, "_settle", lambda args, out: args[-1])
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        result = explore(space, layer_preset(layer),
                         objective="edp", strategy="beam", beam_width=16)
        calls = [i for indices in settled for i in indices]
        assert len(calls) == len(set(calls)) == unique
        assert result.stats["evaluated"] == evaluated

    # a survivor of the PE and doomed-style rule used to run it again
    # before its loops were built; each _settle call records how many
    # candidates it judges: all of a random sample at once, beam's new
    # candidates stage by stage
    @pytest.mark.parametrize("strategy, evaluated", [
        ("random", 2000), ("beam", 864),
    ])
    def test_rejected_runs_once_per_candidate(
        self, monkeypatch, strategy, evaluated
    ):
        rejected = _spy(monkeypatch, "_rejected", lambda args, out: out)
        walked = _spy(monkeypatch, "_settle", lambda args, out: len(args[-1]))
        # every survivor is positional here
        scored = _spy(monkeypatch, "_score_positional", lambda args, out: out)
        explore(SearchSpace(hardware_preset("eyeriss_normalized")),
                layer_preset("alexnet_conv1"), objective="edp",
                strategy=strategy, n_samples=2000, beam_width=16, seed=0)
        assert len(rejected) == sum(walked) == evaluated
        # every candidate _rejected passes is scored, and no other
        assert len(scored) == rejected.count(None) > 0

    # a row_stationary_like candidate used to walk its loops twice (once to
    # place its refresh points, again for its tiles), and every legal one
    # built a plan, count rows and two reports to keep two floats; a
    # positional candidate, walked once since, is now sized from its factors
    @pytest.mark.parametrize("layer, styles, search", [
        ("alexnet_conv1", ("weight_stationary", "output_stationary"),
         {"strategy": "beam", "beam_width": 16}),
        ("alexnet_conv5", ("row_stationary_like",),
         {"strategy": "random", "n_samples": 300}),
    ])
    def test_loops_walked_once_and_reports_built_for_entries_only(
        self, monkeypatch, layer, styles, search
    ):
        walks = _spy(monkeypatch, "_volumes_below",
                     lambda args, out: tuple(args[0]), module=loopnest_module)
        walked = _spy(monkeypatch, "_score", lambda args, out: (
            tuple(_candidate_loops(args[1], _unrank(args[1], args[3]))[0]),
            out[0], True))
        sized = _spy(monkeypatch, "_score_positional",
                     lambda args, out: (None, out[0], False))
        reports = {name: _spy(monkeypatch, name, lambda args, out: None,
                              module=predictor_module)
                   for name in ("access_counts", "energy", "latency")}
        space = SearchSpace(hardware_preset("eyeriss_normalized"),
                            refresh_styles=styles)
        result = explore(space, layer_preset(layer), objective="edp",
                         seed=0, top_k=10, **search)
        placed = walked + sized
        legal = sum(verdict == "ok" for _, verdict, _ in placed)
        assert len(result.entries) == 10 and legal > 10
        # every row_stationary_like candidate that reaches placement, no
        # positional one, then each entry's report; a row_stationary_like
        # style is placed once on no loops per search
        assert Counter(walks) == Counter(
            [loops for loops, _, walked in placed if walked]
            + [entry.nest.loops for entry in result.entries]
            + [()] * styles.count("row_stationary_like")
        )
        assert {name: len(calls) for name, calls in reports.items()} == dict.fromkeys(
            reports, len(result.entries)
        )

    def test_bad_ordering_raises_when_every_candidate_is_discarded(self):
        # capacity_rf=1 screens out every candidate, so no nest is built;
        # the space refuses the ordering when it is constructed
        with pytest.raises(ConfigError) as exc:
            SearchSpace(roomy_hw(capacity_rf=1), orderings=(("m", "c"),))
        assert "ordering for DRAM must be a permutation" in str(exc.value)


class TestRanking:
    # calls per op on the eyeriss preset, default space, edp, seed 0,
    # top_k 10: every legal candidate is scored, but only the 10 entries
    # and the members of value ties reaching them build a nest and text
    @pytest.mark.parametrize("layer, strategy, built, legal", [
        ("alexnet_conv1", "beam", 12, 349),
        ("alexnet_conv1", "random", 10, 35),
        ("alexnet_conv5", "random", 10, 22),
    ])
    def test_nest_and_text_built_only_for_ranked_candidates(
        self, monkeypatch, layer, strategy, built, legal
    ):
        scored = _spy(monkeypatch, "_score_positional", lambda args, out: out[0])
        nests = _spy(monkeypatch, "_candidate_nest", lambda args, out: out)
        texts = _spy(monkeypatch, "render", lambda args, out: out)
        explore(SearchSpace(hardware_preset("eyeriss_normalized")),
                layer_preset(layer), objective="edp", strategy=strategy,
                n_samples=2000, beam_width=16, seed=0, top_k=10)
        assert (len(nests), len(texts)) == (built, built)
        assert scored.count("ok") == legal > built

    def test_row_stationary_like_builds_no_nest_unless_it_ranks(
        self, monkeypatch
    ):
        # the walk's legal results and discard codes; the candidate of each
        # nest built
        settled = _spy(monkeypatch, "_settle", lambda args, out: out)
        built = _spy(monkeypatch, "_candidate_nest",
                     lambda args, out: args[-1])
        space = SearchSpace(hardware_preset("eyeriss_normalized"),
                            refresh_styles=REFRESH_STYLES)
        layer = layer_preset("alexnet_conv5")
        result = explore(space, layer, strategy="random", n_samples=300,
                         seed=1, top_k=3)
        [(scored, codes)] = settled
        prep = _prepare(space, layer)
        legal = [(_unrank(prep, r[2]), r[1]) for r in scored]
        assert len(scored) + len(codes) == 300
        assert len(legal) == result.stats["legal"]
        # exactly the candidates that rank or tie the last entry
        cut = result.entries[-1].objective_value
        assert len(built) == len(set(built))
        assert set(built) == {c for c, v in legal if v <= cut}
        rsl = REFRESH_STYLES.index("row_stationary_like")
        assert sum(c[-1] == rsl for c, _ in legal) == 62
        assert sum(c[-1] == rsl for c in built) == 3

    def test_order_equals_sorting_on_value_text_index(self):
        # few values and texts, so ties are common; a legal value may be
        # inf, which sorts after the discards' inf and ""
        rng = random.Random(5)
        for _ in range(300):
            scored = [
                ("discard", "capacity") if rng.random() < 0.3 else
                ("ok", rng.choice((1.0, 2.0, 2.0, 3.0, math.inf)), i, None)
                for i in range(rng.randrange(1, 30))
            ]
            texts = {r[2]: rng.choice("abc") for r in scored if r[0] == "ok"}
            asked = []

            def built(res):
                asked.append(res[2])
                return texts[res[2]], None

            keys = [(r[1], texts[r[2]]) if r[0] == "ok" else (math.inf, "")
                    for r in scored]
            want = sorted(range(len(keys)), key=lambda i: (keys[i], i))
            n = rng.randrange(1, len(scored) + 2)
            assert explore_module._order(scored, n, built) == want[:n]
            # text only for the legal members of a tie reaching the first n
            legal = Counter(r[1] for r in scored if r[0] == "ok")
            reached = {scored[i][1] for i in want[:n] if scored[i][0] == "ok"}
            assert set(asked) == {
                r[2] for r in scored
                if r[0] == "ok" and r[1] in reached and legal[r[1]] > 1
            }

    def test_ranking_equals_the_eager_reference(self, monkeypatch):
        # the reference builds every legal result's text and sorts on
        # (value, text, index); ties seen at the top-k cut and in beam
        # rounds, where texts differ
        top_k, ties = 5, Counter()  # beam_width 3: n tells the caller

        def eager(scored, n, built):
            keys = [(r[1], built(r)[0]) if r[0] == "ok" else (math.inf, "")
                    for r in scored]
            order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
            ranked = [keys[i] for i in order]
            where = "top_k" if n == top_k else "beam round"
            if n < len(ranked) and ranked[n - 1][0] == ranked[n][0] < math.inf:
                ties[where, "cut"] += 1
            if any(a[0] == b[0] < math.inf and a[1] != b[1]
                   for a, b in zip(ranked[:n], ranked[1:n])):
                ties[where, "within"] += 1
            return order[:n]

        rng = random.Random(1)
        runs = 0
        while runs < 6:
            space, layer = _random_space(rng)
            if not 100 <= space_size(space, layer) <= 3000:
                continue
            runs += 1
            for objective in ("energy", "latency", "edp"):
                for strategy in ("exhaustive", "random", "beam"):
                    kwargs = dict(objective=objective, strategy=strategy,
                                  top_k=top_k, beam_width=3, n_samples=200,
                                  seed=runs)
                    got = canonical_json(explore(space, layer,
                                                 **kwargs).to_dict())
                    with monkeypatch.context() as m:
                        m.setattr(explore_module, "_order", eager)
                        want = canonical_json(explore(space, layer,
                                                      **kwargs).to_dict())
                    assert got == want, (layer, space, kwargs)
        assert {("top_k", "cut"), ("top_k", "within"), ("beam round", "cut"),
                ("beam round", "within")} <= set(ties), ties


# The beam search before doomed stages were built lazily, kept verbatim as
# the reference: every stage builds all its expansions, and a stage whose
# first style is doomed then keeps the first beam_width of them. It returns
# what _beam returns: the scored finalists and the evaluated count.
def _ref_beam(
    space: SearchSpace,
    layer: LayerShape,
    prep: _Prepared,
    objective: str,
    beam_width: int,
    built,
):
    # an unassigned dim stays whole at the outermost search level
    ones = (1,) * (len(space.levels) - 1)
    whole = {d: (layer.dim(d),) + ones for d in DIMS}
    evaluated = 0

    @functools.cache  # rounds and finalists revisit candidates
    def evaluate(cand: Candidate):
        return _evaluate(space, prep, objective, cand)

    def completion(partial: dict[str, tuple[int, ...]]) -> Candidate:
        return tuple([partial.get(d) or whole[d] for d in DIMS]) + (0, 0)

    pool: list[dict[str, tuple[int, ...]]] = [{}]
    for d in DIMS:
        expanded = [dict(p, **{d: t}) for p in pool for t in prep.tilings[d]]
        evaluated += len(expanded)
        if prep.doomed[0]:  # completions are style 0, all discarded alike
            pool = expanded[:beam_width]
            continue
        scored = [evaluate(completion(p)) for p in expanded]
        pool = [expanded[i] for i in _order(scored, beam_width, built)]

    # tilings fixed; widen over orderings, then styles
    staged: list[Candidate] = [completion(p) for p in pool]
    with_orderings = [
        c[:-2] + (oi, 0) for c in staged for oi in range(len(prep.groups))
    ]
    if len(prep.groups) > 1:
        scored = [evaluate(c) for c in with_orderings]
        evaluated += len(with_orderings)
        with_orderings = [
            with_orderings[i] for i in _order(scored, beam_width, built)
        ]

    finalists = [
        c[:-1] + (si,) for c in with_orderings for si in range(len(prep.styles))
    ]
    scored = [evaluate(c) for c in finalists]
    evaluated += len(finalists)
    return scored, evaluated


class TestLazyBeam:
    def test_beam_equals_the_eager_reference(self, monkeypatch):
        # seeded spaces, each refresh style rotated first in turn; kept
        # until 40 have a doomed first style (about 1 in 10 does) and 60
        # do not
        rng = random.Random(18)
        doomed, free = [], []
        while len(doomed) < 40 or len(free) < 60:
            space, layer = _random_space(rng)
            styles = space.refresh_styles
            for i in range(len(styles)):
                rotated = dataclasses.replace(
                    space, refresh_styles=styles[i:] + styles[:i]
                )
                pile = doomed if _prepare(rotated, layer).doomed[0] else free
                if len(pile) < (40 if pile is doomed else 60):
                    pile.append((rotated, layer))
        assert {_prepare(*case).doomed[0] for case in doomed} == {
            "capacity", "refresh_style"
        }

        def run(space, layer, kwargs):
            result = explore(space, layer, strategy="beam", **kwargs)
            text = canonical_json(result.to_dict())
            return result.stats, hashlib.sha256(text.encode()).hexdigest()

        for space, layer in doomed + free:
            kwargs = dict(objective=rng.choice(("energy", "latency", "edp")),
                          beam_width=rng.choice((1, 2, 3, 5, 8)),
                          top_k=rng.choice((1, 3)))
            got = run(space, layer, kwargs)
            with monkeypatch.context() as m:
                m.setattr(explore_module, "_beam", _ref_beam)
                assert got == run(space, layer, kwargs), (space, layer, kwargs)

    # stage j judges the pool's partials with dim j set; the dims after it
    # stay whole at the outermost level, ordering and style at digit 0
    @pytest.mark.parametrize("padded", [False, True], ids=["divisor", "padded"])
    @pytest.mark.parametrize("levels", [
        (GB, RF), (NOC, RF), (GB, NOC, RF), (DRAM, NOC, RF), (DRAM, GB, NOC, RF),
    ], ids=lambda levels: "-".join(m.name for m in levels))
    def test_completions_leave_unassigned_dims_whole(self, monkeypatch,
                                                     levels, padded):
        layer = LayerShape(m=4, c=2, r=3, s=1, e=6, f=2)
        space = SearchSpace(roomy_hw(), levels=levels,
                            orderings=((), ("f", "e", "s", "r", "c", "m")),
                            allow_nondivisor=padded)
        prep = _prepare(space, layer)
        assert not prep.doomed[0]
        settled = _spy(monkeypatch, "_settle", lambda args, out: list(args[-1]))
        explore(space, layer, objective="edp", strategy="beam", beam_width=3)
        # a stage per dim, then orderings, then the finalists
        assert len(settled) == len(DIMS) + 2
        ones = (1,) * (len(levels) - 1)
        whole = [(layer.dim(d),) + ones for d in DIMS]
        assert [_unrank(prep, i) for i in settled[0]] == [
            (t, *whole[1:], 0, 0) for t in prep.tilings["m"]
        ]
        for j, indices in enumerate(settled[:len(DIMS)]):
            for i in indices:
                cand = _unrank(prep, i)
                assert list(cand[j + 1:len(DIMS)]) == whole[j + 1:]
                assert cand[-2:] == (0, 0)


class TestSharedLayerPart:
    """Each dim's tilings and rows are built once per extent, level set
    and padding, and shared by every search on them (_dim_part); what
    depends on the hardware, the stride or the rest of the space is the
    search's own."""

    @staticmethod
    def _enumerated(monkeypatch):
        """The arguments of each _tilings call, logged before it runs."""
        log, tilings = [], explore_module._tilings

        def logged(*args):
            log.append(args)
            return tilings(*args)
        monkeypatch.setattr(explore_module, "_tilings", logged)
        return log

    def test_a_second_search_enumerates_nothing(self, monkeypatch):
        explore_module._dim_part.cache_clear()
        enumerated = self._enumerated(monkeypatch)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        layer = layer_preset("alexnet_conv2")
        first = explore(space, layer, strategy="random", n_samples=300)
        # one enumeration per distinct extent: r and s share theirs
        assert sorted(enumerated) == sorted(
            (n, 4, False) for n in set(layer.dims().values()))
        enumerated.clear()
        again = explore(space, layer, strategy="random", n_samples=300)
        assert space_size(space, layer) == first.stats["space_size"]
        assert enumerated == []
        assert canonical_json(again.to_dict()) == canonical_json(first.to_dict())

    @pytest.mark.parametrize("change", [
        {"levels": (GB, RF)},
        {"levels": (DRAM, GB, RF)},
        {"allow_nondivisor": True},
    ], ids=["two levels", "no NoC", "padded"])
    def test_other_levels_or_padding_enumerate_again(self, monkeypatch, change):
        layer = LayerShape(m=4, c=6, r=3, s=3, e=2, f=2)
        space = SearchSpace(roomy_hw())
        space_size(space, layer)
        enumerated = self._enumerated(monkeypatch)
        other = dataclasses.replace(space, **change)
        space_size(other, layer)
        k, padded = len(other.levels), other.allow_nondivisor
        assert sorted(enumerated) == sorted(
            (n, k, padded) for n in set(layer.dims().values()))
        enumerated.clear()
        space_size(space, layer)
        assert enumerated == []

    def test_another_name_or_stride_shares_the_entry(self, monkeypatch):
        # whole weights 2^63 - 2^48 fit in 2^63; inputs pass it only at a
        # stride near 2^24, so the stride alone decides whether the
        # styles are doomed
        layer = LayerShape(m=2**16, c=2**16, r=2**16, s=2**15 - 1, e=2, f=2)
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        assert _prepare(space, layer).doomed == ["capacity", "capacity"]
        enumerated = self._enumerated(monkeypatch)
        renamed = dataclasses.replace(layer, name="other")
        strided = dataclasses.replace(layer, stride=2**24)
        assert _prepare(space, renamed).doomed == ["capacity", "capacity"]
        prep = _prepare(space, strided)
        assert (prep.stride, prep.doomed) == (2**24, [None, None])
        assert _prepare(space, layer).doomed == ["capacity", "capacity"]
        assert enumerated == []

    def test_the_padded_cap_error_is_raised_on_every_call(self, monkeypatch):
        # the full cap takes seconds to reach; the error is the same
        monkeypatch.setattr(explore_module, "_FACTOR_ENUM_CAP", 10_000)
        enumerated = self._enumerated(monkeypatch)
        space = SearchSpace(roomy_hw(), allow_nondivisor=True)
        layer = LayerShape(m=10**6, c=1, r=1, s=1, e=1, f=1)
        for _ in range(2):
            with pytest.raises(ConfigError) as exc:
                explore(space, layer, strategy="random", n_samples=10)
            assert "allow_nondivisor" in str(exc.value)
        assert [args for args in enumerated if args[0] == 10**6] == [
            (10**6, 4, True)] * 2

    def test_the_shared_part_is_read_only(self):
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        layer = layer_preset("alexnet_conv5")
        prep = _prepare(space, layer)
        for n in layer.dims().values():
            part = explore_module._dim_part(n, False, space.slots)
            for column in (part.tilings, part.nocs, part.rows):
                assert type(column) is tuple
            assert all(type(v) is tuple for v in part.tilings + part.rows)
        tilings = {d: list(ts) for d, ts in prep.tilings.items()}
        table = [(list(nocs), list(rows), p, n) for nocs, rows, p, n in prep.table]
        expected = canonical_json(explore(
            space, layer, strategy="random", n_samples=300).to_dict())
        with pytest.raises(TypeError):
            prep.table[0][1][0] += (0,)  # a row is a tuple
        with pytest.raises(AttributeError):
            prep.tilings["m"].append((1, 1, 1, 1))
        # what one search may change is its own
        prep.tilings["m"] = ()
        prep.table[0] = ((), (), 0, 0)
        prep.radices[0] = 1
        again = _prepare(space, layer)
        assert {d: list(ts) for d, ts in again.tilings.items()} == tilings
        assert [(list(nocs), list(rows), p, n)
                for nocs, rows, p, n in again.table] == table
        assert canonical_json(explore(
            space, layer, strategy="random", n_samples=300).to_dict()) == expected

    def _same_bytes_in_any_order(self, spaces, layer):
        def run(space):
            return [canonical_json(explore(space, layer, objective="edp", **kw)
                                   .to_dict())
                    for kw in ({"strategy": "random", "n_samples": 300, "seed": 3},
                               {"strategy": "beam", "beam_width": 4})]
        # per space, its outputs cold and warm, in both orders
        seen = [set(), set()]
        for order in (spaces, spaces[::-1]):
            explore_module._dim_part.cache_clear()
            for _warm in range(2):
                for space in order:
                    seen[spaces.index(space)].add(tuple(run(space)))
        assert [len(s) for s in seen] == [1, 1]
        assert seen[0] != seen[1]

    def test_no_state_leaks_across_hardware(self):
        layer = layer_preset("alexnet_conv5")
        eyeriss = hardware_preset("eyeriss_normalized")
        small_gb = dataclasses.replace(eyeriss, capacity_gb=65536)
        spaces = [SearchSpace(eyeriss), SearchSpace(small_gb)]
        assert [_prepare(s, layer).doomed for s in spaces] == [
            ["capacity", None], ["capacity", "capacity"]]
        self._same_bytes_in_any_order(spaces, layer)

    @pytest.mark.parametrize("change", [
        {"refresh_styles": REFRESH_STYLES},
        {"orderings": ((), ("f", "e", "s", "r", "c", "m"))},
    ], ids=["refresh_styles", "orderings"])
    def test_no_state_leaks_across_spaces(self, change):
        layer = layer_preset("alexnet_conv5")
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        self._same_bytes_in_any_order(
            [space, dataclasses.replace(space, **change)], layer)


# explore(..., objective="edp", n_samples=2000, beam_width=16, seed=0) on
# the eyeriss preset, default space: stats and the sha256 of the canonical
# to_dict() JSON, per layer and strategy.
BENCHMARK_PIN = {
    ("CONV1", "random"): (2000, 35, {"pe_array": 794, "capacity": 1171},
                          "07de653ca285c927bad3fd8a3d0425f382be839b4f9fb272af5ba938135fb681"),
    ("CONV1", "beam"): (960, 16, {"capacity": 16},
                        "f1fb278cd32b89dcfc589ae3b867fcb59c4c0137e0d74419b9b094a87c1aa9b1"),
    ("CONV2", "random"): (2000, 0, {"capacity": 1175, "pe_array": 825},
                          "813372616661701e5172cf4550f3f534f32eae8d73aa06ec896bbf23fd042900"),
    ("CONV2", "beam"): (3205, 0, {"capacity": 32},
                        "86bb2f9e6e880c1ebac1232785b384db68f46f9aedc1d38d3c220e3f49d0ea70"),
    ("CONV3", "random"): (2000, 0, {"capacity": 1251, "pe_array": 749},
                          "ac48542a84b0b75e04f577a19a75e35b0fac1fb53bdc5f7ca13fc77ebb1777bc"),
    ("CONV3", "beam"): (3408, 0, {"capacity": 30, "pe_array": 2},
                        "8e3f27f0d2fcd075efa7be55af8f7dd6f4fa7173f2842c4df333ecd84aa84e33"),
    ("CONV4", "random"): (2000, 0, {"capacity": 1174, "pe_array": 826},
                          "9d73102ce385ded1ca7de012efc3034be30aa3dc7283078e77708e875304b981"),
    ("CONV4", "beam"): (6144, 0, {"capacity": 30, "pe_array": 2},
                        "eda2adc3734299d7f5554999bcae06675a93f9b5bbe714b5cebed428b8c793c7"),
    ("CONV5", "random"): (2000, 22, {"capacity": 1176, "pe_array": 802},
                          "13463d0a6a055db55510fdc8078ac8939b6ac7c4b16c6bfe2993933b2b885c14"),
    ("CONV5", "beam"): (5829, 0, {"capacity": 30, "pe_array": 2},
                        "75a26b80b00e087742330163f4a94eb65ca3d9b6ae5a571de4038adb8ed12415"),
}


class TestBenchmarkPin:
    def test_alexnet_edp_search(self):
        space = SearchSpace(hardware_preset("eyeriss_normalized"))
        got = {}
        for layer in network_preset("alexnet_conv"):
            for strategy in ("random", "beam"):
                result = explore(space, layer, objective="edp",
                                 strategy=strategy, n_samples=2000,
                                 beam_width=16, seed=0)
                text = canonical_json(result.to_dict())
                got[layer.name, strategy] = (
                    result.stats["evaluated"], result.stats["legal"],
                    result.stats["discarded"],
                    hashlib.sha256(text.encode()).hexdigest(),
                )
        assert got == BENCHMARK_PIN

    def test_pins_hold_cold_and_warm(self):
        explore_module._dim_part.cache_clear()
        self.test_alexnet_edp_search()  # every tiling enumerated afresh
        self.test_alexnet_edp_search()


# explore(..., objective="edp", n_samples=3000, beam_width=16, seed=0) on the
# eyeriss preset, searching row_stationary_like alone ("rsl") and all three
# styles with it first ("three"): stats and the sha256 of the canonical
# to_dict() JSON, per layer and strategy, captured before the score kernel
ROW_STATIONARY_LIKE_PIN = {
    ("rsl", "CONV1", "random"): (3000, 1460, {"pe_array": 1146, "capacity": 394},
                                 "ff32d811d7cb1694d5839ed44d02c92518a97ab1f77af6a56165092bfffc2167"),
    ("rsl", "CONV1", "beam"): (944, 16, {},
                               "7c3736bf060fd8c5cc998f26cb92e8402d966595c210b6d3014f92d3ee0f21cb"),
    ("rsl", "CONV2", "random"): (3000, 1658, {"capacity": 113, "pe_array": 1229},
                                 "3a880484d154ee4c3e89301ae6eb467a9e076a8a9c08cb8f7acc47f0869f1510"),
    ("rsl", "CONV2", "beam"): (3189, 16, {},
                               "6fb698782ffbb6124ef8fa035af9a182ae3a51a8fc0ca3aefecffa86f9fe4035"),
    ("rsl", "CONV3", "random"): (3000, 1653, {"capacity": 194, "pe_array": 1153},
                                 "d1dfe903364f81b61fee8687c302c5f741f131493384abe2a645a096c51c2403"),
    ("rsl", "CONV3", "beam"): (3392, 16, {},
                               "1e97cbaa6734d191d97456434ffb178a48c4a09aeb6447d8f70540781dfd6fed"),
    ("rsl", "CONV4", "random"): (3000, 1728, {"capacity": 78, "pe_array": 1194},
                                 "6feb32f4d16862cf44217ef799f329d099db3957912e3a89d4fcedeffd0e374d"),
    ("rsl", "CONV4", "beam"): (6128, 16, {},
                               "bbd3daad9835c38d97900956af09a23c24088b4a89ec0c1f7af57a7136ab6dd6"),
    ("rsl", "CONV5", "random"): (3000, 1749, {"capacity": 51, "pe_array": 1200},
                                 "994ae645c1820b9b85659920d6fa8bfeec3901813e21dcbc5f5ecee0cb6700f6"),
    ("rsl", "CONV5", "beam"): (5813, 16, {},
                               "50545b052a6681c80715a30be34718c2cedb8c91099a7a8524e7e759091b500c"),
    ("three", "CONV1", "random"): (3000, 520, {"capacity": 1346, "pe_array": 1134},
                                   "4b5d1693e230466aa0b8b2af8cf793efc9c9c4edabdc1f00baaf76e6487e38c1"),
    ("three", "CONV1", "beam"): (976, 16, {"capacity": 32},
                                 "a6944fc06508666ec20d36aa1032fc2324457a972548b6d2a5fc5cbdd7ee7622"),
    ("three", "CONV2", "random"): (3000, 521, {"capacity": 1212, "pe_array": 1267},
                                   "98c82030be961a6c357e6e946e5cb3f418a246bab7063cb86e93c3e1f1f5efb0"),
    ("three", "CONV2", "beam"): (3221, 16, {"capacity": 32},
                                 "0db73b6091fe8f59575b7b0b96d3e802477e359140f3565f545b705f6686c504"),
    ("three", "CONV3", "random"): (3000, 560, {"capacity": 1204, "pe_array": 1236},
                                   "40906c9ea9ac865bde14194ffd7e9523eceb675e33c7362b11c5ed949cca4994"),
    ("three", "CONV3", "beam"): (3424, 16, {"capacity": 32},
                                 "59c5ad88863a408eaa5a20bc236c20bf38d18715b04fc4831cb91734d6832d81"),
    ("three", "CONV4", "random"): (3000, 609, {"pe_array": 1144, "capacity": 1247},
                                   "5e054c2b412438275142fe3eb07deac06b3c7034c55db8a7490dd7354fea126d"),
    ("three", "CONV4", "beam"): (6160, 16, {"capacity": 32},
                                 "fe0ef06397136e4ef0edf2f85cf6019cacf9549c2032657e1d235a7484b776e6"),
    ("three", "CONV5", "random"): (3000, 640, {"capacity": 1209, "pe_array": 1151},
                                   "1bd50ef8fc8414468fd4e6d5df71800e1aa038e2c5a816a60470871817d03b5a"),
    ("three", "CONV5", "beam"): (5845, 16, {"capacity": 32},
                                 "23022ae022d109f5401710ba61bf445c3e3c662a76e3bed4f01e8af22ec951a4"),
}


class TestRowStationaryLikePin:
    def test_alexnet_edp_search(self):
        hw = hardware_preset("eyeriss_normalized")
        rsl = ("row_stationary_like",)
        spaces = {
            "rsl": SearchSpace(hw, refresh_styles=rsl),
            "three": SearchSpace(hw, refresh_styles=rsl + (
                "weight_stationary", "output_stationary")),
        }
        got = {}
        for name, space in spaces.items():
            for layer in network_preset("alexnet_conv"):
                for strategy in ("random", "beam"):
                    result = explore(space, layer, objective="edp",
                                     strategy=strategy, n_samples=3000,
                                     beam_width=16, seed=0)
                    text = canonical_json(result.to_dict())
                    got[name, layer.name, strategy] = (
                        result.stats["evaluated"], result.stats["legal"],
                        result.stats["discarded"],
                        hashlib.sha256(text.encode()).hexdigest(),
                    )
        assert got == ROW_STATIONARY_LIKE_PIN


def test_access_costs_written_after_construction_reach_no_score():
    # the score kernel and the entries' reports read one table built with
    # the hardware; neither a write through the caller's map nor one
    # through the hardware's may change what either reads
    base = hardware_preset("eyeriss_normalized")
    e_access = {lvl: dict(row) for lvl, row in base.unit_costs.e_access.items()}
    hw = dataclasses.replace(base, unit_costs=dataclasses.replace(
        base.unit_costs, e_access=e_access))
    e_access[DRAM][KINDS[0]] *= 10
    with pytest.raises(TypeError):
        hw.unit_costs.e_access[DRAM][KINDS[0]] = 0.0
    with pytest.raises(TypeError):
        hw.unit_costs.e_access[DRAM] = {}
    assert hw == base
    result = explore(SearchSpace(hw), layer_preset("alexnet_conv5"),
                     objective="edp", strategy="random", n_samples=300, seed=1)
    for entry in result.entries:
        report = entry.report
        assert entry.objective_value == (
            report.energy.total * report.latency.l_total_s)

    # the same for per-kind capacities and bandwidths: what hardware JSON
    # prints is the hardware the checks and the table were built from
    maps = {"capacity_gb": dict.fromkeys(KINDS, base.capacity_gb),
            "capacity_rf": dict(base.capacity_rf),
            "bw_gb": dict.fromkeys(KINDS, base.bw_gb),
            "bw_rf": dict.fromkeys(KINDS, base.bw_rf)}
    hw = dataclasses.replace(base, **maps)
    for per_kind in maps.values():
        per_kind[KINDS[0]] = 1
    with pytest.raises(TypeError):
        hw.capacity_gb[KINDS[0]] = 1
    printed = hardware_from_json(hardware_to_json(hw))
    assert printed.capacities == hw.capacities
    assert printed.score_table == hw.score_table
    assert hw.capacities[0][3] == (884_736,) * 3  # GB, per kind, as built


class TestSearchOutputMatchesOracle:
    @pytest.mark.parametrize("extra_styles", [(), ("row_stationary_like",)],
                             ids=["default-styles", "with-row-stationary-like"])
    def test_every_top_entry_is_legal_and_counted_exactly(self, extra_styles):
        hw = hardware_preset("eyeriss_normalized")
        space = SearchSpace(hw)
        space = dataclasses.replace(
            space, refresh_styles=space.refresh_styles + extra_styles
        )
        n_entries = 0
        for layer in network_preset("alexnet_conv"):
            small = dataclasses.replace(
                layer, m=layer.m // 8, c=max(1, layer.c // 8)
            )
            for strategy in ("random", "beam"):
                result = explore(space, small, objective="edp",
                                 strategy=strategy, n_samples=300,
                                 beam_width=8, seed=0, top_k=5)
                for entry in result.entries:
                    # at the default cap; MappingError if the entry is illegal
                    diff = check(entry.nest, entry.refresh, hw)
                    assert diff.ok, (small.name, strategy, entry.dsl)
                    n_entries += 1
        assert n_entries == 50

    # divisor: the top 50 of random-2000 on each layer, 250 entries at the
    # default cap; padded: the top 5
    @pytest.mark.parametrize("padded, top_k", [(False, 50), (True, 5)],
                             ids=["divisor", "padded"])
    def test_full_size_top_entries_pass_the_oracle(self, padded, top_k):
        hw = hardware_preset("eyeriss_normalized")
        space = SearchSpace(hw, refresh_styles=REFRESH_STYLES,
                            allow_nondivisor=padded)
        n_entries = 0
        for layer in network_preset("alexnet_conv"):
            result = explore(space, layer, objective="edp", strategy="random",
                             n_samples=2000, seed=0, top_k=top_k)
            for entry in result.entries:
                # at the default cap; MappingError if the entry is illegal
                assert check(entry.nest, entry.refresh, hw).ok, (
                    layer.name, entry.dsl
                )
                n_entries += 1
        assert n_entries == 5 * top_k
