"""Layer arithmetic, hardware validation, and option semantics."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accel_predict import (
    ConfigError,
    CountOverflowError,
    DataKind,
    HardwareConfig,
    LayerShape,
    MappingError,
    MemLevel,
    Options,
    Precision,
    UnitCosts,
    hardware_preset,
    layer_preset,
    mac_count,
    mapping_preset,
    predict_layer,
    tile_volumes,
)
from accel_predict.model import (
    DIMS,
    INT64_MAX,
    KINDS,
    RELEVANT_DIMS,
    checked_count,
    checked_product,
)

CONV1 = LayerShape(m=96, c=3, r=11, s=11, e=55, f=55, stride=4, name="CONV1")


def brute_mac_count(layer):
    total = 0
    for _ in range(layer.m):
        total += layer.c * layer.r * layer.s * layer.e * layer.f
    return total


class TestLayerShape:
    def test_mac_count_closed_form_matches_sum(self):
        small = LayerShape(m=3, c=2, r=2, s=3, e=4, f=5)
        assert mac_count(small) == brute_mac_count(small) == 720

    def test_conv1_mac_count(self):
        assert mac_count(CONV1) == 105_415_200

    def test_fc_layer_degenerates_to_matrix_vector(self):
        fc = LayerShape(m=1000, c=4096, r=1, s=1, e=1, f=1)
        assert mac_count(fc) == 4_096_000

    def test_nonpositive_dims_rejected_with_field_names(self):
        with pytest.raises(ConfigError) as exc:
            LayerShape(m=0, c=3, r=1, s=1, e=1, f=1, stride=-2)
        assert "m" in str(exc.value)
        assert "stride" in str(exc.value)

    @pytest.mark.parametrize("field", [*DIMS, "stride"])
    @pytest.mark.parametrize("value", [3.5, 2.0, True, "3", None])
    def test_non_integer_fields_rejected_with_field_name(self, field, value):
        kwargs = dict(m=1, c=1, r=1, s=1, e=1, f=1, stride=1, name="bad")
        kwargs[field] = value
        with pytest.raises(ConfigError) as exc:
            LayerShape(**kwargs)
        assert f"{field}: expected an integer" in str(exc.value)

    @pytest.mark.parametrize("name", [5, None, b"conv1"])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ConfigError) as exc:
            LayerShape(m=1, c=1, r=1, s=1, e=1, f=1, name=name)
        assert str(exc.value) == f"layer name: expected a string, got {name!r}"

    def test_dim_lookup(self):
        assert CONV1.dim("e") == 55
        assert CONV1.dims() == {
            "m": 96, "c": 3, "r": 11, "s": 11, "e": 55, "f": 55
        }


def _ref_input_extent(tiles: int, kernel: int, stride: int) -> int:
    """The input span covering `tiles` output positions, as model computed
    it before tile_volumes wrote the input extents inline."""
    return (tiles - 1) * stride + kernel


class TestFootprints:
    def test_input_extent_edges(self):
        # tile_volumes' input column over one channel: input rows x columns.
        # One output position: the input tile is just the 11x11 kernel
        assert tile_volumes([1, 1, 11, 11, 1, 1], 4)[0] == 11 * 11
        # pointwise: one input position per output position
        assert tile_volumes([1, 1, 1, 1, 7, 5], 1)[0] == 7 * 5
        # stride 4: 3 output rows of a 5-row kernel span 2 x 4 + 5 rows
        assert tile_volumes([1, 1, 5, 1, 3, 1], 4)[0] == 13
        assert tile_volumes([1, 1, 1, 5, 1, 3], 4)[0] == 13

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 2**20), min_size=6, max_size=6),
           st.integers(1, 2**12))
    def test_input_column_is_the_old_halo_formula(self, ext, stride):
        _, c, r, s, e, f = ext
        assert tile_volumes(ext, stride)[0] == (
            c * _ref_input_extent(e, r, stride) * _ref_input_extent(f, s, stride)
        )

    def test_conv1_footprints(self):
        whole = [CONV1.dim(d) for d in DIMS]
        # KINDS order: inputs, outputs, weights
        assert tile_volumes(whole, CONV1.stride) == [
            3 * 227 * 227, 96 * 55 * 55, 96 * 3 * 11 * 11
        ]

    def test_tile_volume_weight_and_output_are_plain_products(self):
        _, outputs, weights = tile_volumes([4, 3, 2, 5, 7, 2], 1)
        assert weights == 4 * 3 * 2 * 5
        assert outputs == 4 * 7 * 2

    def test_tile_volume_input_halo(self):
        ext = [9, 3, 2, 5, 7, 2]  # m c r s e f
        # height (7-1)*1+2 = 8, width (2-1)*1+5 = 6
        assert tile_volumes(ext, 1)[0] == 3 * 8 * 6
        # stride stretches the halo: height (7-1)*4+2 = 26, width 9
        assert tile_volumes(ext, 4)[0] == 3 * 26 * 9

    def test_tile_of_whole_layer_is_the_footprint(self):
        # not square, so a transposed halo would show
        layer = LayerShape(m=5, c=3, r=3, s=2, e=4, f=7, stride=2)
        m, c, r, s, e, f, u = (layer.dim(d) for d in (*DIMS, "stride"))
        height, width = (e - 1) * u + r, (f - 1) * u + s
        assert tile_volumes([m, c, r, s, e, f], u) == [
            c * height * width, m * e * f, m * c * r * s
        ]

    def test_unit_tile_is_one_element(self):
        assert tile_volumes([1] * len(DIMS), 4) == [1, 1, 1]


class TestOverflowGuard:
    def test_products_beyond_int64_raise(self):
        with pytest.raises(CountOverflowError):
            checked_product([2**32, 2**32])

    def test_large_but_legal_products_pass(self):
        assert checked_product([2**31, 2**31]) == 2**62

    def test_checked_count_names_the_count(self):
        assert checked_count(INT64_MAX) == INT64_MAX
        with pytest.raises(CountOverflowError) as exc:
            checked_count(3 * 2**90)
        assert str(exc.value) == (
            "count 3713820117856140824697372672 exceeds 2^63-1"
        )


# The arithmetic the per-kind tile volume and checked_product used before
# they were written as plain integer code, kept as the reference that
# tile_volumes and checked_count must match.


def _reference_checked_mul(a: int, b: int) -> int:
    out = a * b
    if out > INT64_MAX:
        raise CountOverflowError(f"count {out} exceeds 2^63-1")
    return out


def _reference_checked_product(factors) -> int:
    out = 1
    for x in factors:
        out = _reference_checked_mul(out, x)
    return out


def _reference_tile_volume(kind, dim_tiles, stride) -> int:
    t = {d: dim_tiles.get(d, 1) for d in DIMS}
    if kind is DataKind.INPUT:
        h = _ref_input_extent(t["e"], t["r"], stride)
        w = _ref_input_extent(t["f"], t["s"], stride)
        return _reference_checked_product((t["c"], h, w))
    return _reference_checked_product(t[d] for d in RELEVANT_DIMS[kind])


def _value_or_overflow(fn, *args):
    try:
        return fn(*args)
    except CountOverflowError:
        return CountOverflowError


# Small extents, and extents large enough that three or four of them
# overflow the 64-bit budget.
extents = st.integers(1, 64) | st.integers(1, 2**24)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT]),
    st.dictionaries(st.sampled_from(DIMS), extents),
    st.integers(1, 3),
)
def test_tile_volume_matches_reference(kind, dim_tiles, stride):
    def volume(kind, dim_tiles, stride):
        ext = [dim_tiles.get(d, 1) for d in DIMS]
        return checked_count(tile_volumes(ext, stride)[KINDS.index(kind)])

    assert _value_or_overflow(volume, kind, dim_tiles, stride) == (
        _value_or_overflow(_reference_tile_volume, kind, dim_tiles, stride)
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2**40), max_size=6))
def test_checked_product_matches_reference(factors):
    assert _value_or_overflow(checked_product, factors) == (
        _value_or_overflow(_reference_checked_product, factors)
    )


def _hw(**overrides):
    base = dict(
        pe_rows=2,
        pe_cols=3,
        capacity_gb=1024,
        capacity_rf=64,
        bw_dram=1e9,
        bw_gb=2e9,
        bw_rf=4e9,
        unit_costs=UnitCosts(
            e_mac=1.0,
            e_access={
                MemLevel.DRAM: {k: 200.0 for k in DataKind},
                MemLevel.GB: {k: 6.0 for k in DataKind},
                MemLevel.NOC: {k: 2.0 for k in DataKind},
                MemLevel.RF: {k: 1.0 for k in DataKind},
            },
            t_comp=1e-9,
        ),
        precision=Precision(),
        buffering_factor=1,
    )
    base.update(overrides)
    return HardwareConfig(**base)


def _hw_error(**overrides) -> str:
    """The message of the ConfigError that building _hw(**overrides) raises."""
    with pytest.raises(ConfigError) as exc:
        _hw(**overrides)
    return str(exc.value)


class TestHardwareConfig:
    def test_valid_config_constructs(self):
        assert _hw(buffering_factor=2).buffering_factor == 2

    def test_n_pe(self):
        assert _hw().n_pe == 6

    def test_scalar_bandwidth_broadcasts_per_kind(self):
        hw = _hw()
        for kind in DataKind:
            assert hw.gb_bw(kind) == 2e9
            assert hw.rf_bw(kind) == 4e9
        # the field keeps its shared form, which hardware JSON prints
        assert hw.bw_gb == 2e9

    def test_per_kind_bandwidth(self):
        hw = _hw(bw_gb={DataKind.INPUT: 1e9, DataKind.OUTPUT: 2e9,
                        DataKind.WEIGHT: 3e9})
        assert hw.gb_bw(DataKind.WEIGHT) == 3e9

    def test_bad_geometry_and_capacity_reported_by_field(self):
        assert _hw_error(pe_rows=0, capacity_gb=-5) == (
            "hardware: pe_rows: must be >= 1; "
            "capacity_gb: capacity must be > 0 bits"
        )

    @pytest.mark.parametrize("field", ["capacity_gb", "capacity_rf"])
    def test_nan_capacity_rejected(self, field):
        assert f"{field}: expected an integer, got nan" in _hw_error(
            **{field: math.nan}
        )

    def test_per_kind_nan_capacity_rejected(self):
        cap = {DataKind.INPUT: 64, DataKind.OUTPUT: 64, DataKind.WEIGHT: math.nan}
        assert "capacity_rf[W]: expected an integer, got nan" in _hw_error(
            capacity_rf=cap
        )

    @pytest.mark.parametrize("value", [0.0, -1e9, math.nan, -math.inf])
    def test_nonpositive_bandwidth_flagged(self, value):
        assert "bw_dram: bandwidth must be > 0" in _hw_error(bw_dram=value)
        assert "bw_rf[I]: bandwidth must be > 0" in _hw_error(
            bw_rf={k: value if k is DataKind.INPUT else 1e9 for k in KINDS}
        )

    def test_buffering_factor_must_be_single_or_double(self):
        assert "buffering_factor: must be 1 or 2" in _hw_error(
            buffering_factor=3
        )

    def test_precision_bounds(self):
        message = _hw_error(
            precision=Precision(bits_input=0, bits_output=128, bits_weight=16)
        )
        assert "precision.bits_input: must be in [1, 64]" in message
        assert "precision.bits_output: must be in [1, 64]" in message
        assert "bits_weight" not in message

    def test_unbounded_bandwidth_is_legal(self):
        assert _hw(bw_dram=math.inf, bw_gb=math.inf).gb_bw(DataKind.INPUT) == (
            math.inf
        )

    def test_nan_costs_flagged(self):
        costs = UnitCosts(
            e_mac=math.nan,
            e_access={MemLevel.GB: {DataKind.INPUT: math.nan}},
            t_comp=1e-9,
        )
        assert _hw_error(unit_costs=costs) == (
            "hardware: unit_costs.e_mac: must be finite and >= 0; "
            "unit_costs.e_access[GB][I]: must be finite and >= 0"
        )

    @pytest.mark.parametrize("costs, path", [
        (UnitCosts(e_mac=math.inf, t_comp=1e-9), "unit_costs.e_mac"),
        (UnitCosts(e_access={MemLevel.RF: {DataKind.OUTPUT: math.inf}},
                   t_comp=1e-9), "unit_costs.e_access[RF][O]"),
        (UnitCosts(t_comp=math.inf), "unit_costs.t_comp"),
        (UnitCosts(clock_hz=math.inf), "unit_costs.clock_hz"),
        (UnitCosts(t_comp=0.0), "unit_costs.t_comp"),
    ], ids=["e_mac", "e_access", "t_comp", "clock_hz", "zero_t_comp"])
    def test_costs_must_be_finite(self, costs, path):
        assert f"{path}: must be finite" in _hw_error(unit_costs=costs)

    @pytest.mark.parametrize("e_access", [
        {"GB": {DataKind.INPUT: 1.0}},
        {MemLevel.GB: {"I": 1.0}},
        {MemLevel.GB: 1.0},
    ], ids=["level-name", "kind-name", "not-per-kind"])
    def test_access_costs_keyed_by_level_and_kind(self, e_access):
        message = _hw_error(unit_costs=UnitCosts(e_access=e_access, t_comp=1e-9))
        assert "unit_costs.e_access: expected per-kind costs by" in message

    def test_time_base_required(self):
        assert "unit_costs: need t_comp or clock_hz" in _hw_error(
            unit_costs=UnitCosts(e_mac=1.0)
        )

    @pytest.mark.parametrize("field, value", [
        ("pe_rows", 12.5), ("pe_cols", 4.0), ("pe_rows", True),
        ("capacity_gb", 1024.0), ("capacity_rf", False),
        ("buffering_factor", True), ("buffering_factor", 2.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        assert f"{field}: expected an integer, got {value!r}" in _hw_error(
            **{field: value}
        )

    @pytest.mark.parametrize("key", ["bits_input", "bits_output", "bits_weight"])
    @pytest.mark.parametrize("value", [16.0, True])
    def test_precision_widths_must_be_integers(self, key, value):
        precision = Precision(**{key: value})
        assert f"precision.{key}: expected an integer" in _hw_error(
            precision=precision
        )

    def test_bool_bandwidth_rejected(self):
        assert "bw_gb: expected a number, got True" in _hw_error(bw_gb=True)

    @pytest.mark.parametrize("field", ["capacity_gb", "capacity_rf",
                                       "bw_gb", "bw_rf"])
    @pytest.mark.parametrize("keys", [
        (DataKind.INPUT,),
        (*KINDS, MemLevel.GB),
        (DataKind.INPUT, DataKind.OUTPUT, "W"),
    ], ids=["missing", "extra", "foreign"])
    def test_per_kind_map_names_exactly_i_o_w(self, field, keys):
        value = {k: 10**6 for k in keys}
        assert f"{field}: expected exactly the data kinds ['I', 'O', 'W']" in (
            _hw_error(**{field: value})
        )


# A value of any numeric type, in or out of every field's range.
_ANY_NUMBER = st.one_of(
    st.integers(),
    st.floats(-1e12, 1e12),
    st.sampled_from([0, 0.0, -1, 1, 2, True, False,
                     math.nan, math.inf, -math.inf]),
)
_ANY_PER_KIND = st.one_of(
    _ANY_NUMBER,
    st.fixed_dictionaries({k: _ANY_NUMBER for k in KINDS}),
    st.dictionaries(st.sampled_from([*KINDS, "I", MemLevel.GB]), _ANY_NUMBER),
)
_FUZZED = {
    "pe_rows": _ANY_NUMBER,
    "pe_cols": _ANY_NUMBER,
    "capacity_gb": _ANY_PER_KIND,
    "capacity_rf": _ANY_PER_KIND,
    "bw_dram": _ANY_NUMBER,
    "bw_gb": _ANY_PER_KIND,
    "bw_rf": _ANY_PER_KIND,
    "buffering_factor": _ANY_NUMBER,
    "e_mac": _ANY_NUMBER,
    "e_access": _ANY_NUMBER,
    "t_comp": st.one_of(st.none(), _ANY_NUMBER),
    "clock_hz": st.one_of(st.none(), _ANY_NUMBER),
    "bits_input": _ANY_NUMBER,
    "bits_weight": _ANY_NUMBER,
}
_COST_FIELDS = ("e_mac", "t_comp", "clock_hz")
_BITS_FIELDS = ("bits_input", "bits_weight")


def _eyeriss_with(values):
    """The eyeriss_normalized preset with the given fields replaced; an
    "e_access" value replaces the GB input access cost."""
    values = dict(values)
    base = hardware_preset("eyeriss_normalized")
    e_access = {lvl: dict(row) for lvl, row in base.unit_costs.e_access.items()}
    if "e_access" in values:
        e_access[MemLevel.GB][DataKind.INPUT] = values.pop("e_access")
    costs = dataclasses.replace(base.unit_costs, e_access=e_access, **{
        key: values.pop(key) for key in _COST_FIELDS if key in values
    })
    precision = dataclasses.replace(base.precision, **{
        key: values.pop(key) for key in _BITS_FIELDS if key in values
    })
    return dataclasses.replace(
        base, unit_costs=costs, precision=precision, **values
    )


class TestHardwareFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.sampled_from(sorted(_FUZZED)), max_size=3).flatmap(
        lambda names: st.fixed_dictionaries({n: _FUZZED[n] for n in names})
    ))
    def test_construction_refuses_or_predicts(self, values):
        """Arbitrary field values either fail at construction with a
        ConfigError, or give hardware on which the conv3 row_stationary
        mapping predicts finite numbers, is refused as a MappingError, or
        has a latency total past the largest float refused (a bandwidth
        as small as 2.2e-308 bits/s is legal hardware)."""
        try:
            hw = _eyeriss_with(values)
        except ConfigError as exc:
            assert str(exc).startswith("hardware: ")
            return
        conv3 = layer_preset("alexnet_conv3")
        try:
            nest, refresh = mapping_preset("row_stationary", conv3, hw)
            report = predict_layer(conv3, nest, refresh, hw)
        except MappingError:
            return
        except ConfigError as exc:
            assert str(exc).startswith("latency: the total exceeds the largest float")
            return
        assert math.isfinite(report.energy.total)
        assert math.isfinite(report.latency.l_total_s)


class TestUnitCosts:
    def test_mac_time_from_clock(self):
        uc = UnitCosts(clock_hz=2e8)
        assert uc.mac_time() == pytest.approx(5e-9)

    def test_explicit_t_comp_wins(self):
        uc = UnitCosts(t_comp=1e-9, clock_hz=2e8)
        assert uc.mac_time() == 1e-9

    def test_missing_time_base_raises(self):
        with pytest.raises(ConfigError):
            UnitCosts().mac_time()

    def test_unknown_level_access_cost_defaults_to_zero(self):
        assert UnitCosts().access(MemLevel.GB, DataKind.INPUT) == 0.0


class TestOptions:
    def test_defaults(self):
        opt = Options()
        assert opt.psum_factor() == 2
        assert isinstance(opt.psum_factor(), int)
        assert opt.effective_stride(CONV1) == 4

    def test_assume_stride_one(self):
        opt = Options(assume_stride_one=True)
        assert opt.effective_stride(CONV1) == 1

    def test_integral_float_psum_factor_stays_exact(self):
        opt = Options(psum_rw_factor=3.0)
        assert opt.psum_factor() == 3
        assert isinstance(opt.psum_factor(), int)

    def test_fractional_psum_factor_allowed(self):
        assert Options(psum_rw_factor=1.5).psum_factor() == 1.5

    @pytest.mark.parametrize("factor", [
        math.nan, math.inf, -math.inf, -1, 0, 0.5, True, "2",
    ])
    def test_psum_factor_out_of_range_rejected(self, factor):
        with pytest.raises(ConfigError) as exc:
            Options(psum_rw_factor=factor)
        assert str(exc.value) == (
            f"psum_rw_factor: must be a finite number >= 1, got {factor!r}"
        )
