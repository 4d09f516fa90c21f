"""Bundled presets: hardware numbers, network shapes, mapping recipes.

The per-layer figures frozen here were produced by this model; they pin
the calibrated behaviour so refactors cannot drift silently.
"""

import pytest

from accel_predict import (
    ConfigError,
    DataKind,
    LayerShape,
    MemLevel,
    check,
    hardware_preset,
    layer_preset,
    list_presets,
    mapping_preset,
    network_preset,
    predict_layer,
    predict_network,
    render,
    validate_nest,
    validate_structure,
)
from accel_predict import presets
from accel_predict.presets import MAPPING_PRESETS

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT


class TestHardwarePreset:
    def test_array_and_buffers(self):
        hw = hardware_preset("eyeriss_normalized")
        assert (hw.pe_rows, hw.pe_cols) == (12, 14)
        assert hw.capacity_gb == 884_736  # 108 KiB shared
        assert hw.capacity_rf == {I: 192, O: 384, W: 3584}

    def test_bandwidths_and_clock(self):
        hw = hardware_preset("eyeriss_normalized")
        assert hw.bw_dram == 8e9
        assert hw.bw_gb == 51.2e9
        assert hw.bw_rf == 102.4e9
        assert hw.unit_costs.clock_hz == 2e8
        assert hw.unit_costs.mac_time() == 5e-9

    def test_normalized_access_costs(self):
        hw = hardware_preset("eyeriss_normalized")
        assert hw.unit_costs.e_mac == 1.0
        assert hw.unit_costs.access(MemLevel.DRAM, W) == 200.0
        assert hw.unit_costs.access(MemLevel.GB, I) == 6.0
        assert hw.unit_costs.access(MemLevel.NOC, O) == 2.0
        assert hw.unit_costs.access(MemLevel.RF, W) == 1.4
        assert hw.unit_costs.access(MemLevel.RF, O) == 3.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError) as exc:
            hardware_preset("tpu")
        assert "eyeriss_normalized" in str(exc.value)

    def test_missing_bundled_file(self, monkeypatch):
        # a listed name whose JSON file is not beside the module
        monkeypatch.setattr(presets, "HARDWARE_PRESETS", ("absent",))
        with pytest.raises(ConfigError) as exc:
            hardware_preset("absent")
        assert str(exc.value) == "no bundled preset file 'absent'"


class TestNetworkPreset:
    def test_five_conv_layers(self):
        layers = network_preset("alexnet_conv")
        assert [l.name for l in layers] == [
            "CONV1", "CONV2", "CONV3", "CONV4", "CONV5"
        ]
        assert layers[0] == LayerShape(
            m=96, c=3, r=11, s=11, e=55, f=55, stride=4, name="CONV1"
        )
        assert layers[1] == LayerShape(
            m=256, c=48, r=5, s=5, e=27, f=27, stride=1, name="CONV2"
        )
        assert layers[4] == LayerShape(
            m=256, c=192, r=3, s=3, e=13, f=13, stride=1, name="CONV5"
        )

    def test_layer_preset_aliases(self):
        assert layer_preset("alexnet_conv3") == network_preset("alexnet_conv")[2]
        assert layer_preset("conv3") == layer_preset("alexnet_conv3")

    def test_unknown_layer(self):
        with pytest.raises(ConfigError):
            layer_preset("conv9")


class TestRowStationaryRecipe:
    def test_conv1_mapping_text(self):
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("conv1")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        assert render(nest, refresh) == (
            "for e in 0..4 @DRAM\n"
            "  for c in 0..3 @DRAM\n"
            "    refresh I @GB\n"
            "    for m in 0..6 @GB\n"
            "      refresh W @GB\n"
            "      refresh W @RF\n"
            "      for f in 0..55 @GB\n"
            "        refresh O @GB\n"
            "        refresh I @RF\n"
            "        refresh O @RF\n"
            "        parallel-for r in 0..11 @NoC\n"
            "          parallel-for e in 0..14 @NoC\n"
            "            for m in 0..16 @RF\n"
            "              for s in 0..11 @RF\n"
        )

    def test_accepted_names_are_the_listed_ones(self):
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("conv1")
        listed = set(list_presets()["mappings"])
        accepted = set()
        # row_stationary_like was once an alias of row_stationary
        for name in sorted(listed | {*MAPPING_PRESETS, "row_stationary_like"}):
            try:
                mapping_preset(name, layer, hw)
            except ConfigError as exc:
                assert str(exc) == (f"unknown mapping preset {name!r}; "
                                    f"available: {MAPPING_PRESETS}")
            else:
                accepted.add(name)
        assert accepted == listed == set(MAPPING_PRESETS)

    def test_recipe_is_legal_on_every_layer(self):
        hw = hardware_preset("eyeriss_normalized")
        for layer in network_preset("alexnet_conv"):
            nest, refresh = mapping_preset("row_stationary", layer, hw)
            assert validate_nest(nest, hw, refresh) == []

    @pytest.mark.parametrize("style", [
        "weight_stationary", "output_stationary"
    ])
    def test_other_styles_are_structurally_sound(self, style):
        # pinning a tensor at the top of the nest can outgrow the shared
        # buffer, so capacity legality depends on the layer; structure
        # and predictability must hold regardless
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("conv5")
        nest, refresh = mapping_preset(style, layer, hw)
        assert validate_structure(nest, refresh) == []
        report = predict_layer(layer, nest, refresh, hw, validate=False)
        assert report.energy.total > 0

    def test_unknown_mapping_preset(self):
        hw = hardware_preset("eyeriss_normalized")
        with pytest.raises(ConfigError):
            mapping_preset("diagonal", layer_preset("conv1"), hw)

    def test_conv5_recipe_matches_brute_force(self):
        hw = hardware_preset("eyeriss_normalized")
        layer = layer_preset("conv5")
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        assert check(nest, refresh, hw, cap=400_000_000).ok


# per-layer figures produced by this model on the bundled presets
FROZEN = {
    "CONV1": ((13.115, 76.064, 4.501, 6.321), 3.576762e-3, "dram", 58.94),
    "CONV2": ((13.085, 75.892, 5.222, 5.801), 8.347968e-3, "comp", 53.65),
    "CONV3": ((12.292, 71.295, 7.013, 9.400), 7.845120e-3, "gb", 38.12),
    "CONV4": ((12.817, 74.341, 5.888, 6.953), 3.936960e-3, "gb", 56.97),
    "CONV5": ((12.973, 75.246, 5.780, 6.001), 2.439360e-3, "comp", 61.29),
}


@pytest.fixture(scope="module")
def network_run():
    hw = hardware_preset("eyeriss_normalized")
    items = []
    for layer in network_preset("alexnet_conv"):
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        items.append((layer, nest, refresh))
    return predict_network(items, hw)


class TestFrozenFigures:
    def test_breakdowns(self, network_run):
        for rep in network_run.reports:
            expect = FROZEN[rep.layer.name][0]
            pct = rep.energy.onchip_breakdown_pct()
            got = (pct["comp"], pct["rf"], pct["noc"], pct["gb"])
            assert got == pytest.approx(expect, abs=5e-4)

    def test_latencies_and_bottlenecks(self, network_run):
        for rep in network_run.reports:
            _, latency_s, bottleneck, gops = FROZEN[rep.layer.name]
            assert rep.latency.l_total_s == pytest.approx(latency_s, rel=1e-6)
            assert rep.latency.bottleneck == bottleneck
            assert rep.throughput_gops == pytest.approx(gops, abs=5e-3)

    def test_aggregate(self, network_run):
        assert network_run.latency_total_s == pytest.approx(26.1462e-3, rel=1e-5)
        assert network_run.throughput_gops == pytest.approx(50.927908, rel=1e-6)

    def test_conv1_setup_time(self, network_run):
        conv1 = network_run.reports[0]
        assert conv1.latency.l_setup_s == pytest.approx(28.602e-6, rel=1e-4)


class TestListing:
    def test_categories_and_names(self):
        listing = list_presets()
        assert set(listing) == {"hardware", "networks", "layers", "mappings"}
        assert "eyeriss_normalized" in listing["hardware"]
        assert "alexnet_conv" in listing["networks"]
        assert "alexnet_conv1" in listing["layers"]
        assert "row_stationary" in listing["mappings"]

    def test_notes_are_descriptive(self):
        listing = list_presets()
        note = listing["hardware"]["eyeriss_normalized"]
        assert "12x14" in note
