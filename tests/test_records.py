"""Reports and other records are read-only named tuples.

Each was a frozen dataclass; it keeps that type's fields, their order, its
methods and its refusal of assignment.
"""

import hashlib
import json
from pathlib import Path

import pytest

from accel_predict import (
    AccessCounters,
    DiffReport,
    DslDocument,
    EnergyReport,
    LatencyReport,
    MappingError,
    NetworkReport,
    PredictionReport,
    RefreshPlan,
    SearchEntry,
    Violation,
    canonical_json,
    check,
    hardware_preset,
    mapping_preset,
    network_preset,
    parse,
    predict_layer,
    predict_network,
    render,
    simulate,
)
from accel_predict.dsl import RefreshStmt
from accel_predict.model import DataKind, MemLevel
from accel_predict.oracle import DiffRow

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"

# each record's fields in the order its dataclass declared them
FIELDS = {
    Violation: ("code", "field", "message"),
    DslDocument: ("statements",),
    RefreshPlan: ("n_ref", "v_ref", "multicast", "n_pe_active", "n_mac_padded"),
    AccessCounters: ("refreshes", "elements_moved", "multicast",
                     "body_iterations", "macs_per_pe", "n_pe_active"),
    DiffReport: ("rows",),
    EnergyReport: ("e_comp", "e_rf", "e_noc", "e_gb", "e_dram", "total",
                   "by_level_kind"),
    LatencyReport: ("l_comp_s", "l_dram_s", "l_gb_s", "l_setup_s", "l_total_s",
                    "bottleneck", "dram_kind", "gb_kind", "setup_kind"),
    PredictionReport: ("layer", "nest", "refresh", "options", "plan", "n_mac",
                       "n_mac_padded", "n_pe_active", "access", "energy",
                       "latency", "throughput_gops"),
    NetworkReport: ("reports", "energy_total", "latency_total_s", "n_mac",
                    "n_mac_padded", "throughput_gops"),
    SearchEntry: ("objective_value", "dsl", "nest", "refresh", "report"),
}


@pytest.fixture(scope="module")
def records():
    """One real instance of every record type, from AlexNet conv5."""
    hw = hardware_preset("eyeriss_normalized")
    layers = network_preset("alexnet_conv")
    mappings = [mapping_preset("row_stationary", layer, hw) for layer in layers]
    nest, refresh = mappings[-1]
    report = predict_layer(layers[-1], nest, refresh, hw)
    text = render(nest, refresh)
    return {
        Violation: Violation("pe_array", "NoC", "needs 300 PEs, has 168"),
        DslDocument: parse(text),
        RefreshPlan: report.plan,
        AccessCounters: simulate(nest, refresh),
        DiffReport: check(nest, refresh, hw),
        EnergyReport: report.energy,
        LatencyReport: report.latency,
        PredictionReport: report,
        NetworkReport: predict_network(
            [(layer, *m) for layer, m in zip(layers, mappings)], hw
        ),
        SearchEntry: SearchEntry(1.0, text, nest, refresh, report),
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_keep_the_dataclass_order(cls, records):
    assert cls._fields == FIELDS[cls]
    record = records[cls]
    assert type(record) is cls and isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, f) for f in FIELDS[cls])


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_assignment_is_refused(cls, records):
    record = records[cls]
    for name in FIELDS[cls]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_dsl_document_compares_and_hashes_by_structure():
    loops = parse("for m in 0..4 @DRAM\nfor c in 0..2 @GB\n").statements
    w_gb, i_gb = RefreshStmt(DataKind.WEIGHT, MemLevel.GB), RefreshStmt(
        DataKind.INPUT, MemLevel.GB
    )
    a = DslDocument((loops[0], w_gb, i_gb, loops[1]))
    b = DslDocument((loops[0], i_gb, w_gb, loops[1]))  # same refresh set
    c = DslDocument((w_gb, loops[0], i_gb, loops[1]))  # W refreshes higher up
    assert tuple(a) != tuple(b)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a.__eq__(tuple(a)) is NotImplemented


def test_diff_report_ok_and_mismatches():
    good = DiffRow("elements", MemLevel.GB, DataKind.INPUT, 5, 5)
    bad = DiffRow("refreshes", MemLevel.RF, DataKind.WEIGHT, 3, 4)
    assert DiffReport((good, good)).ok
    assert DiffReport((good, good)).mismatches == ()
    assert not DiffReport((good, bad)).ok
    assert DiffReport((good, bad, good)).mismatches == (bad,)


def test_violation_text():
    v = Violation("capacity", "GB[W]", "tile 4096 exceeds capacity 2048")
    assert str(v) == "GB[W]: tile 4096 exceeds capacity 2048"
    assert repr(v) == ("Violation(code='capacity', field='GB[W]', "
                       "message='tile 4096 exceeds capacity 2048')")
    assert str(MappingError([v, v])) == f"{v}; {v}"


def test_report_json_matches_the_goldens():
    golden = json.loads(GOLDENS.read_text())["report_sha256"]
    hw = hardware_preset("eyeriss_normalized")
    for layer in network_preset("alexnet_conv"):
        report = predict_layer(layer, *mapping_preset("row_stationary", layer, hw),
                               hw)
        text = canonical_json(report.to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == golden[
            layer.name.lower()
        ]
