"""Acceptance gate.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line (run with -s or -rA to see them). The randomized checks
use fixed seeds so the gate is reproducible.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from accel_predict import (
    DataKind,
    DslError,
    LayerShape,
    LoopLevel,
    LoopNest,
    MemLevel,
    Options,
    RefreshLocations,
    SearchSpace,
    access_counts,
    diff_counts,
    explore,
    hardware_preset,
    layer_preset,
    mac_count,
    mapping_preset,
    network_preset,
    parse,
    predict_layer,
    predict_network,
    refresh_plan,
    render,
    render_document,
    simulate,
    space_size,
    validate_structure,
)
from accel_predict.model import DIMS, KINDS
from tests.test_explore import enumerate_mappings
from tests.test_model import _hw

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT
DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF

N_INSTANCES = 1000


def _gate(ok: bool, line: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


# ------------------------------------------------- randomized instances


def _random_instance(rng: random.Random):
    """A structurally legal (nest, refresh, options) triple.

    Per-loop bounds stay <= 8 and the padded loop body stays small so a
    thousand brute-force runs finish well inside the time budget.
    """
    while True:
        raw = []
        for mem in (DRAM, GB, NOC, RF):
            for _ in range(rng.randint(0, 2)):
                raw.append([rng.choice(DIMS), 1, mem])
        if not raw:
            continue
        body = 1
        for entry in raw:
            top = min(8, max(1, 2048 // body))
            entry[1] = rng.randint(1, top)
            body *= entry[1]
        spatial_noc = rng.random() < 0.8
        levels = tuple(
            LoopLevel(dim, bound, mem,
                      spatial=spatial_noc and mem is NOC)
            for dim, bound, mem in raw
        )
        dims = {d: 1 for d in DIMS}
        for lv in levels:
            dims[lv.dim] *= lv.bound
        if rng.random() < 0.3:
            d = rng.choice(DIMS)
            if dims[d] > 1:
                dims[d] -= 1  # force padding on one dimension
        layer = LayerShape(**dims, stride=rng.choice((1, 2, 4)))
        nest = LoopNest(levels, layer)
        n = len(levels)
        p_noc = nest.group_start(NOC)
        gb, rf = {}, {}
        for k in KINDS:
            gb[k] = rng.randint(0, p_noc)
            rf[k] = rng.randint(gb[k], n)
        refresh = RefreshLocations(gb=gb, rf=rf)
        if validate_structure(nest, refresh):
            continue
        options = Options(
            assume_stride_one=rng.random() < 0.3,
            psum_rw_factor=rng.choice((None, None, 1, 2, 3)),
        )
        return nest, refresh, options


@pytest.fixture(scope="module")
def oracle_runs():
    rng = random.Random(0xACCE1)
    t0 = time.monotonic()
    runs = []
    for _ in range(N_INSTANCES):
        nest, refresh, options = _random_instance(rng)
        plan = refresh_plan(nest, refresh, options)
        counters = simulate(nest, refresh, options=options)
        diff = diff_counts(plan, access_counts(plan, options), counters)
        padded = LayerShape(**{
            d: math.prod(lv.bound for lv in nest.levels if lv.dim == d) for d in DIMS
        }, stride=nest.layer.stride)
        runs.append((diff.ok, counters.body_iterations == mac_count(padded)))
    return runs, time.monotonic() - t0


def test_access_counts_match_brute_force(oracle_runs):
    runs, elapsed = oracle_runs
    mismatches = sum(1 for ok, _ in runs if not ok)
    _gate(
        len(runs) >= 1000 and mismatches == 0 and elapsed < 60.0,
        f"analytic access counts exactly equal brute-force counters on "
        f"{len(runs)} randomized instances ({mismatches} mismatches, "
        f"{elapsed:.1f}s < 60s)",
    )


def test_loop_body_conserves_mac_count(oracle_runs):
    runs, _ = oracle_runs
    bad = sum(1 for _, ok in runs if not ok)
    _gate(
        bad == 0,
        f"simulated loop-body iterations equal the padded MAC count on "
        f"all {len(runs)} instances",
    )


# ------------------------------------------------- calibrated breakdown

BREAKDOWN_TARGETS = {
    "alexnet_conv1": {"comp": 18.7, "rf": 74.4, "noc": 4.8, "gb": 2.0},
    "alexnet_conv5": {"comp": 7.5, "rf": 79.1, "noc": 7.0, "gb": 6.3},
}


def test_energy_breakdown_reproduction():
    hw = hardware_preset("eyeriss_normalized")
    ok = True
    parts = []
    for name, targets in BREAKDOWN_TARGETS.items():
        layer = layer_preset(name)
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        pct = predict_layer(layer, nest, refresh, hw).energy.onchip_breakdown_pct()
        for key, target in targets.items():
            ok &= abs(pct[key] - target) <= 6.0
        parts.append(
            f"{layer.name} comp/RF/NoC/GB = "
            f"{pct['comp']:.1f}/{pct['rf']:.1f}/{pct['noc']:.1f}/{pct['gb']:.1f}"
        )
    _gate(
        ok,
        "on-chip energy split within 6 points of the published predictions "
        "(" + "; ".join(parts) + ")",
    )


# ----------------------------------------------- throughput and latency


def _random_hw(rng: random.Random):
    return _hw(
        pe_rows=rng.randint(1, 4),
        pe_cols=rng.randint(1, 4),
        capacity_gb=10**9,
        capacity_rf=10**6,
        bw_dram=10 ** rng.uniform(8, 12),
        bw_gb=10 ** rng.uniform(8, 12),
        bw_rf=10 ** rng.uniform(8, 12),
    )


def test_throughput_identity_and_aggregate():
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(200):
        nest, refresh, options = _random_instance(rng)
        rep = predict_layer(
            nest.layer, nest, refresh, _random_hw(rng), options,
            validate=False,
        )
        expect = 2.0 * rep.n_mac / rep.latency.l_total_s / 1e9
        worst = max(worst, abs(rep.throughput_gops - expect) / expect)

    hw = hardware_preset("eyeriss_normalized")
    items = []
    for layer in network_preset("alexnet_conv"):
        nest, refresh = mapping_preset("row_stationary", layer, hw)
        items.append((layer, nest, refresh))
    agg = predict_network(items, hw).throughput_gops
    _gate(
        worst <= 1e-9 and abs(agg - 46.0) / 46.0 <= 0.15,
        f"throughput equals 2*MACs/latency/1e9 (worst rel err {worst:.2e}) "
        f"and the five-layer aggregate is {agg:.1f} GOPS, within 15% of 46.0",
    )


def test_latency_monotone_in_bandwidth():
    rng = random.Random(31337)
    checked = 0
    ok = True
    for _ in range(200):
        nest, refresh, options = _random_instance(rng)
        hw = _random_hw(rng)
        base = predict_layer(
            nest.layer, nest, refresh, hw, options, validate=False
        ).latency.l_total_s
        for field in ("bw_dram", "bw_gb", "bw_rf"):
            doubled = replace(hw, **{field: getattr(hw, field) * 2.0})
            halved = replace(hw, **{field: getattr(hw, field) * 0.5})
            faster = predict_layer(
                nest.layer, nest, refresh, doubled, options, validate=False
            ).latency.l_total_s
            slower = predict_layer(
                nest.layer, nest, refresh, halved, options, validate=False
            ).latency.l_total_s
            ok &= faster <= base <= slower
            checked += 1
    _gate(
        ok,
        f"doubling any one bandwidth never raises total latency and "
        f"halving never lowers it ({checked} checks on 200 random configs)",
    )


# --------------------------------------------------------- search gate


def test_exhaustive_search_returns_true_optimum():
    layer = LayerShape(m=2, c=2, r=2, s=2, e=2, f=2, name="cube")
    hw = _hw(capacity_gb=10**9, capacity_rf=10**6)
    space = SearchSpace(hw=hw, levels=(GB, RF))

    best = None
    scanned = 0
    for nest, refresh in enumerate_mappings(space, layer):
        rep = predict_layer(layer, nest, refresh, hw, validate=False)
        key = (rep.energy.total, render(nest, refresh))
        best = key if best is None or key < best else best
        scanned += 1

    exhaustive = explore(space, layer, objective="energy", top_k=1).best
    beam = explore(
        space, layer, objective="energy", strategy="beam", top_k=1,
        beam_width=space_size(space, layer),
    ).best
    ok = (
        (exhaustive.objective_value, exhaustive.dsl) == best
        and (beam.objective_value, beam.dsl) == best
    )
    _gate(
        ok,
        f"exhaustive search and full-width beam return the linear-scan "
        f"optimum over {scanned} legal mappings of the all-2s layer",
    )


# ----------------------------------------------------- text round trips

MALFORMED = [
    ("for x in 0..2 @DRAM", 1, 5),
    ("parallel-for m in 0..4 @GB", 1, 25),
    ("for m in 1..4 @GB", 1, 10),
    ("for m in 0..0 @GB", 1, 13),
    ("for m in 0..2 @L1", 1, 16),
    ("for m on 0..2 @GB", 1, 7),
    ("for m in 0..2", 1, 1),
    ("refresh X @GB", 1, 9),
    ("refresh W @DRAM", 1, 12),
    ("refresh W @L3", 1, 12),
    ("refresh W", 1, 1),
    ("while m in 0..2 @GB", 1, 1),
    ("for m in 0..2 @DRAM\nrefresh W @GB\nrefresh W @GB", 3, 1),
    ("for m in 0..2 @DRAM\nfor q in 0..2 @GB", 2, 5),
    ("  for m in 0..2 @XX", 1, 18),
    ("for m in 0..2 @DRAM\n\n  parallel-for c in 0..2 @RF", 3, 27),
    ("for mm in 0..2 @GB", 1, 5),
    ("for m in 0...2 @GB", 1, 1),
    ("refresh I @ NoC", 1, 13),
    ("For M In 2..4 @rf", 1, 10),
]


def test_mapping_text_round_trips():
    rng = random.Random(0xD51)
    bad = 0
    for _ in range(500):
        nest, refresh, _ = _random_instance(rng)
        text = render(nest, refresh)
        if render_document(parse(text)) != text:
            bad += 1

    positioned = 0
    for text, line, column in MALFORMED:
        try:
            parse(text)
        except DslError as exc:
            if exc.line == line and exc.column == column:
                positioned += 1
    _gate(
        bad == 0 and positioned == len(MALFORMED),
        f"500 printed mappings re-parse byte-identically and "
        f"{positioned}/{len(MALFORMED)} malformed files fail with the "
        f"expected line and column",
    )


# -------------------------------------------------------- stride effect


def test_stride_relaxation_lowers_input_traffic():
    layer = layer_preset("alexnet_conv1")  # stride 4
    hw = hardware_preset("eyeriss_normalized")
    nest, refresh = mapping_preset("row_stationary", layer, hw)
    exact = access_counts(refresh_plan(nest, refresh))
    relaxed = access_counts(
        refresh_plan(nest, refresh, Options(assume_stride_one=True))
    )
    _gate(
        relaxed[DRAM][I] < exact[DRAM][I],
        f"stride-4 input traffic drops from {exact[DRAM][I]} to "
        f"{relaxed[DRAM][I]} DRAM accesses when strides are sized as 1",
    )
