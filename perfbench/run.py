"""Benchmark for accel-predict's three user jobs on AlexNet.

    python3 perfbench/run.py --workload predict_alexnet --seed 0 --seconds 30 --trace 0

Workloads (one caller, closed loop, no threads; see README.md for why
each was chosen):

  predict_alexnet  .dflow text -> parse -> lower -> predict_layer -> JSON,
                   cycling over the five AlexNet layers
  explore_alexnet  explore() per layer, random and beam, objective edp
  check_alexnet    oracle.check() per AlexNet row_stationary mapping
  all              the three above in turn (for reading, not for gating)

With --trace 0 the run times the workload untraced and prints the
end-to-end metrics. With --trace 1 it times the workload untraced for
half of --seconds, then runs a fixed traced probe (predict, explore and
check passes, preset mappings and the CLI) with spans around
accel_predict's public functions; it prints the per-layer metrics and
writes the spans to .perfbench-out/.
Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import NO_PARENT, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OUT_DIR = ROOT / ".perfbench-out"
PACKAGE = "accel_predict"
MODULES = ("errors", "model", "dsl", "loopnest", "predictor", "serialize",
           "presets", "explore", "oracle", "cli")

HW_NAME = "eyeriss_normalized"
NETWORK = "alexnet_conv"
MAPPING = "row_stationary"
OBJECTIVE = "edp"
STRATEGIES = ("random", "beam")
N_SAMPLES = 2000
BEAM_WIDTH = 16
# Above the largest AlexNet row_stationary loop body (conv2: 2.3e8
# iterations), so every layer is checked; oracle.DEFAULT_CAP refuses four.
ORACLE_CAP = 10**9
CLI_ARGS = ["predict", "--layer", f"preset:{NETWORK}", "--hw",
            f"preset:{HW_NAME}", "--mapping", f"preset:{MAPPING}",
            "--format", "json"]

SETUP_REPEATS = 5
# Host speed on a shared machine drifts by tens of percent within
# minutes. Every op is therefore also timed against a fixed pure-Python
# reference kernel run before and after it (or after each REF_EVERY_NS of
# short ops), and the gated times are scaled to a kernel time of REF_NS:
# reference-speed host time. Raw host times are printed beside them.
REF_NS = 10_000_000
REF_EVERY_NS = 200_000_000
# The tail percentile per job: the highest of p99.9/p99/p90/p75/p50 with
# at least ten samples beyond it at the op count a run reaches here,
# except that predict's p99.9 and p99 mostly measure the shared host's
# stalls (run-to-run spreads of 68% and 13%, against 6% at p90). It is
# fixed per job so that run-to-run op counts never switch it, and each
# run does at least min_ops(p) ops so that ten samples stay beyond.
TAIL_PERCENTILE = {"predict": 90.0, "explore": 75.0, "check": 50.0}
WORKLOADS = {
    "predict_alexnet": "predict",
    "explore_alexnet": "explore",
    "check_alexnet": "check",
}
# Ops per job in the traced probe, rounded up to whole passes.
PROBE_OPS = {"predict": 1000, "explore": 1, "check": 1, "presets": 50,
             "cli": 5}
TRACED = {
    "dsl": ("parse", "lower", "render"),
    "loopnest": ("validate_nest", "refresh_plan", "build_nest",
                 "canonical_refresh"),
    "predictor": ("access_counts", "energy", "latency", "predict_layer"),
    "presets": ("mapping_preset",),
    "explore": ("explore",),
    "oracle": ("simulate", "diff_counts", "check"),
}
TIMED_SPANS = ("dsl.parse", "dsl.lower", "dsl.render", "serialize.to_json",
               "loopnest.validate_nest", "loopnest.refresh_plan",
               "loopnest.build_nest", "loopnest.canonical_refresh",
               "predictor.access_counts", "predictor.energy",
               "predictor.latency", "predictor.predict_layer",
               "presets.mapping_preset", "oracle.diff_counts")
# Names explore() calls by its own global binding; reported when absent.
EXPLORE_BINDINGS = ("build_nest", "canonical_refresh", "validate_nest",
                    "predict_layer", "render")
DISCARD_REASONS = ("pe_array", "capacity")
# End-to-end figures printed for reading beside the gated ones in
# BENCHMARK.json; None where a workload does not measure them.
EXTRA_UNITS = {"error_rate": "ratio", "candidates_per_s": "1/s",
               "feasible_layers": "count", "edp_vs_preset_mean": "ratio",
               "oracle_steps_per_s": "1/s"}

_NULL_CONTEXT = contextlib.nullcontext()


def no_span(name):
    return _NULL_CONTEXT


class Bench:
    """Everything the ops need, built before the first timed op."""

    def __init__(self, seed: int):
        self.seed = seed
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))
        if SRC not in Path(self.model.__file__).resolve().parents:
            raise ImportError(f"{PACKAGE} was not imported from {SRC}")
        self.tracer = None
        self.span = no_span
        # Output checks call these originals, so tracing never times them.
        self.validate_nest = self.loopnest.validate_nest
        self.predict_layer = self.predictor.predict_layer
        self.render = self.dsl.render
        canonical_json = self.serialize.canonical_json

        self.hw = self.presets.hardware_preset(HW_NAME)
        self.layers = self.presets.network_preset(NETWORK)
        self.convs = [layer.name.lower() for layer in self.layers]
        self.mappings = [
            self.presets.mapping_preset(MAPPING, layer, self.hw)
            for layer in self.layers
        ]
        self.texts = [self.render(n, r) for n, r in self.mappings]
        self.space = self.explore.SearchSpace(self.hw)

        goldens = json.loads(GOLDENS.read_text())["report_sha256"]
        self.expected_json = []
        self.preset_edp = []
        for conv, layer, (nest, refresh) in zip(
            self.convs, self.layers, self.mappings
        ):
            report = self.predict_layer(layer, nest, refresh, self.hw)
            text = canonical_json(report.to_dict())
            digest = hashlib.sha256(text.encode()).hexdigest()
            # A report that drifted from its golden fails every op on it.
            self.expected_json.append(text if digest == goldens[conv] else None)
            self.preset_edp.append(report.energy.total * report.latency.l_total_s)
        items = [(l, n, r) for l, (n, r) in zip(self.layers, self.mappings)]
        self.network_json = canonical_json(
            self.predictor.predict_network(items, self.hw).to_dict()
        )


@dataclass(frozen=True)
class _RefPoint:
    a: int
    b: int

    def scaled(self, x: int) -> int:
        return self.a * x + self.b


def reference_kernel() -> int:
    """Fixed interpreter work in two halves, about REF_NS in all on a
    2-core x86 VM under Python 3.11. The object half (frozen dataclass
    instances, method calls, dict and list literals, string formatting)
    tracked predict's speed best, the tuple-and-integer half tracked the
    oracle's; a memory-bound kernel tracked neither."""
    total = 0
    for i in range(2_000):
        p = _RefPoint(i, i + 1)
        d = {"k": p.scaled(3), "s": f"{i:.3g}", "l": [p.a, p.b]}
        total += len(d["s"]) + sum(d["l"]) + d["k"] % 5
    table = {}
    for i in range(20_000):
        t = (i, i + 1, i * 3)
        table[i & 255] = t
        total += t[1] * t[2] % 7
    return total


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


def purge_package() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
        del sys.modules[name]


def set_up(seed: int) -> tuple[Bench, float]:
    """Import and build presets, mappings and goldens SETUP_REPEATS times
    from a clean module table; return the last Bench and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_package()
        gc.collect()
        before = time_reference()
        t0 = time.perf_counter_ns()
        bench = Bench(seed)
        elapsed = time.perf_counter_ns() - t0
        after = time_reference()
        times.append(elapsed * 2 * REF_NS / (before + after) / 1e9)
    return bench, statistics.median(times)


# ------------------------------------------------------------------ jobs
# Each job is (op, check): op is the timed user request; check runs
# after the clock stops and returns (ok, work units, info).


def predict_op(b: Bench, i, strategy):
    layer = b.layers[i]
    nest, refresh = b.dsl.lower(b.dsl.parse(b.texts[i]), layer)
    report = b.predictor.predict_layer(layer, nest, refresh, b.hw)
    with b.span("serialize.to_json"):
        return b.serialize.canonical_json(report.to_dict())


def predict_check(b: Bench, i, strategy, text):
    return text == b.expected_json[i], 1, None


def explore_op(b: Bench, i, strategy):
    return b.explore.explore(
        b.space, b.layers[i], objective=OBJECTIVE, strategy=strategy,
        n_samples=N_SAMPLES, beam_width=BEAM_WIDTH, seed=b.seed,
    )


def explore_check(b: Bench, i, strategy, result):
    """Every returned mapping must be legal and its objective must equal
    a fresh prediction. Rankings are not frozen."""
    layer = b.layers[i]
    stats = result.stats
    info = {
        "evaluated": stats["evaluated"],
        "legal": stats["legal"],
        "discarded": stats["discarded"],
        "best": result.best.objective_value if result.best else None,
    }
    ok = True
    for entry in result.entries:
        if b.validate_nest(entry.nest, b.hw, entry.refresh):
            ok = False
            break
        fresh = b.predict_layer(layer, entry.nest, entry.refresh, b.hw)
        if fresh.energy.total * fresh.latency.l_total_s != entry.objective_value:
            ok = False
            break
    return ok, stats["evaluated"], info


def check_op(b: Bench, i, strategy):
    nest, refresh = b.mappings[i]
    return b.oracle.check(nest, refresh, b.hw, cap=ORACLE_CAP)


def check_check(b: Bench, i, strategy, report):
    """Steps are the oracle's temporal iterations: its register-file
    element count divided by the PE instances."""
    nest = b.mappings[i][0]
    rf = next(
        r for r in report.rows
        if r.metric == "elements" and r.level is b.model.MemLevel.RF
    )
    return report.ok, rf.oracle // nest.n_pe_active(), None


def presets_op(b: Bench, i, strategy):
    return b.presets.mapping_preset(MAPPING, b.layers[i], b.hw)


def presets_check(b: Bench, i, strategy, mapping):
    return b.render(*mapping) == b.texts[i], 1, None


def cli_op(b: Bench, i, strategy):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = b.cli.main(CLI_ARGS)
    return code, out.getvalue()


def cli_check(b: Bench, i, strategy, result):
    code, text = result
    return code == 0 and text == b.network_json, 1, None


JOBS = {
    "predict": (predict_op, predict_check),
    "explore": (explore_op, explore_check),
    "check": (check_op, check_check),
    "presets": (presets_op, presets_check),
    "cli": (cli_op, cli_check),
}


def pass_plan(b: Bench, job: str) -> list[tuple]:
    """One pass: every layer once (each strategy once for explore), in a
    seed-chosen order."""
    if job == "cli":
        return [(None, None)]
    order = list(range(len(b.layers)))
    random.Random(b.seed).shuffle(order)
    if job == "explore":
        return [(i, s) for i in order for s in STRATEGIES]
    return [(i, None) for i in order]


@dataclass(slots=True)
class Op:
    """One timed request and the result of its output check."""

    i: int | None  # layer index
    strategy: str | None
    raw_ns: int  # host time
    ok: bool
    work: int  # candidates evaluated, oracle steps, or 1
    info: object
    ns: float = 0.0  # raw_ns at reference speed


def normalize(chunk: list[Op], ref_before: int) -> int:
    """Scale the chunk's op times by the reference kernel timed around
    it; returns the closing reference time. Collecting garbage and then
    freezing what survives lets every chunk start from the same collector
    state, and keeps the growing op records out of later collections."""
    gc.collect()
    gc.freeze()
    ref_after = time_reference()
    scale = 2 * REF_NS / (ref_before + ref_after)
    for op in chunk:
        op.ns = op.raw_ns * scale
    return ref_after


def run_phase(
    b: Bench, job: str, *, seconds: float, min_ops: int
) -> tuple[list[Op], float]:
    """Whole passes until `seconds` have gone and `min_ops` ops are done.
    Also returns the peak RSS after the first pass: every op kind has run
    by then, and later growth is mostly these records."""
    op, check = JOBS[job]
    plan = pass_plan(b, job)
    root = f"op.{job}"
    tracer = b.tracer
    records: list[Op] = []
    gc.collect()
    started = time.perf_counter()
    ref = time_reference()
    chunk: list[Op] = []
    chunk_started = time.perf_counter_ns()
    first_pass_rss = None
    while True:
        for i, strategy in plan:
            if tracer is not None:
                tracer.begin_op((job, i, strategy))
            t0 = time.perf_counter_ns()
            try:
                with b.span(root):
                    out = op(b, i, strategy)
            except Exception:
                out = None
                report_failure(job, i, strategy)
            ns = time.perf_counter_ns() - t0
            ok, work, info = False, 0, None
            if out is not None:
                try:
                    ok, work, info = check(b, i, strategy, out)
                except Exception:
                    report_failure(job, i, strategy)
            chunk.append(Op(i, strategy, ns, ok, work, info))
            if time.perf_counter_ns() - chunk_started >= REF_EVERY_NS:
                ref = normalize(chunk, ref)
                records += chunk
                chunk = []
                chunk_started = time.perf_counter_ns()
        if first_pass_rss is None:
            first_pass_rss = peak_rss_mib()
        if (
            time.perf_counter() - started >= seconds
            and len(records) + len(chunk) >= min_ops
        ):
            normalize(chunk, ref)
            return records + chunk, first_pass_rss


_failures_reported = set()


def report_failure(job, i, strategy) -> None:
    """Print the traceback of the first failure per job to stderr."""
    if job not in _failures_reported:
        _failures_reported.add(job)
        print(f"perfbench: {job} op failed (layer {i}, {strategy}):",
              file=sys.stderr)
        traceback.print_exc()


# --------------------------------------------------------------- metrics


def ops_per_s(records: list[Op]) -> float:
    return len(records) / (sum(r.ns for r in records) / 1e9)


def min_ops(percentile: float) -> int:
    """Fewest ops that leave ten samples beyond `percentile`."""
    return math.ceil(round(10 / (1 - percentile / 100), 6))


def percentile(values: list[float], p: float) -> float:
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def search_quality(b: Bench, records) -> tuple[int, list[float]]:
    """Layers with any legal mapping, and preset EDP over best found EDP
    per layer (0 where nothing legal was found)."""
    best = [None] * len(b.layers)
    for r in records:
        if r.info and r.info["best"] is not None:
            v = r.info["best"]
            best[r.i] = v if best[r.i] is None else min(best[r.i], v)
    ratios = [
        b.preset_edp[i] / v if v is not None else 0.0 for i, v in enumerate(best)
    ]
    return sum(v is not None for v in best), ratios


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(b: Bench, job: str, records, setup_s: float, rss_mib: float):
    ms = [r.ns / 1e6 for r in records]
    busy_s = sum(r.ns for r in records) / 1e9
    work = sum(r.work for r in records)
    p = TAIL_PERCENTILE[job]
    gated = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / busy_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": percentile(ms, p),
        "peak_rss_mib": rss_mib,
    }
    extra = dict.fromkeys(EXTRA_UNITS)
    extra["error_rate"] = sum(not r.ok for r in records) / len(records)
    if job == "explore":
        feasible, ratios = search_quality(b, records)
        extra["candidates_per_s"] = work / busy_s
        extra["feasible_layers"] = feasible
        extra["edp_vs_preset_mean"] = statistics.fmean(ratios)
    if job == "check":
        extra["oracle_steps_per_s"] = work / busy_s
    raw_ms = [r.raw_ns / 1e6 for r in records]
    notes = [
        f"op_tail_ms is p{p:g} of {len(ms)} ops",
        f"raw host time: ops_per_s {len(records) / sum(raw_ms) * 1e3:.6g}, "
        f"op_p50_ms {statistics.median(raw_ms):.6g}, "
        f"op_tail_ms {percentile(raw_ms, p):.6g}",
    ]
    return gated, extra, notes


def refused_at_default_cap(b: Bench) -> int:
    refused = 0
    for nest, refresh in b.mappings:
        try:
            b.oracle.check(nest, refresh, b.hw)
        except b.errors.InstanceTooLargeError:
            refused += 1
    return refused


def per_layer(b: Bench, workload: str, seconds: float) -> tuple[dict, list, list[str]]:
    """The workload untraced for half the run, then the traced probe,
    which takes about the other half."""
    job = WORKLOADS[workload]
    untraced, _ = run_phase(b, job, seconds=seconds / 2, min_ops=1)
    refused = refused_at_default_cap(b)
    absent_bindings = [n for n in EXPLORE_BINDINGS if n not in vars(b.explore)]
    tracer = Tracer()
    absent = tracer.install(PACKAGE, TRACED)
    b.tracer, b.span = tracer, tracer.span
    try:
        probe = {
            name: run_phase(b, name, seconds=0, min_ops=n)[0]
            for name, n in PROBE_OPS.items()
        }
    finally:
        tracer.restore()
        b.tracer, b.span = None, no_span

    m = {}
    for name in TIMED_SPANS:
        durations = [tracer.duration_ns(i) for i in tracer.spans_named(name)]
        m[f"{name}_us"] = statistics.median(durations) / 1e3 if durations else 0.0
        m[f"{name}.calls"] = len(durations)

    by_conv = {conv: [] for conv in b.convs}
    for idx in tracer.spans_named("predictor.predict_layer"):
        parent = tracer.parent[idx]
        if parent != NO_PARENT and tracer.name_of(parent) == "op.predict":
            conv = b.convs[tracer.ops[tracer.op[idx]][1]]
            by_conv[conv].append(tracer.duration_ns(idx))
    for conv, durations in by_conv.items():
        m[f"predictor.predict_layer.{conv}_us"] = statistics.median(durations) / 1e3

    m["cli.predict_network_ms"] = statistics.median(r.raw_ns for r in probe["cli"]) / 1e6

    for r in probe["explore"]:
        i, info = r.i, r.info
        key = f"explore.{b.convs[i]}.{r.strategy}"
        m[f"{key}.call_s"] = r.raw_ns / 1e9
        m[f"{key}.evaluated"] = info["evaluated"]
        m[f"{key}.legal_fraction"] = info["legal"] / info["evaluated"]
        for reason in DISCARD_REASONS:
            m[f"{key}.discarded.{reason}"] = info["discarded"].get(reason, 0)
        m[f"{key}.best_edp_ratio"] = (
            b.preset_edp[i] / info["best"] if info["best"] is not None else 0.0
        )
    m["explore.self_s"] = tracer.self_ns(tracer.spans_named("explore.explore")) / 1e9

    for idx in tracer.spans_named("oracle.simulate"):
        job_of, i, _ = tracer.ops[tracer.op[idx]]
        if job_of == "check":
            m[f"oracle.{b.convs[i]}.simulate_s"] = tracer.duration_ns(idx) / 1e9
    for r in probe["check"]:
        m[f"oracle.{b.convs[r.i]}.steps"] = r.work
    m["oracle.refused_at_default_cap"] = refused

    m["trace.overhead_ops_per_s"] = ops_per_s(probe[job]) - ops_per_s(untraced)
    m["trace.spans"] = len(tracer)

    records = untraced + [r for rs in probe.values() for r in rs]
    spans_file = OUT_DIR / f"spans-{workload}-seed{b.seed}.jsonl"
    tracer.write(
        spans_file,
        {"workload": workload, "seed": b.seed, "ops": tracer.ops,
         "absent": absent, "explore_bindings_absent": absent_bindings,
         **environment()},
    )
    notes = [f"absent functions: {', '.join(absent) or 'none'}",
             f"explore bindings absent: {', '.join(absent_bindings) or 'none'}",
             f"spans written to {spans_file.relative_to(ROOT)}"]
    return m, records, notes


# ---------------------------------------------------------------- output


def environment() -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count()}


def load_spec(trace: int) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def as_metrics(values: dict, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SystemExit(
            f"perfbench: metrics differ from {SPEC.name}: "
            f"missing {missing}, undeclared {extra}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_metrics(title: str, values: dict, units: dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        value = values[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    job = WORKLOADS[workload]
    bench, setup_s = set_up(seed)
    units = load_spec(trace)
    if trace:
        values, records, notes = per_layer(bench, workload, seconds)
        print_metrics(f"{workload}: per-layer metrics (traced probe)", values, units)
    else:
        records, rss_mib = run_phase(
            bench, job, seconds=seconds, min_ops=min_ops(TAIL_PERCENTILE[job])
        )
        values, extra, notes = end_to_end(bench, job, records, setup_s, rss_mib)
        print_metrics(f"{workload}: end-to-end metrics", values, units)
        print_metrics(f"{workload}: not gated", extra, EXTRA_UNITS)
    for note in notes:
        print(f"  note: {note}")
    failed = sum(not r.ok for r in records)
    return as_metrics(values, units), len(records), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / PACKAGE).is_dir():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ACCEL_PREDICT_THREADS", None)
    sys.path.insert(0, str(SRC))

    env = environment()
    print(f"perfbench: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']}")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        m, n, f = run_workload(workload, args.seed, args.seconds, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += n
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
