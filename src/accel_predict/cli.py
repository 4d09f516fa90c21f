"""Command-line front end.

Subcommands: predict, check, explore, validate, fmt, presets. Inputs are
layer JSON, hardware JSON and mapping files (.dflow or JSON); any of the
three also accepts preset:NAME. Output formats: canonical JSON (stable
bytes for identical inputs), CSV, or an aligned text table. The search
and the oracle are imported by the one command that runs each.

Exit codes: 0 success, 2 user/config error, 3 oracle mismatch from
check, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import dsl, presets
from .errors import ConfigError, PredictorError
from .loopnest import validate_nest
from .model import DEFAULT_CAP, OBJECTIVES, STRATEGIES
from .model import HardwareConfig, LayerShape, MemLevel, Options
from .predictor import predict_layer, predict_network
from .serialize import (
    _read_text,
    canonical_json,
    csv_text,
    load_hardware,
    load_layer,
    load_mapping,
    report_rows,
)

_PRESET_PREFIX = "preset:"


def _options_from_args(args) -> Options:
    return Options(
        assume_stride_one=args.assume_stride_one,
        literal_eq8=args.literal_eq8,
        gb_latency_multicast_aware=args.gb_latency_multicast_aware,
        psum_rw_factor=args.psum_rw_factor,
    )


def _resolve_hw(ref: str) -> HardwareConfig:
    if ref.startswith(_PRESET_PREFIX):
        return presets.hardware_preset(ref[len(_PRESET_PREFIX):])
    return load_hardware(ref)


def _resolve_layers(ref: str) -> list[LayerShape]:
    """A layer argument may name one layer or a whole bundled network."""
    if ref.startswith(_PRESET_PREFIX):
        name = ref[len(_PRESET_PREFIX):]
        if name in presets.NETWORK_PRESETS:
            return presets.network_preset(name)
        return [presets.layer_preset(name)]
    return [load_layer(ref)]


def _resolve_mapping(ref: str, layer, hw, options):
    if ref.startswith(_PRESET_PREFIX):
        return presets.mapping_preset(
            ref[len(_PRESET_PREFIX):], layer, hw, options
        )
    return load_mapping(ref, layer)


def _single_layer(args) -> tuple[Options, HardwareConfig, LayerShape]:
    """Model options, hardware and the one layer a command runs on."""
    options = _options_from_args(args)
    hw = _resolve_hw(args.hw)
    layers = _resolve_layers(args.layer)
    if len(layers) != 1:
        raise ConfigError(
            f"{args.command} runs on a single layer, not a network"
        )
    return options, hw, layers[0]


def _emit(args, table: str, data=None, csv=None) -> None:
    """Write the form of a command's result that --format asks for.

    `table` is the text form; `data` is serialized only for json (which
    rejects non-finite numbers) and `csv` = (header, rows) only for csv.
    A command without a CSV form prints its text for csv, and fmt, which
    has no --format, always prints its text.
    """
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        text = canonical_json(data)
    elif fmt == "csv" and csv is not None:
        text = csv_text(*csv)
    else:
        text = table
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    cols = [headers] + rows
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = []
    for r in cols:
        cells = [r[0].ljust(widths[0])]
        cells += [r[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ predict


def _predict_table(reports, totals=None) -> str:
    headers = [
        "layer", "comp%", "RF%", "NoC%", "GB%",
        "energy_units", "latency_ms", "GOPS",
    ]
    rows = []
    for rep in reports:
        pct = rep.energy.onchip_breakdown_pct()
        rows.append([
            rep.layer.name or "layer",
            f"{pct['comp']:.1f}",
            f"{pct['rf']:.1f}",
            f"{pct['noc']:.1f}",
            f"{pct['gb']:.1f}",
            f"{rep.energy.total:.4g}",
            f"{rep.latency.l_total_s * 1e3:.4f}",
            f"{rep.throughput_gops:.2f}",
        ])
    out = _table(headers, rows)
    if totals is not None:
        out += (
            f"total: energy {totals.energy_total:.4g} units, "
            f"latency {totals.latency_total_s * 1e3:.4f} ms, "
            f"{totals.throughput_gops:.2f} GOPS\n"
        )
    return out


def cmd_predict(args) -> int:
    options = _options_from_args(args)
    hw = _resolve_hw(args.hw)
    layers = _resolve_layers(args.layer)
    if len(layers) > 1 and not args.mapping.startswith(_PRESET_PREFIX):
        raise ConfigError(
            "a mapping file fixes one layer's bounds; use a mapping preset "
            "when predicting a multi-layer network"
        )
    items = [
        (layer, *_resolve_mapping(args.mapping, layer, hw, options))
        for layer in layers
    ]
    if len(items) == 1:
        result = predict_layer(*items[0], hw, options)
        reports, totals = [result], None
    else:
        result = predict_network(items, hw, options)
        reports, totals = result.reports, result
    _emit(
        args, _predict_table(reports, totals), result.to_dict(),
        report_rows(reports),
    )
    return 0


# -------------------------------------------------------------- check


def cmd_check(args) -> int:
    from .oracle import check
    options, hw, layer = _single_layer(args)
    nest, refresh = _resolve_mapping(args.mapping, layer, hw, options)
    diff = check(
        nest, refresh, hw if not args.no_validate else None,
        options=options, cap=args.cap,
    )
    header = ["metric", "level", "kind", "analytic", "oracle", "ok"]
    rows = [
        [r.metric, r.level.label, str(r.kind), r.analytic, r.oracle, r.ok]
        for r in diff.rows
    ]
    table = _table(
        [*header[:-1], ""],
        [[*map(str, row[:-1]), "ok" if row[-1] else "MISMATCH"] for row in rows],
    )
    table += "match\n" if diff.ok else f"{len(diff.mismatches)} mismatched rows\n"
    data = {"ok": diff.ok, "rows": [dict(zip(header, row)) for row in rows]}
    _emit(args, table, data, (header, rows))
    return 0 if diff.ok else 3


# ------------------------------------------------------------- explore


def _parse_levels(text: str) -> tuple[MemLevel, ...]:
    by_label = {lvl.label.lower(): lvl for lvl in MemLevel}
    out = []
    for part in text.split(","):
        lvl = by_label.get(part.strip().lower())
        if lvl is None:
            raise ConfigError(f"unknown memory level {part.strip()!r}")
        out.append(lvl)
    return tuple(out)


def cmd_explore(args) -> int:
    from .explore import SearchSpace, explore
    options, hw, layer = _single_layer(args)
    space = SearchSpace(
        hw=hw,
        levels=_parse_levels(args.levels),
        refresh_styles=tuple(s.strip() for s in args.styles.split(",")),
        allow_nondivisor=args.allow_nondivisor,
        options=options,
        exhaustive_cap=args.cap,
    )
    result = explore(
        space,
        layer,
        objective=args.objective,
        strategy=args.strategy,
        top_k=args.top,
        seed=args.seed,
        n_samples=args.samples,
        beam_width=args.beam_width,
    )
    stats = result.stats
    table = (
        f"space: {stats.get('space_size')} candidates, "
        f"evaluated {stats.get('evaluated')}, legal {stats.get('legal')}, "
        f"discarded {stats.get('discarded')}\n"
    )
    if not result.feasible:
        table += "no feasible mapping\n"
    else:
        rows = [
            [
                str(i + 1),
                f"{e.objective_value:.6g}",
                f"{e.report.energy.total:.6g}",
                f"{e.report.latency.l_total_s * 1e3:.4f}",
                f"{e.report.throughput_gops:.2f}",
            ]
            for i, e in enumerate(result.entries)
        ]
        table += _table(
            ["rank", args.objective, "energy_units", "latency_ms", "GOPS"],
            rows,
        )
        table += "best mapping:\n" + result.entries[0].dsl
    data = result.to_dict()
    header = ["rank", "objective_value", "energy_units", "latency_s",
              "throughput_gops"]
    top = [[entry[h] for h in header] for entry in data["top"]]
    _emit(args, table, data, (header, top))
    return 0


# ------------------------------------------------------------ validate


def cmd_validate(args) -> int:
    options, hw, layer = _single_layer(args)
    nest, refresh = _resolve_mapping(args.mapping, layer, hw, options)
    violations = validate_nest(nest, hw, refresh, options)
    table = "".join(f"{v}\n" for v in violations) or "mapping is legal\n"
    data = {
        "legal": not violations,
        "violations": [
            {"field": v.field, "message": v.message} for v in violations
        ],
    }
    _emit(args, table, data)
    return 2 if violations else 0


# ----------------------------------------------------------- fmt, presets


def cmd_fmt(args) -> int:
    text = _read_text(Path(args.file))
    _emit(args, dsl.render_document(dsl.parse(text)))
    return 0


def cmd_presets(args) -> int:
    listing = presets.list_presets()
    rows = [
        [category, name, note]
        for category in ("hardware", "networks", "layers", "mappings")
        for name, note in listing[category].items()
    ]
    _emit(args, _table(["category", "name", "notes"], rows), listing)
    return 0


# ---------------------------------------------------------------- parser


def _count(text: str) -> int:
    """Argparse type for a flag that takes a count: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--assume-stride-one", action="store_true",
        help="size input tiles as if the stride were 1",
    )
    p.add_argument(
        "--literal-eq8", action="store_true",
        help="compute-time bound without spatial speedup",
    )
    p.add_argument(
        "--gb-latency-multicast-aware", action="store_true",
        help="drive the buffer latency term by shared fetches, not "
        "per-PE deliveries",
    )
    p.add_argument(
        "--psum-rw-factor", type=float, default=None, metavar="F",
        help="read+write weight for recirculating partial sums (default 2)",
    )


def _add_io_args(p: argparse.ArgumentParser, mapping=True, network=False) -> None:
    fans = "a network preset fans out" if network else "one layer, not a network"
    p.add_argument(
        "--layer", required=True, help=f"layer JSON path or preset:NAME ({fans})",
    )
    p.add_argument("--hw", required=True, help="hardware JSON path or preset:NAME")
    if mapping:
        p.add_argument(
            "--mapping", required=True,
            help=".dflow/mapping JSON path or preset:NAME",
        )
    p.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default table)",
    )
    p.add_argument("-o", "--output", help="write output to a file")
    _add_model_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accel-predict",
        description="Pre-implementation energy/latency/throughput estimates "
        "for tiled DNN accelerator mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="run the analytic model on a mapping")
    _add_io_args(p, network=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("check", help="compare analytic counts to a brute-force run")
    _add_io_args(p)
    p.add_argument(
        "--cap", type=_count, default=DEFAULT_CAP,
        help="refuse a nest with more than this many walked temporal steps "
        "(the loops above the deepest refresh point), PE instances or "
        "points in a tile's relevant loops; the brute-force run walks every "
        "iteration of the loops that can change a count",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip hardware legality checks before simulating",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explore", help="search tilings/orderings/refresh styles")
    _add_io_args(p, mapping=False)
    p.add_argument("--objective", choices=OBJECTIVES, default="energy")
    p.add_argument("--strategy", choices=STRATEGIES, default="exhaustive")
    p.add_argument("--top", type=_count, default=10, help="how many results to keep")
    p.add_argument("--seed", type=int, default=0, help="random strategy seed")
    p.add_argument(
        "--samples", type=_count, default=1000,
        help="sample count for the random strategy",
    )
    p.add_argument("--beam-width", type=_count, default=64)
    p.add_argument(
        "--levels", default="DRAM,GB,NoC,RF",
        help="comma list of memory levels tilings may use",
    )
    p.add_argument(
        "--styles", default="weight_stationary,output_stationary",
        help="comma list of refresh styles to try",
    )
    p.add_argument(
        "--allow-nondivisor", action="store_true",
        help="also try padded tilings, each dim's minimal covers (a far "
             "larger space, where random sampling finds worse mappings)",
    )
    p.add_argument(
        "--cap", type=_count, default=500_000,
        help="refuse exhaustive search above this candidate count",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("validate", help="legality-check a mapping")
    _add_io_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fmt", help="canonicalize a .dflow file to stdout")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write output to a file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("presets", help="list bundled configurations")
    p.add_argument(
        "--format", choices=("json", "table"), default="table",
    )
    p.add_argument("-o", "--output", help="write output to a file")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except PredictorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
