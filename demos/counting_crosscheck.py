"""Counting every access the slow way to trust the fast way.

The closed-form model prices a mapping from loop bounds alone, which is
only useful if those formulas match what the hardware would really do.
This demo writes a strided convolution mapping in the dataflow language,
counts it with the brute-force counters, which walk every iteration of
the loops that can change a count, and diffs the two, metric by metric.
It then shows why the halo arithmetic has to be stride-exact: on AlexNet
CONV1 (stride 4) a stride-blind input-tile model misses most of the DRAM
traffic.

Run:  python3 demos/counting_crosscheck.py
"""

from accel_predict import (
    DataKind,
    LayerShape,
    MemLevel,
    Options,
    check,
    hardware_preset,
    layer_preset,
    lower,
    mapping_preset,
    parse,
    predict_layer,
)

MAPPING = """\
for m in 0..2 @DRAM
  for c in 0..3 @GB
    for e in 0..5 @GB
      parallel-for f in 0..5 @NoC
        for m in 0..2 @RF
          for r in 0..3 @RF
            for s in 0..3 @RF
"""

LAYER = LayerShape(m=4, c=3, r=3, s=3, e=5, f=5, stride=2, name="strided")


def main() -> None:
    nest, refresh = lower(parse(MAPPING), LAYER)
    report = check(nest, refresh)

    print(f"layer {LAYER.name}: stride {LAYER.stride}, "
          f"{LAYER.m}x{LAYER.c}x{LAYER.r}x{LAYER.s}x{LAYER.e}x{LAYER.f}")
    print()
    print(f"{'metric':<10} {'level':<6} {'kind':<5} "
          f"{'analytic':>10} {'counted':>10}")
    print("-" * 45)
    for row in report.rows:
        mark = "" if row.ok else "  <-- MISMATCH"
        print(f"{row.metric:<10} {row.level.label:<6} {str(row.kind):<5} "
              f"{row.analytic:>10} {row.oracle:>10}{mark}")
    verdict = "agree exactly" if report.ok else "DISAGREE"
    print(f"\nclosed forms and brute-force counters {verdict} "
          f"({len(report.rows)} checks)")
    print()

    # Stride-exactness matters.  CONV1 slides an 11x11 window with stride
    # 4, so neighbouring windows overlap far less than a stride-1 model
    # assumes, and the input tiles feeding the chip are much larger.
    hw = hardware_preset("eyeriss_normalized")
    conv1 = layer_preset("conv1")
    nest, refresh = mapping_preset("row_stationary", conv1, hw)
    exact = predict_layer(conv1, nest, refresh, hw)
    loose = predict_layer(conv1, nest, refresh, hw,
                          Options(assume_stride_one=True))
    a = exact.access[MemLevel.DRAM][DataKind.INPUT]
    b = loose.access[MemLevel.DRAM][DataKind.INPUT]
    print(f"{conv1.name} DRAM input elements, halo-exact:     {a:>10,}")
    print(f"{conv1.name} DRAM input elements, stride ignored: {b:>10,}")
    print(f"a stride-blind tile model would hide {a / b:.1f}x of the "
          f"input traffic")


if __name__ == "__main__":
    main()
