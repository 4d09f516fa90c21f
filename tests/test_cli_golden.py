"""Golden CLI outputs: exact stdout and exit code of fixed invocations.

Scripts read `--format json|csv`, so any byte that changes here changes
what they see. Each invocation is pinned by the sha256 of its stdout.
"""

import csv
import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from accel_predict import canonical_json, main

EYERISS = ["--hw", "preset:eyeriss_normalized"]
ROW_STATIONARY = [*EYERISS, "--mapping", "preset:row_stationary"]
MODEL_FLAGS = [
    "--assume-stride-one", "--literal-eq8", "--gb-latency-multicast-aware",
    "--psum-rw-factor", "3",
]

# Commands that take --format json|csv|table, keyed by name.
FORMATTED = {
    "predict-conv1": ["predict", "--layer", "preset:alexnet_conv1",
                      *ROW_STATIONARY],
    "predict-net": ["predict", "--layer", "preset:alexnet_conv",
                    *ROW_STATIONARY],
    "predict-net-psum": ["predict", "--layer", "preset:alexnet_conv",
                         *ROW_STATIONARY, "--psum-rw-factor", "2.5"],
    "predict-conv3-flags": ["predict", "--layer", "preset:alexnet_conv3",
                            *ROW_STATIONARY, *MODEL_FLAGS],
    "check-conv5": ["check", "--layer", "preset:alexnet_conv5",
                    *ROW_STATIONARY],
    "check-conv5-psum": ["check", "--layer", "preset:alexnet_conv5",
                         *ROW_STATIONARY, "--psum-rw-factor", "2.5"],
    "explore-conv5": ["explore", "--layer", "preset:alexnet_conv5", *EYERISS,
                      "--strategy", "random", "--samples", "300",
                      "--seed", "1", "--top", "3"],
    "explore-conv2-infeasible": ["explore", "--layer", "preset:alexnet_conv2",
                                 *EYERISS, "--strategy", "random",
                                 "--samples", "100", "--seed", "0"],
    "validate-legal": ["validate", "--layer", "preset:alexnet_conv5",
                       *ROW_STATIONARY],
    "validate-illegal": ["validate", "--layer", "{dir}/layer.json",
                         "--hw", "{dir}/small_hw.json",
                         "--mapping", "{dir}/illegal.dflow"],
}

INVOCATIONS = {
    f"{name}.{fmt}": [*args, "--format", fmt]
    for name, args in FORMATTED.items()
    for fmt in ("json", "csv", "table")
}
INVOCATIONS["presets.json"] = ["presets", "--format", "json"]
INVOCATIONS["presets.table"] = ["presets"]
INVOCATIONS["fmt"] = ["fmt", "{dir}/messy.dflow"]

INPUT_FILES = {
    "layer.json": json.dumps({"name": "small", "m": 8, "c": 4, "r": 1,
                              "s": 1, "e": 64, "f": 1}),
    "small_hw.json": json.dumps({
        "pe_rows": 2, "pe_cols": 2,
        "capacity": {"GB": 1000, "RF": 10**6},
        "bw": {"DRAM": 1e9, "GB": 2e9, "RF": 4e9},
        "unit_costs": {"e_mac": 1.0, "t_comp": 1e-9},
    }),
    "illegal.dflow": "for m in 0..4 @DRAM\nfor e in 0..64 @GB\n"
                     "parallel-for c in 0..4 @NoC\nparallel-for m in 0..2 @NoC\n",
    "messy.dflow": "FOR M IN 0..4 @gb # outer\n  refresh w @RF\n"
                   "   for c in 0..2 @RF\nfor E in 0..3 @rf",
}

# (exit code, sha256 of stdout). Access counts are floats only under a
# non-integer --psum-rw-factor; their CSV cells print as JSON prints
# them (216320, not 216320.0), which is the form pinned for
# predict-net-psum.csv and check-conv5-psum.csv.
GOLDEN = {
    "check-conv5-psum.csv": (0, "6dd3a07cccd4a309cd7c66539970d0bf09cdc89d49e52d795b650739ba1d8213"),
    "check-conv5-psum.json": (0, "3d55ddaae180cc5e61851e73aef0f06a99860f03ff4377a516837047ac7aa2b8"),
    "check-conv5-psum.table": (0, "74db91093a9cfde40e6ca68aafac9241270ebe2014611f09bc181d11f445d6ef"),
    "check-conv5.csv": (0, "f7e15f1298c9fe39b96a22b6f4139ad69ad827d23c8e1f98a17abaef4823a5d9"),
    "check-conv5.json": (0, "9e7b94a2982d376d3bc79245bf87e1f7feec2164054c369ba333108b4ede40a4"),
    "check-conv5.table": (0, "447d609822c595496b172b718191e1eba03795331ec5ae8aa761aa316d8ee7b9"),
    "explore-conv2-infeasible.csv": (0, "a8b2dc7b27147a3d2a94fb463f3db45661ece47313b453663bb4fae5083deae2"),
    "explore-conv2-infeasible.json": (0, "86d2b6126736ee62539b63cfadd2e92db3088fa9ddae2819fb6ec82f03cef9ee"),
    "explore-conv2-infeasible.table": (0, "821cb22da13c1e2151e93a5355f73204905f5aa8d313593f7c6bbcb114f21f56"),
    "explore-conv5.csv": (0, "cfc64f10ca25c59d4fd83bc38d9eca161d0f983c23ae34fd62a453cb58068fd4"),
    "explore-conv5.json": (0, "3fc6a92e35247916667fee631fcb6382744d80b3a3da2eebc01cf748fee24aec"),
    "explore-conv5.table": (0, "7c2ac5d8569813c365181011c6f5ead5e9be7fbe92d769d51f38e13562223cca"),
    "fmt": (0, "bb24e96ffa08f7813d5e17dedcb659096bcbde658ebfbcfe28739880f41344dc"),
    "predict-conv1.csv": (0, "92628724541432fcfe64c10dc38e60472b86d2c7784b12178043813faa18ae45"),
    "predict-conv1.json": (0, "69b72a2b7ccbacf4f31878375bad7b87af83debd0f9ad36f0b910371d783f0ba"),
    "predict-conv1.table": (0, "e239aadc2f2d28d2fec87550d696ace19eba8cea958b8f219757a7751ad6cb83"),
    "predict-conv3-flags.csv": (0, "b15850eed518ff75204e6cc17c81cb89d4bdda8332c6bb1f9d95e3925c02b9e4"),
    "predict-conv3-flags.json": (0, "c5217aeccd7361bc6fc14112dd3c25b55dccd80fee2fb7653db7ae0ff8392929"),
    "predict-conv3-flags.table": (0, "3404dd26f6c5299560a83adbf1b9c2fae558c1a83941bf0c6978c97dc99e4b0c"),
    "predict-net-psum.csv": (0, "71ac8a7212f7a3d688117de0b807409f361246a176aa94603019dcff1631db42"),
    "predict-net-psum.json": (0, "b24dde18763d5f8be92ffd74707effd4f892d3c37d5d81317ca57ec150ed3eb3"),
    "predict-net-psum.table": (0, "b3e4f0687eab35281a0b43c37ad544a9481940d51db86cc43e19b8743bc920db"),
    "predict-net.csv": (0, "0ab995aa571f0e600d4c20f02f3fd6df710062b82d4b6eb92fbc2905c581ac4c"),
    "predict-net.json": (0, "6092711c1d91581c32414b9350a3aca451ccf58bf3ef7da59ff7bc0a83e9c749"),
    "predict-net.table": (0, "337d820bd83c47ef4071e861f20055e804bbf10b317d8ecb699f947499d7867b"),
    "presets.json": (0, "093ce4e82a3092dcd0fbe1a2513bf373570750c07dc2c471926a1de16263aa15"),
    "presets.table": (0, "9573120c7513ad4b69b9fe4cb4f1b11c5a855bd87e4ac635ad9a5877607aaae3"),
    "validate-illegal.csv": (2, "de9a910b25343d48dae2c58387fe9bdc5fbbbd1733dd5b30069aca4d679acc95"),
    "validate-illegal.json": (2, "a6c646a8813c218bd27d556e687ea42df1d3cee6d052ac69abd70499f2d97ac3"),
    "validate-illegal.table": (2, "de9a910b25343d48dae2c58387fe9bdc5fbbbd1733dd5b30069aca4d679acc95"),
    "validate-legal.csv": (0, "947a579ac787468d991a3c5236e64ef1bd7ecfe1b5199d4f154bf94effc2186d"),
    "validate-legal.json": (0, "51999077d117baf989af51d9d7a52fa10a497dadd8dc1565999b4e8bfda37e52"),
    "validate-legal.table": (0, "947a579ac787468d991a3c5236e64ef1bd7ecfe1b5199d4f154bf94effc2186d"),
}


def run_invocation(name: str, directory) -> tuple[int, str]:
    """Exit code and stdout of one named invocation."""
    for file_name, text in INPUT_FILES.items():
        (directory / file_name).write_text(text)
    args = [a.format(dir=directory) for a in INVOCATIONS[name]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_output(name, tmp_path):
    code, out = run_invocation(name, tmp_path)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]


@pytest.mark.parametrize("name, key", [
    ("check-conv5-psum", "rows"),
    ("explore-conv5", "top"),
])
def test_csv_cells_are_json_scalars(name, key, tmp_path):
    _, json_out = run_invocation(f"{name}.json", tmp_path)
    _, csv_out = run_invocation(f"{name}.csv", tmp_path)
    objects = json.loads(json_out)[key]
    header, *rows = csv.reader(io.StringIO(csv_out))
    assert header == [k for k in objects[0] if k != "mapping"]
    assert len(rows) == len(objects)
    for row, obj in zip(rows, objects):
        for cell, column in zip(row, header):
            value = obj[column]
            expect = value if isinstance(value, str) else canonical_json(value)[:-1]
            assert cell == expect


def test_float_counts_print_in_csv_as_in_json(tmp_path):
    # A non-integer --psum-rw-factor makes output counts floats. The CSV
    # cell printed 216320.0 where JSON prints 216320; now both print 216320.
    _, out = run_invocation("check-conv5-psum.csv", tmp_path)
    assert "elements,DRAM,O,216320,216320,true" in out.splitlines()
    _, out = run_invocation("predict-net-psum.csv", tmp_path)
    assert "CONV1,DRAM,O,2217600,443520000" in out.splitlines()
    assert ".0," not in out
