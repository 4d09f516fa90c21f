"""The demos run to completion; mapping_search and counting_crosscheck
print fixed text.

Each demo runs as its own process from a fresh interpreter, with the
package imported from this checkout's src/.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# mapping_search.py output with its wall-clock timing masked.
MAPPING_SEARCH = """\
layer toy: m=16 c=8 r=3 s=3 e=7 f=7
search space: 24300 candidate mappings (divisor tilings x loop placements x refresh styles)

exhaustive energy search: 24300 scored in X.XXs, 2923 legal, discards {'capacity': 16573, 'pe_array': 4804}
  #1  energy     956902.4   latency    49.34us   PEs 6
  #2  energy     956902.4   latency    49.34us   PEs 6
  #3  energy     960038.4   latency    37.58us   PEs 8
  #4  energy     961606.4   latency    33.66us   PEs 9
  #5  energy     963222.4   latency     7.34us   PEs 56

best mapping:
  refresh I @GB
  refresh O @GB
  refresh W @GB
  refresh W @RF
  for e in 0..7 @GB
    for f in 0..7 @GB
      parallel-for c in 0..2 @NoC
        parallel-for r in 0..3 @NoC
          refresh I @RF
          refresh O @RF
          for m in 0..16 @RF
            for c in 0..4 @RF
              for s in 0..3 @RF

objective swap: energy winner runs in 49.34us, edp winner in 4.82us (different mapping)
random sample of 1000: best within 0.33% of the true optimum
"""

COUNTING_CROSSCHECK = """\
layer strided: stride 2, 4x3x3x3x5x5

metric     level  kind    analytic    counted
---------------------------------------------
elements   DRAM   I            726        726
elements   DRAM   O            200        200
elements   DRAM   W            108        108
elements   GB     I           1350       1350
elements   GB     O            600        600
elements   GB     W            540        540
elements   NoC    I           1350       1350
elements   NoC    O            300        300
elements   NoC    W           2700       2700
elements   RF     I           2700       2700
elements   RF     O           2700       2700
elements   RF     W           2700       2700
refreshes  GB     I              2          2
refreshes  GB     O              2          2
refreshes  GB     W              2          2
refreshes  RF     I             30         30
refreshes  RF     O             30         30
refreshes  RF     W             30         30

closed forms and brute-force counters agree exactly (18 checks)

CONV1 DRAM input elements, halo-exact:        171,612
CONV1 DRAM input elements, stride ignored:     18,720
a stride-blind tile model would hide 9.2x of the input traffic
"""


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("name", ["alexnet_breakdown.py"])
def test_demo_exits_zero(name):
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_counting_crosscheck_output():
    proc = _run_demo("counting_crosscheck.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == COUNTING_CROSSCHECK


def test_mapping_search_output():
    proc = _run_demo("mapping_search.py")
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r"scored in \d+\.\d\ds", "scored in X.XXs", proc.stdout)
    assert out == MAPPING_SEARCH
