"""The benchmark's tracer (perfbench/tracing.py) wraps layer functions and
reads cache sizes by name: FreeFieldRealization._realized_raw, _mode_cache
and _basis_cache, and the module-level rank and schur_expand in freefield,
among others.  A rename breaks the traced benchmark runs; this test catches
it.  The tracer patches modules in place, so it runs in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from fractions import Fraction
import shvkernel, shvkernel.cli
import tracing

read_counters = tracing.install(tracing.Tracer(), shvkernel)
R = shvkernel.freefield.FreeFieldRealization()
for b in R.basis(1, Fraction(1, 3), 1):
    R.generator_mode("L", -1, shvkernel.freefield.FockVector({b: Fraction(1)}, 0))
print(json.dumps(read_counters()))
"""


def test_tracer_installs_and_reads_counters():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(proc.stdout.splitlines()[-1])
    assert counters["freefield.mode_cache.entries"] == 3  # L(-1) on the three degree-1 states
    assert counters["freefield.basis_cache.entries"] == 1
