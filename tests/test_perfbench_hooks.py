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


VERMA_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from fractions import Fraction
import shvkernel, shvkernel.cli
import tracing

tracer = tracing.Tracer()
read_counters = tracing.install(tracer, shvkernel)
hw = shvkernel.verma.pr_to_hw(Fraction(1), Fraction(1, 3))
shvkernel.verma.simple_graded_dim(hw, 1)
calls = {name: row["calls"] for name, row in tracer.layer_totals().items()}
print(json.dumps({"counters": read_counters(), "tracer": tracer.counters, "calls": calls}))
"""


def test_tracer_reads_verma_caches():
    # guards verma._normal_form, VermaAction.apply_symbol, _sym_cache,
    # _gram_cache, the (hw, action) pairs of _ACTIONS and verma.rational_rank
    proc = subprocess.run(
        [sys.executable, "-c", VERMA_SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    counters, calls = out["counters"], out["calls"]
    assert counters["verma.actions.count"] == 1
    # the degree-1 block is built on the blocks at degrees 1/2 and 0
    assert counters["verma.gram.entries"] == 3 * 3 + 2 * 2 + 1
    assert counters["verma.caches.entries"] > 3  # symbol results plus three blocks
    assert out["tracer"]["verma.gram.max_rows"] == 3
    assert calls["verma.gram"] == 1
    assert calls["exact_linalg.rank"] == 1
    assert calls["verma.apply_symbol"] > 0
    assert calls.get("shv_algebra.normal_form", 0) == 0
