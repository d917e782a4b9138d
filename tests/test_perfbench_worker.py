"""The benchmark's own entry point, once per workload: perfbench/worker.py runs
one pass in a fresh interpreter, as perfbench/run.py spawns it.  A pass that
dies or runs too long fails the whole benchmark run without naming a wrong
result, so this catches what the digest tests cannot: an exception outside
the checked operations, a crash, a hang."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


#: far above a pass's few seconds, far below the benchmark's 150 s
TIMEOUT_S = 120


@pytest.mark.parametrize("workload", _workloads())
def test_worker_pass_exits_cleanly(workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, "1/3"],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ops"]
    assert [op for op in result["ops"] if op["failures"]] == []
