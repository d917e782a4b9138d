"""The shvkernel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding ``src/shvkernel``.  Every pass of
the workload runs in a fresh interpreter (``worker.py``), one at a time, and
draws its shift parameter from the seed's order of the pool in
``workloads.py``.  Passes start while their expected midpoint falls within
S seconds, with at least one.  Every operation's output is checked: its exit
status, every check's status, the digest of its deterministic report body
(``digests.json``) and, for library identities, that the identity is zero.

With ``--trace 0`` the last line of output reports the end-to-end metrics
named in BENCHMARK.json, as medians over the run's passes:

* ``cpu_probes``: CPU time of one pass's operations, in units of the CPU
  time of the speed probe taken during them (see ``worker.SpeedProbe``)
* ``setup_s``: from spawning an interpreter until ``shvkernel`` is imported,
  over several set-up-only spawns and every pass
* ``peak_rss_mb``: peak resident memory of one pass

Wall and CPU seconds of every pass, which drift with the shared machine's
speed, are printed and kept in the run record with ``wall_probes``, the same
ratio for wall time.

With ``--trace 1`` each shift value runs once untraced and once traced, and
the first traced pass is repeated to assert that every work counter repeats
exactly.  The last line then reports the per-layer metrics of BENCHMARK.json,
as medians over the traced passes, plus the tracing overhead.  Spans go to
``.bench_build/perfbench/spans``; a record of every run, with the machine it
ran on, goes to ``.bench_build/perfbench``.

Exits 1 without a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT = ROOT / ".bench_build" / "perfbench"
#: set-up-only spawns before each pass, spread over the run because the
#: machine's speed drifts; one more, uncounted, compiles the bytecode first
SETUP_SPAWNS_PER_PASS = 3
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args) -> dict:
    """Run the worker once; add the set-up time seen from this side."""
    # a fixed string hash keeps set order, and so every work counter, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {err.strip()[-800:]}")
    data = json.loads(out.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - started
    return data


def setup_times() -> list:
    return [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_SPAWNS_PER_PASS)]


def run_pass(workload: str, r: str, spans=None) -> dict:
    args = [workload, r]
    if spans is not None:
        args += ["--spans", str(spans)]
    data = spawn(args)
    data["r"] = r
    data["traced"] = spans is not None
    return data


def fits(started: float, seconds: float, passes: list, cost: float) -> bool:
    """Whether the midpoint of ``cost`` more typical passes falls within the
    run's seconds (so a run of long passes is not cut a whole pass short)."""
    typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
    return monotonic() - started + cost * typical / 2 <= seconds


def measure(workload: str, seed: int, seconds: float) -> tuple:
    spawn(["--setup-only"])
    started = monotonic()
    passes, setups = [], []
    for r in itertools.cycle(workloads.r_sequence(seed)):
        # 1.1: a pass plus its set-up-only spawns
        if passes and not fits(started, seconds, passes, 1.1):
            break
        setups += setup_times()
        passes.append(run_pass(workload, r))
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "wall_probes": statistics.median(p["wall_s"] / p["probe_s"] for p in passes),
        "cpu_probes": statistics.median(p["cpu_s"] / p["probe_cpu_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics, []


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    started = monotonic()
    passes, pairs = [], []
    for k, r in enumerate(itertools.cycle(workloads.r_sequence(seed))):
        # 2.3: an untraced and a slower traced pass
        if passes and not fits(started, seconds, passes, 2.3):
            break
        plain = run_pass(workload, r)
        traced = run_pass(workload, r, spans_dir / f"{workload}-{k}.tsv")
        passes += [plain, traced]
        pairs.append((plain, traced))
        if k == 0:
            repeat = run_pass(workload, r, spans_dir / f"{workload}-repeat.tsv")
            passes.append(repeat)
    traced = [p for p in passes if p["traced"]]
    problems = counter_mismatches(traced[0]["layers"], repeat["layers"])

    named = workloads.NAMED_LAYERS[workload]
    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = statistics.median(p["layers"].get(key, 0) for p in traced)
    shares = []
    for p in traced:
        own = {k[: -len(".self_s")]: v for k, v in p["layers"].items() if k.endswith(".self_s")}
        shares.append(sum(own.get(name, 0.0) for name in named) / sum(own.values()))
    plain_wall = statistics.median(a["wall_s"] for a, _ in pairs)
    traced_wall = statistics.median(b["wall_s"] for _, b in pairs)
    metrics.update({
        "trace.named_share": statistics.median(shares),
        "trace.spans": statistics.median(p["spans"] for p in traced),
        "trace.untraced_wall_s": plain_wall,
        "trace.traced_wall_s": traced_wall,
        # the untraced wall rescaled to the traced pass's machine speed
        "trace.overhead_s": statistics.median(
            b["wall_s"] - a["wall_s"] * b["probe_s"] / a["probe_s"] for a, b in pairs
        ),
    })
    return passes, metrics, problems


def counter_mismatches(first: dict, again: dict) -> list:
    """Work counters (everything but times) of two traced passes on one input."""
    keys = sorted(k for k in set(first) | set(again) if not k.endswith("_s"))
    return [
        f"counter {k} did not repeat: {first.get(k)} then {again.get(k)}"
        for k in keys
        if first.get(k) != again.get(k)
    ]


def machine() -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def git_commit():
    """HEAD of the source tree's git checkout, if there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "shvkernel" / "__init__.py").is_file():
            raise BenchError(f"no shvkernel sources under {ROOT / 'src'}")
        info = machine()
        declared = declared_metrics(bool(args.trace))
        measure_fn = measure_traced if args.trace else measure
        passes, metrics, problems = measure_fn(args.workload, args.seed, args.seconds)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failures"]]
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "passes": passes,
        "problems": problems,
        "all_metrics": metrics,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("machine", json.dumps(info))
    for p in passes:
        tag = "traced" if p["traced"] else "plain"
        print(f"pass r={p['r']} {tag} wall_s={p['wall_s']:.3f} cpu_s={p['cpu_s']:.3f} "
              f"probe_s={p['probe_s']:.5f} setup_s={p['setup_s']:.3f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f}")
    for op in failed:
        print(f"FAILED {op['op']}: {op['failures']}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
