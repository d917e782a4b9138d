"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py WORKLOAD R [--spans FILE]

Imports ``shvkernel`` from the ``src`` directory next to this benchmark, runs
the workload's operations with shift parameter R, checks every result, and
prints one JSON line: when the package was ready (CLOCK_MONOTONIC, comparable
with the parent's spawn time), the wall and CPU time of the operations, the
median time of the speed probe that ran during them, peak resident memory,
and one entry per operation.  With ``--spans`` the layers are
traced, the spans are written to FILE, and the per-layer numbers are added.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

try:
    import shvkernel  # noqa: E402
    import shvkernel.cli  # noqa: E402,F401
except ImportError as exc:
    print(f"worker: cannot import shvkernel from {SRC}: {exc}", file=sys.stderr)
    sys.exit(3)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"


def report_digest(report: dict) -> str:
    """Digest of a report's deterministic body (everything but elapsed_ms)."""
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_cli(argv):
    """Run one subcommand; return (exit status, parsed JSON report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = shvkernel.cli.main(list(argv) + ["--format", "json"])
    return code, json.loads(out.getvalue())


def cli_failures(argv, digests) -> list:
    code, report = run_cli(argv)
    bad = []
    if code != 0:
        bad.append(f"exit status {code}")
    bad += [f"check {c['name']}: {c['status']}" for c in report["checks"] if c["status"] != "pass"]
    want = digests.get(" ".join(argv))
    if want is None:
        bad.append("no recorded digest for this input")
    elif report_digest(report) != want:
        bad.append("report body differs from the recorded digest")
    return bad


# ---------------------------------------------------------------------------
# screening identities over the Fock basis up to degree 2 (criterion 08's
# identities, without the kernel-restricted commutators)

IDENTITY_DEGREE = Fraction(2)
UNTWISTED = (Fraction(1), None)  # (p, r); r is the pass's draw
TWISTED = (Fraction(2), Fraction(1, 2))
GEN_MODES = (("L", Fraction(-1)), ("L", Fraction(1)), ("A", Fraction(-1)),
             ("G", Fraction(-1, 2)), ("G", Fraction(1, 2)), ("P", Fraction(-1, 2)))


def basis_vectors(R, p, r):
    FockVector = shvkernel.freefield.FockVector
    for t in range(int(2 * IDENTITY_DEGREE) + 1):
        for b in R.basis(p, r, Fraction(t, 2)):
            yield FockVector({b: Fraction(1)}, t % 2)


def anticommutator_failures(R, p, r, modes):
    bad = []
    for i, m in enumerate(modes):
        for n in modes[i:]:
            for v in basis_vectors(R, p, r):
                if not (R.a_mode(m, R.a_mode(n, v)) + R.a_mode(n, R.a_mode(m, v))).is_zero():
                    bad.append(f"a({m}), a({n})")
                    break
    return bad


def charge_square(R, r):
    p = UNTWISTED[0]
    return [f"Q^2 on {v.to_text()}" for v in basis_vectors(R, p, r)
            if not R.screening_q(R.screening_q(v)).is_zero()]


def charge_anticommutators(R, r):
    return anticommutator_failures(R, UNTWISTED[0], r, [Fraction(k) for k in range(-3, 4)])


def charge_screening_commute(R, r):
    p = UNTWISTED[0]
    return [f"[Q, G] on {v.to_text()}" for v in basis_vectors(R, p, r)
            if not (R.screening_q(R.screening_g(v)) - R.screening_g(R.screening_q(v))).is_zero()]


def twisted_anticommutators(R, r):
    p, rt = TWISTED
    return anticommutator_failures(R, p, rt, [Fraction(t, 2) for t in range(-5, 6, 2)])


def twisted_screening_commute(R, r):
    p, rt = TWISTED
    bad = []
    for v in basis_vectors(R, p, rt):
        for kind, m in GEN_MODES:
            lhs = R.screening_g(R.generator_mode(kind, m, v), twisted=True)
            rhs = R.generator_mode(kind, m, R.screening_g(v, twisted=True))
            if not (lhs - rhs).is_zero():
                bad.append(f"twisted screening vs {kind}({m})")
    return bad


IDENTITIES = {
    "charge-square": charge_square,
    "charge-anticommutators": charge_anticommutators,
    "charge-screening-commute": charge_screening_commute,
    "twisted-anticommutators": twisted_anticommutators,
    "twisted-screening-commute": twisted_screening_commute,
}


def operations(workload: str, r: str, digests: dict):
    """(name, thunk returning a list of failures) for every operation of a pass."""
    ops = []
    for template in workloads.CLI_OPS[workload]:
        argv = workloads.cli_argv(template, r)
        ops.append((" ".join(argv), lambda argv=argv: cli_failures(argv, digests)))
    if workloads.IDENTITY_OPS[workload]:
        R = shvkernel.freefield.FreeFieldRealization()
        for name in workloads.IDENTITY_OPS[workload]:
            fn = IDENTITIES[name]
            ops.append((f"{name} r={r}", lambda fn=fn: fn(R, Fraction(r))))
    return ops


#: how often the speed probe interrupts a pass
PROBE_INTERVAL_S = 0.1


def _lookup(table: dict, key, default):
    return table.get(key, default)


def probe_job() -> int:
    """A fixed 1 ms job that mixes the program's two kinds of work: big-integer
    arithmetic (fraction-free elimination) and interpreted calls with tuple
    keys and dict updates (normal forms, Fock states).  Everything it
    allocates is freed before it returns."""
    x = 3 ** 1500
    for k in range(200):
        x = (x * 1234567891011) // 98765 + k
    table = {}
    acc = 0
    for i in range(2000):
        key = (i & 63, i % 7)
        acc += _lookup(table, key, i)
        table[key] = acc & 0xFFFF
    return x.bit_length() + acc


class SpeedProbe:
    """Times ``probe_job`` every PROBE_INTERVAL_S during a pass, from a timer
    signal on the pass's own thread.  A shared machine's speed drifts by tens
    of percent within seconds (other tenants share its cores), and the probe
    sees much the same drift as the pass, so pass time over median probe time
    is steady where either alone is not.  Probe time is excluded from the
    pass time."""

    def __init__(self):
        self.walls, self.cpus = [], []

    def _tick(self, signum, frame):
        # no collection of the program's heap may start inside the probe
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        probe_job()
        self.cpus.append(time.process_time() - cpu)
        self.walls.append(time.perf_counter() - wall)
        if collecting:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(workload: str, r: str, spans_path=None) -> dict:
    digests = json.loads(DIGESTS.read_text())
    tracer = read_caches = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        read_caches = tracing.install(tracer, shvkernel)
    results = []
    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for name, thunk in operations(workload, r, digests):
            if tracer is not None:
                thunk = tracer.wrap("bench.op", thunk)
            try:
                bad = thunk()
            except Exception:
                bad = [traceback.format_exc(limit=3)]
            results.append({"op": name, "failures": bad[:5]})
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    out = {
        "ready": READY,
        "wall_s": wall - sum(probe.walls),
        "cpu_s": cpu - sum(probe.cpus),
        "probe_s": statistics.median(probe.walls),
        "probe_cpu_s": statistics.median(probe.cpus),
        "probes": len(probe.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, read_caches())
        out["spans"] = len(tracer.start)
        tracer.write_spans(spans_path)
    return out


def layer_metrics(tracer, caches: dict) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for name, row in totals.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    metrics.update(tracer.counters)
    metrics.update(caches)
    calls = metrics.get("verma.apply_symbol.calls", 0)
    misses = metrics.pop("_verma.sym_cache.entries")
    metrics["verma.apply_symbol.hit_ratio"] = 1 - misses / calls if calls else 0.0
    lookups = metrics.pop("freefield.mode_cache.lookups", 0)
    entries = metrics["freefield.mode_cache.entries"]
    metrics["freefield.mode_cache.hit_ratio"] = 1 - entries / lookups if lookups else 0.0
    return metrics


def main(argv) -> int:
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": READY}))
        return 0
    spans_path = None
    if len(argv) == 4 and argv[2] == "--spans":
        spans_path = argv[3]
        argv = argv[:2]
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_pass(argv[0], argv[1], spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
