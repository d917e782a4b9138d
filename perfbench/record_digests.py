"""Record the digest of every command-line operation's report body.

    python3 perfbench/record_digests.py

Runs each workload's subcommands at every shift value of the pool, asserts
that each exits 0 with every check passing, and writes ``digests.json``.  The
benchmark counts an operation whose report body differs from its digest as
failed, so re-record only when a change alters a report on purpose.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def main() -> int:
    digests = {}
    for workload, templates in workloads.CLI_OPS.items():
        for template in templates:
            for r in workloads.R_POOL:
                argv = workloads.cli_argv(template, r)
                key = " ".join(argv)
                if key in digests:
                    continue
                code, report = worker.run_cli(argv)
                statuses = {c["name"]: c["status"] for c in report["checks"]}
                if code != 0 or set(statuses.values()) != {"pass"}:
                    print(f"{key}: exit {code}, checks {statuses}", file=sys.stderr)
                    return 1
                digests[key] = worker.report_digest(report)
                print(key, digests[key], flush=True)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
