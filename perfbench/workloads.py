"""What one pass of each workload runs, as plain data.

A pass is one fresh interpreter: every ``shvkernel`` invocation starts with
cold process-wide caches, and users pay to fill them on every run, so the
benchmark never reuses a process between passes.

Each pass draws the shift parameter ``r`` from ``R_POOL``.  The label ``p``
and every degree cutoff stay pinned, so every draw does the same amount of
work; only the sizes of the rationals change.  The pool holds generic values
(no accidental integrality at these degrees) whose passes cost about the same.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: generic shift values; every operation passes at each of them
R_POOL: Tuple[str, ...] = ("1/3", "2/3", "4/3", "5/3")

#: the seed later changes develop against
DEFAULT_SEED = 1
#: a seed kept out of development, to check a claimed gain on unseen draws
HELD_OUT_SEED = 20201123

#: command-line operations per workload; "{r}" is the pass's shift value
CLI_OPS: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "verma-gram": (("char", "--p", "1", "--r", "{r}", "--max-degree", "5"),),
    "closure-det": (
        ("diagram", "--p", "-1", "--r", "{r}"),
        ("det", "--r", "{r}", "--max-degree", "2"),
    ),
    "fock-realize": (
        ("realize", "--p", "1/2", "--r", "{r}", "--max-degree", "2"),
        ("realize", "--p", "2", "--r", "1/2", "--max-degree", "2"),
    ),
    "fock-screening": (),
}

#: library identities per workload (implemented in worker.py)
IDENTITY_OPS: Dict[str, Tuple[str, ...]] = {
    "verma-gram": (),
    "closure-det": (),
    "fock-realize": (),
    "fock-screening": (
        "charge-square",
        "charge-anticommutators",
        "charge-screening-commute",
        "twisted-anticommutators",
        "twisted-screening-commute",
    ),
}

WORKLOADS: Tuple[str, ...] = tuple(CLI_OPS)

#: the layers each workload is built to exercise; their share of the traced
#: self time is reported as trace.named_share
NAMED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "verma-gram": (
        "shv_algebra.normal_form",
        "verma.apply_symbol",
        "verma.gram",
        "exact_linalg.rank",
    ),
    "closure-det": (
        "verma.closure",
        "verma.singular",
        "verma.subsingular",
        "exact_linalg.kernel",
        "exact_linalg.det",
        "exact_linalg.in_span",
        "scalars.roots",
    ),
    "fock-realize": ("freefield.mode", "freefield.bracket_defect"),
    "fock-screening": ("freefield.screening", "qchar.schur_expand"),
}


def cli_argv(template: Tuple[str, ...], r: str) -> List[str]:
    return [arg.replace("{r}", r) for arg in template]


def r_sequence(seed: int) -> List[str]:
    """The pool in the order this seed's passes draw it (cycled if needed)."""
    order = list(R_POOL)
    random.Random(seed).shuffle(order)
    return order
