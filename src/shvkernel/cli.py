"""Command-line front end for the verification suites.

Each subcommand runs one family of exact checks — bracket identities, the
free-field realization, explicit singular/subsingular vectors, graded
characters, determinant vanishing loci, embedding diagrams — and renders a
fixed-order report as text or JSON.  Everything runs at level zero, so the
abelian central value cA is 0 and no flag sets it.  Each subcommand accepts
only the label flags it reads (the table in ``build_parser``); a label flag
left out keeps its ``RunConfig`` default.  Reports for the same configuration
are reproducible verbatim (apart from the elapsed-time field), and expensive
command results can be cached on disk as plain JSON files keyed by a content
hash of the configuration.

Exit status: 0 when every check passes, 1 when a verification check fails,
2 on a usage or parse error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import __version__
from . import shv_algebra as alg
from .exact_linalg import Matrix, in_span, rational_rank
from .freefield import FockVector, FreeFieldRealization
from .qchar import char_simple, compare_dims
from .scalars import format_rational, parse_rational
from .verma import (
    Submodule,
    act,
    det_vanishing_check,
    embedding_diagram,
    kernel_subsingular_vectors,
    pr_to_hw,
    raising_symbols,
    simple_graded_dim,
    singular_vector_from_phi,
    singular_vectors,
    verma_basis,
)

# Unused here: perfbench/tracing.py wraps subsingular_vectors in this module
# by name, so the import stays.
from .verma import subsingular_vectors  # noqa: F401

_HALF = Fraction(1, 2)

#: hard cap on --max-degree; graded pieces grow fast enough that anything
#: deeper stops being an interactive computation
DEGREE_CAP = Fraction(6)

#: symbolic determinants are only evaluated through this level, and deeper
#: levels are reported as skipped; the interpolated determinant itself reaches
#: level 3 (28 rows) in seconds, so lifting the cap changes only the reports
DET_LEVEL_CAP = Fraction(2)

_CACHE_VERSION = 1


class UsageError(ValueError):
    """Bad command-line input (maps to exit status 2)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    p: Fraction = Fraction(1)
    r: Fraction = Fraction(1, 3)
    cL: Fraction = Fraction(11, 2)
    cLa: Fraction = Fraction(2, 3)
    max_degree: Fraction = Fraction(4)
    fmt: str = "text"
    out: Optional[str] = None
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.cLa == 0:
            raise UsageError("the twist central value cLa must be nonzero")
        if (2 * self.max_degree).denominator != 1:
            raise UsageError("max degree must be a half-integer")
        if not Fraction(0) <= self.max_degree <= DEGREE_CAP:
            raise UsageError(f"max degree must lie in [0, {DEGREE_CAP}]")

    def params(self) -> Dict[str, str]:
        """Configuration fields that determine check content, as strings."""
        return {
            "p": format_rational(self.p),
            "r": format_rational(self.r),
            "cL": format_rational(self.cL),
            "cLa": format_rational(self.cLa),
            # cA is 0 at level zero, and no command reads a mode; the
            # constant entries keep the report header, which
            # perfbench/digests.json and the test test_params_are_strings
            # pin, as it was
            "cA": "0",
            "max_degree": format_rational(self.max_degree),
            "mode": "specialized",
        }


#: the label flags, each a rational that sets the RunConfig field its
#: argparse dest names (--max-degree sets max_degree)
_LABEL_FLAGS = {
    "--p": "module label numerator parameter (rational a/b)",
    "--r": "module label shift parameter (rational a/b)",
    "--cL": "even central value (rational a/b)",
    "--cLa": "mixed central value (rational a/b, nonzero)",
    "--max-degree": "degree cutoff (half-integer n/2)",
}


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags given; the parser sets no defaults, so a
    field whose flag is left out keeps the RunConfig default."""
    fields = {k: v for k, v in vars(ns).items() if k != "command"}
    for field, text in fields.items():
        flag = "--" + field.replace("_", "-")
        if flag in _LABEL_FLAGS:
            try:
                fields[field] = parse_rational(text)
            except ValueError as exc:
                raise UsageError(f"{flag}: {exc}") from None
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# report plumbing


#: every status a check can carry
_STATUSES = ("pass", "fail", "skip", "warn")


def _check(name: str, ref: str, ok, **details) -> dict:
    status = ok if isinstance(ok, str) else ("pass" if ok else "fail")
    return {"name": name, "paper_ref": ref, "status": status, "details": details}


def _require_integer_p(cfg: RunConfig, nonzero: bool = False) -> int:
    if cfg.p.denominator != 1:
        raise UsageError(f"this command needs an integer label, got p = {cfg.p}")
    p = int(cfg.p)
    if nonzero and p == 0:
        raise UsageError("this command needs a nonzero integer label")
    return p


def _realized_span(R: FreeFieldRealization, p, r, degree, vec: FockVector, words) -> Matrix:
    """The columns of the lowering words applied to vec, in the coordinates
    of the (p, r) Fock piece of the given degree."""
    return R.piece(p, r, degree).matrix(R.realize_word(w, vec).terms for w in words)


def _proportional(a: FockVector, b: FockVector) -> bool:
    """Whether two nonzero vectors agree up to a rational scalar."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if a.parity != b.parity:
        return False
    term, ca = next(iter(a.terms.items()))
    cb = b.coefficient(term)
    if cb == 0:
        return False
    return a.scale(cb / ca) == b


def _clip(items: Sequence, limit: int = 8) -> list:
    items = list(items)
    if len(items) > limit:
        return items[:limit] + [f"... {len(items) - limit} more"]
    return items


# ---------------------------------------------------------------------------
# relations


def _antisymmetry_failures(syms) -> List[str]:
    bad = []
    for i, x in enumerate(syms):
        for y in syms[i:]:
            sign = Fraction(-1 if alg.parity(x) and alg.parity(y) else 1)
            if alg.super_bracket(x, y) != (-sign) * alg.super_bracket(y, x):
                bad.append(f"[{x}, {y}]")
    return bad


def _jacobi_failures(syms) -> List[str]:
    bad = []
    for i, x in enumerate(syms):
        px = alg.parity(x)
        ex = alg.Element.of(x)
        for j in range(i, len(syms)):
            y = syms[j]
            py = alg.parity(y)
            ey = alg.Element.of(y)
            for z in syms[j:]:
                pz = alg.parity(z)
                total = (
                    Fraction((-1) ** (px * pz))
                    * alg.element_bracket(ex, alg.super_bracket(y, z))
                    + Fraction((-1) ** (py * px))
                    * alg.element_bracket(ey, alg.super_bracket(z, x))
                    + Fraction((-1) ** (pz * py))
                    * alg.element_bracket(alg.Element.of(z), alg.super_bracket(x, y))
                )
                if not total.is_zero():
                    bad.append(f"[{x}, [{y}, {z}]]")
    return bad


def cmd_relations(cfg: RunConfig) -> List[dict]:
    """Super-antisymmetry and graded Jacobi identity over a mode window."""
    bound = int(2 * cfg.max_degree)
    # every generator whose doubled mode is at most the bound, in PBW order
    syms = sorted((s for t in range(-bound, bound + 1) for s in alg.symbols_at(t)), key=alg.sym_key)
    anti = _antisymmetry_failures(syms)
    jac = _jacobi_failures(syms)
    npairs = len(syms) * (len(syms) + 1) // 2
    ntriples = sum(
        len(syms) - j for i in range(len(syms)) for j in range(i, len(syms))
    )
    return [
        _check(
            "antisymmetry",
            "bracket-table",
            not anti,
            mode_bound=f"{bound}/2",
            symbols=len(syms),
            pairs=npairs,
            failures=_clip(anti),
        ),
        _check(
            "jacobi",
            "bracket-table",
            not jac,
            mode_bound=f"{bound}/2",
            triples=ntriples,
            failures=_clip(jac),
        ),
    ]


# ---------------------------------------------------------------------------
# realize


def _module_span_rows(R: FreeFieldRealization, p, r, max_degree):
    """Rank of the realized module map degree by degree, with expectations.

    A negative integer label realizes the simple quotient, so the expected
    rank is the simple graded dimension; every other label realizes the full
    graded component.
    """
    hw = pr_to_hw(p, r, R.cL, R.cLa)
    vac = R.vacuum_vector(p, r)
    negative_integer = p.denominator == 1 and p < 0
    rows = []
    for d in alg.half_degrees(max_degree):
        rk = rational_rank(_realized_span(R, p, r, d, vac, verma_basis(hw, d).words))
        want = simple_graded_dim(hw, d) if negative_integer else len(R.basis(p, r, d))
        rows.append({"degree": str(d), "rank": rk, "expected": want, "ok": rk == want})
    return rows


def cmd_realize(cfg: RunConfig) -> List[dict]:
    """Realized modes against the bracket table, plus module span checks."""
    R = FreeFieldRealization(cfg.cL, cfg.cLa)
    report = R.realized_bracket_report(
        cfg.p, cfg.r, max_twice_mode=6, max_degree=cfg.max_degree
    )
    details = {
        "pairs": report["pairs"],
        "vectors": report["vectors"],
        "checked": report["checked"],
    }
    if report["mismatches"]:
        details["first_mismatch"] = list(report["mismatches"][0])
        details["mismatches"] = _clip([list(m) for m in report["mismatches"]])
    checks = [_check("commutator-matrices", "fock-realization", report["ok"], **details)]

    rows = _module_span_rows(R, cfg.p, cfg.r, cfg.max_degree)
    negative_integer = cfg.p.denominator == 1 and cfg.p < 0
    checks.append(
        _check(
            "module-span",
            "module-span",
            all(row["ok"] for row in rows),
            expectation="simple-dims" if negative_integer else "full-span",
            rows=rows,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# singular / subsingular


def _annihilation_failures(R: FreeFieldRealization, vec: FockVector, degree):
    bad = []
    for x in raising_symbols(degree):
        if not R.generator_mode(x.kind, x.mode.value, vec).is_zero():
            bad.append(str(x))
    return bad


def _explicit_singular_checks(R: FreeFieldRealization, p: int, r, build, degree) -> List[dict]:
    """The built vector against its screening image (the odd screening for
    odd p, the twisted long one for even p), and its annihilation."""
    if p % 2:
        parity = "odd"
        image = R.screening_q(R.vacuum_vector(p, r - _HALF)).scale(-R.cLa).scale_sqrt2()
    else:
        parity = "even"
        image = R.screening_g(R.vacuum_vector(p, r - 1), twisted=True)
    ref = f"singular-{parity}-explicit"
    bad = _annihilation_failures(R, build, degree)
    return [
        _check(ref, ref, build == image, degree=str(degree), vector=build.to_text()),
        _check(f"singular-{parity}-annihilation", ref, not bad, failures=bad),
    ]


def _family_checks(R: FreeFieldRealization, p: int, r, ns: Sequence[int]) -> List[dict]:
    checks = []
    for n in ns:
        vec = R.family_vector(p, r, n, "u")
        degree = (Fraction(p, 2) if p % 2 else Fraction(0)) + n * p
        bad = _annihilation_failures(R, vec, degree)
        checks.append(
            _check(
                f"singular-family-{n}",
                "singular-family",
                not vec.is_zero() and not bad,
                degree=str(degree),
                terms=len(vec.nums),
                failures=bad,
            )
        )
    return checks


def _kernel_cross_check(R: FreeFieldRealization, cfg: RunConfig, build, degree) -> dict:
    """The raising-kernel detector finds the same vector the formula builds."""
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa)
    kern = singular_vectors(hw, degree)
    ok = len(kern) == 1 and _proportional(
        R.realize_element(alg.Element(kern[0].to_dict()), R.vacuum_vector(cfg.p, cfg.r)), build
    )
    return _check(
        "kernel-cross-check",
        "kernel-cross-check",
        ok,
        degree=str(degree),
        detected=len(kern),
        normalized=kern[0].to_text() if kern else "",
    )


def _descent_checks(cfg: RunConfig, p: int) -> List[dict]:
    """Negative labels: the descent-operator image against kernel detection."""
    hw, vec = singular_vector_from_phi(p, cfg.r, cfg.cL, cfg.cLa)
    bad = [str(x) for x in raising_symbols(Fraction(-p)) if not act(x, vec, hw).is_zero()]
    checks = [
        _check(
            "descent-operator",
            "descent-operator",
            not vec.is_zero() and not bad,
            degree=str(-p),
            vector=vec.to_text(),
            failures=bad,
        )
    ]
    kern = singular_vectors(hw, Fraction(-p))
    checks.append(
        _check(
            "kernel-cross-check",
            "kernel-cross-check",
            len(kern) == 1 and vec.to_dict() == kern[0].to_dict(),
            detected=len(kern),
        )
    )
    R = FreeFieldRealization(cfg.cL, cfg.cLa)
    realized = R.realize_element(alg.Element(vec.to_dict()), R.vacuum_vector(cfg.p, cfg.r))
    checks.append(
        _check(
            "realized-image-vanishes",
            "module-span",
            realized.is_zero(),
            note="the singular vector spans the kernel of the module map",
        )
    )
    return checks


def _even_injectivity_check(R: FreeFieldRealization, cfg: RunConfig, p: int) -> dict:
    """Lowering words act freely on the first even singular vector."""
    u1 = R.family_vector(p, cfg.r, 1, "u")
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa)
    cap = min(cfg.max_degree, Fraction(3))
    rows = []
    for d in alg.half_degrees(cap):
        words = verma_basis(hw, d).words
        rk = rational_rank(_realized_span(R, cfg.p, cfg.r, p + d, u1, words))
        rows.append({"degree": str(d), "rank": rk, "words": len(words), "ok": rk == len(words)})
    return _check(
        "free-action-on-singular",
        "module-embedding",
        all(row["ok"] for row in rows),
        rows=rows,
    )


def _subsingular_span_check(R: FreeFieldRealization, cfg: RunConfig, p: int) -> dict:
    """Raising images of the subsingular vector stay inside the singular submodule."""
    u0 = R.family_vector(p, cfg.r, 0, "u")
    w1 = R.family_vector(p, cfg.r, 1, "w")
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa)
    failures = []
    checked = 0
    for x in raising_symbols(Fraction(p)):
        m = x.mode.value
        img = R.generator_mode(x.kind, m, w1)
        checked += 1
        if img.is_zero():
            continue
        delta = Fraction(p) - m - Fraction(p, 2)
        if delta < 0:
            failures.append(str(x))
            continue
        span = _realized_span(R, cfg.p, cfg.r, Fraction(p) - m, u0, verma_basis(hw, delta).words)
        target = R.piece(cfg.p, cfg.r, Fraction(p) - m).column(img.terms)
        if not in_span(target, span):
            failures.append(str(x))
    return _check(
        "raising-into-singular-submodule",
        "subsingular-witness",
        not failures,
        raisings=checked,
        failures=failures,
    )


def _detected_subsingular(hw, p: int) -> list:
    """Vectors of degree p singular modulo the submodule that the singular
    vectors of degree p/2 generate, found by the kernel detector.  The
    singular vectors of degree p go into the base too, so that none of them
    is reported.  Every label this runs at has such a vector, so the mod-P
    count of subsingular_vectors could never prove there is none: the
    kernel is built straight away."""
    base = Submodule(hw, Fraction(p))
    for degree in (Fraction(p, 2), Fraction(p)):
        for vec in singular_vectors(hw, degree):
            base.add_generator(vec.to_dict(), degree)
    return kernel_subsingular_vectors(hw, Fraction(p), base)


def cmd_subsingular(cfg: RunConfig) -> List[dict]:
    """Build and certify the subsingular vector at a positive odd label."""
    p = _require_integer_p(cfg)
    if p <= 0 or p % 2 == 0:
        raise UsageError("subsingular builds need a positive odd integer label")
    R = FreeFieldRealization(cfg.cL, cfg.cLa)
    w1 = R.family_vector(p, cfg.r, 1, "w")
    u0 = R.family_vector(p, cfg.r, 0, "u")
    build = R.build_subsingular_odd(p, cfg.r)
    checks = [
        _check(
            "subsingular-explicit",
            "subsingular-witness",
            build == w1,
            degree=str(p),
            vector=build.to_text(),
        ),
        _check(
            "charge-image-nonzero",
            "charge-image-nonzero",
            not R.screening_q(w1).is_zero(),
        ),
        _subsingular_span_check(R, cfg, p),
        _check(
            "supercharge-link",
            "supercharge-link",
            R.generator_mode("G", Fraction(p, 2), w1) == u0.scale_sqrt2(),
            note="the half-mode sends the subsingular vector onto the singular one",
        ),
    ]
    reps = _detected_subsingular(pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa), p)
    checks.append(
        _check(
            "subsingular-detected",
            "subsingular-witness",
            len(reps) == 1,
            detected=len(reps),
            normalized=reps[0].to_text() if reps else "",
        )
    )
    return checks


def cmd_singular(cfg: RunConfig) -> List[dict]:
    """Build and certify the explicit vectors available at the given label."""
    p = _require_integer_p(cfg)
    if p == 0:
        return [
            _check(
                "singular-constructions",
                "singular-family",
                "skip",
                note="no explicit constructions at the zero label",
            )
        ]
    if p < 0:
        return _descent_checks(cfg, p)
    R = FreeFieldRealization(cfg.cL, cfg.cLa)
    if p % 2:
        build, degree, family = R.build_singular_odd(p, cfg.r), Fraction(p, 2), (0, 1, 2)
    else:
        build, degree, family = R.build_singular_even(p, cfg.r), Fraction(p), (1, 2)
    checks = _explicit_singular_checks(R, p, cfg.r, build, degree)
    checks.extend(_family_checks(R, p, cfg.r, family))
    if p % 2 == 0:
        checks.append(_even_injectivity_check(R, cfg, p))
    checks.append(_kernel_cross_check(R, cfg, build, degree))
    return checks


# ---------------------------------------------------------------------------
# char / det / diagram


def cmd_char(cfg: RunConfig) -> List[dict]:
    """Predicted simple characters against the Gram-rank dimension oracle."""
    p = _require_integer_p(cfg, nonzero=True)
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa)
    expected = [(d, simple_graded_dim(hw, d)) for d in alg.half_degrees(cfg.max_degree)]
    series = char_simple(p, cfg.max_degree)
    comparison = compare_dims(series, expected)
    checks = [
        _check(
            "character-match",
            "character-match",
            comparison["pass"],
            entries=comparison["entries"],
        )
    ]
    dual = pr_to_hw(-cfg.p, -cfg.r, cfg.cL, cfg.cLa)
    rows = []
    for d, a in expected:
        b = simple_graded_dim(dual, d)
        rows.append({"degree": str(d), "dim": a, "dual_dim": b, "ok": a == b})
    checks.append(
        _check(
            "contragredient-duality",
            "contragredient-duality",
            all(row["ok"] for row in rows),
            rows=rows,
        )
    )
    return checks


def cmd_det(cfg: RunConfig) -> List[dict]:
    """Gram determinant vanishing loci, symbolic in the module label."""
    if cfg.max_degree < _HALF:
        # below the first level the report would hold no check and read as a pass
        raise UsageError(f"det: --max-degree must be at least {format_rational(_HALF)}, "
                         f"the lowest determinant level, got {format_rational(cfg.max_degree)}")
    checks = []
    for level in alg.half_degrees(min(cfg.max_degree, DET_LEVEL_CAP))[1:]:
        result = det_vanishing_check(level, cfg.cL, cfg.cLa, cfg.r)
        ok = result["match"]
        if level == _HALF:
            ok = ok and sorted(result["computed_roots"]) == ["-1", "1"]
        checks.append(
            _check(f"determinant-locus-{format_rational(level)}", "determinant-locus", ok, **result)
        )
    if cfg.max_degree > DET_LEVEL_CAP:
        skipped = [
            format_rational(d)
            for d in alg.half_degrees(cfg.max_degree)
            if d > DET_LEVEL_CAP
        ]
        checks.append(
            _check(
                "determinant-level-cap",
                "determinant-locus",
                "skip",
                levels=skipped,
                note="symbolic determinants beyond the cap are not desk-scale",
            )
        )
    return checks


def _shape_holds(shape: dict) -> bool:
    """Whether the covering arrows have the shape the pattern names: the
    highest-weight node alone, or one chain from it through every node."""
    ids = [n["id"] for n in shape["nodes"]]
    step = {e["from"]: e["to"] for e in shape["edges"]}
    path = ["v"]
    while path[-1] in step and len(path) <= len(ids):
        path.append(step[path[-1]])
    chain = sorted(path) == sorted(ids) and len(shape["edges"]) == len(ids) - 1
    return chain and (shape["pattern"] == "single-node") == (len(ids) == 1)


def cmd_diagram(cfg: RunConfig) -> List[dict]:
    """Submodule-generator diagram of the Verma module at an integer label."""
    _require_integer_p(cfg, nonzero=True)
    diagram = embedding_diagram(cfg.p, cfg.r, cfg.max_degree, cfg.cL, cfg.cLa)
    shape = diagram.to_json()
    return [
        _check(
            "embedding-diagram",
            "embedding-diagram",
            _shape_holds(shape),
            pattern=shape["pattern"],
            nodes=shape["nodes"],
            edges=shape["edges"],
        )
    ]


def _acceptance(cfg: RunConfig) -> List[dict]:
    """The pinned battery of shvkernel.acceptance, which imports this module
    and so is imported only when it runs."""
    from .acceptance import cmd_acceptance

    return cmd_acceptance(cfg)


# ---------------------------------------------------------------------------
# report rendering, caching, entry point

_COMMANDS: Dict[str, Callable[[RunConfig], List[dict]]] = {
    "relations": cmd_relations,
    "realize": cmd_realize,
    "singular": cmd_singular,
    "subsingular": cmd_subsingular,
    "char": cmd_char,
    "det": cmd_det,
    "diagram": cmd_diagram,
    "acceptance": _acceptance,
}


def build_report(command: str, cfg: RunConfig, checks: List[dict], elapsed_ms: int) -> dict:
    return {
        "command": command,
        "params": cfg.params(),
        "checks": checks,
        "elapsed_ms": elapsed_ms,
    }


def _format_detail(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(", ", ": "))


def render_text(report: dict) -> str:
    params = report["params"]
    header = ", ".join(f"{k}={v}" for k, v in params.items())
    lines = [f"{report['command']}  [{header}]"]
    for c in report["checks"]:
        lines.append(f"[{c['status'].upper():4}] {c['name']}  ({c['paper_ref']})")
        for key, value in c["details"].items():
            lines.append(f"    {key}: {_format_detail(value)}")
    lines.append(f"elapsed: {report['elapsed_ms']} ms")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


@cache
def _source_hash() -> str:
    """A hash of the package's sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_key(command: str, cfg: RunConfig) -> str:
    """The entry name of a configuration: it changes with the command, the
    parameters, the cache format, the package version and its sources, so
    an entry does not outlive the code that wrote it."""
    payload = {
        "command": command,
        "params": cfg.params(),
        "version": _CACHE_VERSION,
        "package": __version__,
        "sources": _source_hash(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _cached_checks(command: str, cfg: RunConfig) -> List[dict]:
    if not cfg.cache_dir:
        return _COMMANDS[command](cfg)
    cache = Path(cfg.cache_dir)
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--cache-dir {cfg.cache_dir}: {exc.strerror or exc}") from None
    path = cache / f"{command}-{_cache_key(command, cfg)}.json"
    stored = _read_cache_entry(path)
    if stored is not None:
        return stored
    checks = _COMMANDS[command](cfg)
    try:
        _write_atomically(
            path, json.dumps({"version": _CACHE_VERSION, "checks": checks}, indent=2) + "\n"
        )
    except OSError as exc:
        raise UsageError(f"--cache-dir {cfg.cache_dir}: {exc.strerror or exc}") from None
    return checks


def _read_cache_entry(path: Path) -> Optional[List[dict]]:
    """The cached checks at path, or None when the entry is missing,
    unreadable, from another cache version or not shaped like checks."""
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError covers bad UTF-8 and bad JSON
        return None
    if not isinstance(stored, dict) or stored.get("version") != _CACHE_VERSION:
        return None
    checks = stored.get("checks")
    if not isinstance(checks, list) or not all(
        isinstance(c, dict)
        and list(c) == ["name", "paper_ref", "status", "details"]
        and isinstance(c["name"], str)
        and isinstance(c["paper_ref"], str)
        and c["status"] in _STATUSES
        and isinstance(c["details"], dict)
        for c in checks
    ):
        return None
    return checks


def _write_atomically(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path,
    so a reader never sees a half-written file.  A directory at path is
    refused before anything is written, since the temporary file would land
    in its parent."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shvkernel",
        description="exact verification suites for a level-zero super current algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command with the label flags it reads, and no other
    label, degree = ("--p", "--r", "--cL", "--cLa"), ("--max-degree",)
    descriptions = {
        "relations": ("bracket antisymmetry and Jacobi identity sweeps", degree),
        "realize": ("free-field modes against the bracket table, with span checks", label + degree),
        "singular": ("build and certify explicit singular vectors", label + degree),
        "subsingular": ("build and certify the subsingular vector (odd labels)", label),
        "char": ("simple characters against the rank oracle, with duality", label + degree),
        "det": ("Gram determinant vanishing loci, symbolic in the label", ("--r", "--cL", "--cLa") + degree),
        "diagram": ("submodule generator diagram of the Verma module", label + degree),
        "acceptance": ("the full pinned verification battery", degree),
    }
    for name, (desc, flags) in descriptions.items():
        # no defaults here, RunConfig holds them; no prefixes, so --c never means --cache-dir
        command = sub.add_parser(name, help=desc, description=desc,
                                 argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in flags:
            command.add_argument(flag, help=_LABEL_FLAGS[flag])
        command.add_argument("--format", choices=("text", "json"), dest="fmt")
        command.add_argument("--out", help="write the report to this file instead of stdout")
        command.add_argument("--cache-dir", help="directory for cached command results")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        cfg = _config_from_args(ns)
        checks = _cached_checks(ns.command, cfg)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        report = build_report(ns.command, cfg, checks, elapsed_ms)
        rendered = render_json(report) if cfg.fmt == "json" else render_text(report)
        if cfg.out:
            try:
                _write_atomically(Path(cfg.out), rendered)
            except OSError as exc:
                raise UsageError(f"--out {cfg.out}: {exc.strerror or exc}") from None
        else:
            sys.stdout.write(rendered)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(c["status"] == "fail" for c in checks) else 0


if __name__ == "__main__":
    # Run as a script, this file is a second module beside shvkernel.cli, the
    # one acceptance imports; run that one's main, so that the UsageError it
    # catches is the class every command raises.
    from .cli import main as package_main

    sys.exit(package_main())
