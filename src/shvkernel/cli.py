"""Command-line front end for the verification suites.

Each subcommand runs one family of exact checks — bracket identities, the
free-field realization, explicit singular/subsingular vectors, graded
characters, determinant vanishing loci, embedding diagrams — and renders a
fixed-order report as text or JSON.  Reports for the same configuration are
reproducible verbatim (apart from the elapsed-time field), and expensive
command results can be cached on disk as plain JSON files keyed by a content
hash of the configuration.

Exit status: 0 when every check passes, 1 when a verification check fails,
2 on a usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import shv_algebra as alg
from .exact_linalg import Matrix, in_span, kernel_basis, rational_rank
from .freefield import FockVector, FreeFieldRealization
from .qchar import char_simple, compare_dims
from .scalars import format_rational, parse_rational
from .verma import (
    Submodule,
    act,
    det_vanishing_check,
    embedding_diagram,
    kostant_p2,
    maximal_submodule_dim,
    pr_to_hw,
    raising_symbols,
    simple_graded_dim,
    singular_vector_from_phi,
    singular_vectors,
    subsingular_vectors,
    verma_basis,
)

_HALF = Fraction(1, 2)

#: hard cap on --max-degree; graded pieces grow fast enough that anything
#: deeper stops being an interactive computation
DEGREE_CAP = Fraction(6)

#: symbolic determinants are only evaluated through this level; the level-5/2
#: Gram matrix already has polynomial entries in 18 rows and its exact
#: determinant is out of desk-scale reach
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
    cA: Fraction = Fraction(0)
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
            "cA": format_rational(self.cA),
            "max_degree": format_rational(self.max_degree),
            # no command reads a mode; the constant entry keeps the report
            # header, which perfbench/digests.json and the test
            # test_params_are_strings pin, as it was
            "mode": "specialized",
        }


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    def frac(label, text):
        try:
            return parse_rational(text)
        except ValueError as exc:
            raise UsageError(f"--{label}: {exc}") from None

    return RunConfig(
        p=frac("p", ns.p),
        r=frac("r", ns.r),
        cL=frac("cL", ns.cL),
        cLa=frac("cLa", ns.cLa),
        cA=frac("cA", ns.cA),
        max_degree=frac("max-degree", ns.max_degree),
        fmt=ns.fmt,
        out=ns.out,
        cache_dir=ns.cache_dir,
    )


# ---------------------------------------------------------------------------
# report plumbing


def _check(name: str, ref: str, ok, **details) -> dict:
    status = ok if isinstance(ok, str) else ("pass" if ok else "fail")
    return {"name": name, "paper_ref": ref, "status": status, "details": details}


def _half_degrees(limit) -> List[Fraction]:
    limit = Fraction(limit)
    return [Fraction(t, 2) for t in range(int(2 * limit) + 1)]


def _require_integer_p(cfg: RunConfig, nonzero: bool = False) -> int:
    if cfg.p.denominator != 1:
        raise UsageError(f"this command needs an integer label, got p = {cfg.p}")
    p = int(cfg.p)
    if nonzero and p == 0:
        raise UsageError("this command needs a nonzero integer label")
    return p


def _require_level_zero(cfg: RunConfig, command: str, reason: str) -> None:
    """Reject a nonzero --cA, which the command would otherwise ignore."""
    if cfg.cA != 0:
        raise UsageError(f"{command}: {reason} (level zero), got --cA {cfg.cA}")


def _fock_coords(R: FreeFieldRealization, p, r, degree, vec: FockVector):
    basis = R.basis(p, r, degree)
    index = {b: i for i, b in enumerate(basis)}
    col = [Fraction(0)] * len(basis)
    for b, c in vec.terms.items():
        col[index[b]] = c
    return col


def _realize_module_vector(R: FreeFieldRealization, coords, p, r) -> FockVector:
    vac = R.vacuum_vector(p, r)
    out = FockVector.zero()
    for word, c in coords.items():
        out = out + R.realize_word(word, vac).scale(Fraction(c))
    return out


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


def _mode_symbols(twice_bound: int):
    """Every generator symbol whose doubled mode is at most the bound."""
    syms = []
    for n in range(-(twice_bound // 2), twice_bound // 2 + 1):
        syms.append(alg.L(n))
        syms.append(alg.A(n))
    for t in range(-twice_bound, twice_bound + 1):
        if t % 2:
            syms.append(alg.G(Fraction(t, 2)))
            syms.append(alg.P(Fraction(t, 2)))
    syms.sort(key=alg.sym_key)
    return syms


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
    _require_level_zero(cfg, "relations", "the bracket checks run at cA = 0")
    bound = int(2 * cfg.max_degree)
    syms = _mode_symbols(bound)
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
    for d in _half_degrees(max_degree):
        words = verma_basis(hw, d).words
        cols = [_fock_coords(R, p, r, d, R.realize_word(w, vac)) for w in words]
        rk = rational_rank(Matrix.from_columns(cols)) if cols else 0
        want = simple_graded_dim(hw, d) if negative_integer else len(R.basis(p, r, d))
        rows.append({"degree": str(d), "rank": rk, "expected": want, "ok": rk == want})
    return rows


def cmd_realize(cfg: RunConfig) -> List[dict]:
    """Realized modes against the bracket table, plus module span checks."""
    _require_level_zero(cfg, "realize", "the free-field realization fixes cA = 0")
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


def _odd_singular_checks(R: FreeFieldRealization, p: int, r) -> List[dict]:
    build = R.build_singular_odd(p, r)
    image = R.screening_q(R.vacuum_vector(p, r - _HALF)).scale(-R.cLa).scale_sqrt2()
    checks = [
        _check(
            "singular-odd-explicit",
            "singular-odd-explicit",
            build == image,
            degree=str(Fraction(p, 2)),
            vector=build.to_text(),
        )
    ]
    bad = _annihilation_failures(R, build, Fraction(p, 2))
    checks.append(
        _check("singular-odd-annihilation", "singular-odd-explicit", not bad, failures=bad)
    )
    return checks


def _even_singular_checks(R: FreeFieldRealization, p: int, r) -> List[dict]:
    build = R.build_singular_even(p, r)
    image = R.screening_g(R.vacuum_vector(p, r - 1), twisted=True)
    checks = [
        _check(
            "singular-even-explicit",
            "singular-even-explicit",
            build == image,
            degree=str(p),
            vector=build.to_text(),
        )
    ]
    bad = _annihilation_failures(R, build, Fraction(p))
    checks.append(
        _check("singular-even-annihilation", "singular-even-explicit", not bad, failures=bad)
    )
    return checks


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
                terms=len(vec.terms),
                failures=bad,
            )
        )
    return checks


def _kernel_cross_check(R: FreeFieldRealization, cfg: RunConfig, p: int, build) -> dict:
    """The raising-kernel detector finds the same vector the formula builds."""
    degree = Fraction(p, 2) if p % 2 else Fraction(p)
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa, cfg.cA)
    kern = singular_vectors(hw, degree)
    ok = len(kern) == 1 and _proportional(
        _realize_module_vector(R, kern[0].to_dict(), cfg.p, cfg.r), build
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
    realized = _realize_module_vector(R, vec.to_dict(), cfg.p, cfg.r)
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
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa, cfg.cA)
    cap = min(cfg.max_degree, Fraction(3))
    rows = []
    for d in _half_degrees(cap):
        words = verma_basis(hw, d).words
        cols = [
            _fock_coords(R, cfg.p, cfg.r, p + d, R.realize_word(w, u1)) for w in words
        ]
        rk = rational_rank(Matrix.from_columns(cols)) if cols else 0
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
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa, cfg.cA)
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
        words = verma_basis(hw, delta).words
        span = [
            _fock_coords(R, cfg.p, cfg.r, Fraction(p) - m, R.realize_word(w, u0))
            for w in words
        ]
        target = _fock_coords(R, cfg.p, cfg.r, Fraction(p) - m, img)
        if not in_span(target, Matrix.from_columns(span)):
            failures.append(str(x))
    return _check(
        "raising-into-singular-submodule",
        "subsingular-witness",
        not failures,
        raisings=checked,
        failures=failures,
    )


def _subsingular_checks(cfg: RunConfig, p: int) -> List[dict]:
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
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa, cfg.cA)
    base = Submodule(hw, Fraction(p))
    for vec in singular_vectors(hw, Fraction(p, 2)):
        base.add_generator(vec.to_dict(), Fraction(p, 2))
    reps = subsingular_vectors(hw, Fraction(p), base)
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


def cmd_singular(cfg: RunConfig, kind: str = "singular") -> List[dict]:
    """Build and certify the explicit vectors available at the given label."""
    p = _require_integer_p(cfg)
    if kind == "subsingular":
        if p <= 0 or p % 2 == 0:
            raise UsageError("subsingular builds need a positive odd integer label")
        return _subsingular_checks(cfg, p)
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
        checks = _odd_singular_checks(R, p, cfg.r)
        checks.extend(_family_checks(R, p, cfg.r, (0, 1, 2)))
    else:
        checks = _even_singular_checks(R, p, cfg.r)
        checks.extend(_family_checks(R, p, cfg.r, (1, 2)))
        checks.append(_even_injectivity_check(R, cfg, p))
    checks.append(
        _kernel_cross_check(
            R, cfg, p, R.build_singular_odd(p, cfg.r) if p % 2 else R.build_singular_even(p, cfg.r)
        )
    )
    return checks


# ---------------------------------------------------------------------------
# char / det / diagram


def cmd_char(cfg: RunConfig) -> List[dict]:
    """Predicted simple characters against the Gram-rank dimension oracle."""
    p = _require_integer_p(cfg, nonzero=True)
    hw = pr_to_hw(cfg.p, cfg.r, cfg.cL, cfg.cLa, cfg.cA)
    expected = [(d, simple_graded_dim(hw, d)) for d in _half_degrees(cfg.max_degree)]
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
    dual = pr_to_hw(-cfg.p, -cfg.r, cfg.cL, cfg.cLa, cfg.cA)
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
    _require_level_zero(cfg, "det", "the Gram determinants are taken at cA = 0")
    checks = []
    level = _HALF
    while level <= min(cfg.max_degree, DET_LEVEL_CAP):
        result = det_vanishing_check(level, cfg.cL, cfg.cLa, cfg.r)
        ok = result["match"]
        if level == _HALF:
            ok = ok and sorted(result["computed_roots"]) == ["-1", "1"]
        checks.append(
            _check(f"determinant-locus-{format_rational(level)}", "determinant-locus", ok, **result)
        )
        level += _HALF
    if cfg.max_degree > DET_LEVEL_CAP:
        skipped = [
            format_rational(d)
            for d in _half_degrees(cfg.max_degree)
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


def cmd_diagram(cfg: RunConfig) -> List[dict]:
    """Submodule-generator diagram of the Verma module at an integer label."""
    _require_integer_p(cfg, nonzero=True)
    diagram = embedding_diagram(cfg.p, cfg.r, cfg.max_degree, cfg.cL, cfg.cLa)
    shape = diagram.to_json()
    return [
        _check(
            "embedding-diagram",
            "embedding-diagram",
            True,
            pattern=shape["pattern"],
            nodes=shape["nodes"],
            edges=shape["edges"],
        )
    ]


# ---------------------------------------------------------------------------
# acceptance battery


def _moved_flags(cfg: RunConfig) -> List[str]:
    """The flags, with their values, that set cfg apart from the defaults."""
    default = RunConfig().params()
    return [f"--{k.replace('_', '-')} {v}" for k, v in cfg.params().items() if v != default[k]]


def _pinned_runs(command: str, configs: Sequence[RunConfig]) -> List[tuple]:
    """(command line, checks) for each pinned configuration of a subcommand."""
    return [(" ".join([command] + _moved_flags(cfg)), _COMMANDS[command](cfg)) for cfg in configs]


def _fold(name: str, ref: str, runs: List[tuple], **details) -> dict:
    """One criterion check from the checks of its pinned runs: it passes when
    every one of them passes, and names each failing check with its run."""
    failures = [
        f"{line}: {c['name']}"
        for line, checks in runs
        for c in checks
        if c["status"] == "fail"
    ]
    return _check(name, ref, not failures, **details, failures=_clip(failures))


def _criterion_01() -> dict:
    runs = _pinned_runs("relations", [RunConfig()])
    antisymmetry = runs[0][1][0]
    return _fold(
        "criterion-01", "bracket-table", runs, symbols=antisymmetry["details"]["symbols"]
    )


def _criterion_02(deepen) -> dict:
    R = FreeFieldRealization(Fraction(11, 2), Fraction(2, 3))
    labels = [
        (Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(1, 3)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(-2), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 3)),
    ]
    rows = []
    bad = []
    for p, r in labels:
        rep = R.realized_bracket_report(p, r, max_twice_mode=6, max_degree=3 + deepen)
        rows.append(
            {
                "label": f"({format_rational(p)}, {format_rational(r)})",
                "checked": rep["checked"],
                "ok": rep["ok"],
            }
        )
        bad.extend(list(m) for m in rep["mismatches"])
    return _check(
        "criterion-02",
        "fock-realization",
        not bad,
        labels=rows,
        failures=_clip(bad),
    )


#: checks that certify one explicit vector each
_VECTOR_CHECKS = ("singular-odd-annihilation", "singular-even-annihilation", "descent-operator")


def _criterion_03() -> dict:
    runs = _pinned_runs(
        "singular", [RunConfig(p=Fraction(p)) for p in (1, 3, 5, 2, 4, -1, -2, -3)]
    )
    vectors = sum(
        c["name"] in _VECTOR_CHECKS or c["name"].startswith("singular-family-")
        for _, checks in runs
        for c in checks
    )
    return _fold("criterion-03", "singular-family", runs, vectors=vectors)


def _criterion_04() -> dict:
    runs = _pinned_runs("subsingular", [RunConfig(p=Fraction(p)) for p in (1, 3)])
    return _fold("criterion-04", "subsingular-witness", runs)


def _criterion_05(deepen) -> dict:
    r = Fraction(5, 7)
    labels = (1, -1, 2, -2, 3, -3)
    runs = _pinned_runs(
        "char", [RunConfig(p=Fraction(p), r=r, max_degree=4 + deepen) for p in labels]
    )
    rows = [
        {
            "p": p,
            "dims": [e["expected"] for e in checks[0]["details"]["entries"]],
            "ok": all(c["status"] == "pass" for c in checks),
        }
        for p, (_, checks) in zip(labels, runs)
    ]
    ok = all(row["ok"] for row in rows)
    return _check("criterion-05", "character-match", ok, generic_r=format_rational(r), rows=rows)


def _criterion_06(deepen) -> dict:
    runs = _pinned_runs(
        "char", [RunConfig(p=Fraction(p), max_degree=3 + deepen) for p in (1, 2, 3)]
    )
    return _fold("criterion-06", "contragredient-duality", runs)


def _criterion_07() -> dict:
    runs = _pinned_runs("det", [RunConfig(max_degree=Fraction(2))])
    return _fold("criterion-07", "determinant-locus", runs)


#: the generator modes the long screening is checked to commute with
_SCREENING_GEN_MODES = (
    ("L", Fraction(-1)), ("L", Fraction(1)), ("A", Fraction(-1)),
    ("G", Fraction(-1, 2)), ("G", Fraction(1, 2)), ("P", Fraction(-1, 2)),
)


def _criterion_08(deepen) -> dict:
    R = FreeFieldRealization()
    cap = Fraction(3) + deepen
    failures = []

    def graded_vectors(p, r):
        for d in _half_degrees(cap):
            for i, b in enumerate(R.basis(p, r, d)):
                yield FockVector({b: Fraction(1)}, int(2 * d) % 2)

    p, r = Fraction(1), Fraction(1, 3)
    for v in graded_vectors(p, r):
        if not R.screening_q(R.screening_q(v)).is_zero():
            failures.append("charge-square")
            break
    modes = [Fraction(k) for k in range(-3, 4)]
    for i, m in enumerate(modes):
        for n in modes[i:]:
            for v in graded_vectors(p, r):
                if not (R.a_mode(m, R.a_mode(n, v)) + R.a_mode(n, R.a_mode(m, v))).is_zero():
                    failures.append(f"anticommutator a({m}), a({n})")
                    break
    for v in graded_vectors(p, r):
        if not (R.screening_q(R.screening_g(v)) - R.screening_g(R.screening_q(v))).is_zero():
            failures.append("charge-screening commutator")
            break
    failures.extend(_kernel_commutation_failures(R, p, r, cap))
    twisted_modes = [Fraction(t, 2) for t in range(-5, 6, 2)]
    pt, rt = Fraction(2), Fraction(1, 2)
    for i, m in enumerate(twisted_modes):
        for n in twisted_modes[i:]:
            for v in graded_vectors(pt, rt):
                if not (R.a_mode(m, R.a_mode(n, v)) + R.a_mode(n, R.a_mode(m, v))).is_zero():
                    failures.append(f"twisted anticommutator a({m}), a({n})")
                    break
    for v in graded_vectors(pt, rt):
        for kind, m in _SCREENING_GEN_MODES:
            d = R.screening_g(R.generator_mode(kind, m, v), twisted=True) - R.generator_mode(
                kind, m, R.screening_g(v, twisted=True)
            )
            if not d.is_zero():
                failures.append(f"twisted screening vs {kind}({m})")
    return _check("criterion-08", "screening-algebra", not failures, failures=_clip(failures))


def _kernel_commutation_failures(R: FreeFieldRealization, p, r, cap) -> List[str]:
    """The untwisted screening commutes with the action on the charge kernel."""
    failures = []
    for d in _half_degrees(cap):
        basis = R.basis(p, r, d)
        if not basis:
            continue
        cols = [
            _fock_coords(R, p, r + _HALF, d + _HALF, R.screening_q(FockVector({b: Fraction(1)})))
            for b in basis
        ]
        for kv in kernel_basis(Matrix.from_columns(cols)):
            terms = {b: Fraction(c) for b, c in zip(basis, kv) if c}
            v = FockVector(terms, int(2 * d) % 2)
            for kind, m in _SCREENING_GEN_MODES:
                defect = R.screening_g(R.generator_mode(kind, m, v)) - R.generator_mode(
                    kind, m, R.screening_g(v)
                )
                if not defect.is_zero():
                    failures.append(f"kernel screening vs {kind}({m}) at degree {d}")
    return failures


def _criterion_09() -> dict:
    r = Fraction(1, 3)
    cap = Fraction(3)
    failures = []
    cfg = RunConfig(p=Fraction(2), r=r)
    R = FreeFieldRealization()
    inj = _even_injectivity_check(R, cfg, 2)
    if inj["status"] != "pass":
        failures.append("free action on the even singular vector")
    hw2 = pr_to_hw(2, r)
    for d in _half_degrees(cap):
        want = kostant_p2(d - 2) if d >= 2 else 0
        if maximal_submodule_dim(hw2, d) != want:
            failures.append(f"shifted dims at degree {d}")
    hw1 = pr_to_hw(1, r)
    base = Submodule(hw1, cap)
    for vec in singular_vectors(hw1, _HALF):
        base.add_generator(vec.to_dict(), _HALF)
    reps = subsingular_vectors(hw1, Fraction(1), base)
    if len(reps) != 1:
        failures.append(f"subsingular detection found {len(reps)}")
    else:
        span = Submodule(hw1, cap)
        span.add_generator(reps[0].to_dict(), Fraction(1))
        for d in _half_degrees(cap):
            if span.graded_dim(d) != maximal_submodule_dim(hw1, d):
                failures.append(f"subsingular closure at degree {d}")
    return _check("criterion-09", "module-embedding", not failures, failures=failures)


_CHAIN_NEG1 = {
    "nodes": [("0", "highest")] + [(format_rational(Fraction(t, 2)), "singular") for t in range(1, 9)],
    "edges": [("v", "sing@1/2")]
    + [
        (f"sing@{format_rational(Fraction(t, 2))}", f"sing@{format_rational(Fraction(t + 1, 2))}")
        for t in range(1, 8)
    ],
}

_CHAIN_NEG2 = {
    "nodes": [("0", "highest"), ("2", "singular"), ("4", "singular")],
    "edges": [("v", "sing@2"), ("sing@2", "sing@4")],
}

_LOCAL_POS1 = {
    "nodes": [("0", "highest"), ("1/2", "singular"), ("1", "subsingular")],
    "edges": [("v", "sub@1"), ("sub@1", "sing@1/2")],
}


def _diagram_shape(diagram):
    shape = diagram.to_json()
    nodes = [(n["degree"], n["kind"]) for n in shape["nodes"]]
    edges = sorted((e["from"], e["to"]) for e in shape["edges"])
    return shape["pattern"], nodes, edges


def _criterion_10() -> dict:
    failures = []
    pattern, nodes, edges = _diagram_shape(embedding_diagram(-1, Fraction(1, 3), 4))
    if pattern != "singular-chain" or nodes != _CHAIN_NEG1["nodes"] or edges != sorted(_CHAIN_NEG1["edges"]):
        failures.append("half-integer chain")
    pattern, nodes, edges = _diagram_shape(embedding_diagram(-2, Fraction(3, 4), 4))
    if pattern != "singular-chain" or nodes != _CHAIN_NEG2["nodes"] or edges != sorted(_CHAIN_NEG2["edges"]):
        failures.append("even chain")
    pattern, nodes, edges = _diagram_shape(embedding_diagram(1, Fraction(1, 3), 2))
    local_nodes = [nd for nd in nodes if Fraction(parse_rational(nd[0])) <= 1]
    if pattern != "interleaved-chain" or local_nodes != _LOCAL_POS1["nodes"]:
        failures.append("interleaved local pattern")
    if not set(_LOCAL_POS1["edges"]) <= set(edges):
        failures.append("interleaved local edges")
    return _check("criterion-10", "embedding-diagram", not failures, failures=failures)


def _criterion_11() -> dict:
    R = FreeFieldRealization()
    dims = R.kernel_intersection_dims(-1, Fraction(0), Fraction(3, 2))
    want = [(Fraction(0), 1), (_HALF, 1), (Fraction(1), 1), (Fraction(3, 2), 3)]
    ok = [(d, n) for d, n in dims] == want
    return _check(
        "criterion-11",
        "kernel-intersection",
        "pass" if ok else "warn",
        dims=[[format_rational(d), n] for d, n in dims],
        note="reported only; the underlying claim is outside this battery's scope",
    )


def cmd_acceptance(cfg: RunConfig) -> List[dict]:
    """The pinned acceptance battery; deeper --max-degree widens some sweeps."""
    moved = [flag for flag in _moved_flags(cfg) if not flag.startswith("--max-degree")]
    if moved:
        raise UsageError(f"acceptance pins its own labels; {', '.join(moved)} would be ignored")
    deepen = max(Fraction(0), cfg.max_degree - 4)
    return [
        _criterion_01(),
        _criterion_02(deepen),
        _criterion_03(),
        _criterion_04(),
        _criterion_05(deepen),
        _criterion_06(deepen),
        _criterion_07(),
        _criterion_08(deepen),
        _criterion_09(),
        _criterion_10(),
        _criterion_11(),
    ]


# ---------------------------------------------------------------------------
# report rendering, caching, entry point

_COMMANDS: Dict[str, Callable[[RunConfig], List[dict]]] = {
    "relations": cmd_relations,
    "realize": cmd_realize,
    "singular": cmd_singular,
    "subsingular": lambda cfg: cmd_singular(cfg, kind="subsingular"),
    "char": cmd_char,
    "det": cmd_det,
    "diagram": cmd_diagram,
    "acceptance": cmd_acceptance,
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


def _cache_key(command: str, cfg: RunConfig) -> str:
    payload = {"command": command, "params": cfg.params(), "version": _CACHE_VERSION}
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
        isinstance(c, dict) and list(c) == ["name", "paper_ref", "status", "details"]
        for c in checks
    ):
        return None
    return checks


def _write_atomically(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path,
    so a reader never sees a half-written entry."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", default="1", help="module label numerator parameter (rational a/b)")
    common.add_argument("--r", default="1/3", help="module label shift parameter (rational a/b)")
    common.add_argument("--cL", default="11/2", help="even central value (rational a/b)")
    common.add_argument("--cLa", default="2/3", help="mixed central value (rational a/b, nonzero)")
    common.add_argument("--cA", default="0", help="abelian central value (rational a/b)")
    common.add_argument("--max-degree", default="4", dest="max_degree", help="degree cutoff (half-integer n/2)")
    common.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--cache-dir", dest="cache_dir", help="directory for cached command results")

    parser = argparse.ArgumentParser(
        prog="shvkernel",
        description="exact verification suites for a level-zero super current algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "relations": "bracket antisymmetry and Jacobi identity sweeps",
        "realize": "free-field modes against the bracket table, with span checks",
        "singular": "build and certify explicit singular vectors",
        "subsingular": "build and certify the subsingular vector (odd labels)",
        "char": "simple characters against the rank oracle, with duality",
        "det": "Gram determinant vanishing loci, symbolic in the label",
        "diagram": "submodule generator diagram of the Verma module",
        "acceptance": "the full pinned verification battery",
    }
    for name, desc in descriptions.items():
        sub.add_parser(name, parents=[common], help=desc, description=desc)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = build_report(ns.command, cfg, checks, elapsed_ms)
    rendered = render_json(report) if cfg.fmt == "json" else render_text(report)
    if cfg.out:
        Path(cfg.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 1 if any(c["status"] == "fail" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
