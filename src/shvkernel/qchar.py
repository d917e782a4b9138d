"""Graded characters as exactly truncated q-series with half-integer exponents.

Exponents live in (1/2)Z and are stored as twice-integers; coefficients are
plain ints (graded dimensions).  A series knows its truncation degree and
refuses to answer questions beyond it -- silent truncation bugs are exactly the
failure mode this module exists to rule out.

The lowest weight q^h is carried as an opaque ``offset`` (None = formal h),
never expanded into the series itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from .scalars import format_rational
from .shv_algebra import Partition, doubled, partitions_of


class QSeries:
    """Truncated power series sum_d c_d q^(offset + d), d in (1/2)Z>=0."""

    __slots__ = ("offset", "coeffs", "truncation_twice")

    def __init__(
        self,
        coeffs: Mapping[int, int],
        truncation,
        offset=None,
    ):
        self.truncation_twice = doubled(truncation)
        self.coeffs = {
            t: int(c)
            for t, c in coeffs.items()
            if c and 0 <= t <= self.truncation_twice
        }
        self.offset = offset

    @property
    def truncation(self) -> Fraction:
        return Fraction(self.truncation_twice, 2)

    def coefficient(self, degree) -> int:
        t = doubled(degree)
        if t > self.truncation_twice:
            raise ValueError(
                f"degree {degree} beyond truncation {self.truncation}"
            )
        if t < 0:
            return 0
        return self.coeffs.get(t, 0)

    def dims(self) -> List[Tuple[Fraction, int]]:
        return [
            (Fraction(t, 2), self.coeffs.get(t, 0))
            for t in range(self.truncation_twice + 1)
        ]

    def mul_polynomial(self, poly: Mapping[int, int]) -> "QSeries":
        """Multiply by a finite polynomial {twice_exponent >= 0: int coefficient}."""
        out = _mul_dict(self.coeffs, poly, self.truncation_twice)
        return QSeries(out, self.truncation, self.offset)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.truncation_twice == other.truncation_twice
            and self.offset == other.offset
        )

    def to_text(self) -> str:
        bits = []
        for t in sorted(self.coeffs):
            c = self.coeffs[t]
            if t == 0:
                bits.append(str(c))
            else:
                q = "q" if t == 2 else f"q^{Fraction(t, 2)}"
                bits.append(q if c == 1 else f"{c}*{q}")
        body = " + ".join(bits) if bits else "0"
        if self.offset is None:
            return f"q^h * ({body})"
        if self.offset == 0:
            return body
        return f"q^{self.offset} * ({body})"

    def __repr__(self):
        return f"QSeries({self.to_text()})"


def _geometric_double_inverse(twice_k: int, T: int) -> Dict[int, int]:
    """(1 - q^k)^(-2) truncated: coefficients m+1 at q^(km)."""
    out = {}
    m = 0
    while m * twice_k <= T:
        out[m * twice_k] = m + 1
        m += 1
    return out


def char_verma(truncation) -> QSeries:
    """Character of the rank-(2|2) universal module, without the q^h prefactor.

    Two even generator families contribute 1/(1-q^k)^2 for every positive
    integer k, two odd families contribute (1+q^(k-1/2))^2.
    """
    T = doubled(truncation)
    if T < 0:
        raise ValueError("truncation must be >= 0")
    series = QSeries({0: 1}, truncation)
    k = 1
    while 2 * k <= T:
        series = QSeries(
            _mul_dict(series.coeffs, _geometric_double_inverse(2 * k, T), T),
            truncation,
        )
        k += 1
    k = 1
    while 2 * k - 1 <= T:
        odd = {0: 1, 2 * k - 1: 2}
        if 2 * (2 * k - 1) <= T:
            odd[2 * (2 * k - 1)] = 1
        series = series.mul_polynomial(odd)
        k += 1
    return series


def _mul_dict(a: Mapping[int, int], b: Mapping[int, int], T: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            t = t1 + t2
            if t <= T:
                out[t] = out.get(t, 0) + c1 * c2
    return out


def char_simple(p, truncation) -> QSeries:
    """Character of the irreducible quotient for the weight family labelled p.

    For nonzero integer p the full module has a unique proper maximal
    submodule and the character is (1 - q^(|p|/2)) [p odd] or (1 - q^|p|)
    [p even] times the universal character.  p = 0 sits in the degenerate
    family and is rejected, as are non-integer labels (those modules are
    already irreducible and have no reduced character).
    """
    p = Fraction(p)
    if p == 0:
        raise ValueError("p = 0 is the degenerate family; no character formula here")
    if p.denominator != 1:
        raise ValueError(f"p must be a nonzero integer, got {p}")
    base = char_verma(truncation)
    ap = abs(int(p))
    twice_gap = ap if ap % 2 else 2 * ap
    return base.mul_polynomial({0: 1, twice_gap: -1})


def compare_dims(series: QSeries, expected: Iterable[Tuple] | Mapping) -> dict:
    """Compare a character's coefficients against expected graded dimensions.

    ``expected`` is a mapping degree -> dim or an iterable of (degree, dim).
    Every requested degree must be within the truncation.
    """
    if isinstance(expected, Mapping):
        items = list(expected.items())
    else:
        items = list(expected)
    covered = {doubled(d) for d, _ in items}
    missing = [
        Fraction(t, 2)
        for t in range(series.truncation_twice + 1)
        if t not in covered
    ]
    if missing:
        raise ValueError(f"expected dims missing degrees {missing}")
    entries = []
    ok_all = True
    for degree, dim in items:
        actual = series.coefficient(degree)
        ok = actual == int(dim)
        ok_all = ok_all and ok
        entries.append(
            {
                "degree": format_rational(Fraction(degree)),
                "expected": int(dim),
                "actual": actual,
                "ok": ok,
            }
        )
    return {"entries": entries, "pass": ok_all}


# ---------------------------------------------------------------------------
# complete homogeneous (Schur polynomial) expansions of exp sums


def _z_mu(parts: Tuple[int, ...]) -> int:
    z = 1
    mult: Dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for m, a in mult.items():
        fact = 1
        for i in range(2, a + 1):
            fact *= i
        z *= (m**a) * fact
    return z


def schur_expand(r: int, scale=Fraction(1)) -> Dict[Partition, object]:
    """S_r in the power sums, each power sum x(-n) carrying a factor
    ``scale``: {mu: scale^len(mu) / z_mu} over the partitions mu of r.

    These are the coefficients of exp(sum_n x(-n) z^n / n) = sum_r S_r z^r;
    z_mu is the standard centralizer size prod_m m^(a_m) a_m!.  S_r is zero
    for r < 0.
    """
    terms: Dict[Partition, object] = {}
    for mu in partitions_of(r):
        coeff = Fraction(1, _z_mu(mu.parts))
        if not (isinstance(scale, Fraction) and scale == 1):
            coeff = coeff * scale ** len(mu.parts)
        terms[mu] = coeff
    return terms
