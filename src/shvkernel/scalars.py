"""Exact scalar arithmetic: rationals and polynomials in the structure parameters.

Every quantity in the kernel is either a plain rational number (specialized mode)
or a polynomial in the five structure parameters

    cL   -- central charge of the Virasoro part
    cA   -- central charge of the Heisenberg part (zero at level zero)
    cLa  -- mixed central charge
    r    -- spectral parameter of the highest weight family
    p    -- integrality parameter of the highest weight family

No floats, ever.  Polynomials are sparse dicts mapping exponent tuples (one slot
per parameter, in the fixed order above) to ``fractions.Fraction`` coefficients.

Every sparse linear combination in the kernel (polynomial terms, PBW words,
Fock states) is summed by one accumulator, ``add_scaled``, which never stores
a zero.  Truthiness is the one zero test for every exact scalar: an int, a
Fraction and a ParamPolynomial are false exactly when they are zero.  Every
list of rationals that is kept in integers is brought over one common
denominator by one helper, ``over_one_den``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Rational = Fraction

PARAMETERS: Tuple[str, ...] = ("cL", "cA", "cLa", "r", "p")
_PARAM_INDEX = {name: i for i, name in enumerate(PARAMETERS)}
_NPARAMS = len(PARAMETERS)
_ZERO_EXP = (0,) * _NPARAMS

Expvec = Tuple[int, ...]


def add_scaled(out: dict, terms: Iterable[Tuple[object, object]], scale) -> None:
    """out += scale * terms, over (key, coefficient) pairs: a new key is
    stored as scale * c, and a key whose sum cancels is deleted.  An int
    scale of 1 or -1 adds c or -c itself, with no multiplication."""
    if type(scale) is not int or not (scale == 1 or scale == -1):
        terms = [(key, scale * c) for key, c in terms]
    elif scale == -1:
        terms = [(key, -c) for key, c in terms]
    for key, c in terms:
        prev = out.get(key)
        nv = c if prev is None else prev + c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)


def over_one_den(values) -> Tuple[List[int], int]:
    """Rationals (ints or Fractions, a collection read twice) as ints over
    one positive denominator, the lcm of theirs: (ints, den), with gcd(den,
    *ints) = 1.  No values give ([], 1)."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class ParamPolynomial:
    """Sparse multivariate polynomial over Q in the fixed parameter set."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expvec, Fraction] | None = None):
        clean: Dict[Expvec, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _as_fraction(coeff)
                if c:
                    if len(exp) != _NPARAMS or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent vector {exp!r}")
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def const(cls, value) -> "ParamPolynomial":
        v = _as_fraction(value)
        return cls({_ZERO_EXP: v} if v else {})

    @classmethod
    def variable(cls, name: str) -> "ParamPolynomial":
        if name not in _PARAM_INDEX:
            raise KeyError(f"unknown parameter {name!r}; choose from {PARAMETERS}")
        exp = [0] * _NPARAMS
        exp[_PARAM_INDEX[name]] = 1
        return cls({tuple(exp): Fraction(1)})

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(e == _ZERO_EXP for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(_ZERO_EXP, Fraction(0))

    def degree_in(self, name: str) -> int:
        i = _PARAM_INDEX[name]
        return max((e[i] for e in self.terms), default=0)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ParamPolynomial | None":
        if isinstance(other, ParamPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPolynomial.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        add_scaled(out, o.terms.items(), 1)
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[Expvec, Fraction] = {}
        for e1, c1 in self.terms.items():
            add_scaled(
                out, ((tuple(a + b for a, b in zip(e1, e2)), c2) for e2, c2 in o.terms.items()), c1
            )
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ParamPolynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # mutable dict inside; never use as a key

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            factors = []
            for name, e in zip(PARAMETERS, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append("*".join(factors))
            elif coeff == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(str(coeff) + "*" + "*".join(factors))
        text = " + ".join(bits)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"ParamPolynomial({self})"


#: Anything the kernel treats as an exact scalar.
Scalar = Union[Fraction, ParamPolynomial]


# ---------------------------------------------------------------------------
# rational root extraction


def _divisors(n: int) -> Iterable[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_in(value: Scalar, name: str) -> frozenset:
    """All rational roots of a scalar viewed as a univariate polynomial in ``name``.

    Raises ValueError if the scalar is identically zero (every value is a
    root) or if it genuinely involves other parameters.
    """
    if name not in _PARAM_INDEX:
        raise KeyError(f"unknown parameter {name!r}")
    if not isinstance(value, (int, Fraction, ParamPolynomial)):
        raise TypeError(f"not a scalar: {value!r}")
    if not value:
        raise ValueError("the zero polynomial has every rational as a root")
    if not isinstance(value, ParamPolynomial):
        return frozenset()
    idx = _PARAM_INDEX[name]
    coeffs: Dict[int, Fraction] = {}
    for exp, c in value.terms.items():
        if any(e for j, e in enumerate(exp) if j != idx and e):
            raise ValueError(f"polynomial is not univariate in {name}")
        coeffs[exp[idx]] = c
    roots = set()
    low = min(coeffs)
    if low > 0:
        roots.add(Fraction(0))
        coeffs = {k - low: v for k, v in coeffs.items()}
    if len(coeffs) == 1:
        return frozenset(roots)  # monomial: only the stripped root
    ints = dict(zip(coeffs, over_one_den(coeffs.values())[0]))
    # dividing out the content changes no root, and shrinks the numbers
    # whose divisors _divisors finds by trial division
    content = math.gcd(*ints.values())
    ints = {k: c // content for k, c in ints.items()}
    deg = max(ints)
    # highest coefficient first, for Horner
    desc = [ints.get(k, 0) for k in range(deg, -1, -1)]

    def vanishes_at(x: Fraction) -> bool:
        # q^deg * f(p/q) = sum a_k p^k q^(deg-k), by Horner in p
        pn, qn = x.numerator, x.denominator
        acc, qk = desc[0], 1
        for c in desc[1:]:
            qk *= qn
            acc = acc * pn + c * qk
        return acc == 0

    tops = _divisors(desc[0])
    for pn in _divisors(ints[0]):
        for qn in tops:
            cand = Fraction(pn, qn)
            for root in (cand, -cand):
                if root not in roots and vanishes_at(root):
                    roots.add(root)
    return frozenset(roots)


# ---------------------------------------------------------------------------
# parsing / formatting

#: Generic specialization used throughout the test battery: far away from every
#: degenerate locus (cLa != 0, and r irrational-ish enough that no accidental
#: integrality appears at small degrees).
DEFAULT_SPECIALIZATION: Dict[str, Fraction] = {
    "cL": Fraction(11, 2),
    "cA": Fraction(0),
    "cLa": Fraction(2, 3),
    "r": Fraction(1, 3),
}


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b', with an optional sign and surrounding spaces, into
    an exact Fraction.  Raises ValueError on any other text."""
    m = _RATIONAL.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = _as_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
