"""Exact scalar arithmetic: rationals and rational functions in the structure parameters.

Every quantity in the kernel is either a plain rational number (specialized mode)
or a polynomial / ratio of polynomials in the five structure parameters

    cL   -- central charge of the Virasoro part
    cA   -- central charge of the Heisenberg part (zero at level zero)
    cLa  -- mixed central charge
    r    -- spectral parameter of the highest weight family
    p    -- integrality parameter of the highest weight family

No floats, ever.  Polynomials are sparse dicts mapping exponent tuples (one slot
per parameter, in the fixed order above) to ``fractions.Fraction`` coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Rational = Fraction

PARAMETERS: Tuple[str, ...] = ("cL", "cA", "cLa", "r", "p")
_PARAM_INDEX = {name: i for i, name in enumerate(PARAMETERS)}
_NPARAMS = len(PARAMETERS)
_ZERO_EXP = (0,) * _NPARAMS

Expvec = Tuple[int, ...]


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

    def is_zero(self) -> bool:
        return not self.terms

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
        for exp, c in o.terms.items():
            nv = out.get(exp, Fraction(0)) + c
            if nv:
                out[exp] = nv
            else:
                out.pop(exp, None)
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
            for e2, c2 in o.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(exp, Fraction(0)) + c1 * c2
                if nv:
                    out[exp] = nv
                else:
                    out.pop(exp, None)
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

    # -- exact division -----------------------------------------------------

    def divexact(self, other: "ParamPolynomial") -> "ParamPolynomial":
        """Return self / other, raising ValueError unless the division is exact.

        Greedy leading-term elimination in lex order.  When the division is
        exact this terminates with zero remainder regardless of monomial order;
        otherwise it hits a non-divisible leading monomial or a nonzero final
        remainder and raises.
        """
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return ParamPolynomial()
        if o.is_constant():
            c = o.constant_value()
            return ParamPolynomial({e: v / c for e, v in self.terms.items()})
        rem = dict(self.terms)
        out: Dict[Expvec, Fraction] = {}
        lead_g = max(o.terms)
        cg = o.terms[lead_g]
        while rem:
            lead_r = max(rem)
            q = tuple(a - b for a, b in zip(lead_r, lead_g))
            if any(e < 0 for e in q):
                raise ValueError("inexact polynomial division")
            cq = rem[lead_r] / cg
            out[q] = out.get(q, Fraction(0)) + cq
            for mono, c in o.terms.items():
                m = tuple(a + b for a, b in zip(q, mono))
                nv = rem.get(m, Fraction(0)) - cq * c
                if nv:
                    rem[m] = nv
                else:
                    rem.pop(m, None)
        return ParamPolynomial(out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        needed = set()
        for exp in self.terms:
            for name, e in zip(PARAMETERS, exp):
                if e:
                    needed.add(name)
        missing = sorted(needed - set(assignment))
        if missing:
            raise KeyError(f"missing parameter values for {missing}")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            v = coeff
            for name, e in zip(PARAMETERS, exp):
                if e:
                    v *= _as_fraction(assignment[name]) ** e
            total += v
        return total

    def substitute(self, assignment: Mapping[str, Fraction]) -> "ParamPolynomial":
        """Partially evaluate: substitute the given parameters, keep the rest."""
        out: Dict[Expvec, Fraction] = {}
        for exp, coeff in self.terms.items():
            v = coeff
            new_exp = list(exp)
            for name, val in assignment.items():
                i = _PARAM_INDEX[name]
                if exp[i]:
                    v *= _as_fraction(val) ** exp[i]
                    new_exp[i] = 0
            key = tuple(new_exp)
            nv = out.get(key, Fraction(0)) + v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        return ParamPolynomial(out)

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


class RatFunc:
    """Ratio of two ParamPolynomials.  Collapses to denominator 1 when exact."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        n = ParamPolynomial._coerce(num)
        if n is None:
            raise TypeError(f"bad numerator {num!r}")
        d = ParamPolynomial.const(1) if den is None else ParamPolynomial._coerce(den)
        if d is None:
            raise TypeError(f"bad denominator {den!r}")
        if d.is_zero():
            raise ZeroDivisionError("zero denominator")
        if n.is_zero():
            d = ParamPolynomial.const(1)
        else:
            try:
                n = n.divexact(d)
                d = ParamPolynomial.const(1)
            except ValueError:
                lc = d.terms[max(d.terms)]
                if lc != 1:
                    n = ParamPolynomial({e: c / lc for e, c in n.terms.items()})
                    d = ParamPolynomial({e: c / lc for e, c in d.terms.items()})
        self.num = n
        self.den = d

    @classmethod
    def variable(cls, name: str) -> "RatFunc":
        return cls(ParamPolynomial.variable(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    @staticmethod
    def _coerce(other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, ParamPolynomial)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

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
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        d = self.den.evaluate(assignment)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at this specialization")
        return self.num.evaluate(assignment) / d

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


#: Anything the kernel treats as an exact scalar.
Scalar = Union[Fraction, ParamPolynomial, RatFunc]


def is_zero(x) -> bool:
    """The zero test for any exact scalar: int, Fraction or symbolic."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def evaluate(value: Scalar, assignment: Mapping[str, Fraction]) -> Fraction:
    """Evaluate any scalar at an exact parameter assignment."""
    if isinstance(value, (int, Fraction)):
        return _as_fraction(value)
    if isinstance(value, (ParamPolynomial, RatFunc)):
        return value.evaluate(assignment)
    raise TypeError(f"not a scalar: {value!r}")


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
    if isinstance(value, RatFunc):
        value = value.num if value.den.is_constant() else None
        if value is None:
            raise ValueError("rational function with nontrivial denominator")
    if isinstance(value, (int, Fraction)):
        if value == 0:
            raise ValueError("the zero polynomial has every rational as a root")
        return frozenset()
    if not isinstance(value, ParamPolynomial):
        raise TypeError(f"not a scalar: {value!r}")
    if value.is_zero():
        raise ValueError("the zero polynomial has every rational as a root")
    idx = _PARAM_INDEX[name]
    coeffs: Dict[int, Fraction] = {}
    for exp, c in value.terms.items():
        if any(e for j, e in enumerate(exp) if j != idx and e):
            raise ValueError(f"polynomial is not univariate in {name}")
        coeffs[exp[idx]] = coeffs.get(exp[idx], Fraction(0)) + c
    coeffs = {k: v for k, v in coeffs.items() if v}
    roots = set()
    low = min(coeffs)
    if low > 0:
        roots.add(Fraction(0))
        coeffs = {k - low: v for k, v in coeffs.items()}
    if len(coeffs) == 1:
        return frozenset(roots)  # monomial: only the stripped root
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    ints = {k: int(c * scale) for k, c in coeffs.items()}
    a0 = ints[0]
    atop = ints[max(ints)]

    def value_at(x: Fraction) -> Fraction:
        return sum((c * x**k for k, c in coeffs.items()), Fraction(0))

    for pn in _divisors(a0):
        for qn in _divisors(atop):
            cand = Fraction(pn, qn)
            for root in (cand, -cand):
                if root not in roots and value_at(root) == 0:
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


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' into an exact Fraction.  Raises ValueError on junk."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = _as_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
