"""Fock states and vectors of the free field realization.

States live in Fock modules indexed by a lattice point gamma = x_c*c + x_d*d,
where the two boson fields c, d pair as <c,d> = 2, <c,c> = <d,d> = 0, and the
fermion pair psi^+/psi^- carries half-odd modes.  A Fock basis vector is a word

    psi^+ block | psi^- block | d block | c block

acting on the sector vacuum; fermion letters are strictly decreasing (stored as
positive twice-values, most negative mode first), boson letters are partitions.

States are dict keys wherever vectors are summed, and freefield hashes each
state a realized column meets once, to intern it as an int id on which its
columns compose.  So they are built for cheap hashing: a FockBasisVector is a
named tuple (sector, psip, psim, d_part, c_part) whose hash and equality run
in C, and its sector, a LatticePoint of two Fractions, computes its hash once
at construction and compares by identity first.  The hot paths build new
states straight from the five fields.

The free modes c(n), d(n), psi^+(s) and psi^-(s) act on one basis vector at a
time and return (state, coefficient) hits; freefield composes them into the
realized generators, the lattice operators and the screenings.  The psi^-
letters are one helper on the fermion blocks (_psi_minus_letters), which
_psi_minus calls and freefield's screening current calls to place its
template entries as one state each.

A FockVector holds int numerators over one positive denominator, reduced, so
its sums, scalings and comparisons run on ints and the producers in freefield
build that form directly; the {state: Fraction} view (terms) is built only
when it is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .scalars import add_scaled, over_one_den


class CosetError(ValueError):
    """A mode index incompatible with the sector's momentum coset."""


class LatticePoint:
    """A lattice point x_c*c + x_d*d.  Immutable; its hash is computed once,
    because every Fock state carries one and states are hashed constantly."""

    __slots__ = ("x_c", "x_d", "_hash")

    def __init__(self, x_c: Fraction, x_d: Fraction):
        object.__setattr__(self, "x_c", x_c)
        object.__setattr__(self, "x_d", x_d)
        object.__setattr__(self, "_hash", hash((x_c, x_d)))

    def __setattr__(self, name, value):
        raise AttributeError(f"LatticePoint is immutable: cannot set {name}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LatticePoint):
            return NotImplemented
        return self._hash == other._hash and self.x_c == other.x_c and self.x_d == other.x_d

    def __repr__(self):
        return f"LatticePoint(x_c={self.x_c!r}, x_d={self.x_d!r})"

    def shifted_c(self, amount) -> "LatticePoint":
        return LatticePoint(self.x_c + Fraction(amount), self.x_d)

    def __str__(self):
        return f"({self.x_c})c + ({self.x_d})d"


class FockBasisVector(NamedTuple):
    """A letter word over a sector vacuum, as the plain tuple
    (sector, psip, psim, d_part, c_part), so hashing and equality run in C."""

    sector: LatticePoint
    psip: Tuple[int, ...] = ()   # twice-values, strictly decreasing
    psim: Tuple[int, ...] = ()
    d_part: Tuple[int, ...] = ()  # weakly decreasing positive modes
    c_part: Tuple[int, ...] = ()

    def to_text(self) -> str:
        bits = []
        for tv in self.psip:
            bits.append(f"psi+(-{Fraction(tv,2)})")
        for tv in self.psim:
            bits.append(f"psi-(-{Fraction(tv,2)})")
        for m in self.d_part:
            bits.append(f"d(-{m})")
        for m in self.c_part:
            bits.append(f"c(-{m})")
        word = "".join(bits) if bits else "1"
        return f"{word}|{self.sector}>"


#: builds a state from its five fields in one C call, for the hot paths
_state = partial(tuple.__new__, FockBasisVector)

_ZERO = Fraction(0)


def _insert_sorted_desc(parts: Tuple[int, ...], value: int) -> Tuple[int, ...]:
    i = 0
    while i < len(parts) and parts[i] >= value:
        i += 1
    return parts[:i] + (value,) + parts[i:]


# Free modes return (state, coefficient) hits.  Coefficients are small ints
# (fermion signs, boson pairings) or a zero mode's Fraction pairing 2*x_c or
# 2*x_d.  Free-mode images are summed by scalars.add_scaled, and FockVector
# stores int numerators over one denominator.  The realized columns call no
# zero mode: they take its pairing from the sector's integer weights, so
# their hits stay ints.
Hit = Tuple[FockBasisVector, Union[Fraction, int]]


def _psi_plus(b: FockBasisVector, s_twice: int) -> List[Hit]:
    sec, psip, psim, dp, cp = b
    if s_twice < 0:
        tv = -s_twice
        if tv in psip:
            return []
        k = 0
        while k < len(psip) and psip[k] > tv:
            k += 1
        return [(_state((sec, psip[:k] + (tv,) + psip[k:], psim, dp, cp)), -1 if k & 1 else 1)]
    if s_twice in psim:
        j = psim.index(s_twice)
        sign = -1 if (len(psip) + j) & 1 else 1
        return [(_state((sec, psip, psim[:j] + psim[j + 1:], dp, cp)), sign)]
    return []


def _psi_minus_letters(psip: Tuple[int, ...], psim: Tuple[int, ...],
                       s_twice: int) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """psi^-(s_twice/2) on a state's fermion blocks: the new (psip, psim) and
    the fermion sign, or None where the mode annihilates them.  _psi_minus and
    the placement of the screening current's templates both call it."""
    if s_twice < 0:
        tv = -s_twice
        if tv in psim:
            return None
        k = 0
        while k < len(psim) and psim[k] > tv:
            k += 1
        return psip, psim[:k] + (tv,) + psim[k:], -1 if (len(psip) + k) & 1 else 1
    if s_twice in psip:
        j = psip.index(s_twice)
        return psip[:j] + psip[j + 1:], psim, -1 if j & 1 else 1
    return None


def _psi_minus(b: FockBasisVector, s_twice: int) -> List[Hit]:
    sec, psip, psim, dp, cp = b
    hit = _psi_minus_letters(psip, psim, s_twice)
    if hit is None:
        return []
    psip, psim, sign = hit
    return [(_state((sec, psip, psim, dp, cp)), sign)]


def _c_free(b: FockBasisVector, n: int) -> List[Hit]:
    sec, psip, psim, dp, cp = b
    if n < 0:
        return [(_state((sec, psip, psim, dp, _insert_sorted_desc(cp, -n))), 1)]
    if n == 0:
        return [(b, 2 * sec.x_d)]
    count = dp.count(n)
    if not count:
        return []
    j = dp.index(n)
    return [(_state((sec, psip, psim, dp[:j] + dp[j + 1:], cp)), 2 * n * count)]


def _d_free(b: FockBasisVector, n: int) -> List[Hit]:
    sec, psip, psim, dp, cp = b
    if n < 0:
        return [(_state((sec, psip, psim, _insert_sorted_desc(dp, -n), cp)), 1)]
    if n == 0:
        return [(b, 2 * sec.x_c)]
    count = cp.count(n)
    if not count:
        return []
    j = cp.index(n)
    return [(_state((sec, psip, psim, dp, cp[:j] + cp[j + 1:])), 2 * n * count)]


class FockVector:
    """Rational combination of Fock basis vectors times (sqrt 2)^parity.

    It is kept as nonzero int numerators (nums, a {state: int} dict that is
    never changed after construction, so vectors may share it) over one
    positive denominator (den), reduced: gcd(den, *nums) = 1, and den = 1 for
    the zero vector.  The form is canonical, so == compares den and nums.
    The arithmetic runs on the ints; terms, the {state: Fraction} view, is
    built on first read."""

    __slots__ = ("nums", "den", "parity", "_terms")

    def __init__(self, terms: Optional[Dict[FockBasisVector, Fraction]] = None, parity: int = 0):
        coeffs = {}
        if terms:
            for b, c in terms.items():
                c = c if type(c) is Fraction else Fraction(c)
                if c:
                    coeffs[b] = c
        nums, self.den = over_one_den(coeffs.values())
        self.nums = dict(zip(coeffs, nums))
        self.parity = parity & 1
        self._terms = None

    @classmethod
    def _of(cls, nums: Dict[FockBasisVector, int], den: int, parity: int) -> "FockVector":
        """The vector of nums over den, both already in reduced form."""
        v = object.__new__(cls)
        v.nums, v.den, v.parity, v._terms = nums, den, parity & 1, None
        return v

    @classmethod
    def _reduced(cls, nums: Dict[FockBasisVector, int], den: int, parity: int) -> "FockVector":
        """The vector of nums (nonzero ints) over den > 0, reduced."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {b: n // g for b, n in nums.items()}
            den //= g
        return cls._of(nums, den, parity)

    @property
    def terms(self) -> Dict[FockBasisVector, Fraction]:
        t = self._terms
        if t is None:
            den = self.den
            t = self._terms = {b: Fraction(n, den) for b, n in self.nums.items()}
        return t

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def is_zero(self) -> bool:
        return not self.nums

    def scale(self, c) -> "FockVector":
        num, den = (c, 1) if type(c) is int else Fraction(c).as_integer_ratio()
        if not num:
            return FockVector()
        return FockVector._reduced({b: v * num for b, v in self.nums.items()}, self.den * den, self.parity)

    def scale_sqrt2(self) -> "FockVector":
        if self.is_zero():
            return self
        if not self.parity:
            return FockVector._of(self.nums, self.den, 1)
        # 2 * nums / den stays reduced: halve an even den, else double nums
        if self.den & 1:
            return FockVector._of({b: 2 * v for b, v in self.nums.items()}, self.den, 0)
        return FockVector._of(self.nums, self.den >> 1, 0)

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, False)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, True)

    def _combine(self, other: "FockVector", subtract: bool) -> "FockVector":
        if self.is_zero():
            return other.scale(-1) if subtract else other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ValueError("cannot add vectors of different sqrt(2)-parity")
        a, b = self.den, other.den
        g = math.gcd(a, b)
        fa, fb = b // g, a // g
        out = dict(self.nums) if fa == 1 else {k: v * fa for k, v in self.nums.items()}
        add_scaled(out, other.nums.items(), -fb if subtract else fb)
        return FockVector._reduced(out, a * fa, self.parity)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.parity == other.parity and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def coefficient(self, b: FockBasisVector) -> Fraction:
        return self.terms.get(b, _ZERO)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        root = "sqrt2*" if self.parity else ""
        bits = [
            f"({c})*{b.to_text()}"
            for b, c in sorted(self.terms.items(), key=lambda kv: kv[0].to_text())
        ]
        return root + " + ".join(bits)


def sector_for(p, r, cL) -> LatticePoint:
    p = Fraction(p)
    r = Fraction(r)
    return LatticePoint(
        x_c=r + (p + 1) * (cL - 3) * Fraction(1, 24),
        x_d=-(p + 1) * Fraction(1, 2),
    )
