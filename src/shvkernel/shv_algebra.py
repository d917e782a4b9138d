"""Structure layer of the N=1 super Heisenberg-Virasoro algebra at level zero.

Generators (all modes stored as *twice* their value, so half-integers never
touch floats):

* ``L(n)``  -- Virasoro modes, n integer, even
* ``A(n)``  -- Heisenberg modes, n integer, even
* ``G(s)``  -- odd partner of L, s half-odd-integer
* ``P(s)``  -- odd partner of A, s half-odd-integer
* ``CL, CA, CLA`` -- the three central elements

The bracket is a super-bracket: anticommutator on odd-odd pairs, commutator
otherwise.  Products of elements rewrite words into the canonical PBW order
(lowering < Cartan < raising, with a fixed kind order inside each block) using
the bracket relations; the rewriting is confluent, and we memoize aggressively
because module computations hit the same words over and over.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .scalars import ParamPolynomial, add_scaled


class Mode(NamedTuple):
    """A mode index n or s, stored as 2n / 2s."""

    twice_value: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    def __str__(self) -> str:
        t = self.twice_value
        return str(t // 2) if t % 2 == 0 else f"{t}/2"


class GeneratorSymbol(NamedTuple):
    kind: str
    mode: Mode

    def __str__(self) -> str:
        if self.kind in _CENTRAL_KINDS:
            return self.kind
        return f"{self.kind}({self.mode})"


_CENTRAL_KINDS = ("CL", "CA", "CLA")
_EVEN_KINDS = ("L", "A") + _CENTRAL_KINDS
_ODD_KINDS = ("G", "P")


def _twice(mode) -> int:
    if isinstance(mode, Mode):
        return mode.twice_value
    return doubled(mode)


def L(n) -> GeneratorSymbol:
    t = _twice(n)
    if t % 2:
        raise ValueError("L modes are integers")
    return GeneratorSymbol("L", Mode(t))


def A(n) -> GeneratorSymbol:
    t = _twice(n)
    if t % 2:
        raise ValueError("A modes are integers")
    return GeneratorSymbol("A", Mode(t))


def G(s) -> GeneratorSymbol:
    t = _twice(s)
    if t % 2 == 0:
        raise ValueError("G modes are half-odd-integers")
    return GeneratorSymbol("G", Mode(t))


def P(s) -> GeneratorSymbol:
    t = _twice(s)
    if t % 2 == 0:
        raise ValueError("P modes are half-odd-integers")
    return GeneratorSymbol("P", Mode(t))


CL = GeneratorSymbol("CL", Mode(0))
CA = GeneratorSymbol("CA", Mode(0))
CLA = GeneratorSymbol("CLA", Mode(0))


def parity(sym: GeneratorSymbol) -> int:
    return 1 if sym.kind in _ODD_KINDS else 0


def word_parity(word: Sequence[GeneratorSymbol]) -> int:
    return sum(parity(s) for s in word) % 2


# canonical order: lowering block, Cartan block, raising block
_LOWER_RANK = {"P": 0, "A": 1, "G": 2, "L": 3}
_CARTAN_RANK = {"L": 0, "A": 1, "CL": 2, "CA": 3, "CLA": 4}
_RAISE_RANK = {"L": 0, "G": 1, "A": 2, "P": 3}


def sym_key(sym: GeneratorSymbol) -> Tuple[int, int, int]:
    t = sym.mode.twice_value
    if sym.kind in _CENTRAL_KINDS or t == 0:
        return (1, _CARTAN_RANK[sym.kind], 0)
    if t < 0:
        return (0, _LOWER_RANK[sym.kind], t)
    return (2, _RAISE_RANK[sym.kind], t)


def word_key(word: Sequence[GeneratorSymbol]):
    return tuple(sym_key(s) for s in word)


def word_weight(word: Sequence[GeneratorSymbol]) -> Fraction:
    return Fraction(-sum(s.mode.twice_value for s in word), 2)


Word = Tuple[GeneratorSymbol, ...]


class Element:
    """Finite linear combination of words in the generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Word, object] | None = None):
        t: Dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    t[tuple(w)] = c
        self.terms = t

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls({(): Fraction(1)})

    @classmethod
    def of(cls, *syms, coefficient=Fraction(1)) -> "Element":
        return cls({tuple(syms): coefficient})

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int:
        ps = {word_parity(w) for w in self.terms}
        if len(ps) > 1:
            raise ValueError("element has mixed parity")
        return ps.pop() if ps else 0

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        add_scaled(out, other.terms.items(), 1)
        return Element(out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Element":
        if not c:
            return Element()
        return Element({w: v * c for w, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, ParamPolynomial)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPolynomial)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        out: Dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_scaled(out, _normal_form(w1 + w2).items(), c1 * c2)
        return Element(out)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def sorted_terms(self) -> List[Tuple[Word, object]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), word_key(kv[0])))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            word_txt = "".join(str(s) for s in w)
            if not w:
                bits.append(f"({c})")
            elif isinstance(c, Fraction) and c == 1:
                bits.append(word_txt)
            else:
                bits.append(f"({c})*{word_txt}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Element({self.to_text()})"


# ---------------------------------------------------------------------------
# the bracket table


def _delta(cond: bool, coeff: Fraction, sym: GeneratorSymbol, out: dict) -> None:
    if cond and coeff:
        out[(sym,)] = coeff


def super_bracket(x: GeneratorSymbol, y: GeneratorSymbol) -> Element:
    """[x, y] as an Element: anticommutator if both odd, commutator otherwise."""
    if x.kind in _CENTRAL_KINDS or y.kind in _CENTRAL_KINDS:
        return Element()
    tm, tn = x.mode.twice_value, y.mode.twice_value
    # the mode of a result symbol, already doubled; its kind, and so its
    # parity, is fixed by the pair
    total = Mode(tm + tn)
    pair = (x.kind, y.kind)
    out: Dict[Word, object] = {}
    if pair == ("A", "A"):
        _delta(tm + tn == 0, Fraction(tm, 2), CA, out)
    elif pair == ("L", "A"):
        c = Fraction(-tn, 2)
        if c:
            out[(GeneratorSymbol("A", total),)] = c
        _delta(tm + tn == 0, Fraction(-(tm * tm + 2 * tm), 4), CLA, out)
    elif pair == ("L", "L"):
        c = Fraction(tm - tn, 2)
        if c:
            out[(GeneratorSymbol("L", total),)] = c
        _delta(tm + tn == 0, Fraction(tm**3 - 4 * tm, 96), CL, out)
    elif pair == ("P", "P"):
        _delta(tm + tn == 0, Fraction(1), CA, out)
    elif pair in (("A", "P"), ("P", "A")):
        pass
    elif pair == ("G", "G"):
        out[(GeneratorSymbol("L", total),)] = Fraction(2)
        _delta(tm + tn == 0, Fraction(tm * tm - 1, 12), CL, out)
    elif pair == ("L", "G"):
        c = Fraction(tm - 2 * tn, 4)
        if c:
            out[(GeneratorSymbol("G", total),)] = c
    elif pair == ("A", "G"):
        c = Fraction(tm, 2)
        if c:
            out[(GeneratorSymbol("P", total),)] = c
    elif pair == ("P", "L"):
        c = Fraction(2 * tm + tn, 4)
        if c:
            out[(GeneratorSymbol("P", total),)] = c
    elif pair == ("P", "G"):
        out[(GeneratorSymbol("A", total),)] = Fraction(1)
        _delta(tm + tn == 0, Fraction(tm - 1, 1), CLA, out)
    else:
        # remaining pairs via super-antisymmetry: [x,y] = -(-1)^{|x||y|}[y,x]
        sign = -1 if (parity(x) and parity(y)) else 1
        rev = super_bracket(y, x)
        return Element({w: -sign * c for w, c in rev.terms.items()})
    return Element(out)


def element_bracket(x: Element, y: Element) -> Element:
    """Super-bracket of two parity-homogeneous elements, via normal ordering."""
    px, py = x.parity(), y.parity()
    sign = Fraction(-1 if (px and py) else 1)
    return x * y - sign * (y * x)


# ---------------------------------------------------------------------------
# normal ordering


_NF_CACHE: Dict[Word, Dict[Word, Fraction]] = {}


def _first_disorder(word: Word) -> int:
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        kx, ky = sym_key(x), sym_key(y)
        if kx > ky:
            return i
        if x == y and parity(x):
            return i
    return -1


def _normal_form(word: Word) -> Dict[Word, Fraction]:
    """Canonical form of a word as {canonical word: coefficient}, memoized."""
    stack = [word]
    while stack:
        w = stack[-1]
        if w in _NF_CACHE:
            stack.pop()
            continue
        i = _first_disorder(w)
        if i < 0:
            _NF_CACHE[w] = {w: Fraction(1)}
            stack.pop()
            continue
        x, y = w[i], w[i + 1]
        prefix, suffix = w[:i], w[i + 2 :]
        deps: List[Tuple[Word, Fraction]] = []
        if x == y:
            # odd square: x*x = (1/2)[x,x]_+
            for bw, bc in super_bracket(x, x).terms.items():
                deps.append((prefix + bw + suffix, Fraction(1, 2) * bc))
        else:
            sign = Fraction(-1 if (parity(x) and parity(y)) else 1)
            deps.append((prefix + (y, x) + suffix, sign))
            for bw, bc in super_bracket(x, y).terms.items():
                deps.append((prefix + bw + suffix, bc))
        missing = [dw for dw, _ in deps if dw not in _NF_CACHE]
        if missing:
            stack.extend(missing)
            continue
        out: Dict[Word, Fraction] = {}
        for dw, dc in deps:
            add_scaled(out, _NF_CACHE[dw].items(), dc)
        _NF_CACHE[w] = out
        stack.pop()
    return _NF_CACHE[word]


# ---------------------------------------------------------------------------
# partitions and superpartitions


class Partition:
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        ps = tuple(int(p) for p in parts)
        if any(p <= 0 for p in ps):
            raise ValueError(f"partition parts must be positive: {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"partition parts must weakly decrease: {ps}")
        self.parts = ps

    def degree(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self):
        return f"Partition{self.parts}"


class SuperPartition:
    """Strictly decreasing tuple of positive half-odd-integers."""

    __slots__ = ("twice_parts",)

    def __init__(self, parts: Sequence = ()):
        tp = []
        for p in parts:
            t = _twice(p)
            if t <= 0 or t % 2 == 0:
                raise ValueError(f"superpartition parts must be positive half-odd: {p}")
            tp.append(t)
        if any(tp[i] <= tp[i + 1] for i in range(len(tp) - 1)):
            raise ValueError(f"superpartition parts must strictly decrease: {parts}")
        self.twice_parts = tuple(tp)

    @property
    def parts(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(t, 2) for t in self.twice_parts)

    def degree(self) -> Fraction:
        return Fraction(sum(self.twice_parts), 2)

    def __len__(self):
        return len(self.twice_parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, SuperPartition) and self.twice_parts == other.twice_parts

    def __hash__(self):
        return hash(("SuperPartition", self.twice_parts))

    def __repr__(self):
        return f"SuperPartition{self.parts}"


def pair_sort_key(mu: Partition, lam: SuperPartition):
    """Total order on (partition, superpartition) pairs: by total degree,
    then by total number of parts, then by the refinement order on the
    partition and on the superpartition (a larger part at the first
    difference comes earlier), with pairs that order cannot compare broken
    deterministically by part sequences.  Sorting by this key and taking the
    max picks the leading pair."""
    return (
        2 * mu.degree() + sum(lam.twice_parts),
        len(mu) + len(lam),
        tuple(-p for p in mu.parts),
        tuple(-t for t in lam.twice_parts),
    )


def partitions_of(n: int):
    """All partitions of n, largest parts first."""
    if n < 0:
        return

    def rec(remaining, cap, acc):
        if remaining == 0:
            yield Partition(acc)
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, acc + [p])

    yield from rec(n, n, [])


def superpartitions_of(twice_n: int):
    """All strictly-decreasing half-odd partitions of total 2*degree = twice_n."""
    if twice_n < 0:
        return

    def rec(remaining, cap, acc):
        if remaining == 0:
            yield SuperPartition([Fraction(t, 2) for t in acc])
            return
        top = min(cap, remaining)
        if top % 2 == 0:
            top -= 1
        for t in range(top, 0, -2):
            yield from rec(remaining - t, t - 2, acc + [t])

    yield from rec(twice_n, twice_n, [])


# ---------------------------------------------------------------------------
# the graded vocabulary shared by the Verma and Fock layers


def symbols_at(twice: int) -> Tuple[GeneratorSymbol, GeneratorSymbol]:
    """The two generators at doubled mode twice: L and A when it is even,
    G and P when it is odd."""
    mode = Mode(twice)
    kinds = ("G", "P") if twice % 2 else ("L", "A")
    return GeneratorSymbol(kinds[0], mode), GeneratorSymbol(kinds[1], mode)


def half_degrees(limit) -> List[Fraction]:
    """The half-degrees 0, 1/2, 1, ... up to limit."""
    return [Fraction(t, 2) for t in range(math.floor(2 * Fraction(limit)) + 1)]


def doubled(value) -> int:
    """2 * value as an int, for a half-integer degree or mode; anything else
    raises ValueError.  The sign is the caller's to check."""
    t = Fraction(value) * 2
    if t.denominator != 1:
        raise ValueError(f"{value} is not a half-integer")
    return t.numerator


def _block_shapes(parity: int, twice: int) -> List[Tuple[int, ...]]:
    """The parts of a block at doubled degree twice: those of the partitions
    of twice/2 for an even block, the doubled parts of the superpartitions
    of twice/2 for an odd one."""
    if parity:
        return [lam.twice_parts for lam in superpartitions_of(twice)]
    if twice % 2:
        return []
    return [mu.parts for mu in partitions_of(twice // 2)]


def graded_tuples(twice: int, blocks: Sequence[Tuple[int, Callable]]) -> List[tuple]:
    """A graded basis at doubled degree twice as an ordered product of
    blocks: one entry per block, build(parts) for each block (parity,
    build), over every way to split the degree among the blocks.

    The first block varies slowest, over its doubled degree ascending and,
    within a degree, its shapes in the order of _block_shapes; the last block
    takes the degree that is left.  build runs once per shape, not once per
    tuple."""
    shapes = [
        [[build(parts) for parts in _block_shapes(parity, t)] for t in range(twice + 1)]
        for parity, build in blocks
    ]
    tails = [[(entry,) for entry in level] for level in shapes[-1]]
    for level in reversed(shapes[:-1]):
        tails = [
            [(entry,) + tail for t in range(rest + 1) for entry in level[t] for tail in tails[rest - t]]
            for rest in range(twice + 1)
        ]
    return tails[twice]
