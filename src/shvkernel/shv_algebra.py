"""Structure layer of the N=1 super Heisenberg-Virasoro algebra at level zero.

Generators (all modes stored as *twice* their value, so half-integers never
touch floats):

* ``L(n)``  -- Virasoro modes, n integer, even
* ``A(n)``  -- Heisenberg modes, n integer, even
* ``G(s)``  -- odd partner of L, s half-odd-integer
* ``P(s)``  -- odd partner of A, s half-odd-integer
* ``CL, CA, CLA`` -- the three central elements

The bracket is a super-bracket: anticommutator on odd-odd pairs, commutator
otherwise.  ``normal_order`` rewrites arbitrary words into the canonical PBW
order (lowering < Cartan < raising, with a fixed kind order inside each block)
using the bracket relations; the rewriting is confluent, and we memoize
aggressively because module computations hit the same words over and over.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .scalars import ParamPolynomial, RatFunc, is_zero


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
    f = Fraction(mode)
    t = f * 2
    if t.denominator != 1:
        raise ValueError(f"mode {mode} is not a half-integer")
    return int(t)


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


def half(k: int) -> Fraction:
    return Fraction(k, 2)


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


def weight(x) -> Fraction:
    """Conformal weight added by x acting on a weight vector: -sum of modes.

    Accepts a symbol, a word (tuple of symbols), a PBWMonomial, or a
    weight-homogeneous Element.
    """
    if isinstance(x, GeneratorSymbol):
        return -x.mode.value
    if isinstance(x, PBWMonomial):
        x = x.factors
    if isinstance(x, Element):
        weights = {word_weight(w) for w in x.terms}
        if len(weights) > 1:
            raise ValueError(f"element is not weight-homogeneous: {sorted(weights)}")
        return weights.pop() if weights else Fraction(0)
    return word_weight(tuple(x))


def word_weight(word: Sequence[GeneratorSymbol]) -> Fraction:
    return Fraction(-sum(s.mode.twice_value for s in word), 2)


class PBWMonomial(NamedTuple):
    coefficient: object
    factors: Tuple[GeneratorSymbol, ...]


Word = Tuple[GeneratorSymbol, ...]


class Element:
    """Finite linear combination of words in the generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Word, object] | None = None):
        t: Dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if not is_zero(c):
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

    def monomials(self) -> List[PBWMonomial]:
        return [PBWMonomial(c, w) for w, c in self.sorted_terms()]

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
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return Element(out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Element":
        if is_zero(c):
            return Element()
        return Element({w: v * c for w, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, ParamPolynomial, RatFunc)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPolynomial, RatFunc)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        out: Dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                nf = _normal_form(w1 + w2)
                c12 = c1 * c2
                for w, c in nf.items():
                    _accumulate(out, w, c * c12)
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

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": str(c),
                    "factors": [
                        {"kind": s.kind, "mode": str(s.mode)} for s in w
                    ],
                }
                for w, c in self.sorted_terms()
            ]
        }

    def __repr__(self):
        return f"Element({self.to_text()})"


def _accumulate(d: Dict[Word, object], w: Word, c) -> None:
    nv = d.get(w)
    nv = c if nv is None else nv + c
    if is_zero(nv):
        d.pop(w, None)
    else:
        d[w] = nv


# ---------------------------------------------------------------------------
# the bracket table


def _delta(cond: bool, coeff: Fraction, sym: GeneratorSymbol, out: dict) -> None:
    if cond and coeff:
        out[(sym,)] = out.get((sym,), Fraction(0)) + coeff


def super_bracket(x: GeneratorSymbol, y: GeneratorSymbol) -> Element:
    """[x, y] as an Element: anticommutator if both odd, commutator otherwise."""
    if x.kind in _CENTRAL_KINDS or y.kind in _CENTRAL_KINDS:
        return Element()
    tm, tn = x.mode.twice_value, y.mode.twice_value
    pair = (x.kind, y.kind)
    out: Dict[Word, object] = {}
    if pair == ("A", "A"):
        _delta(tm + tn == 0, Fraction(tm, 2), CA, out)
    elif pair == ("L", "A"):
        c = Fraction(-tn, 2)
        if c:
            out[(A(Fraction(tm + tn, 2)),)] = c
        _delta(tm + tn == 0, Fraction(-(tm * tm + 2 * tm), 4), CLA, out)
    elif pair == ("L", "L"):
        c = Fraction(tm - tn, 2)
        if c:
            out[(L(Fraction(tm + tn, 2)),)] = c
        _delta(tm + tn == 0, Fraction(tm**3 - 4 * tm, 96), CL, out)
    elif pair == ("P", "P"):
        _delta(tm + tn == 0, Fraction(1), CA, out)
    elif pair in (("A", "P"), ("P", "A")):
        pass
    elif pair == ("G", "G"):
        out[(L(Fraction(tm + tn, 2)),)] = Fraction(2)
        _delta(tm + tn == 0, Fraction(tm * tm - 1, 12), CL, out)
    elif pair == ("L", "G"):
        c = Fraction(tm - 2 * tn, 4)
        if c:
            out[(G(Fraction(tm + tn, 2)),)] = c
    elif pair == ("A", "G"):
        c = Fraction(tm, 2)
        if c:
            out[(P(Fraction(tm + tn, 2)),)] = c
    elif pair == ("P", "L"):
        c = Fraction(2 * tm + tn, 4)
        if c:
            out[(P(Fraction(tm + tn, 2)),)] = c
    elif pair == ("P", "G"):
        out[(A(Fraction(tm + tn, 2)),)] = Fraction(1)
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
            for cw, cc in _NF_CACHE[dw].items():
                _accumulate(out, cw, dc * cc)
        _NF_CACHE[w] = out
        stack.pop()
    return _NF_CACHE[word]


def normal_order(word: Sequence[GeneratorSymbol], coefficient=Fraction(1)) -> Element:
    """Rewrite a word into the canonical PBW order."""
    nf = _normal_form(tuple(word))
    if isinstance(coefficient, Fraction) and coefficient == 1:
        return Element(dict(nf))
    return Element({w: c * coefficient for w, c in nf.items()})


def is_canonical(word: Sequence[GeneratorSymbol]) -> bool:
    return _first_disorder(tuple(word)) < 0


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


PartitionPair = Tuple[Partition, SuperPartition]


def _prec(a: Sequence, b: Sequence) -> str:
    """The refinement order on single partitions.

    'prec' means a comes strictly earlier: at the first differing position a has
    the *larger* part.  Equal prefixes of different lengths are incomparable.
    """
    for x, y in zip(a, b):
        if x != y:
            return "prec" if x > y else "succ"
    if len(a) == len(b):
        return "equal"
    return "incomparable"


def compare_pairs(a: PartitionPair, b: PartitionPair) -> str:
    """Partial order on (partition, superpartition) pairs.

    Graded first by total degree, then by total number of parts, then by the
    refinement order on the partition, then on the superpartition.  Returns
    one of 'less', 'greater', 'equal', 'incomparable'.
    """
    mu1, lam1 = a
    mu2, lam2 = b
    da = mu1.degree() + lam1.degree()
    db = mu2.degree() + lam2.degree()
    if da != db:
        return "less" if da < db else "greater"
    la = len(mu1) + len(lam1)
    lb = len(mu2) + len(lam2)
    if la != lb:
        return "less" if la < lb else "greater"
    c = _prec(mu1.parts, mu2.parts)
    if c == "incomparable":
        return "incomparable"
    if c != "equal":
        return "less" if c == "prec" else "greater"
    c = _prec(lam1.twice_parts, lam2.twice_parts)
    if c == "incomparable":
        return "incomparable"
    if c == "equal":
        return "equal"
    return "less" if c == "prec" else "greater"


def pair_sort_key(mu: Partition, lam: SuperPartition):
    """Totalization of compare_pairs: sorting by this key and taking the max
    picks the leading pair; on comparable pairs it refines compare_pairs
    ('greater' pairs get larger keys), and incomparable pairs are broken
    deterministically by part sequences."""
    return (
        2 * mu.degree() + sum(lam.twice_parts),
        len(mu) + len(lam),
        tuple(-p for p in mu.parts),
        tuple(-t for t in lam.twice_parts),
    )


def partitions_of(n: int, max_part: int | None = None, min_part: int = 1):
    """All partitions of n with parts in [min_part, max_part], largest first."""
    if n < 0:
        return
    if max_part is None:
        max_part = n

    def rec(remaining, cap, acc):
        if remaining == 0:
            yield Partition(acc)
            return
        for p in range(min(cap, remaining), min_part - 1, -1):
            yield from rec(remaining - p, p, acc + [p])

    yield from rec(n, max_part, [])


def superpartitions_of(twice_n: int, min_twice_part: int = 1):
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
        for t in range(top, min_twice_part - 1, -2):
            yield from rec(remaining - t, t - 2, acc + [t])

    yield from rec(twice_n, twice_n, [])
