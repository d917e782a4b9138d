"""Highest weight modules over the level-zero algebra, with exact certification.

A highest weight vector v is annihilated by every positive mode; the Cartan
data is (h, hA) together with the three central charges (cA = 0 throughout
level zero).  Module vectors are stored as coordinate dicts over the graded
PBW basis

    P(-lam_minus) A(-mu_minus) G(-lam_plus) L(-mu_plus) v

indexed by two partitions and two superpartitions, in the order of
``shv_algebra.graded_tuples`` over these four blocks.  Everything downstream --
Shapovalov Gram matrices, graded dimensions of the simple quotient, singular
and subsingular vectors, submodule closures, embedding diagrams -- reduces to
exact linear algebra over these coordinates.

A generator acts on a basis word inside the module, by recursion on the
word's first letter (``VermaAction.apply_symbol``); no word is normal-ordered
in the enveloping algebra.  The recursion runs on basis positions: a word is
twice its degree and its index in that piece, the first letter and the index
of the rest of the word come from the piece's ``heads`` table, and each
result is one integer column, (den, ((target index, int), ...)) reduced by
its gcd.  Each bracket the recursion meets is read from a table the action
keeps, as (symbol, numerator, denominator) triples per pair of symbols.  The
callers that hold words (``act``, ``apply_word``, ``apply_element``) turn
them into positions at that boundary.

The Gram blocks, the closure and the detectors read the action as integer
matrices.  ``VermaAction.symbol_map(sym, twice)`` is sym on the
degree-twice/2 piece: apply_symbol's column of each basis word, scaled to one
positive denominator (the lcm of the columns'), built once.

The Gram block at degree d is assembled from the blocks below it and kept as
an ``exact_linalg.Matrix``: integer rows, each over one positive denominator
prime to the row.  For a basis word w = x * w', the row of w is the map of
theta(x) on the degree-d piece applied to the row of w' in the block at
degree d - wt(x): each entry is a sum of int products, over the product of
the two denominators.  ``shapovalov_gram`` returns the cached block itself.
A symbolic label (``det`` works in p) runs the same loop: its maps keep the
polynomial coefficients over den 1, and so do its blocks.

A ``Submodule`` keeps each spanning vector as integers over one denominator,
so a closure step is an integer matrix-vector product, and the product goes
straight into the integer echelon span (``exact_linalg.EchelonSpan``).  The
singular and subsingular detectors stack the raising symbols' maps, each
block scaled by its denominator, into one integer kernel matrix.  Where the
subsingular detector has nothing to find, a count proves it without the
kernel: the kernel holds the submodule's piece S_d, and columns minus a
rank mod a prime (``exact_linalg.rank_mod_p``, a lower bound on the rank)
bounds its dimension from above, so a bound equal to dim S_d proves the
kernel is S_d.  The count needs the submodule closed through the degree.
Where a vector is sure to exist (the subsingular command's detector), the
count could only fail, and ``kernel_subsingular_vectors`` goes straight to
the kernel.
``embedding_diagram`` starts its accumulated submodule as a copy of the
first node's closure rather than closing it a second time.

The contravariant form uses the rational anti-involution

    L(n) -> L(-n),   A(n) -> -A(-n) + 2*CLA*delta_{n,0},
    G(s) -> G(-s),   P(s) -> -P(-s),

extended by plain word reversal.  It intertwines the bracket exactly, and the
resulting Gram matrix differs from the hermitian variant only by a unit per
row, so ranks, kernels and vanishing loci are unchanged.  (The matrix need not
be symmetric; its right kernel is the maximal submodule, which is all we use.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact_linalg import (
    CoordinateMap,
    EchelonSpan,
    Matrix,
    determinant,
    kernel_basis,
    rank,
    rank_mod_p,
)
from .qchar import char_verma, schur_expand
from .scalars import (
    DEFAULT_SPECIALIZATION,
    ParamPolynomial,
    add_scaled,
    over_one_den,
    rational_roots_in,
)
from .shv_algebra import (
    A,
    Element,
    G,
    GeneratorSymbol,
    L,
    Mode,
    P,
    Partition,
    SuperPartition,
    Word,
    _CENTRAL_KINDS,
    _ODD_KINDS,
    doubled,
    graded_tuples,
    half_degrees,
    pair_sort_key,
    super_bracket,
    sym_key,
    symbols_at,
    word_weight,
)

# Unused here: the action works inside the module and never normal-orders a
# word, and ranks go through ``rank``.  perfbench/tracing.py wraps
# ``_normal_form`` and ``rational_rank`` in this module by name, so the
# imports stay.
from .exact_linalg import rational_rank  # noqa: F401
from .shv_algebra import _normal_form  # noqa: F401


@dataclass(frozen=True, eq=True)
class HighestWeightData:
    cL: object
    cA: object
    cLa: object
    h: object
    hA: object


def pr_to_hw(p, r, cL=None, cLa=None) -> HighestWeightData:
    """Level-zero weights of the standard family: h = (1-p^2)(cL-3)/24 - r*p, hA = (1+p)cLa."""
    cL = DEFAULT_SPECIALIZATION["cL"] if cL is None else cL
    cLa = DEFAULT_SPECIALIZATION["cLa"] if cLa is None else cLa
    h = (1 - p * p) * (cL - 3) * Fraction(1, 24) - r * p
    hA = (1 + p) * cLa
    return HighestWeightData(cL=cL, cA=Fraction(0), cLa=cLa, h=h, hA=hA)


# ---------------------------------------------------------------------------
# graded bases


class GradedBasis(CoordinateMap):
    """PBW basis words of one graded component, in a fixed deterministic
    order, and the coordinate map they define.  heads[i] is the first letter
    of word i and the index of the rest of the word in its own piece (empty
    at degree 0), the table the action's recursion reads."""

    __slots__ = ("twice_degree", "heads")

    def __init__(self, twice_degree: int, words: Tuple[Word, ...]):
        super().__init__(words)
        self.twice_degree = twice_degree
        self.heads = tuple(
            (w[0], _piece(twice_degree + w[0].mode.twice_value).index[w[1:]]) for w in words if w
        )

    @property
    def words(self) -> Tuple[Word, ...]:
        return self.elements

    @property
    def degree(self) -> Fraction:
        return Fraction(self.twice_degree, 2)


_BASIS_CACHE: Dict[int, GradedBasis] = {}


def _lowering(kind: str, doubling: int):
    """A block's parts, descending, as its letters kind(-part), most negative
    mode first; doubling is 2 for integer parts, 1 for parts stored doubled."""
    return lambda parts: tuple(GeneratorSymbol(kind, Mode(-doubling * p)) for p in parts)


#: the PBW word P(-lam_minus) A(-mu_minus) G(-lam_plus) L(-mu_plus)
_PBW_BLOCKS = (
    (1, _lowering("P", 1)),
    (0, _lowering("A", 2)),
    (1, _lowering("G", 1)),
    (0, _lowering("L", 2)),
)


def verma_basis(hw: HighestWeightData, degree) -> GradedBasis:
    """All PBW words of the given degree (hw fixes the module; the basis shape
    depends only on the degree)."""
    twice_d = doubled(degree)
    if twice_d < 0:
        raise ValueError(f"degree must be a non-negative half-integer: {degree}")
    return _piece(twice_d)


def _piece(twice: int) -> GradedBasis:
    """The basis at degree twice/2, for a twice already checked >= 0."""
    cached = _BASIS_CACHE.get(twice)
    if cached is not None:
        return cached
    words = tuple(p + a + g + l for p, a, g, l in graded_tuples(twice, _PBW_BLOCKS))
    basis = _BASIS_CACHE[twice] = GradedBasis(twice, words)
    return basis


def word_partitions(word: Word):
    """Decompose a basis word into (mu_plus, lam_plus, mu_minus, lam_minus)."""
    mus = {"L": [], "A": []}
    lams = {"G": [], "P": []}
    for s in word:
        if s.kind in mus:
            mus[s.kind].append(-s.mode.twice_value // 2)
        else:
            lams[s.kind].append(Fraction(-s.mode.twice_value, 2))
    return (
        Partition(sorted(mus["L"], reverse=True)),
        SuperPartition(sorted(lams["G"], reverse=True)),
        Partition(sorted(mus["A"], reverse=True)),
        SuperPartition(sorted(lams["P"], reverse=True)),
    )


def leading_word_key(word: Word):
    mu_p, lam_p, mu_m, lam_m = word_partitions(word)
    return (pair_sort_key(mu_p, lam_p), pair_sort_key(mu_m, lam_m))


@dataclass
class ModuleVector:
    """Coordinates of a homogeneous vector w.r.t. verma_basis(degree)."""

    degree: Fraction
    coords: Tuple

    def basis(self) -> GradedBasis:
        return verma_basis(None, self.degree)

    def to_dict(self) -> Dict[Word, object]:
        return self.basis().vector(self.coords)

    @classmethod
    def from_dict(cls, vec: Dict[Word, object], degree) -> "ModuleVector":
        return cls(degree=Fraction(degree), coords=tuple(verma_basis(None, degree).column(vec)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_text(self) -> str:
        basis = self.basis()
        bits = []
        for w, c in zip(basis.words, self.coords):
            if not c:
                continue
            word_txt = "".join(str(s) for s in w) if w else "1"
            bits.append(f"({c})*{word_txt}v" if w else f"({c})*v")
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# the action


class SymbolMap(NamedTuple):
    """One generator on one graded piece: basis word i goes to
    sum_j a_j / den * (target word j) over the pairs (j, a_j) of columns[i],
    with den > 0 and every a_j a nonzero int; rows is the size of the
    target piece.  Each column is apply_symbol's, scaled to the one den.
    For a symbolic label (weights polynomial in p) the a_j are apply_symbol's
    entries divided by its den, Fractions and ParamPolynomials, over den 1,
    so a sum of a_j times entries runs unchanged on either kind of label."""

    den: int
    rows: int
    columns: List[Sequence[Tuple[int, object]]]


#: the zero Column (a vector as VermaAction.apply_symbol returns it)
_ZERO = (1, ())


def _pair(c):
    """A scalar as (numerator, positive denominator); a polynomial over 1."""
    return (c, 1) if isinstance(c, ParamPolynomial) else c.as_integer_ratio()


def _rational(den, column):
    """A Column's entries divided by its den: a Fraction for an int
    numerator, a ParamPolynomial for a polynomial one."""
    return [(j, a * Fraction(1, den)) for j, a in column]


def _combined(terms):
    """The Column sum of n / d times column over the (n, d, column) terms,
    over the lcm of the products of denominators, reduced by the gcd of the
    den and the int numerators (a polynomial one is divided by it in Q).
    An empty column adds nothing, and one column with n = d = 1 is itself
    (n the int 1: a polynomial n makes the entries polynomials)."""
    den, live = 1, []
    for term in terms:
        if term[2][1]:
            live.append(term)
            den = math.lcm(den, term[1] * term[2][0])
    if not live:
        return _ZERO
    if len(live) == 1 and type(live[0][0]) is int and live[0][0] == live[0][1] == 1:
        return live[0][2]
    acc = {}
    for n, d, (cd, column) in live:
        add_scaled(acc, column, n * (den // (d * cd)))
    g = math.gcd(den, *[a for a in acc.values() if type(a) is int])
    if g == 1:
        return den, tuple(acc.items())
    return den // g, tuple([(j, a // g if type(a) is int else a * Fraction(1, g)) for j, a in acc.items()])


class _Brackets(dict):
    """The bracket term of x * y by the pair (x, y): [x, y], or [x, x]_+ / 2
    for x = y (odd; x * x = 0 for an even lowering x is never asked), as
    (symbol, numerator, denominator) triples, each built on first read."""

    def __missing__(self, pair):
        half = Fraction(1, 2) if pair[0] == pair[1] else 1
        out = self[pair] = tuple((b, *_pair(half * bc)) for (b,), bc in super_bracket(*pair).terms.items())
        return out


class VermaAction:
    """The action of single generators on the PBW basis of the module of hw.

    ``apply_symbol(sym, twice, i)`` is sym applied to w * v, for w the word
    at index i of the piece at degree twice/2, computed inside the module by
    recursion on the first letter of the canonical lowering word w = s1 * rest:

        sym * s1 * rest = (-1)^{|sym||s1|} s1 * (sym * rest) + [sym, s1] * rest

    unless sym * w is already canonical (sym sorts before s1, or equals an
    even s1) or sym = s1 is odd (then sym * sym = [sym, sym]_+ / 2).  On the
    highest weight vector a lowering symbol gives its one-letter word, a
    raising symbol gives zero and a Cartan or central symbol its eigenvalue;
    a central symbol scales any word.  The recursion reads s1 and the index
    of rest from the piece's ``heads`` table, and each bracket [sym, s1]
    from a table built once per pair, as (symbol, numerator, denominator)
    triples; only a canonical product looks a word up.

    Every result is a Column over the target piece: (den, ((j, a_j), ...)),
    the vector sum_j a_j / den * (word j), with den > 0 and each a_j a
    nonzero int, reduced by the gcd of den and the a_j.  It is memoized per
    (symbol, twice the degree, index), so each suffix is worked out once,
    whatever precedes it.  On a symbolic label a numerator that involves a
    weight is a ParamPolynomial (the gcd is that of the int ones).  Those
    applications dominate every downstream computation (Gram matrices,
    closures, kernels).
    """

    def __init__(self, hw: HighestWeightData):
        self.hw = hw
        weights = (hw.h, hw.hA, hw.cL, hw.cA, hw.cLa)
        self._subs = {kind: _pair(c) for kind, c in zip(("L", "A", "CL", "CA", "CLA"), weights)}
        self._symbolic = any(isinstance(c, ParamPolynomial) for c in weights)
        # (symbol, twice the degree, index) -> Column
        self._sym_cache = {}
        self._brackets = _Brackets()
        self._gram_cache: Dict[int, Matrix] = {}
        self._maps: Dict[Tuple[GeneratorSymbol, int], SymbolMap] = {}

    def apply_symbol(self, sym, twice, i):
        """sym * w * v for w the word at index i of the piece at degree
        twice/2, as a Column over the piece at twice - 2 * mode(sym)."""
        tw = sym.mode.twice_value
        if tw > twice:
            return _ZERO  # below degree 0
        key = (sym, twice, i)
        hit = self._sym_cache.get(key)
        if hit is not None:
            return hit
        if sym.kind in _CENTRAL_KINDS or not (twice or tw):
            # a central symbol scales any word, L(0) and A(0) scale v
            num, den = self._subs[sym.kind]
            out = (den, ((i, num),)) if num else _ZERO
        elif not twice:
            # a lowering symbol gives its word (a raising one returned above)
            out = 1, ((_piece(-tw).index[(sym,)], 1),)
        else:
            basis = _piece(twice)
            s1, k = basis.heads[i]
            rest = twice + s1.mode.twice_value
            odd = sym.kind in _ODD_KINDS
            # s1 is a lowering letter, so only a lowering sym can sort before it
            if tw < 0 and (sym_key(sym) < sym_key(s1) or (sym == s1 and not odd)):
                out = 1, ((_piece(twice - tw).index[(sym,) + basis.words[i]], 1),)
            else:
                # plain loops: at a column's usual 0 to 2 entries a
                # comprehension costs more than its work
                terms = []
                if sym != s1:
                    den, column = self.apply_symbol(sym, rest, k)
                    sign = -1 if odd and s1.kind in _ODD_KINDS else 1
                    for u, c in column:
                        terms.append((sign * c, den, self.apply_symbol(s1, rest - tw, u)))
                for b, bn, bd in self._brackets[sym, s1]:
                    terms.append((bn, bd, self.apply_symbol(b, rest, k)))
                out = _combined(terms)
        self._sym_cache[key] = out
        return out

    def symbol_map(self, sym: GeneratorSymbol, twice: int) -> SymbolMap:
        """sym on the PBW piece of degree twice/2 as a sparse integer matrix
        (for a symbolic label, its coefficients over den 1): apply_symbol's
        columns scaled to the lcm of their dens, built once per (sym, twice);
        the target degree must be >= 0."""
        key = (sym, twice)
        hit = self._maps.get(key)
        if hit is not None:
            return hit
        images = [self.apply_symbol(sym, twice, i) for i in range(len(_piece(twice)))]
        if self._symbolic:
            den, columns = 1, [_rational(*image) for image in images]
        else:
            den = math.lcm(*[d for d, _ in images])
            columns = [c if d == den else [(j, a * (den // d)) for j, a in c] for d, c in images]
        out = self._maps[key] = SymbolMap(den, len(_piece(twice - sym.mode.twice_value)), columns)
        return out

    def apply_word(self, opword, vec):
        """opword * vec for vec a dict {basis word: coefficient}: each word
        goes to apply_symbol by its position, and each result back to words."""
        for sym in reversed(tuple(opword)):
            new = {}
            for w, c in vec.items():
                t = doubled(word_weight(w))
                den, column = self.apply_symbol(sym, t, _piece(t).index[w])
                if column:
                    words = _piece(t - sym.mode.twice_value).words
                    add_scaled(new, [(words[j], a * Fraction(1, den)) for j, a in column], c)
            vec = new
        return vec

    def apply_element(self, x: Element, vec):
        out = {}
        for opword, coeff in x.terms.items():
            add_scaled(out, self.apply_word(opword, vec).items(), coeff)
        return out


_ACTIONS: List[Tuple[HighestWeightData, VermaAction]] = []


def get_action(hw: HighestWeightData) -> VermaAction:
    for known, action in _ACTIONS:
        if known == hw:
            return action
    action = VermaAction(hw)
    _ACTIONS.append((hw, action))
    return action


def act(x, v: ModuleVector, hw: HighestWeightData) -> ModuleVector:
    """Apply a (weight-homogeneous) element, word, or symbol to a module vector."""
    if isinstance(x, GeneratorSymbol):
        x = Element.of(x)
    elif isinstance(x, tuple):
        x = Element.of(*x)
    if not isinstance(x, Element):
        raise TypeError(f"cannot act with {x!r}")
    weights = {word_weight(w) for w in x.terms}
    if len(weights) > 1:
        raise ValueError("element is not weight-homogeneous; no single target degree")
    shift = weights.pop() if weights else Fraction(0)
    out = get_action(hw).apply_element(x, v.to_dict())
    target = Fraction(v.degree) + shift
    if target < 0:
        # raising past the top: the image is zero, reported at degree 0
        assert not out
        return ModuleVector(degree=Fraction(0), coords=(Fraction(0),))
    return ModuleVector.from_dict(out, target)


def highest_weight_vector() -> ModuleVector:
    return ModuleVector(degree=Fraction(0), coords=(Fraction(1),))


# ---------------------------------------------------------------------------
# Shapovalov form


_THETA = {
    "L": lambda t: (L(Fraction(-t, 2)), 1),
    "A": lambda t: (A(Fraction(-t, 2)), -1),
    "G": lambda t: (G(Fraction(-t, 2)), 1),
    "P": lambda t: (P(Fraction(-t, 2)), -1),
}


def shapovalov_gram(hw: HighestWeightData, degree) -> Matrix:
    """Gram matrix B[i][j] = <basis_i, basis_j> of the contravariant pairing:
    the action's cached block, integer rows over their denominators (for a
    symbolic label, its ParamPolynomial and rational entries over 1)."""
    return _gram(get_action(hw), verma_basis(hw, degree).twice_degree)


def _gram(action: VermaAction, twice_degree: int) -> Matrix:
    """The Gram block at twice_degree, assembled from lower blocks.

    Row w = x * w' of G_d pairs theta(w) = theta(w') * theta(x) with each
    column v.  With theta(x) * v = sum_u a_u / den u (the map of theta(x) on
    the degree-d piece), the entry is sign(theta(x)) * sum_u a_u
    G_{d-wt(x)}[w'][u] / den: a sparse dot product of the map's column with
    a row of the lower block, over the product of the two denominators.
    Zero entries of the lower row are skipped: on a symbolic label a
    polynomial times zero would turn a rational entry into a polynomial.
    The rows go to the Matrix unreduced, with their denominators.
    """
    hit = action._gram_cache.get(twice_degree)
    if hit is not None:
        return hit
    if twice_degree == 0:
        block = action._gram_cache[0] = Matrix([[1]])  # <v, v> = 1
        return block
    basis = _piece(twice_degree)
    by_first = {}  # first letter -> (index, index of the rest) per word
    for i, (x, k) in enumerate(basis.heads):
        by_first.setdefault(x, []).append((i, k))
    nums, dens = [None] * len(basis), [1] * len(basis)
    for x, members in by_first.items():
        lower = _gram(action, twice_degree + x.mode.twice_value)
        theta, sign = _THETA[x.kind](x.mode.twice_value)
        smap = action.symbol_map(theta, twice_degree)
        for i, k in members:
            lower_row = lower.nums[k]
            row = []
            for column in smap.columns:
                acc = 0
                for j, a in column:
                    g = lower_row[j]
                    if g:
                        acc += a * g
                row.append(-acc if sign < 0 else acc)
            nums[i] = row
            dens[i] = smap.den * lower.dens[k]
    block = action._gram_cache[twice_degree] = Matrix(nums, len(basis), dens)
    return block


def simple_graded_dim(hw: HighestWeightData, degree) -> int:
    """Graded dimension of the irreducible quotient: the rank of the Gram block."""
    return rank(shapovalov_gram(hw, degree))


def maximal_submodule_dim(hw: HighestWeightData, degree) -> int:
    g = shapovalov_gram(hw, degree)
    return g.cols - rank(g)


# ---------------------------------------------------------------------------
# singular and subsingular vectors


def raising_symbols(max_degree) -> List[GeneratorSymbol]:
    """Single raising generators with mode <= max_degree, the annihilation test set."""
    return [sym for tm in range(1, int(Fraction(max_degree) * 2) + 1) for sym in symbols_at(tm)]


def _normalize_leading(vec: Dict[Word, object]) -> Dict[Word, object]:
    if not vec:
        return vec
    lead = max(vec, key=leading_word_key)
    inv = Fraction(1) / vec[lead]
    return {w: v * inv for w, v in vec.items()}


def _raised(hw, basis, submodule=None):
    """The raising symbols of the basis degree stacked into one integer
    matrix, one column per basis word, or None at degree 0 (no symbol).

    Row block k is the k-th symbol's map, its rows the words of the target
    piece, scaled by the map's denominator.  With a submodule S, each block
    gets one more column per spanning vector of S at its target, holding
    minus that vector, and the block is scaled by the lcm of their
    denominators too.  Scaling a row changes no kernel vector, and the
    elimination makes every row primitive, so the kernel sees the rows of
    the rational matrix."""
    symbols = raising_symbols(basis.degree)
    if not symbols:
        return None
    action = get_action(hw)
    t = basis.twice_degree
    spans = [submodule.integer_span(t - g.mode.twice_value) if submodule else [] for g in symbols]
    width = len(basis) + sum(map(len, spans))
    rows: List[List[int]] = []
    col = len(basis)
    for g, span in zip(symbols, spans):
        smap = action.symbol_map(g, t)
        scale = math.lcm(*(den for _, den in span))
        block = [[0] * width for _ in range(smap.rows)]
        for i, column in enumerate(smap.columns):
            for j, a in column:
                block[j][i] = a * scale
        for ints, den in span:
            s = -smap.den * (scale // den)
            for j, a in enumerate(ints):
                if a:
                    block[j][col] = s * a
            col += 1
        rows += block
    return Matrix(rows, width)


def singular_vectors(hw: HighestWeightData, degree) -> List[ModuleVector]:
    """Basis of the space of degree-d vectors killed by every raising generator,
    each normalized so its leading basis word has coefficient 1."""
    basis = verma_basis(hw, degree)
    m = _raised(hw, basis)
    if m is None:
        return []
    return [
        ModuleVector.from_dict(_normalize_leading(basis.vector(k)), degree)
        for k in kernel_basis(m)
    ]


class Submodule:
    """Graded span of the module closure of a set of homogeneous generators.

    Closure runs under *all* generator symbols (raising included: a submodule
    generated by a subsingular vector picks up singular vectors through the
    raising action), truncated at max_degree.  Coordinates are rational, so
    this is for numerically specialized highest weights.

    Each degree keeps its spanning vectors in insertion order, each as a
    reduced (ints, den) pair over the degree's basis (the vector ints / den),
    beside an integer echelon form (EchelonSpan) for membership tests.  The
    closure is a worklist: a count per degree of the vectors already
    processed, so every symbol is applied to every vector once, as an
    integer matrix-vector product with the action's symbol map.
    """

    def __init__(self, hw: HighestWeightData, max_degree):
        self.hw = hw
        self.action = get_action(hw)
        self.max_twice = doubled(max_degree)
        self._spans: Dict[int, List[Tuple[List[int], int]]] = {}
        self._echelons: Dict[int, EchelonSpan] = {}
        # per degree, how many vectors of _spans[t] _close has processed
        self._processed: Dict[int, int] = {}

    @property
    def max_degree(self) -> Fraction:
        return Fraction(self.max_twice, 2)

    def graded_dim(self, degree) -> int:
        return len(self._spans.get(doubled(degree), []))

    def integer_span(self, twice_degree: int) -> List[Tuple[List[int], int]]:
        """The spanning vectors at degree twice_degree / 2, in insertion
        order, as (ints, den) pairs; the lists are the submodule's own."""
        return list(self._spans.get(twice_degree, []))

    def contains(self, vec: Dict[Word, object], degree) -> bool:
        if not vec:
            return True
        t = doubled(degree)
        if t not in self._echelons:
            return False
        column = _piece(t).column(vec)
        return self._echelons[t].contains(over_one_den(column)[0])

    def copy(self) -> "Submodule":
        """An independent submodule with the same spans, worklist counts and
        echelon rows.  The (ints, den) pairs are never changed, but the
        echelon rows are rewritten in place as a span grows, so each is
        copied."""
        new = Submodule(self.hw, self.max_degree)
        new._spans = {t: list(vecs) for t, vecs in self._spans.items()}
        new._echelons = {t: span.copy() for t, span in self._echelons.items()}
        new._processed = dict(self._processed)
        return new

    def _try_add(self, ints: List[int], den: int, twice_degree: int) -> bool:
        """Add the vector ints / den at twice_degree unless it lies in the
        span; returns whether it was added."""
        if not any(ints):
            return False
        span = self._echelons.get(twice_degree)
        if span is None:
            span = self._echelons[twice_degree] = EchelonSpan()
        if not span.insert(ints):
            return False
        g = math.gcd(den, *ints)
        self._spans.setdefault(twice_degree, []).append(([a // g for a in ints], den // g))
        return True

    def add_generator(self, vec: Dict[Word, object], degree) -> None:
        t = doubled(degree)
        if not vec or t > self.max_twice:
            return
        ints, den = over_one_den(verma_basis(self.hw, Fraction(t, 2)).column(vec))
        if self._try_add(ints, den, t):
            self._close()

    def _close(self) -> None:
        """Apply every symbol to every vector not yet processed, until no
        degree has one left.

        The order is the one of a full sweep over all vectors (degrees
        ascending, each degree's list in insertion order, repeated until a
        sweep adds nothing) with the vectors an earlier sweep already
        processed left out: their images are in the span already, since the
        span only grows.  So the spanning vectors come out in the order a
        full sweep gives them, and the kernels built from them do not change.
        Each image is ints times the symbol's integer map, over den times
        the map's denominator: exactly the rational image.
        """
        symbols = [
            sym for tm in range(1, self.max_twice + 1) for sym in symbols_at(tm) + symbols_at(-tm)
        ]
        done = self._processed
        while any(done.get(t, 0) < len(vecs) for t, vecs in self._spans.items()):
            for t in sorted(self._spans):
                vecs = self._spans[t]
                start, done[t] = done.get(t, 0), len(vecs)
                for ints, den in vecs[start:done[t]]:
                    for sym in symbols:
                        t2 = t - sym.mode.twice_value
                        if 0 <= t2 <= self.max_twice:
                            smap = self.action.symbol_map(sym, t)
                            image = [0] * smap.rows
                            for x, column in zip(ints, smap.columns):
                                if x:
                                    for j, a in column:
                                        image[j] += x * a
                            self._try_add(image, den * smap.den, t2)


def subsingular_vectors(hw, degree, submodule):
    """Vectors singular modulo a submodule S: every raising image lands in S,
    and the vector itself is reduced modulo S_d.  The caller puts the
    degree's singular vectors in S (as embedding_diagram does), so the new
    directions are neither in S nor singular.  Returns normalized
    representatives of the new directions.

    S must be closed through the degree (ValueError otherwise): then S_d
    lies in K, the kernel of m = [raising images | -(S at the targets)] on
    its first n columns, and the new directions number dim K - dim S_d.  The
    columns of S are independent, so dim K = m.cols - rank_Q(m), which is
    at most m.cols - rank_mod_p(m).  When that bound is dim S_d, K = S_d and
    no kernel is built; otherwise the kernel gives the vectors.
    """
    basis, m = _modulo(hw, degree, submodule)
    if m is not None and m.cols - rank_mod_p(m) == submodule.graded_dim(degree):
        return []
    return _new_directions(basis, m, submodule)


def kernel_subsingular_vectors(hw, degree, submodule):
    """subsingular_vectors without the count, straight from the kernel: for
    a caller that expects a new direction, where the count could never
    prove there is none.  S must be closed through the degree."""
    return _new_directions(*_modulo(hw, degree, submodule), submodule)


def _modulo(hw, degree, submodule):
    """The basis at the degree and the raising matrix modulo S of _raised,
    for an S closed through the degree (ValueError otherwise)."""
    basis = verma_basis(hw, degree)
    if basis.twice_degree > submodule.max_twice:
        raise ValueError(
            f"the submodule is closed only through degree {submodule.max_degree}, "
            f"not through {basis.degree}"
        )
    return basis, _raised(hw, basis, submodule)


def _new_directions(basis, m, submodule):
    """The kernel vectors of m, cut to the basis's n columns, that are new
    modulo S_d for S the submodule, each normalized; none when m is None
    (degree 0)."""
    if m is None:
        return []
    span = EchelonSpan()
    for ints, _ in submodule.integer_span(basis.twice_degree):
        span.insert(ints)
    # a kernel vector of m is a vector whose raising images lie in S, with
    # their coordinates in S; its first n entries are the vector (a zero
    # one is in the span, and basis.vector reads only those)
    return [
        ModuleVector.from_dict(_normalize_leading(basis.vector(x)), basis.degree)
        for x in kernel_basis(m)
        if span.insert(over_one_den(x[: len(basis)])[0])
    ]


# ---------------------------------------------------------------------------
# determinant formula support


def kostant_p2(degree) -> int:
    """Graded dimension of the universal module (the partition count with two
    integer-moded and two half-odd-moded families)."""
    d = Fraction(degree)
    if d < 0:
        return 0
    return char_verma(d).coefficient(d)


def det_formula_phi(k: int, l: int, hw: HighestWeightData):
    """The quartic determinant factor for the index pair (k, l)."""
    if k < 1 or l < 1:
        raise ValueError("k, l must be >= 1")
    if (k - l) % 2:
        raise ValueError("k and l must have equal parity")
    if not hw.cLa:
        raise ZeroDivisionError("cLa = 0: determinant factor undefined")
    x = hw.hA * (1 / Fraction(hw.cLa))
    quartic = (1 + k - x) * (-1 + k + x) * (1 + l - x) * (-1 + l + x)
    return hw.cLa**4 * Fraction(1, 4) * quartic


def _det_index_pairs(level):
    """The admissible index pairs (k, l) at the level: k, l >= 1 of equal
    parity with k * l <= 2 * level."""
    t2 = int(Fraction(level) * 2)
    for k in range(1, t2 + 1):
        for l in range(1, t2 + 1):
            if k * l <= t2 and (k - l) % 2 == 0:
                yield k, l


def predicted_det_roots(level) -> frozenset:
    """Vanishing locus in p at the given level: union over admissible (k, l)."""
    roots = set()
    for k, l in _det_index_pairs(level):
        roots.update({Fraction(k), Fraction(-k), Fraction(l), Fraction(-l)})
    return frozenset(roots)


def det_vanishing_check(level, cL=None, cLa=None, r=None) -> dict:
    """Certify the vanishing locus of the Gram determinant at one level.

    The determinant is computed symbolically in p (other parameters
    specialized), its rational roots extracted, and compared as a *set* with
    the union of roots of the predicted quartic factors.
    """
    cL = DEFAULT_SPECIALIZATION["cL"] if cL is None else cL
    cLa = DEFAULT_SPECIALIZATION["cLa"] if cLa is None else cLa
    r = DEFAULT_SPECIALIZATION["r"] if r is None else r
    p = ParamPolynomial.variable("p")
    hw = pr_to_hw(p, r, cL=cL, cLa=cLa)
    gram = shapovalov_gram(hw, level)
    det = determinant(gram)
    computed = rational_roots_in(det, "p")
    predicted = predicted_det_roots(level)
    # cross-check the prediction against the explicit quartic factors
    factor_roots = set()
    for k, l in _det_index_pairs(level):
        factor_roots |= rational_roots_in(det_formula_phi(k, l, hw), "p")
    return {
        "level": str(Fraction(level)),
        "gram_size": gram.rows,
        "computed_roots": sorted(str(x) for x in computed),
        "predicted_roots": sorted(str(x) for x in predicted),
        "factor_roots": sorted(str(x) for x in factor_roots),
        "match": computed == predicted and factor_roots == set(predicted),
    }


# ---------------------------------------------------------------------------
# the explicit lowering operator for negative integer p


def _schur_element(order: int, kind, scale) -> Element:
    """S_order in the modes kind(-n), each mode carrying ``scale``."""
    if order < 0:
        return Element.zero()
    terms: Dict[Word, object] = {}
    for mu, coeff in schur_expand(order, scale=scale).items():
        word = tuple(kind(-part) for part in mu.parts)
        terms[word] = coeff
    return Element(terms)


def phi_operator(p: int, cL=None, cLa=None) -> Element:
    """Explicit degree-|p| lowering operator whose image of the highest weight
    vector is singular, for negative integer p.

    The even-mode sum carries the (i - 1) weight of a derivative field, and the
    zero-mode correction enters with a minus sign; both were certified against
    kernel computations at p = -1, -2, -3 (see tests).
    """
    if not isinstance(p, int) or p >= 0:
        raise ValueError("the explicit operator requires a negative integer p")
    cL = DEFAULT_SPECIALIZATION["cL"] if cL is None else cL
    cLa = DEFAULT_SPECIALIZATION["cLa"] if cLa is None else cLa
    q = -p
    inv = Fraction(1) / cLa
    total = Element.zero()
    for i in range(1, q + 1):
        pre = Element.of(L(-i)) + (i - 1) * (cL - 27) * Fraction(1, 24) * inv * Element.of(
            A(-i)
        )
        total = total + pre * _schur_element(q - i, A, inv)
    cartan = Element.of(L(0)) - (cL - 3) * Fraction(1, 24) * inv * Element.of(A(0))
    total = total + _schur_element(q, A, inv) * cartan
    for i in range(q):
        for k in range(q - i):
            pg = Element.of(P(Fraction(-2 * i - 1, 2)), G(Fraction(-2 * k - 1, 2)))
            total = total + Fraction(1, 2) * inv * pg * _schur_element(
                q - i - k - 1, A, inv
            )
    for i in range(q):
        for k in range(q - i):
            if i == 0:
                continue
            pp = Element.of(P(Fraction(-2 * i - 1, 2)), P(Fraction(-2 * k - 1, 2)))
            coeff = -Fraction(i) * (cL - 15) * Fraction(1, 24) * inv * inv
            total = total + coeff * pp * _schur_element(q - i - k - 1, A, inv)
    return total


def singular_vector_from_phi(p: int, r, cL=None, cLa=None) -> Tuple[HighestWeightData, ModuleVector]:
    hw = pr_to_hw(Fraction(p), Fraction(r), cL=cL, cLa=cLa)
    op = phi_operator(p, cL=hw.cL, cLa=hw.cLa)
    vec = act(op, highest_weight_vector(), hw)
    return hw, vec


# ---------------------------------------------------------------------------
# embedding diagrams


@dataclass
class DiagramNode:
    node_id: str
    degree: Fraction
    kind: str  # "highest" | "singular" | "subsingular"
    vector: Optional[ModuleVector]


@dataclass
class Diagram:
    pattern: str
    nodes: List[DiagramNode]
    edges: List[Tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern,
            "nodes": [
                {
                    "id": n.node_id,
                    "degree": str(n.degree),
                    "kind": n.kind,
                }
                for n in self.nodes
            ],
            "edges": [{"from": a, "to": b} for a, b in self.edges],
        }

    def to_text(self) -> str:
        lines = [f"pattern: {self.pattern}"]
        for n in self.nodes:
            lines.append(f"  node {n.node_id}: degree {n.degree}, {n.kind}")
        for a, b in self.edges:
            lines.append(f"  edge {a} -> {b}")
        return "\n".join(lines)


def embedding_diagram(p, r, max_degree, cL=None, cLa=None) -> Diagram:
    """Discover singular/subsingular vectors degree by degree and the submodule
    containments among them, up to the truncation degree.

    Each node gets its own closure, for the containments, and every node
    found so far is accumulated in one submodule S that the subsingular
    detector reads, closed through max_degree.  S starts as a copy of the
    first node's closure, which it would otherwise repeat vector for vector.
    """
    hw = pr_to_hw(Fraction(p), Fraction(r), cL=cL, cLa=cLa)
    accumulated = Submodule(hw, max_degree)
    nodes: List[DiagramNode] = [
        DiagramNode("v", Fraction(0), "highest", highest_weight_vector())
    ]
    closures: Dict[str, Submodule] = {}

    def record(prefix: str, kind: str, found: List[ModuleVector], d) -> None:
        nonlocal accumulated
        for i, sv in enumerate(found):
            node_id = f"{prefix}@{d}" + (f".{i}" if len(found) > 1 else "")
            nodes.append(DiagramNode(node_id, Fraction(d), kind, sv))
            closure = Submodule(hw, max_degree)
            closure.add_generator(sv.to_dict(), d)
            closures[node_id] = closure
            if len(closures) == 1:
                accumulated = closure.copy()
            else:
                accumulated.add_generator(sv.to_dict(), d)

    for d in half_degrees(max_degree)[1:]:
        # the singular nodes go into accumulated first: the subsingular
        # detector reads them in S_d
        record("sing", "singular", singular_vectors(hw, d), d)
        record("sub", "subsingular", subsingular_vectors(hw, d, accumulated), d)
    # containment: b in <a>
    contains: Dict[Tuple[str, str], bool] = {}
    proper = [n for n in nodes if n.node_id != "v"]
    for a in proper:
        ca = closures[a.node_id]
        for b in proper:
            if a.node_id == b.node_id:
                continue
            contains[(a.node_id, b.node_id)] = ca.contains(
                b.vector.to_dict(), b.degree
            )
    for b in proper:
        contains[("v", b.node_id)] = True
    ids = ["v"] + [n.node_id for n in proper]
    edges = []
    for a in ids:
        for b in ids:
            if a == b or not contains.get((a, b)):
                continue
            # keep only covering relations
            if any(
                contains.get((a, m)) and contains.get((m, b))
                for m in ids
                if m not in (a, b)
            ):
                continue
            edges.append((a, b))
    kinds = {n.kind for n in nodes}
    if kinds == {"highest"}:
        pattern = "single-node"
    elif "subsingular" in kinds:
        pattern = "interleaved-chain"
    else:
        pattern = "singular-chain"
    return Diagram(pattern=pattern, nodes=nodes, edges=sorted(edges))
