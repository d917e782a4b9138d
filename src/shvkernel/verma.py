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
in the enveloping algebra.  Each bracket the recursion meets is read from a
table the action keeps, one tuple of (symbol, coefficient) pairs per pair of
symbols.

The Gram blocks, the closure and the detectors read the action as integer
matrices.  ``VermaAction.symbol_map(sym, twice)`` is sym on the
degree-twice/2 piece: for each basis word, (target index, int) pairs over one
positive denominator, built once from the cached ``apply_symbol``.

The Gram block at degree d is assembled from the blocks below it and kept as
integer rows, each over one positive denominator prime to the row.  For a
basis word w = x * w', the row of w is the map of theta(x) on the degree-d
piece applied to the row of w' in the block at degree d - wt(x): each entry
is a sum of int products, over the product of the two denominators.
``shapovalov_gram`` turns a block into the rational matrix.  A symbolic label
(``det`` works in p) runs the same loop: its maps keep the polynomial
coefficients over den 1, and so do its blocks.

A ``Submodule`` keeps each spanning vector as integers over one denominator,
so a closure step is an integer matrix-vector product, and the product goes
straight into the integer echelon span.  The singular and subsingular
detectors stack the raising symbols' maps, each block scaled by its
denominator, into one integer kernel matrix.

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

from .exact_linalg import CoordinateMap, Matrix, determinant, kernel_basis, rank
from .qchar import char_verma, schur_expand
from .scalars import (
    DEFAULT_SPECIALIZATION,
    ParamPolynomial,
    add_scaled,
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
    doubled,
    graded_tuples,
    half_degrees,
    pair_sort_key,
    parity,
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
    order, and the coordinate map they define."""

    __slots__ = ("twice_degree",)

    def __init__(self, twice_degree: int, words: Tuple[Word, ...]):
        super().__init__(words)
        self.twice_degree = twice_degree

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
    target piece.  For a symbolic label (weights polynomial in p) the a_j are
    the nonzero coefficients of apply_symbol as they are, Fractions and
    ParamPolynomials, over den 1, so a sum of a_j times entries runs
    unchanged on either kind of label."""

    den: int
    rows: int
    columns: List[List[Tuple[int, int]]]


class VermaAction:
    """The action of single generators on the PBW basis of the module of hw.

    ``apply_symbol(sym, word)`` is sym applied to word * v, computed inside
    the module by recursion on the first letter of the canonical lowering
    word = s1 * rest:

        sym * s1 * rest = (-1)^{|sym||s1|} s1 * (sym * rest) + [sym, s1] * rest

    unless sym * word is already canonical (sym sorts before s1, or equals an
    even s1) or sym = s1 is odd (then sym * sym = [sym, sym]_+ / 2).  On the
    highest weight vector a lowering symbol gives its one-letter word, a
    raising symbol gives zero and a Cartan or central symbol its eigenvalue;
    a central symbol scales any word.  Every result is memoized per (symbol,
    word), so each suffix is worked out once, whatever precedes it, and each
    bracket [sym, s1] is built once per pair, as a tuple of (symbol,
    coefficient) pairs.  Those applications dominate every downstream
    computation (Gram matrices, closures, kernels).
    """

    def __init__(self, hw: HighestWeightData):
        self.hw = hw
        self._subs = {
            "L": hw.h,
            "A": hw.hA,
            "CL": hw.cL,
            "CA": hw.cA,
            "CLA": hw.cLa,
        }
        self._symbolic = any(isinstance(c, ParamPolynomial) for c in self._subs.values())
        self._sym_cache: Dict[Tuple[GeneratorSymbol, Word], Dict[Word, object]] = {}
        self._brackets: Dict[Tuple[GeneratorSymbol, GeneratorSymbol], Tuple] = {}
        self._gram_cache: Dict[int, GramBlock] = {}
        self._maps: Dict[Tuple[GeneratorSymbol, int], SymbolMap] = {}

    def _scalar(self, kind: str, word: Word) -> Dict[Word, object]:
        c = self._subs[kind]
        return {word: c} if c else {}

    def _bracket(self, x: GeneratorSymbol, y: GeneratorSymbol) -> Tuple:
        """[x, y] as a tuple of (symbol, coefficient) pairs, built once."""
        key = (x, y)
        hit = self._brackets.get(key)
        if hit is None:
            hit = self._brackets[key] = tuple(
                (b, bc) for (b,), bc in super_bracket(x, y).terms.items()
            )
        return hit

    def apply_symbol(self, sym: GeneratorSymbol, word: Word) -> Dict[Word, object]:
        """sym * word * v as {canonical lowering word: coefficient}."""
        key = (sym, word)
        hit = self._sym_cache.get(key)
        if hit is not None:
            return hit
        if sym.kind in _CENTRAL_KINDS:
            out = self._scalar(sym.kind, word)
        elif not word:
            block = sym_key(sym)[0]
            if block == 0:
                out = {(sym,): Fraction(1)}
            elif block == 2:
                out = {}
            else:
                out = self._scalar(sym.kind, ())
        else:
            s1, rest = word[0], word[1:]
            odd = parity(sym)
            if sym_key(sym) < sym_key(s1) or (sym == s1 and not odd):
                out = {(sym,) + word: Fraction(1)}
            elif sym == s1:
                out = {}
                for b, bc in self._bracket(sym, sym):
                    add_scaled(out, self.apply_symbol(b, rest).items(), Fraction(1, 2) * bc)
            else:
                out = {}
                sign = -1 if (odd and parity(s1)) else 1
                for u, c in self.apply_symbol(sym, rest).items():
                    add_scaled(out, self.apply_symbol(s1, u).items(), sign * c)
                for b, bc in self._bracket(sym, s1):
                    add_scaled(out, self.apply_symbol(b, rest).items(), bc)
        self._sym_cache[key] = out
        return out

    def symbol_map(self, sym: GeneratorSymbol, twice: int) -> SymbolMap:
        """sym on the PBW piece of degree twice/2 as a sparse integer matrix
        (for a symbolic label, its coefficients over den 1), built once per
        (sym, twice) from the cached apply_symbol; the target degree must be
        >= 0."""
        key = (sym, twice)
        hit = self._maps.get(key)
        if hit is not None:
            return hit
        target = _piece(twice - sym.mode.twice_value).index
        images = [self.apply_symbol(sym, w) for w in _piece(twice).words]
        if self._symbolic:
            den = 1
            columns = [[(target[u], c) for u, c in image.items()] for image in images]
        else:
            den = math.lcm(*(c.denominator for image in images for c in image.values()))
            columns = [
                [(target[u], c.numerator * (den // c.denominator)) for u, c in image.items()]
                for image in images
            ]
        out = self._maps[key] = SymbolMap(den, len(target), columns)
        return out

    def apply_word(self, opword: Sequence[GeneratorSymbol], vec: Dict[Word, object]):
        for sym in reversed(tuple(opword)):
            new: Dict[Word, object] = {}
            for w, c in vec.items():
                add_scaled(new, self.apply_symbol(sym, w).items(), c)
            vec = new
            if not vec:
                break
        return vec

    def apply_element(self, x: Element, vec: Dict[Word, object]):
        out: Dict[Word, object] = {}
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
    action = get_action(hw)
    out = action.apply_element(x, v.to_dict())
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


class GramBlock(NamedTuple):
    """One Gram block as integer rows: entry (i, j) is nums[i][j] / dens[i],
    with dens[i] > 0 and gcd(dens[i], *nums[i]) = 1.  For a symbolic label
    the entries are Fractions and ParamPolynomials over den 1 (the top entry
    <v, v> = 1 is an int on either kind of label)."""

    rows: int
    cols: int
    nums: List[list]
    dens: List[int]


_ZERO = Fraction(0)


def shapovalov_gram(hw: HighestWeightData, degree) -> Matrix:
    """Gram matrix B[i][j] = <basis_i, basis_j> of the contravariant pairing,
    with Fraction entries (ParamPolynomial ones too for a symbolic label) and
    every zero entry the one shared Fraction(0)."""
    block = _gram(get_action(hw), verma_basis(hw, degree).twice_degree)
    return Matrix(
        [
            [(Fraction(n, den) if type(n) is int else n) if n else _ZERO for n in row]
            for row, den in zip(block.nums, block.dens)
        ],
        block.cols,
    )


def _gram(action: VermaAction, twice_degree: int) -> GramBlock:
    """The Gram block at twice_degree, assembled from lower blocks.

    Row w = x * w' of G_d pairs theta(w) = theta(w') * theta(x) with each
    column v.  With theta(x) * v = sum_u a_u / den u (the map of theta(x) on
    the degree-d piece), the entry is sign(theta(x)) * sum_u a_u
    G_{d-wt(x)}[w'][u] / den: a sparse dot product of the map's column with
    a row of the lower block, over the product of the two denominators.
    Zero entries of the lower row are skipped: on a symbolic label a
    polynomial times zero would turn a rational entry into a polynomial.
    """
    hit = action._gram_cache.get(twice_degree)
    if hit is not None:
        return hit
    if twice_degree == 0:
        block = action._gram_cache[0] = GramBlock(1, 1, [[1]], [1])  # <v, v> = 1
        return block
    basis = _piece(twice_degree)
    by_first: Dict[GeneratorSymbol, List[int]] = {}
    for i, w in enumerate(basis.words):
        by_first.setdefault(w[0], []).append(i)
    nums: List[Optional[list]] = [None] * len(basis)
    dens: List[int] = [1] * len(basis)
    for x, members in by_first.items():
        lower_twice = twice_degree + x.mode.twice_value
        lower = _gram(action, lower_twice)
        lower_index = _piece(lower_twice).index
        theta, sign = _THETA[x.kind](x.mode.twice_value)
        smap = action.symbol_map(theta, twice_degree)
        for i in members:
            k = lower_index[basis.words[i][1:]]
            lower_row = lower.nums[k]
            row = []
            for column in smap.columns:
                acc = 0
                for j, a in column:
                    g = lower_row[j]
                    if g:
                        acc += a * g
                row.append(-acc if sign < 0 else acc)
            den = smap.den * lower.dens[k]
            if den > 1:
                common = math.gcd(den, *row)
                if common > 1:
                    row = [a // common for a in row]
                    den //= common
            nums[i] = row
            dens[i] = den
    block = action._gram_cache[twice_degree] = GramBlock(len(basis), len(basis), nums, dens)
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


def _raised(hw: HighestWeightData, basis: GradedBasis, submodule: Optional[Submodule] = None):
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


def _over_one_den(vec: Sequence) -> Tuple[List[int], int]:
    """A rational vector as (ints, den): integers over the lcm of its
    denominators."""
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


class _EchelonSpan:
    """Incremental reduced row echelon span over the rationals, for fast
    membership tests during submodule closure.

    Rows are primitive integer rows keyed by pivot column: each pivot is
    positive and every other pivot column of the row is zero.  reduce and
    insert_ints take integer rows; insert and contains take rational vectors
    and scale them to integers by the lcm of their denominators first.  Reduction is fraction-free, v <- row[piv] * v -
    v[piv] * row followed by division by the content, so no Fraction is
    formed.  Stored rows are rewritten in place as the span grows, so a row
    is always a new list, never one a caller passed in.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: Dict[int, List[int]] = {}

    def reduce(self, v: List[int]) -> List[int]:
        """An integer multiple of v minus its projection onto the span."""
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                p = row[piv]
                v = [p * a - c * b for a, b in zip(v, row)]
                g = math.gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        return v

    def insert_ints(self, vec: List[int]) -> bool:
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        g = math.gcd(*v)
        if v[piv] < 0:
            g = -g
        v = [c // g for c in v]
        p = v[piv]
        for other in self.rows.values():
            c = other[piv]
            if c:
                # the other row's own pivot entry is multiplied by p > 0
                new = [p * a - c * b for a, b in zip(other, v)]
                g = math.gcd(*new)
                other[:] = [a // g for a in new] if g > 1 else new
        self.rows[piv] = v
        return True

    def insert(self, vec: Sequence) -> bool:
        return self.insert_ints(_over_one_den(vec)[0])

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(_over_one_den(vec)[0]))

    def __len__(self):
        return len(self.rows)


class Submodule:
    """Graded span of the module closure of a set of homogeneous generators.

    Closure runs under *all* generator symbols (raising included: a submodule
    generated by a subsingular vector picks up singular vectors through the
    raising action), truncated at max_degree.  Coordinates are rational, so
    this is for numerically specialized highest weights.

    Each degree keeps its spanning vectors in insertion order, each as a
    reduced (ints, den) pair over the degree's basis (the vector ints / den),
    beside an integer echelon form (_EchelonSpan) for membership tests.
    graded_span gives them as {word: Fraction} dicts.  The closure is a
    worklist: a count per degree of the vectors already processed, so every
    symbol is applied to every vector once, as an integer matrix-vector
    product with the action's symbol map.
    """

    def __init__(self, hw: HighestWeightData, max_degree):
        self.hw = hw
        self.action = get_action(hw)
        self.max_twice = doubled(max_degree)
        self._spans: Dict[int, List[Tuple[List[int], int]]] = {}
        self._echelons: Dict[int, _EchelonSpan] = {}
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

    def graded_span(self, degree) -> List[Dict[Word, object]]:
        t = doubled(degree)
        vecs = self._spans.get(t, [])
        if not vecs:
            return []
        words = verma_basis(self.hw, Fraction(t, 2)).words
        return [{w: Fraction(a, den) for w, a in zip(words, ints) if a} for ints, den in vecs]

    def contains(self, vec: Dict[Word, object], degree) -> bool:
        if not vec:
            return True
        t = doubled(degree)
        if t not in self._echelons:
            return False
        return self._echelons[t].contains(verma_basis(self.hw, Fraction(t, 2)).column(vec))

    def _try_add(self, ints: List[int], den: int, twice_degree: int) -> bool:
        """Add the vector ints / den at twice_degree unless it lies in the
        span; returns whether it was added."""
        if not any(ints):
            return False
        span = self._echelons.get(twice_degree)
        if span is None:
            span = self._echelons[twice_degree] = _EchelonSpan()
        if not span.insert_ints(ints):
            return False
        g = math.gcd(den, *ints)
        self._spans.setdefault(twice_degree, []).append(([a // g for a in ints], den // g))
        return True

    def add_generator(self, vec: Dict[Word, object], degree) -> None:
        t = doubled(degree)
        if not vec or t > self.max_twice:
            return
        ints, den = _over_one_den(verma_basis(self.hw, Fraction(t, 2)).column(vec))
        if self._try_add(ints, den, t):
            self._close()

    def _close(self) -> None:
        """Apply every symbol to every vector not yet processed, until no
        degree has one left.

        The order is the one of a full sweep over all vectors (degrees
        ascending, each degree's list in insertion order, repeated until a
        sweep adds nothing) with the vectors an earlier sweep already
        processed left out: their images are in the span already, since the
        span only grows.  So graded_span lists come out in the order a full
        sweep gives them, and the kernels built from them do not change.
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


def subsingular_vectors(
    hw: HighestWeightData, degree, submodule: Submodule
) -> List[ModuleVector]:
    """Vectors singular modulo a submodule S: every raising image lands in S,
    and the vector itself is reduced modulo S_d.  The caller puts the
    degree's singular vectors in S (as embedding_diagram does), so the new
    directions are neither in S nor singular.  Returns normalized
    representatives of the new directions."""
    basis = verma_basis(hw, degree)
    n = len(basis)
    # [raising images | -(the spans of S at the targets)]: a kernel vector
    # is a vector whose raising images lie in S, with their coordinates in S
    m = _raised(hw, basis, submodule)
    if m is None:
        return []
    candidates = [x[:n] for x in kernel_basis(m) if any(x[:n])]
    if not candidates:
        return []
    span = _EchelonSpan()
    for ints, _ in submodule.integer_span(basis.twice_degree):
        span.insert_ints(ints)
    return [
        ModuleVector.from_dict(_normalize_leading(basis.vector(x)), degree)
        for x in candidates
        if span.insert(list(x))
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
    containments among them, up to the truncation degree."""
    hw = pr_to_hw(Fraction(p), Fraction(r), cL=cL, cLa=cLa)
    accumulated = Submodule(hw, max_degree)
    nodes: List[DiagramNode] = [
        DiagramNode("v", Fraction(0), "highest", highest_weight_vector())
    ]
    closures: Dict[str, Submodule] = {}

    def record(prefix: str, kind: str, found: List[ModuleVector], d) -> None:
        for i, sv in enumerate(found):
            node_id = f"{prefix}@{d}" + (f".{i}" if len(found) > 1 else "")
            nodes.append(DiagramNode(node_id, Fraction(d), kind, sv))
            closure = Submodule(hw, max_degree)
            closure.add_generator(sv.to_dict(), d)
            closures[node_id] = closure
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
