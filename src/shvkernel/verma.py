"""Highest weight modules over the level-zero algebra, with exact certification.

A highest weight vector v is annihilated by every positive mode; the Cartan
data is (h, hA) together with the three central charges (cA = 0 throughout
level zero).  Module vectors are stored as coordinate dicts over the graded
PBW basis

    P(-lam_minus) A(-mu_minus) G(-lam_plus) L(-mu_plus) v

indexed by two partitions and two superpartitions.  Everything downstream --
Shapovalov Gram matrices, graded dimensions of the simple quotient, singular
and subsingular vectors, submodule closures, embedding diagrams -- reduces to
exact linear algebra over these coordinates.

A generator acts on a basis word inside the module, by recursion on the
word's first letter (``VermaAction.apply_symbol``); no word is normal-ordered
in the enveloping algebra.  The Gram block at degree d is assembled from the
blocks below it: for a basis word w = x * w', the row of w is one cached
application of theta(x) to each column, dotted with the row of w' in the
block at degree d - wt(x).

The contravariant form uses the rational anti-involution

    L(n) -> L(-n),   A(n) -> -A(-n) + 2*CLA*delta_{n,0},
    G(s) -> G(-s),   P(s) -> -P(-s),

extended by plain word reversal.  It intertwines the bracket exactly, and the
resulting Gram matrix differs from the hermitian variant only by a unit per
row, so ranks, kernels and vanishing loci are unchanged.  (The matrix need not
be symmetric; its right kernel is the maximal submodule, which is all we use.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact_linalg import Matrix, determinant, kernel_basis, rank
from .qchar import char_verma, schur_expand
from .scalars import (
    DEFAULT_SPECIALIZATION,
    ParamPolynomial,
    RatFunc,
    is_zero,
    rational_roots_in,
)
from .shv_algebra import (
    A,
    Element,
    G,
    GeneratorSymbol,
    L,
    P,
    Partition,
    SuperPartition,
    Word,
    _CENTRAL_KINDS,
    pair_sort_key,
    parity,
    partitions_of,
    super_bracket,
    superpartitions_of,
    sym_key,
    word_weight,
)

# Unused here: the action works inside the module and never normal-orders a
# word, and ranks go through ``rank``.  perfbench/tracing.py wraps
# ``_normal_form`` and ``rational_rank`` in this module by name, so the
# imports stay.
from .exact_linalg import rational_rank  # noqa: F401
from .shv_algebra import _normal_form  # noqa: F401


class DegenerateFamilyError(ValueError):
    """Raised when (h, hA) sits on the hA = cLa line (p = 0), where the
    (p, r) coordinates are not defined."""


@dataclass(frozen=True, eq=True)
class HighestWeightData:
    cL: object
    cA: object
    cLa: object
    h: object
    hA: object


class PRLabel(NamedTuple):
    p: object
    r: object


def pr_to_hw(p, r, cL=None, cLa=None, cA=None) -> HighestWeightData:
    """Weights of the standard family: h = (1-p^2)(cL-3)/24 - r*p, hA = (1+p)cLa."""
    cL = DEFAULT_SPECIALIZATION["cL"] if cL is None else cL
    cLa = DEFAULT_SPECIALIZATION["cLa"] if cLa is None else cLa
    cA = Fraction(0) if cA is None else cA
    h = (1 - p * p) * (cL - 3) * Fraction(1, 24) - r * p
    hA = (1 + p) * cLa
    return HighestWeightData(cL=cL, cA=cA, cLa=cLa, h=h, hA=hA)


def _scalar_div(a, b):
    if isinstance(b, (int, Fraction)):
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        if isinstance(a, (int, Fraction)):
            return Fraction(a) / b
        return a * (Fraction(1) / Fraction(b))
    return RatFunc._coerce(a) / RatFunc._coerce(b)


def hw_to_pr(hw: HighestWeightData) -> PRLabel:
    """Invert the family parametrization.  Errors on the degenerate hA = cLa line."""
    if is_zero(hw.cLa):
        raise ZeroDivisionError("cLa = 0 has no (p, r) coordinates")
    diff = hw.hA - hw.cLa
    if is_zero(diff):
        raise DegenerateFamilyError(
            "hA = cLa corresponds to p = 0, where r is not determined"
        )
    p = _scalar_div(hw.hA, hw.cLa) - 1
    r = _scalar_div((1 - p * p) * (hw.cL - 3) * Fraction(1, 24) - hw.h, p)
    return PRLabel(p=p, r=r)


# ---------------------------------------------------------------------------
# graded bases


class GradedBasis:
    """PBW basis words of one graded component, in a fixed deterministic order."""

    __slots__ = ("twice_degree", "words", "index")

    def __init__(self, twice_degree: int, words: Tuple[Word, ...]):
        self.twice_degree = twice_degree
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}

    @property
    def degree(self) -> Fraction:
        return Fraction(self.twice_degree, 2)

    def __len__(self):
        return len(self.words)

    def content_hash(self) -> str:
        payload = ";".join(
            ",".join(f"{s.kind}{s.mode.twice_value}" for s in w) for w in self.words
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_BASIS_CACHE: Dict[int, GradedBasis] = {}


def _block_word(kind, parts, twice=False) -> Word:
    # parts descending -> modes ascending (most negative first)
    if twice:
        return tuple(kind(Fraction(-t, 2)) for t in parts)
    return tuple(kind(-p) for p in parts)


def verma_basis(hw: HighestWeightData, degree) -> GradedBasis:
    """All PBW words of the given degree (hw fixes the module; the basis shape
    depends only on the degree)."""
    t = Fraction(degree) * 2
    if t.denominator != 1 or t < 0:
        raise ValueError(f"degree must be a non-negative half-integer: {degree}")
    twice_d = int(t)
    cached = _BASIS_CACHE.get(twice_d)
    if cached is not None:
        return cached
    words: List[Word] = []
    for t_P in range(twice_d + 1):
        for lam_minus in superpartitions_of(t_P):
            p_block = _block_word(P, lam_minus.twice_parts, twice=True)
            for t_A in range(0, twice_d - t_P + 1, 2):
                for mu_minus in partitions_of(t_A // 2):
                    a_block = _block_word(A, mu_minus.parts)
                    for t_G in range(twice_d - t_P - t_A + 1):
                        t_L = twice_d - t_P - t_A - t_G
                        if t_L % 2:
                            continue
                        for lam_plus in superpartitions_of(t_G):
                            g_block = _block_word(G, lam_plus.twice_parts, twice=True)
                            for mu_plus in partitions_of(t_L // 2):
                                l_block = _block_word(L, mu_plus.parts)
                                words.append(p_block + a_block + g_block + l_block)
    basis = GradedBasis(twice_d, tuple(words))
    _BASIS_CACHE[twice_d] = basis
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
        basis = self.basis()
        return {
            w: c for w, c in zip(basis.words, self.coords) if not is_zero(c)
        }

    @classmethod
    def from_dict(cls, vec: Dict[Word, object], degree) -> "ModuleVector":
        basis = verma_basis(None, degree)
        coords = [Fraction(0)] * len(basis)
        for w, c in vec.items():
            coords[basis.index[w]] = c
        return cls(degree=Fraction(degree), coords=tuple(coords))

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coords)

    def to_json(self) -> dict:
        basis = self.basis()
        return {
            "degree": str(basis.degree),
            "basis_hash": basis.content_hash(),
            "coords": [str(c) for c in self.coords],
        }

    def to_text(self) -> str:
        basis = self.basis()
        bits = []
        for w, c in zip(basis.words, self.coords):
            if is_zero(c):
                continue
            word_txt = "".join(str(s) for s in w) if w else "1"
            bits.append(f"({c})*{word_txt}v" if w else f"({c})*v")
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# the action


def _add_scaled(out: Dict[Word, object], vec: Dict[Word, object], scale) -> None:
    """out += scale * vec, dropping the coefficients that cancel to zero."""
    for w, c in vec.items():
        prev = out.get(w)
        nv = scale * c if prev is None else prev + scale * c
        if is_zero(nv):
            out.pop(w, None)
        else:
            out[w] = nv


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
    word), so each suffix is worked out once, whatever precedes it.  Those
    applications dominate every downstream computation (Gram matrices,
    closures, kernels).
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
        self._sym_cache: Dict[Tuple[GeneratorSymbol, Word], Dict[Word, object]] = {}
        self._gram_cache: Dict[int, Matrix] = {}

    def _scalar(self, kind: str, word: Word) -> Dict[Word, object]:
        c = self._subs[kind]
        return {} if is_zero(c) else {word: c}

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
                for (b,), bc in super_bracket(sym, sym).terms.items():
                    _add_scaled(out, self.apply_symbol(b, rest), Fraction(1, 2) * bc)
            else:
                out = {}
                sign = -1 if (odd and parity(s1)) else 1
                for u, c in self.apply_symbol(sym, rest).items():
                    _add_scaled(out, self.apply_symbol(s1, u), sign * c)
                for (b,), bc in super_bracket(sym, s1).terms.items():
                    _add_scaled(out, self.apply_symbol(b, rest), bc)
        self._sym_cache[key] = out
        return out

    def apply_word(self, opword: Sequence[GeneratorSymbol], vec: Dict[Word, object]):
        for sym in reversed(tuple(opword)):
            new: Dict[Word, object] = {}
            for w, c in vec.items():
                _add_scaled(new, self.apply_symbol(sym, w), c)
            vec = new
            if not vec:
                break
        return vec

    def apply_element(self, x: Element, vec: Dict[Word, object]):
        out: Dict[Word, object] = {}
        for opword, coeff in x.terms.items():
            _add_scaled(out, self.apply_word(opword, vec), coeff)
        return out

    def matrix_of(self, opword: Sequence[GeneratorSymbol], degree) -> Matrix:
        """Matrix of a homogeneous operator word from degree to degree + weight."""
        src = verma_basis(self.hw, degree)
        target_degree = Fraction(degree) + word_weight(tuple(opword))
        dst = verma_basis(self.hw, target_degree)
        cols = []
        for w in src.words:
            img = self.apply_word(opword, {w: Fraction(1)})
            col = [Fraction(0)] * len(dst)
            for w2, c in img.items():
                col[dst.index[w2]] = c
            cols.append(col)
        if not cols:
            return Matrix([])
        return Matrix.from_columns(cols)


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


def theta_word(word: Word) -> Tuple[Word, int]:
    """Antipode of a lowering word: reversed raising word plus a global sign."""
    sign = 1
    out = []
    for s in reversed(word):
        img, sg = _THETA[s.kind](s.mode.twice_value)
        sign *= sg
        out.append(img)
    return tuple(out), sign


def shapovalov_gram(hw: HighestWeightData, degree) -> Matrix:
    """Gram matrix B[i][j] = <basis_i, basis_j> of the contravariant pairing."""
    return _gram(get_action(hw), verma_basis(hw, degree).twice_degree)


def _gram(action: VermaAction, twice_degree: int) -> Matrix:
    """The Gram block at twice_degree, assembled from lower blocks.

    Row w = x * w' of G_d pairs theta(w) = theta(w') * theta(x) with each
    column v.  With theta(x) * v = sum_u c_u u (one cached symbol
    application), the entry is sign(theta(x)) * sum_u c_u G_{d-wt(x)}[w'][u]:
    a sparse dot product against a row of the lower block.
    """
    hit = action._gram_cache.get(twice_degree)
    if hit is not None:
        return hit
    if twice_degree == 0:
        m = Matrix([[Fraction(1)]])  # <v, v> = 1
        action._gram_cache[0] = m
        return m
    basis = verma_basis(action.hw, Fraction(twice_degree, 2))
    by_first: Dict[GeneratorSymbol, List[int]] = {}
    for i, w in enumerate(basis.words):
        by_first.setdefault(w[0], []).append(i)
    rows: List[Optional[List]] = [None] * len(basis)
    for x, members in by_first.items():
        lower_twice = twice_degree + x.mode.twice_value
        lower = _gram(action, lower_twice)
        lower_index = verma_basis(action.hw, Fraction(lower_twice, 2)).index
        theta, sign = _THETA[x.kind](x.mode.twice_value)
        images = [
            [(lower_index[u], c) for u, c in action.apply_symbol(theta, v).items()]
            for v in basis.words
        ]
        for i in members:
            lower_row = lower.row(lower_index[basis.words[i][1:]])
            nonzero = {j: g for j, g in enumerate(lower_row) if not is_zero(g)}
            row = []
            for image in images:
                acc = None
                for j, c in image:
                    g = nonzero.get(j)
                    if g is not None:
                        acc = c * g if acc is None else acc + c * g
                if acc is None or is_zero(acc):
                    row.append(Fraction(0))
                else:
                    row.append(-acc if sign < 0 else acc)
            rows[i] = row
    m = Matrix(rows)
    action._gram_cache[twice_degree] = m
    return m


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
    t = int(Fraction(max_degree) * 2)
    out: List[GeneratorSymbol] = []
    for tm in range(1, t + 1):
        if tm % 2 == 0:
            out.append(L(tm // 2))
            out.append(A(tm // 2))
        else:
            out.append(G(Fraction(tm, 2)))
            out.append(P(Fraction(tm, 2)))
    return out


def _normalize_leading(vec: Dict[Word, object]) -> Dict[Word, object]:
    if not vec:
        return vec
    lead = max(vec, key=leading_word_key)
    c = vec[lead]
    if isinstance(c, Fraction):
        inv = Fraction(1) / c
    else:
        inv = RatFunc._coerce(c).inv()
    return {w: v * inv for w, v in vec.items()}


def singular_vectors(hw: HighestWeightData, degree) -> List[ModuleVector]:
    """Basis of the space of degree-d vectors killed by every raising generator,
    each normalized so its leading basis word has coefficient 1."""
    action = get_action(hw)
    basis = verma_basis(hw, degree)
    if len(basis) == 0:
        return []
    blocks = []
    for g in raising_symbols(degree):
        m = action.matrix_of((g,), degree)
        if m.rows:
            blocks.append(m)
    if not blocks:
        return []
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.stack(b)
    out = []
    for coords in kernel_basis(stacked):
        vec = {
            w: c for w, c in zip(basis.words, coords) if not is_zero(c)
        }
        vec = _normalize_leading(vec)
        out.append(ModuleVector.from_dict(vec, Fraction(degree)))
    return out


class _EchelonSpan:
    """Incremental reduced row echelon span over the rationals, for fast
    membership tests during submodule closure."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: Dict[int, List[Fraction]] = {}

    def reduce(self, vec: Sequence) -> List:
        v = list(vec)
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, vec: Sequence) -> bool:
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        inv = Fraction(1) / v[piv]
        v = [c * inv for c in v]
        for other in self.rows.values():
            c = other[piv]
            if c:
                other[:] = [a - c * b for a, b in zip(other, v)]
        self.rows[piv] = v
        return True

    def contains(self, vec: Sequence) -> bool:
        return all(not c for c in self.reduce(vec))

    def __len__(self):
        return len(self.rows)


class Submodule:
    """Graded span of the module closure of a set of homogeneous generators.

    Closure runs under *all* generator symbols (raising included: a submodule
    generated by a subsingular vector picks up singular vectors through the
    raising action), truncated at max_degree.  Coordinates are rational, so
    this is for numerically specialized highest weights.
    """

    def __init__(self, hw: HighestWeightData, max_degree):
        self.hw = hw
        self.action = get_action(hw)
        self.max_twice = int(Fraction(max_degree) * 2)
        self._spans: Dict[int, List[Dict[Word, object]]] = {}
        self._echelons: Dict[int, _EchelonSpan] = {}

    @property
    def max_degree(self) -> Fraction:
        return Fraction(self.max_twice, 2)

    def _coords(self, vec: Dict[Word, object], twice_degree: int):
        basis = verma_basis(self.hw, Fraction(twice_degree, 2))
        col = [Fraction(0)] * len(basis)
        for w, c in vec.items():
            col[basis.index[w]] = c
        return col

    def _echelon(self, twice_degree: int) -> _EchelonSpan:
        e = self._echelons.get(twice_degree)
        if e is None:
            basis = verma_basis(self.hw, Fraction(twice_degree, 2))
            e = _EchelonSpan(len(basis))
            self._echelons[twice_degree] = e
        return e

    def graded_dim(self, degree) -> int:
        return len(self._spans.get(int(Fraction(degree) * 2), []))

    def graded_span(self, degree) -> List[Dict[Word, object]]:
        return list(self._spans.get(int(Fraction(degree) * 2), []))

    def contains(self, vec: Dict[Word, object], degree) -> bool:
        if not vec:
            return True
        t = int(Fraction(degree) * 2)
        if t not in self._echelons:
            return False
        return self._echelons[t].contains(self._coords(vec, t))

    def _try_add(self, vec: Dict[Word, object], twice_degree: int) -> bool:
        if not vec or twice_degree > self.max_twice:
            return False
        if not self._echelon(twice_degree).insert(self._coords(vec, twice_degree)):
            return False
        self._spans.setdefault(twice_degree, []).append(dict(vec))
        return True

    def add_generator(self, vec: Dict[Word, object], degree) -> None:
        if self._try_add(vec, int(Fraction(degree) * 2)):
            self._close()

    def _close(self) -> None:
        symbols = []
        for tm in range(1, self.max_twice + 1):
            if tm % 2 == 0:
                symbols += [L(tm // 2), A(tm // 2), L(-(tm // 2)), A(-(tm // 2))]
            else:
                s = Fraction(tm, 2)
                symbols += [G(s), P(s), G(-s), P(-s)]
        changed = True
        while changed:
            changed = False
            for t in sorted(self._spans):
                for vec in list(self._spans[t]):
                    for sym in symbols:
                        t2 = t - sym.mode.twice_value
                        if t2 < 0 or t2 > self.max_twice:
                            continue
                        img = self.action.apply_word((sym,), vec)
                        if img and self._try_add(img, t2):
                            changed = True
        return None


def subsingular_vectors(
    hw: HighestWeightData, degree, submodule: Submodule
) -> List[ModuleVector]:
    """Vectors singular modulo a submodule S: every raising image lands in S,
    and the vector itself is reduced modulo S plus the genuine singular space.
    Returns normalized representatives of the new directions."""
    action = get_action(hw)
    basis = verma_basis(hw, degree)
    n = len(basis)
    if n == 0:
        return []
    blocks: List[Tuple[Matrix, Matrix]] = []
    for g in raising_symbols(degree):
        tgt = Fraction(degree) - g.mode.value
        m = action.matrix_of((g,), degree)
        if not m.rows:
            continue
        span = submodule.graded_span(tgt)
        scols = [submodule._coords(v, int(tgt * 2)) for v in span]
        smat = Matrix.from_columns(scols) if scols else Matrix.zero(m.rows, 0)
        blocks.append((m, smat))
    if not blocks:
        return []
    total_aux = sum(s.cols for _, s in blocks)
    rows: List[List] = []
    aux_offset = 0
    for m, s in blocks:
        for i in range(m.rows):
            row = list(m.row(i))
            row += [Fraction(0)] * aux_offset
            row += [-x for x in s.row(i)] if s.cols else []
            row += [Fraction(0)] * (total_aux - aux_offset - s.cols)
            rows.append(row)
        aux_offset += s.cols
    kernel = kernel_basis(Matrix(rows))
    candidates = []
    for k in kernel:
        x = k[:n]
        if any(not is_zero(c) for c in x):
            candidates.append(x)
    if not candidates:
        return []
    # quotient by S_d + genuine singular vectors
    span = _EchelonSpan(n)
    for v in submodule.graded_span(degree):
        span.insert(submodule._coords(v, int(Fraction(degree) * 2)))
    for sv in singular_vectors(hw, degree):
        span.insert(list(sv.coords))
    out = []
    for x in candidates:
        if not span.insert(list(x)):
            continue
        vec = {w: c for w, c in zip(basis.words, x) if not is_zero(c)}
        out.append(
            ModuleVector.from_dict(_normalize_leading(vec), Fraction(degree))
        )
    return out


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
    if is_zero(hw.cLa):
        raise ZeroDivisionError("cLa = 0: determinant factor undefined")
    x = _scalar_div(hw.hA, hw.cLa)
    quartic = (1 + k - x) * (-1 + k + x) * (1 + l - x) * (-1 + l + x)
    return hw.cLa**4 * Fraction(1, 4) * quartic


def predicted_det_roots(level) -> frozenset:
    """Vanishing locus in p at the given level: union over admissible (k, l)."""
    t2 = int(Fraction(level) * 2)
    roots = set()
    for k in range(1, t2 + 1):
        for l in range(1, t2 + 1):
            if k * l <= t2 and (k - l) % 2 == 0:
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
    t2 = int(Fraction(level) * 2)
    for k in range(1, t2 + 1):
        for l in range(1, t2 + 1):
            if k * l <= t2 and (k - l) % 2 == 0:
                phi = det_formula_phi(k, l, hw)
                factor_roots |= rational_roots_in(phi, "p")
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
    for mu, coeff in schur_expand(order, scale=scale).terms.items():
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

    def node_kinds(self) -> List[Tuple[Fraction, str]]:
        return [(n.degree, n.kind) for n in self.nodes]

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


def _half_range(max_degree) -> List[Fraction]:
    t = int(Fraction(max_degree) * 2)
    return [Fraction(k, 2) for k in range(1, t + 1)]


def embedding_diagram(p, r, max_degree, cL=None, cLa=None) -> Diagram:
    """Discover singular/subsingular vectors degree by degree and the submodule
    containments among them, up to the truncation degree."""
    hw = pr_to_hw(Fraction(p), Fraction(r), cL=cL, cLa=cLa)
    accumulated = Submodule(hw, max_degree)
    nodes: List[DiagramNode] = [
        DiagramNode("v", Fraction(0), "highest", highest_weight_vector())
    ]
    closures: Dict[str, Submodule] = {}
    for d in _half_range(max_degree):
        found: List[Tuple[str, ModuleVector]] = []
        sing = singular_vectors(hw, d)
        for i, sv in enumerate(sing):
            suffix = f".{i}" if len(sing) > 1 else ""
            found.append((f"sing@{d}{suffix}", sv))
        sub = subsingular_vectors(hw, d, accumulated)
        for i, sv in enumerate(sub):
            suffix = f".{i}" if len(sub) > 1 else ""
            found.append((f"sub@{d}{suffix}", sv))
        for node_id, sv in found:
            kind = "singular" if node_id.startswith("sing") else "subsingular"
            nodes.append(DiagramNode(node_id, Fraction(d), kind, sv))
            closure = Submodule(hw, max_degree)
            closure.add_generator(sv.to_dict(), d)
            closures[node_id] = closure
            accumulated.add_generator(sv.to_dict(), d)
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
