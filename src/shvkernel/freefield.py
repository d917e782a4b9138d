"""Free field realization on a rank-two boson pair with symplectic fermions.

Fock states, vectors and the free modes c(n), d(n), psi^+(s), psi^-(s) live
in shvkernel.fock; the states and vectors are re-exported here.  A graded
piece (piece) lists its states in the order of shv_algebra.graded_tuples over
the psi^+, psi^-, d and c blocks, as the Verma bases do over theirs.  Of the
free modes only psi^-(s) is lifted to vectors (psi_minus_mode), for the
explicit singular vectors.  Every image is summed by scalars.add_scaled, but
for the last step of a realized word (_accumulate), whose integer sum is
filtered once at the end.

The algebra generators are realized as

    alpha(n) = -cLa * c(n)
    Psi(s)   = -sqrt(2) * cLa * psi^-(s)
    L(n)     = (1/2) sum :c(j)d(k): - ((cL-3)/24)(n+1) c(n) + ((n+1)/2) d(n)
               + (1/2) sum (-s-1/2) [:psi^+(s)psi^-(t): + :psi^-(s)psi^+(t):]
    G(s)     = sqrt(2) [ (1/2) sum c(j)psi^+(t) + (1/2) sum d(j)psi^-(t)
               + ((cL-3)/12)(-s-1/2) psi^-(s) + (s+1/2) psi^+(s) ]

All sums truncate term-by-term on any basis vector, so no truncation parameter
is needed.  Irrational scalars never appear: every vector carries a parity flag
counting the power of sqrt(2) modulo two, and coefficients stay rational.

Realized modes never leave a sector, and their columns are kept in integers
over one denominator D per (realization, sector), built from cL, cLa, x_c and
x_d: it clears the weights 1/2, (s+1/2)/2, (cL-3)(n+1)/24 and cLa, each times
the zero-mode pairings 2*x_c and 2*x_d.  _realized_raw caches the column of a
mode at a state as (state, int) pairs, D times the mode's rational part.  D is
derived by hand, so it is checked where each column is built: a coefficient it
does not clear raises ArithmeticError.  One path composes the columns:
_accumulate applies a word's mode letters right to left through _realized_raw
and adds the image, times an integer weight, to an unfiltered integer sum.
realize_word (and generator_mode, a one-letter word) scales its input to
integers, folds the word's central letters into one scalar (_fold),
accumulates, and divides each output entry once, at the end, by that scale and
D per mode.  A commutator check x∘y ∓ y∘x − [x, y]± is planned once per pair
(_bracket_plan): the table is read, central letters are folded, equal mode
words are merged (an even x∘x − x∘x leaves nothing) and each word gets one
integer weight over one scale Q * D**top per sector.  realized_bracket_report
evaluates a pair's plan on every basis state and tests the sum for zero;
bracket_defect evaluates it on the vector scaled to integers and returns to
Fractions only for a nonzero defect.

Lattice exponential operators e^{kappa} (kappa a multiple of c), the odd
screening built from psi^-(-1/2)e^{c/2}, and the long screenings assembled from
its modes are provided, together with the explicit singular and subsingular
vector constructions they generate.

A mode of e^{kappa} or of the screening current removes a subset of the d
letters, inserts the c letters of a Schur polynomial and, for the current,
applies one fermion mode.  Which letters, which polynomials and which fermion
modes depends on a state only through its integer effective mode N = n +
k*x_d, its d partition and (for the current) its psi^+ letters; never on x_c,
psi^- or the c letters.  So each operator expands once per such key into a
template, a tuple of (kept d letters, c letters[, twice fermion mode],
coefficient) with equal shapes merged and zero sums dropped, memoized in a
bounded lru_cache (_a_template, _lattice_template); a_mode and lattice_mode
then only place each template entry on each state.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .exact_linalg import CoordinateMap, Matrix, rank
from .fock import (
    CosetError,
    FockBasisVector,
    FockVector,
    LatticePoint,
    _c_free,
    _d_free,
    _psi_minus,
    _psi_plus,
    _state,
    sector_for,
)
from .qchar import schur_expand
from .scalars import DEFAULT_SPECIALIZATION, add_scaled
from .shv_algebra import (
    Element,
    GeneratorSymbol,
    Mode,
    graded_tuples,
    half_degrees,
    parity as symbol_parity,
    super_bracket,
    symbols_at,
)


_HALF = Fraction(1, 2)


def _with_c_letters(b: FockBasisVector, mu_parts: Tuple[int, ...],
                    sector: LatticePoint, d_part: Tuple[int, ...]) -> FockBasisVector:
    """b with the c letters of mu added, over the given sector and d block."""
    cp = b.c_part
    if mu_parts:
        cp = tuple(sorted(cp + mu_parts, reverse=True))
    return _state((sector, b.psip, b.psim, d_part, cp))


# A realized column's hits: (state, numerator over the sector's D).
IntHit = Tuple[FockBasisVector, int]


class BracketPlan(NamedTuple):
    """x∘y ∓ y∘x − [x, y]± as merged mode words: each word's letters
    (kind, twice) in the order they act, with an integer weight over scale;
    top is the longest word, parity the sqrt(2)-parity every word shares."""

    words: Tuple[Tuple[Tuple[Tuple[str, int], ...], int], ...]
    scale: int
    top: int
    parity: int

    def terms(self, D: int) -> List[Tuple[tuple, int]]:
        """The words over one scale Q * D**top for a sector denominator D."""
        return [(letters, w * D ** (self.top - len(letters))) for letters, w in self.words]


def _cleared(x) -> int:
    """x as an int, where a sector denominator is assumed to clear it."""
    if type(x) is int:
        return x
    if x.denominator != 1:
        raise ArithmeticError(f"the sector denominator does not clear {x}")
    return x.numerator


def _image(terms: Dict[FockBasisVector, object],
           fn: Callable[[FockBasisVector], Sequence]) -> Dict[FockBasisVector, object]:
    """The sum over terms of co * fn(b), whose hits are (state, coefficient)."""
    out: Dict[FockBasisVector, object] = {}
    for b, co in terms.items():
        add_scaled(out, fn(b), co)
    return out


def _integer_terms(vec: "FockVector") -> Tuple[Dict[FockBasisVector, int], int]:
    """vec's coefficients times their common denominator M, and M."""
    M = math.lcm(*[c.denominator for c in vec.terms.values()])
    return {b: c.numerator * (M // c.denominator) for b, c in vec.terms.items()}, M


# Screening templates (see the module docstring).  They call schur_expand
# through this module's global, where perfbench/tracing.py counts its calls.


def _d_subsets(d_part: Tuple[int, ...]):
    """(kept d letters, sum of the removed ones, number removed), per subset."""
    positions = range(len(d_part))
    for size in range(len(d_part) + 1):
        for S in itertools.combinations(positions, size):
            kept = tuple(v for i, v in enumerate(d_part) if i not in S)
            yield kept, sum(d_part[i] for i in S), size


@lru_cache(maxsize=2048)
def _a_template(N: int, psip: Tuple[int, ...],
                d_part: Tuple[int, ...]) -> Tuple[tuple, ...]:
    """Mode n of the current on states with n + x_d = N, these psi^+ letters
    and this d block, as (kept_d, mu_parts, twice_s, coeff) entries: keep
    kept_d, add the c letters mu_parts, then apply psi^-(twice_s/2)."""
    merged: Dict[tuple, Fraction] = {}
    for kept, z_s, size in _d_subsets(d_part):
        sign = -1 if size & 1 else 1
        # fermion modes: creations down to where the Schur order
        # j = s - N - 1/2 + z_s turns negative, plus contractions on psi+
        for twice_s in itertools.chain(range(-1, 2 * (N - z_s), -2), psip):
            j = (twice_s - 1) // 2 - N + z_s
            if j >= 0:
                terms = schur_expand(j, _HALF).items()
                add_scaled(merged, (((kept, mu.parts, twice_s), sc) for mu, sc in terms), sign)
    return tuple(key + (c,) for key, c in merged.items())


@lru_cache(maxsize=512)
def _lattice_template(k_half: int, N: int,
                      d_part: Tuple[int, ...]) -> Tuple[tuple, ...]:
    """Mode n of e^{(k_half/2)c} on states with n + k_half*x_d = N and this d
    block, as (kept_d, mu_parts, coeff) entries."""
    shift = Fraction(k_half, 2)
    merged: Dict[tuple, Fraction] = {}
    for kept, z_s, size in _d_subsets(d_part):
        j = z_s - N - 1
        if j >= 0:
            terms = schur_expand(j, shift).items()
            add_scaled(merged, (((kept, mu.parts), sc) for mu, sc in terms), (-k_half) ** size)
    return tuple(key + (c,) for key, c in merged.items())


_MODE_PARITY = {"L": 0, "A": 0, "G": 1, "P": 1}

#: a Fock state's letter blocks psi^+, psi^-, d and c, each kept as its parts
_FOCK_BLOCKS = ((1, tuple), (1, tuple), (0, tuple), (0, tuple))


class FreeFieldRealization:
    """Exact action of the algebra, lattice operators and screenings on Fock
    modules, at fixed central parameters."""

    def __init__(self, cL=None, cLa=None):
        self.cL = DEFAULT_SPECIALIZATION["cL"] if cL is None else Fraction(cL)
        self.cLa = DEFAULT_SPECIALIZATION["cLa"] if cLa is None else Fraction(cLa)
        self._basis_cache: Dict[Tuple[LatticePoint, int], CoordinateMap] = {}
        self._mode_cache: Dict[Tuple[str, int], Dict[FockBasisVector, Tuple[IntHit, ...]]] = {}
        self._sector_weights: Dict[LatticePoint, Tuple[int, int, int, int]] = {}
        self._sectors: Dict[LatticePoint, LatticePoint] = {}
        self._shifts: Dict[Tuple[LatticePoint, int], LatticePoint] = {}

    # -- sectors -----------------------------------------------------------

    def _shared(self, sec: LatticePoint) -> LatticePoint:
        """This realization's one instance of the sector.  States of a sector
        then share it, so comparing them seldom reaches its Fractions."""
        return self._sectors.setdefault(sec, sec)

    def _shifted(self, sec: LatticePoint, twice_shift: int) -> LatticePoint:
        """The shared instance of sec shifted by (twice_shift/2)c."""
        key = (sec, twice_shift)
        hit = self._shifts.get(key)
        if hit is None:
            hit = self._shifts[key] = self._shared(sec.shifted_c(Fraction(twice_shift, 2)))
        return hit

    def sector(self, p, r) -> LatticePoint:
        return self._shared(sector_for(p, r, self.cL))

    def vacuum_vector(self, p, r) -> FockVector:
        return FockVector({FockBasisVector(sector=self.sector(p, r)): Fraction(1)}, 0)

    def basis(self, p, r, degree) -> Tuple[FockBasisVector, ...]:
        return self.piece(p, r, degree).elements

    def piece(self, p, r, degree) -> CoordinateMap:
        """The coordinate map of the (p, r) Fock module's degree piece."""
        sec = self.sector(p, r)
        t = Fraction(degree) * 2
        if t.denominator != 1 or t < 0:
            raise ValueError(f"degree must be a non-negative half-integer: {degree}")
        key = (sec, int(t))
        hit = self._basis_cache.get(key)
        if hit is not None:
            return hit
        hit = self._basis_cache[key] = CoordinateMap(
            [FockBasisVector(sec, *blocks) for blocks in graded_tuples(int(t), _FOCK_BLOCKS)]
        )
        return hit

    # -- raw free modes ----------------------------------------------------

    def psi_minus_mode(self, s, vec: FockVector) -> FockVector:
        s_twice = _twice_half_odd(s)
        return FockVector(_image(vec.terms, lambda b: _psi_minus(b, s_twice)), vec.parity)

    # -- realized algebra modes: integer columns ----------------------------

    def _denominator(self, sec: LatticePoint) -> int:
        """The sector's D: it clears 1/2, (cL-3)/24 and cLa, each times the
        zero-mode pairings 2*x_c and 2*x_d where a column can pair them."""
        return math.lcm(
            2 * (2 * sec.x_c).denominator,
            ((self.cL - 3) / 24).denominator,
            self.cLa.denominator,
        ) * (2 * sec.x_d).denominator

    def _weights(self, sec: LatticePoint) -> Tuple[int, int, int, int]:
        """(D, D/2, D(cL-3)/24, D*cLa) for the sector, each division checked."""
        hit = self._sector_weights.get(sec)
        if hit is None:
            D = self._denominator(sec)
            hit = self._sector_weights[sec] = (
                D,
                _cleared(Fraction(D, 2)),
                _cleared(D * (self.cL - 3) / 24),
                _cleared(D * self.cLa),
            )
        return hit

    def _l_action(self, n: int, b: FockBasisVector) -> List[IntHit]:
        """D times L(n) on b, as integer hits."""
        _, half, cl24, _ = self._weights(b.sector)
        out: List[IntHit] = []
        # boson pairs :c(j)d(n-j):
        j_set = set(range(n + 1, 0))
        j_set.add(0)
        j_set.add(n)
        j_set.update(j for j in b.d_part)
        j_set.update(n - k for k in b.c_part if n - k <= -1)
        for j in j_set:
            k = n - j
            if j <= -1:
                first, second = ("c", j), ("d", k)
            else:
                first, second = ("d", k), ("c", j)
            for b1, c1 in (_c_free(b, second[1]) if second[0] == "c" else _d_free(b, second[1])):
                for b2, c2 in (_c_free(b1, first[1]) if first[0] == "c" else _d_free(b1, first[1])):
                    out.append((b2, _cleared(half * c1 * c2)))
        # linear terms
        coeff_c = -cl24 * (n + 1)
        if coeff_c:
            out.extend((b2, _cleared(coeff_c * c2)) for b2, c2 in _c_free(b, n))
        coeff_d = half * (n + 1)
        if coeff_d:
            out.extend((b2, _cleared(coeff_d * c2)) for b2, c2 in _d_free(b, n))
        # fermion pairs
        s_cands = set(range(2 * n + 1, 0, 2))
        for tv in b.psip + b.psim:
            s_cands.add(tv)
            s_cands.add(2 * n - tv)
        for s2 in s_cands:
            if s2 % 2 == 0:
                continue
            t2 = 2 * n - s2
            w = -half * ((s2 + 1) // 2)  # D (1/2)(-s - 1/2)
            for first, second in ((_psi_plus, _psi_minus), (_psi_minus, _psi_plus)):
                if s2 < 0:
                    for b1, c1 in second(b, t2):
                        for b2, c2 in first(b1, s2):
                            out.append((b2, w * c1 * c2))
                else:
                    for b1, c1 in first(b, s2):
                        for b2, c2 in second(b1, t2):
                            out.append((b2, -w * c1 * c2))
        return out

    def _g_action(self, s2: int, b: FockBasisVector) -> List[IntHit]:
        """D times the rational part of G(s2/2) on b, as integer hits; the
        overall sqrt(2) is carried by the parity flag."""
        D, half, cl24, _ = self._weights(b.sector)
        out: List[IntHit] = []
        # (1/2) c(j) psi+(t), t = s - j
        j_set = set(range((s2 + 1) // 2, 0))
        j_set.add(0)
        j_set.update(b.d_part)
        j_set.update((s2 - tv) // 2 for tv in b.psim if (s2 - tv) % 2 == 0)
        for j in j_set:
            t2 = s2 - 2 * j
            for b1, c1 in _psi_plus(b, t2):
                for b2, c2 in _c_free(b1, j):
                    out.append((b2, _cleared(half * c1 * c2)))
        # (1/2) d(j) psi-(t)
        j_set = set(range((s2 + 1) // 2, 0))
        j_set.add(0)
        j_set.update(b.c_part)
        j_set.update((s2 - tv) // 2 for tv in b.psip if (s2 - tv) % 2 == 0)
        for j in j_set:
            t2 = s2 - 2 * j
            for b1, c1 in _psi_minus(b, t2):
                for b2, c2 in _d_free(b1, j):
                    out.append((b2, _cleared(half * c1 * c2)))
        wm = -cl24 * (s2 + 1)  # D ((cL-3)/12)(-s-1/2)
        if wm:
            out.extend((b2, wm * c2) for b2, c2 in _psi_minus(b, s2))
        wp = D * ((s2 + 1) // 2)  # D (s + 1/2)
        if wp:
            out.extend((b2, wp * c2) for b2, c2 in _psi_plus(b, s2))
        return out

    def _realized_raw(self, kind: str, twice: int, b: FockBasisVector) -> Tuple[IntHit, ...]:
        """The column of a realized mode at b: D times its rational part, as
        (state, int) pairs over b's sector denominator D."""
        store = self._mode_cache.get((kind, twice))
        if store is None:
            store = self._mode_cache[kind, twice] = {}
        hit = store.get(b)
        if hit is not None:
            return hit
        if kind == "A":
            cla = self._weights(b.sector)[3]
            res = [(b2, _cleared(-cla * c2)) for b2, c2 in _c_free(b, twice // 2)]
        elif kind == "P":
            cla = self._weights(b.sector)[3]
            res = [(b2, -cla * c2) for b2, c2 in _psi_minus(b, twice)]
        elif kind == "L":
            res = self._l_action(twice // 2, b)
        elif kind == "G":
            res = self._g_action(twice, b)
        else:
            raise ValueError(f"not a realized generator: {kind}")
        merged: Dict[FockBasisVector, int] = {}
        add_scaled(merged, res, 1)
        out = tuple(merged.items())
        store[b] = out
        return out

    def _fold(self, word: Sequence[GeneratorSymbol]) -> Tuple[object, Tuple[Tuple[str, int], ...], int]:
        """A word as (scalar, letters, odd): its central letters folded into
        scalar (0 for a word holding cA, which is zero at level zero), its mode
        letters as (kind, twice) in the order they act (the word read right
        to left), and the number of odd ones, each carrying a factor sqrt(2)."""
        scalar, letters, odd = 1, [], 0
        for sym in reversed(tuple(word)):
            kind = sym.kind
            if kind == "CL":
                scalar *= self.cL
            elif kind == "CLA":
                scalar *= self.cLa
            elif kind == "CA":
                return 0, (), 0
            elif kind in _MODE_PARITY:
                letters.append((kind, sym.mode.twice_value))
                odd += _MODE_PARITY[kind]
            else:
                raise ValueError(f"not a realized generator: {kind}")
        return scalar, tuple(letters), odd

    def _accumulate(self, total: Dict[FockBasisVector, int], letters: Tuple[Tuple[str, int], ...],
                    hits: Sequence[IntHit], weight: int) -> None:
        """total += weight * (the letters applied right to left to hits), over
        the cached columns.  hits are (state, int) pairs with distinct states;
        each letter adds one factor D of each state's sector.  The sum is not
        filtered: on a correct realization almost every commutator sum
        cancels, so dropping zeros at each step would churn the dict."""
        raw = self._realized_raw
        get = total.get
        if not letters:
            for b, n in hits:
                total[b] = get(b, 0) + weight * n
            return
        for kind, twice in letters[:-1]:
            if len(hits) == 1:
                # one state: its column already holds distinct states
                (b, n), = hits
                weight *= n
                hits = raw(kind, twice, b)
            else:
                merged: Dict[FockBasisVector, int] = {}
                for b, n in hits:
                    add_scaled(merged, raw(kind, twice, b), n)
                hits = merged.items()
        kind, twice = letters[-1]
        for b, n in hits:
            wn = weight * n
            for b2, n2 in raw(kind, twice, b):
                total[b2] = get(b2, 0) + wn * n2

    def generator_mode(self, kind: str, mode, vec: FockVector) -> FockVector:
        """Action of a realized algebra generator mode on a Fock vector."""
        if kind in ("L", "A"):
            m = Fraction(mode)
            if m.denominator != 1:
                raise ValueError(f"{kind} takes integer modes: {mode}")
            twice = 2 * int(m)
        elif kind in ("G", "P"):
            twice = _twice_half_odd(mode)
        else:
            raise ValueError(f"not a realized generator: {kind}")
        return self.realize_word((GeneratorSymbol(kind, Mode(twice)),), vec)

    def realize_word(self, word: Sequence[GeneratorSymbol], vec: FockVector) -> FockVector:
        """A word applied right to left: the columns compose over the
        integers, and each output entry is divided once, by M * D**modes."""
        ivec, M = _integer_terms(vec)
        scalar, letters, odd = self._fold(word)
        img: Dict[FockBasisVector, int] = {}
        if scalar:
            self._accumulate(img, letters, ivec.items(), 1)
        twos, parity = divmod(vec.parity + odd, 2)
        num, den = scalar.numerator << twos, M * scalar.denominator
        modes, weights = len(letters), self._weights
        return FockVector(
            {b: Fraction(num * n, den * weights(b.sector)[0] ** modes) for b, n in img.items() if n},
            parity,
        )

    def realize_element(self, x: Element, vec: FockVector) -> FockVector:
        total = FockVector.zero()
        for word, coeff in x.terms.items():
            total = total + self.realize_word(word, vec).scale(coeff)
        return total

    def _bracket_plan(self, sym_x: GeneratorSymbol, sym_y: GeneratorSymbol) -> BracketPlan:
        """The plan of x∘y ∓ y∘x − [x, y]±, the table read through this
        module's super_bracket.  Central letters are folded in, equal mode
        words merged (an even x∘x − x∘x leaves nothing) and each word's
        rational weight, sqrt(2)**(2k) of its odd letters included, is brought
        over one denominator Q."""
        px, py = symbol_parity(sym_x), symbol_parity(sym_y)
        parity = (px + py) & 1
        products = [((sym_x, sym_y), 1), ((sym_y, sym_x), 1 if px and py else -1)]
        products += [(word, -c) for word, c in super_bracket(sym_x, sym_y).terms.items()]
        weighted = []
        for word, c in products:
            scalar, letters, odd = self._fold(word)
            if scalar:
                if odd & 1 != parity:
                    raise ValueError("cannot add vectors of different sqrt(2)-parity")
                weighted.append((letters, c * scalar * (1 << (odd >> 1))))
        merged: Dict[tuple, Fraction] = {}
        add_scaled(merged, weighted, 1)
        Q = math.lcm(*[w.denominator for w in merged.values()])
        return BracketPlan(
            tuple((letters, w.numerator * (Q // w.denominator)) for letters, w in merged.items()),
            Q,
            max((len(letters) for letters in merged), default=0),
            parity,
        )

    def _plan_image(self, terms: Sequence[Tuple[tuple, int]],
                    hits: Sequence[IntHit]) -> Dict[FockBasisVector, int]:
        """A plan's per-sector terms on the hits, summed over one scale."""
        total: Dict[FockBasisVector, int] = {}
        for letters, w in terms:
            self._accumulate(total, letters, hits, w)
        return total

    def bracket_defect(self, sym_x: GeneratorSymbol, sym_y: GeneratorSymbol,
                       vec: FockVector) -> FockVector:
        """[x, y]± applied via composition minus the bracket-table image.

        Composed over the integers: vec is scaled to integers (by M), the
        plan's terms sum over one scale M * Q * D**top per sector, and only a
        nonzero defect is turned back into Fractions."""
        plan = self._bracket_plan(sym_x, sym_y)
        # an odd word on an odd vector makes one more factor 2
        two = 1 + (vec.parity & plan.parity)
        ivec, M = _integer_terms(vec)
        by_sector: Dict[LatticePoint, Dict[FockBasisVector, int]] = {}
        for b, n in ivec.items():
            by_sector.setdefault(b.sector, {})[b] = n
        out: Dict[FockBasisVector, Fraction] = {}
        for sec, part in by_sector.items():
            D = self._weights(sec)[0]
            total = self._plan_image(plan.terms(D), part.items())
            scale = M * plan.scale * D ** plan.top
            out.update((b, Fraction(two * n, scale)) for b, n in total.items() if n)
        return FockVector(out, vec.parity + plan.parity)

    def realized_bracket_report(self, p, r, max_twice_mode: int = 6,
                                max_degree=Fraction(3)) -> dict:
        """Check every realized-mode commutator against the bracket table on
        every basis vector up to max_degree.  Exact; returns mismatch list."""
        symbols = [
            sym for t in range(-max_twice_mode, max_twice_mode + 1) for sym in symbols_at(t)
        ]
        states = [(d, b) for d in half_degrees(max_degree) for b in self.basis(p, r, d)]
        # every basis state lies in the (p, r) sector
        D = self._weights(self.sector(p, r))[0]
        mismatches = []
        checked = 0
        for i, x in enumerate(symbols):
            for y in symbols[i:]:
                terms = self._bracket_plan(x, y).terms(D)
                for deg, b in states:
                    checked += 1
                    if any(self._plan_image(terms, ((b, 1),)).values()):
                        mismatches.append((str(x), str(y), str(deg)))
                        break
        return {
            "pairs": len(symbols) * (len(symbols) + 1) // 2,
            "vectors": len(states),
            "checked": checked,
            "mismatches": sorted(set(mismatches)),
            "ok": not mismatches,
        }

    # -- lattice operators and screenings ---------------------------------

    def lattice_mode(self, k_half: int, n, vec: FockVector) -> FockVector:
        """Mode of the exponential operator for kappa = (k_half/2)c."""
        out: Dict[FockBasisVector, Fraction] = {}
        n = Fraction(n)
        for b, co in vec.terms.items():
            sec = b.sector
            N = n + k_half * sec.x_d
            if N.denominator != 1:
                raise CosetError(
                    f"mode {n} is not admissible on sector {sec}"
                )
            target = self._shifted(sec, k_half)
            add_scaled(out, [
                (_with_c_letters(b, mu_parts, target, kept), tc)
                for kept, mu_parts, tc in _lattice_template(k_half, int(N), b.d_part)
            ], co)
        return FockVector(out, vec.parity)

    def a_mode(self, n, vec: FockVector) -> FockVector:
        """Modes of the odd screening current psi^-(-1/2)e^{c/2}."""
        out: Dict[FockBasisVector, Fraction] = {}
        n = Fraction(n)
        for b, co in vec.terms.items():
            sec = b.sector
            N = n + sec.x_d
            if N.denominator != 1:
                raise CosetError(
                    f"mode {n} is not admissible on sector {sec}"
                )
            target = self._shifted(sec, 1)
            # sg is a fermion sign, +1 or -1
            add_scaled(out, [
                (b3, tc if sg > 0 else -tc)
                for kept, mu_parts, twice_s, tc in _a_template(int(N), b.psip, b.d_part)
                for b3, sg in _psi_minus(_with_c_letters(b, mu_parts, target, kept), twice_s)
            ], co)
        return FockVector(out, vec.parity)

    def _a_mode_bound(self, vec: FockVector) -> Fraction:
        """Largest mode that can act without annihilating the vector."""
        best = Fraction(-10)
        for b in vec.terms:
            smax = Fraction(max(b.psip), 2) if b.psip else Fraction(-1, 2)
            best = max(best, smax - Fraction(1, 2) - b.sector.x_d + sum(b.d_part))
        return best

    def screening_q(self, vec: FockVector) -> FockVector:
        return self.a_mode(0, vec)

    def screening_s(self, vec: FockVector, twisted: bool = False) -> FockVector:
        if vec.is_zero():
            return vec
        bound = self._a_mode_bound(vec)
        total = FockVector.zero()
        i = Fraction(1, 2) if twisted else Fraction(1)
        while i <= bound:
            w = self.a_mode(i, vec)
            if not w.is_zero():
                piece = self.a_mode(-i, w).scale(Fraction(1) / i)
                if not piece.is_zero():
                    total = total + piece
            i += 1
        return total

    def screening_g(self, vec: FockVector, twisted: bool = False) -> FockVector:
        return self.lattice_mode(2, 0, vec) - self.screening_s(vec, twisted)

    # -- explicit vectors --------------------------------------------------

    def _schur_c_vector(self, order: int, scale, vec: FockVector) -> FockVector:
        """Insert the degree-`order` Schur polynomial in scaled c letters."""
        if order < 0:
            return FockVector.zero()
        out: Dict[FockBasisVector, Fraction] = {}
        for b, co in vec.terms.items():
            add_scaled(out, [
                (_with_c_letters(b, mu.parts, b.sector, b.d_part), sc)
                for mu, sc in schur_expand(order, scale).items()
            ], co)
        return FockVector(out, vec.parity)

    def _psi_sum(self, offset: Fraction, scale, vec: FockVector, i_max: int) -> FockVector:
        """sum_i psi^-(i + offset) S_i(scaled c) applied to vec, with the
        fermion factor in free normalization; annihilating modes drop out."""
        total = FockVector.zero()
        for i in range(i_max + 1):
            w = self._schur_c_vector(i, scale, vec)
            w = self.psi_minus_mode(i + offset, w)
            total = total + w
        return total

    def build_singular_odd(self, p: int, r) -> FockVector:
        """Explicit weight h + p/2 singular vector for odd positive p."""
        if p <= 0 or p % 2 == 0:
            raise ValueError("odd positive label required")
        vac = self.vacuum_vector(p, r)
        half = (p - 1) // 2
        total = FockVector.zero()
        for i in range(half + 1):
            w = self._schur_c_vector(half - i, Fraction(1, 2), vac)
            w = self.generator_mode("P", Fraction(-2 * i - 1, 2), w)
            total = total + w
        return total

    def build_subsingular_odd(self, p: int, r) -> FockVector:
        """Explicit weight h + p vector, singular only modulo the submodule
        generated by the odd singular vector (odd positive p).  Normalized so
        that it equals the long-screening image of the shifted vacuum; the
        fermion bilinears carry free normalization."""
        if p <= 0 or p % 2 == 0:
            raise ValueError("odd positive label required")
        vac = self.vacuum_vector(p, r)
        total = self._schur_c_vector(p, Fraction(1), vac)
        half = (p - 1) // 2
        for k in range(1, half + 1):
            inner = self._psi_sum(
                Fraction(-2 * k - p, 2), Fraction(1, 2), vac, half + k
            )
            outer = self._psi_sum(
                Fraction(2 * k - p, 2), Fraction(1, 2), inner, half - k
            )
            total = total + outer.scale(Fraction(1, k))
        return total

    def build_singular_even(self, p: int, r) -> FockVector:
        """Explicit weight h + p singular vector for even positive p,
        normalized to the twisted long-screening image of the shifted
        vacuum (free fermion bilinears)."""
        if p <= 0 or p % 2 == 1:
            raise ValueError("even positive label required")
        vac = self.vacuum_vector(p, r)
        total = self._schur_c_vector(p, Fraction(1), vac)
        for k in range((p - 1) // 2 + 1):
            inner = self._psi_sum(
                Fraction(-2 * k - p - 1, 2), Fraction(1, 2), vac, p
            )
            outer = self._psi_sum(
                Fraction(2 * k - p + 1, 2), Fraction(1, 2), inner, p
            )
            total = total + outer.scale(Fraction(2, 2 * k + 1))
        return total

    def family_vector(self, p: int, r, n: int, kind: str = "u") -> FockVector:
        """Screening-generated families: for odd p, u^(n) and w^(n); for even
        p, the twisted family u^(n)."""
        if p == 0 or not isinstance(p, int):
            raise ValueError("nonzero integer label required")
        if p % 2 == 0:
            if kind != "u":
                raise ValueError("even labels have only the u family")
            if n < 1:
                raise ValueError("n >= 1 for the even family")
            vec = self.vacuum_vector(p, Fraction(r) - n)
            for _ in range(n):
                vec = self.screening_g(vec, twisted=True)
            return vec
        if kind == "u":
            if n < 0:
                raise ValueError("n >= 0 for the odd u family")
            vec = self.vacuum_vector(p, Fraction(r) - n - Fraction(1, 2))
            vec = self.screening_q(vec)
            for _ in range(n):
                vec = self.screening_g(vec)
            return vec
        if kind == "w":
            if n < 1:
                raise ValueError("n >= 1 for the odd w family")
            vec = self.vacuum_vector(p, Fraction(r) - n)
            for _ in range(n):
                vec = self.screening_g(vec)
            return vec
        raise ValueError(f"unknown family kind: {kind}")

    # -- matrices ----------------------------------------------------------

    def operator_matrix(self, op: Callable[[FockVector], FockVector],
                        src: Tuple, dst: Tuple) -> Matrix:
        """Matrix of op between graded pieces given as (p, r, degree)."""
        src_basis = self.basis(*src)
        if Fraction(dst[2]) < 0:
            return Matrix.zero(0, len(src_basis))
        return self.piece(*dst).matrix(op(FockVector({b: Fraction(1)}, 0)).terms for b in src_basis)

    def kernel_intersection_dims(self, p, r, max_degree) -> List[Tuple[Fraction, int]]:
        """Graded dimensions of Ker(odd screening) ∩ Ker(long screening)."""
        p = Fraction(p)
        out = []
        for d in half_degrees(max_degree):
            mq = self.operator_matrix(
                self.screening_q,
                (p, r, d),
                (p, Fraction(r) + Fraction(1, 2), d + p / 2),
            )
            mg = self.operator_matrix(
                lambda v: self.screening_g(v),
                (p, r, d),
                (p, Fraction(r) + 1, d + p),
            )
            out.append((d, len(self.basis(p, r, d)) - rank(mq.stack(mg))))
        return out


def _twice_half_odd(s) -> int:
    f = Fraction(s)
    if f.denominator != 2:
        raise ValueError(f"half-odd mode required: {s}")
    return f.numerator
