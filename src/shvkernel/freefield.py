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
the zero-mode pairings 2*x_c and 2*x_d.  _weights computes D times each weight
and each pairing product (D/2 * 2x_c, D/2 * 2x_d, D/2 * 2x_c * 2x_d,
D(cL-3)/24 * 2x_d, D*cLa * 2x_d) once per sector.  D is derived by hand, so
each product is checked there: a product D does not clear raises
ArithmeticError.  The column builders (_l_action, _g_action and the A and P
branches) take a zero mode's pairing from these ints and call no zero mode,
so they multiply ints only.

Each realization interns its states: a table from state to int id (_ids) and
a list back (_states), so a state is hashed once, when a column first meets
it, and stored once.  _realized_raw caches the column of a mode at a state id
as (id, int) pairs, D times the mode's rational part.  One path composes the
columns: _accumulate applies a word's mode letters right to left through
_realized_raw and adds the image, times an integer weight, to an unfiltered
sum keyed by id.  realize_word (and generator_mode, a one-letter word) reads
its input's integer numerators, interns its states, folds the word's central
letters into one scalar (_fold), accumulates, and returns to states over one
denominator (_vector): the input's, the scalar's and D per mode.

A commutator check x∘y ∓ y∘x − [x, y]± is planned once per pair
(_bracket_plan): the table is read, central letters are folded, equal mode
words are merged (an even x∘x − x∘x leaves nothing) and each word gets one
integer weight over one scale Q * D**top per sector.  realized_bracket_report
evaluates a pair's plan on every basis state id and tests the sum for zero;
bracket_defect evaluates it on the vector's integer numerators and returns
the defect over one denominator.

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
template: one denominator and a tuple of (kept d letters, c letters[, twice
fermion mode], integer numerator) with equal shapes merged and zero sums
dropped, memoized in a bounded lru_cache (_a_template, _lattice_template).
N and the shifted target sector are memoized per (sector, charge, twice n)
in _shifts (_effective); a mode off the sector's coset raises CosetError on
every call and is never stored.  a_mode and lattice_mode then only place
each template entry on each state, a_mode in one step: kept d letters,
merged c letters and the psi^- letter with its sign (fock's
_psi_minus_letters).  The input's integer numerators times the template
numerators are summed over one scale per call, and the result stays in
integers over one denominator, so a chain of modes or a screening sum makes
no Fraction between steps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .exact_linalg import CoordinateMap, Matrix, rank
from .fock import (
    CosetError,
    FockBasisVector,
    FockVector,
    LatticePoint,
    _c_free,
    _d_free,
    _psi_minus,
    _psi_minus_letters,
    _psi_plus,
    _state,
    sector_for,
)
from .qchar import schur_expand
from .scalars import DEFAULT_SPECIALIZATION, add_scaled, over_one_den
from .shv_algebra import (
    Element,
    GeneratorSymbol,
    Mode,
    doubled,
    graded_tuples,
    half_degrees,
    parity as symbol_parity,
    super_bracket,
    symbols_at,
)


_HALF = Fraction(1, 2)


def _c_letters(cp: Tuple[int, ...], mu_parts: Tuple[int, ...]) -> Tuple[int, ...]:
    """The c block cp with the c letters of the partition mu_parts added."""
    if not (cp and mu_parts):
        return cp or mu_parts
    return tuple(sorted(cp + mu_parts, reverse=True))


def _with_c_letters(b: FockBasisVector, mu_parts: Tuple[int, ...],
                    sector: LatticePoint, d_part: Tuple[int, ...]) -> FockBasisVector:
    """b with the c letters of mu added, over the given sector and d block."""
    return _state((sector, b.psip, b.psim, d_part, _c_letters(b.c_part, mu_parts)))


# A column builder's hits: (state, numerator over the sector's D).
StateHit = Tuple[FockBasisVector, int]
# A cached column's hits: (state id, numerator over the sector's D).
IntHit = Tuple[int, int]


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


class _Weights(NamedTuple):
    """A sector's D and the integer weights of its columns: D times 1/2,
    (cL-3)/24 and cLa, and those times the zero-mode pairings 2*x_c (of
    d(0)) and 2*x_d (of c(0)) that a column can meet."""

    D: int
    half: int
    cl24: int
    cla: int
    half_xc: int
    half_xd: int
    half_xcxd: int
    cl24_xd: int
    cla_xd: int


def _cleared(x) -> int:
    """x as an int, where a sector denominator is assumed to clear it."""
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
                d_part: Tuple[int, ...]) -> Tuple[int, Tuple[tuple, ...]]:
    """Mode n of the current on states with n + x_d = N, these psi^+ letters
    and this d block, as (den, entries) with entries (kept_d, mu_parts,
    twice_s, numerator): keep kept_d, add the c letters mu_parts, then apply
    psi^-(twice_s/2), times numerator/den."""
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
    ints, den = over_one_den(merged.values())
    return den, tuple(key + (n,) for key, n in zip(merged, ints))


@lru_cache(maxsize=512)
def _lattice_template(k_half: int, N: int,
                      d_part: Tuple[int, ...]) -> Tuple[int, Tuple[tuple, ...]]:
    """Mode n of e^{(k_half/2)c} on states with n + k_half*x_d = N and this d
    block, as (den, entries) with entries (kept_d, mu_parts, numerator)."""
    shift = Fraction(k_half, 2)
    merged: Dict[tuple, Fraction] = {}
    for kept, z_s, size in _d_subsets(d_part):
        j = z_s - N - 1
        if j >= 0:
            terms = schur_expand(j, shift).items()
            add_scaled(merged, (((kept, mu.parts), sc) for mu, sc in terms), (-k_half) ** size)
    ints, den = over_one_den(merged.values())
    return den, tuple(key + (n,) for key, n in zip(merged, ints))


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
        self._mode_cache: Dict[Tuple[str, int], Dict[int, Tuple[IntHit, ...]]] = {}
        # the state table: state -> id, and id -> state
        self._ids: Dict[FockBasisVector, int] = {}
        self._states: List[FockBasisVector] = []
        self._sector_weights: Dict[LatticePoint, _Weights] = {}
        self._sectors: Dict[LatticePoint, LatticePoint] = {}
        self._shifts: Dict[Tuple[LatticePoint, int, object], Tuple[int, LatticePoint]] = {}

    # -- sectors -----------------------------------------------------------

    def _shared(self, sec: LatticePoint) -> LatticePoint:
        """This realization's one instance of the sector.  States of a sector
        then share it, so comparing them seldom reaches its Fractions."""
        return self._sectors.setdefault(sec, sec)

    def _effective(self, sec: LatticePoint, k_half: int, twice) -> Tuple[int, LatticePoint]:
        """(N, target) for the mode n = twice/2 of an operator of charge
        (k_half/2)c on sector sec: the integer effective mode N = n +
        k_half*x_d and the shared instance of sec shifted by (k_half/2)c.
        Memoized; a mode off the sector's coset raises CosetError, on every
        call, and is never stored."""
        key = (sec, k_half, twice)
        hit = self._shifts.get(key)
        if hit is None:
            n = Fraction(twice, 2)
            N = n + k_half * sec.x_d
            if N.denominator != 1:
                raise CosetError(f"mode {n} is not admissible on sector {sec}")
            target = self._shared(sec.shifted_c(Fraction(k_half, 2)))
            hit = self._shifts[key] = (N.numerator, target)
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
        t = doubled(degree)
        if t < 0:
            raise ValueError(f"degree must be a non-negative half-integer: {degree}")
        key = (sec, t)
        hit = self._basis_cache.get(key)
        if hit is not None:
            return hit
        hit = self._basis_cache[key] = CoordinateMap(
            [FockBasisVector(sec, *blocks) for blocks in graded_tuples(t, _FOCK_BLOCKS)]
        )
        return hit

    # -- raw free modes ----------------------------------------------------

    def psi_minus_mode(self, s, vec: FockVector) -> FockVector:
        s_twice = _twice_half_odd(s)
        return FockVector._reduced(
            _image(vec.nums, lambda b: _psi_minus(b, s_twice)), vec.den, vec.parity
        )

    # -- realized algebra modes: integer columns ----------------------------

    def _interned(self, hits: Iterable[StateHit]) -> List[IntHit]:
        """hits with each state replaced by its id in the state table; a new
        state is added to it."""
        ids, states = self._ids, self._states
        out: List[IntHit] = []
        for b, c in hits:
            i = ids.get(b)
            if i is None:
                i = ids[b] = len(states)
                states.append(b)
            out.append((i, c))
        return out

    def _denominator(self, sec: LatticePoint) -> int:
        """The sector's D: it clears 1/2, (cL-3)/24 and cLa, each times the
        zero-mode pairings 2*x_c and 2*x_d where a column can pair them."""
        return math.lcm(
            2 * (2 * sec.x_c).denominator,
            ((self.cL - 3) / 24).denominator,
            self.cLa.denominator,
        ) * (2 * sec.x_d).denominator

    def _weights(self, sec: LatticePoint) -> _Weights:
        """The sector's D and column weights, each division checked once."""
        hit = self._sector_weights.get(sec)
        if hit is None:
            D = self._denominator(sec)
            half, cl24, cla = Fraction(D, 2), D * (self.cL - 3) / 24, D * self.cLa
            xc, xd = 2 * sec.x_c, 2 * sec.x_d
            hit = self._sector_weights[sec] = _Weights(D, *[_cleared(x) for x in (
                half, cl24, cla, half * xc, half * xd, half * xc * xd, cl24 * xd, cla * xd,
            )])
        return hit

    def _l_action(self, n: int, b: FockBasisVector) -> List[StateHit]:
        """D times L(n) on b, as integer hits."""
        w = self._weights(b.sector)
        half = w.half
        out: List[StateHit] = []
        # boson pairs :c(j)d(n-j): with neither mode zero
        j_set = set(range(n + 1, 0))
        j_set.update(b.d_part)
        j_set.update(n - k for k in b.c_part if n - k <= -1)
        j_set.discard(0)
        j_set.discard(n)
        for j in j_set:
            if j <= -1:
                for b1, c1 in _d_free(b, n - j):
                    out.extend((b2, half * c1 * c2) for b2, c2 in _c_free(b1, j))
            else:
                for b1, c1 in _c_free(b, j):
                    out.extend((b2, half * c1 * c2) for b2, c2 in _d_free(b1, n - j))
        # the pairs with a zero mode, whose pairing is a weight, and the
        # linear terms -((cL-3)/24)(n+1) c(n) and ((n+1)/2) d(n)
        if n:
            wc = w.half_xc - w.cl24 * (n + 1)
            if wc:
                out.extend((b2, wc * c2) for b2, c2 in _c_free(b, n))
            wd = w.half_xd + half * (n + 1)
            if wd:
                out.extend((b2, wd * c2) for b2, c2 in _d_free(b, n))
        else:
            out.append((b, w.half_xcxd - w.cl24_xd + w.half_xc))
        # fermion pairs
        s_cands = set(range(2 * n + 1, 0, 2))
        for tv in b.psip + b.psim:
            s_cands.add(tv)
            s_cands.add(2 * n - tv)
        for s2 in s_cands:
            if s2 % 2 == 0:
                continue
            t2 = 2 * n - s2
            ws = -half * ((s2 + 1) // 2)  # D (1/2)(-s - 1/2)
            for first, second in ((_psi_plus, _psi_minus), (_psi_minus, _psi_plus)):
                if s2 < 0:
                    for b1, c1 in second(b, t2):
                        for b2, c2 in first(b1, s2):
                            out.append((b2, ws * c1 * c2))
                else:
                    for b1, c1 in first(b, s2):
                        for b2, c2 in second(b1, t2):
                            out.append((b2, -ws * c1 * c2))
        return out

    def _g_action(self, s2: int, b: FockBasisVector) -> List[StateHit]:
        """D times the rational part of G(s2/2) on b, as integer hits; the
        overall sqrt(2) is carried by the parity flag."""
        w = self._weights(b.sector)
        half = w.half
        out: List[StateHit] = []
        # (1/2) c(j) psi+(t), t = s - j, for j != 0
        j_set = set(range((s2 + 1) // 2, 0))
        j_set.update(b.d_part)
        j_set.update((s2 - tv) // 2 for tv in b.psim if (s2 - tv) % 2 == 0)
        j_set.discard(0)
        for j in j_set:
            for b1, c1 in _psi_plus(b, s2 - 2 * j):
                out.extend((b2, half * c1 * c2) for b2, c2 in _c_free(b1, j))
        # (1/2) d(j) psi-(t), for j != 0
        j_set = set(range((s2 + 1) // 2, 0))
        j_set.update(b.c_part)
        j_set.update((s2 - tv) // 2 for tv in b.psip if (s2 - tv) % 2 == 0)
        j_set.discard(0)
        for j in j_set:
            for b1, c1 in _psi_minus(b, s2 - 2 * j):
                out.extend((b2, half * c1 * c2) for b2, c2 in _d_free(b1, j))
        # j = 0, where c(0) and d(0) pair, beside ((cL-3)/12)(-s-1/2) psi-(s)
        # and (s + 1/2) psi+(s)
        wm = w.half_xc - w.cl24 * (s2 + 1)
        if wm:
            out.extend((b2, wm * c2) for b2, c2 in _psi_minus(b, s2))
        wp = w.half_xd + w.D * ((s2 + 1) // 2)
        if wp:
            out.extend((b2, wp * c2) for b2, c2 in _psi_plus(b, s2))
        return out

    def _realized_raw(self, kind: str, twice: int, i: int) -> Tuple[IntHit, ...]:
        """The column of a realized mode at the state with id i: D times its
        rational part, as (id, int) pairs over the state's sector D."""
        store = self._mode_cache.get((kind, twice))
        if store is None:
            store = self._mode_cache[kind, twice] = {}
        hit = store.get(i)
        if hit is not None:
            return hit
        b = self._states[i]
        if kind == "A":
            if twice:
                cla = -self._weights(b.sector).cla
                res = [(b2, cla * c2) for b2, c2 in _c_free(b, twice // 2)]
            else:
                res = [(b, -self._weights(b.sector).cla_xd)]
        elif kind == "P":
            cla = -self._weights(b.sector).cla
            res = [(b2, cla * c2) for b2, c2 in _psi_minus(b, twice)]
        elif kind == "L":
            res = self._l_action(twice // 2, b)
        elif kind == "G":
            res = self._g_action(twice, b)
        else:
            raise ValueError(f"not a realized generator: {kind}")
        merged: Dict[int, int] = {}
        add_scaled(merged, self._interned(res), 1)
        out = store[i] = tuple(merged.items())
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

    def _accumulate(self, total: Dict[int, int], letters: Tuple[Tuple[str, int], ...],
                    hits: Sequence[IntHit], weight: int) -> None:
        """total += weight * (the letters applied right to left to hits), over
        the cached columns.  hits are (id, int) pairs with distinct ids; each
        letter adds one factor D of each state's sector.  The sum is not
        filtered: on a correct realization almost every commutator sum
        cancels, so dropping zeros at each step would churn the dict."""
        raw = self._realized_raw
        get = total.get
        if not letters:
            for i, n in hits:
                total[i] = get(i, 0) + weight * n
            return
        for kind, twice in letters[:-1]:
            if len(hits) == 1:
                # one state: its column already holds distinct states
                (i, n), = hits
                weight *= n
                hits = raw(kind, twice, i)
            else:
                merged: Dict[int, int] = {}
                for i, n in hits:
                    add_scaled(merged, raw(kind, twice, i), n)
                hits = merged.items()
        kind, twice = letters[-1]
        for i, n in hits:
            wn = weight * n
            for i2, n2 in raw(kind, twice, i):
                total[i2] = get(i2, 0) + wn * n2

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
        integers, and the image comes back over one denominator, the input's
        times D**modes per sector."""
        scalar, letters, odd = self._fold(word)
        img: Dict[int, int] = {}
        if scalar:
            self._accumulate(img, letters, self._interned(vec.nums.items()), 1)
        twos, parity = divmod(vec.parity + odd, 2)
        return self._vector(
            img, scalar.numerator << twos, vec.den * scalar.denominator, len(letters), parity
        )

    def _vector(self, img: Dict[int, int], num: int, den: int, power: int,
                parity: int) -> FockVector:
        """The vector of num * n / (den * D**power) at each (id, n) of img, D
        the denominator of the state's sector, brought over one denominator."""
        states, weights = self._states, self._weights
        kept = [(states[i], n) for i, n in img.items() if n]
        scales: Dict[LatticePoint, int] = {}
        for b, _ in kept:
            if b.sector not in scales:
                scales[b.sector] = weights(b.sector).D ** power
        L = math.lcm(*scales.values())
        return FockVector._reduced(
            {b: num * n * (L // scales[b.sector]) for b, n in kept}, den * L, parity
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
        weights, Q = over_one_den(merged.values())
        return BracketPlan(
            tuple(zip(merged, weights)),
            Q,
            max((len(letters) for letters in merged), default=0),
            parity,
        )

    def _plan_image(self, terms: Sequence[Tuple[tuple, int]],
                    hits: Sequence[IntHit]) -> Dict[int, int]:
        """A plan's per-sector terms on the hits, summed over one scale."""
        total: Dict[int, int] = {}
        for letters, w in terms:
            self._accumulate(total, letters, hits, w)
        return total

    def bracket_defect(self, sym_x: GeneratorSymbol, sym_y: GeneratorSymbol,
                       vec: FockVector) -> FockVector:
        """[x, y]± applied via composition minus the bracket-table image.

        Composed over the integers: on vec's numerators over its den M, the
        plan's terms sum over one scale M * Q * D**top per sector."""
        plan = self._bracket_plan(sym_x, sym_y)
        # an odd word on an odd vector makes one more factor 2
        two = 1 + (vec.parity & plan.parity)
        by_sector: Dict[LatticePoint, List[StateHit]] = {}
        for b, n in vec.nums.items():
            by_sector.setdefault(b.sector, []).append((b, n))
        # realized modes keep the sector, so the sectors' images are disjoint
        img: Dict[int, int] = {}
        for sec, part in by_sector.items():
            terms = plan.terms(self._weights(sec).D)
            img.update(self._plan_image(terms, self._interned(part)))
        return self._vector(img, two, vec.den * plan.scale, plan.top, vec.parity + plan.parity)

    def realized_bracket_report(self, p, r, max_twice_mode: int = 6,
                                max_degree=Fraction(3)) -> dict:
        """Check every realized-mode commutator against the bracket table on
        every basis vector up to max_degree.  Exact; returns mismatch list."""
        symbols = [
            sym for t in range(-max_twice_mode, max_twice_mode + 1) for sym in symbols_at(t)
        ]
        states = [(d, b) for d in half_degrees(max_degree) for b in self.basis(p, r, d)]
        hits = self._interned((b, 1) for _, b in states)
        # every basis state lies in the (p, r) sector
        D = self._weights(self.sector(p, r)).D
        mismatches = []
        checked = 0
        for i, x in enumerate(symbols):
            for y in symbols[i:]:
                terms = self._bracket_plan(x, y).terms(D)
                for (deg, _), hit in zip(states, hits):
                    checked += 1
                    if any(self._plan_image(terms, (hit,)).values()):
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

    def _screened(self, k_half: int, n, vec: FockVector,
                  row: Callable[[FockBasisVector, int, LatticePoint], tuple]) -> FockVector:
        """A mode n of an operator of charge (k_half/2)c on vec: row(b, N,
        target) gives the image of a state b of a sector with integer
        effective mode N = n + k_half*x_d, over the shifted sector target, as
        (den, hits), integer hits over den.  The images are summed in
        integers over one scale S, raised to cover each den as it comes, over
        vec's own denominator."""
        twice = _twice(n)
        out: Dict[FockBasisVector, int] = {}
        S, last = 1, None
        for b, m in vec.nums.items():
            sec = b.sector
            if sec is not last:
                last = sec
                N, target = self._effective(sec, k_half, twice)
            den, hits = row(b, N, target)
            if S % den:
                f = den // math.gcd(S, den)
                out = {key: v * f for key, v in out.items()}
                S *= f
            add_scaled(out, hits, m * (S // den))
        return FockVector._reduced(out, vec.den * S, vec.parity)

    def lattice_mode(self, k_half: int, n, vec: FockVector) -> FockVector:
        """Mode of the exponential operator for kappa = (k_half/2)c."""

        def row(b, N, target):
            den, entries = _lattice_template(k_half, N, b.d_part)
            return den, [
                (_with_c_letters(b, mu_parts, target, kept), t) for kept, mu_parts, t in entries
            ]

        return self._screened(k_half, n, vec, row)

    def a_mode(self, n, vec: FockVector) -> FockVector:
        """Modes of the odd screening current psi^-(-1/2)e^{c/2}."""

        def row(b, N, target):
            _, psip, psim, _, cp = b
            den, entries = _a_template(N, psip, b.d_part)
            # each entry placed as one state: its kept d letters, the merged c
            # letters and the psi^- letter, times the fermion sign sg.  The
            # entries of one fermion mode are adjacent, and share its letters.
            hits = []
            last = letters = None
            for kept, mu_parts, twice_s, t in entries:
                if twice_s != last:
                    last, letters = twice_s, _psi_minus_letters(psip, psim, twice_s)
                if letters is not None:
                    p2, m2, sg = letters
                    hits.append((_state((target, p2, m2, kept, _c_letters(cp, mu_parts))), t * sg))
            return den, hits

        return self._screened(1, n, vec, row)

    def _a_mode_bound(self, vec: FockVector) -> int:
        """Twice the largest mode that can act without annihilating the
        vector, rounded down, or 0 where no positive mode acts (as on the zero
        vector).  Its only Fraction is -2*x_d, floored once per sector."""
        best, last = 0, None
        for b in vec.nums:
            if b.sector is not last:
                last = b.sector
                floor_xd = math.floor(-2 * last.x_d)
            top = (max(b.psip) if b.psip else -1) - 1 + 2 * sum(b.d_part)
            best = max(best, top + floor_xd)
        return best

    def screening_q(self, vec: FockVector) -> FockVector:
        return self.a_mode(0, vec)

    def screening_s(self, vec: FockVector, twisted: bool = False) -> FockVector:
        if vec.is_zero():
            return vec
        total = FockVector.zero()
        # twice the mode i runs over the odd or the even positive ints
        for i2 in range(1 if twisted else 2, self._a_mode_bound(vec) + 1, 2):
            i = Fraction(i2, 2) if i2 & 1 else i2 >> 1
            w = self.a_mode(i, vec)
            if not w.is_zero():
                piece = self.a_mode(-i, w).scale(Fraction(2, i2))
                if not piece.is_zero():
                    total = total + piece
        return total

    def screening_g(self, vec: FockVector, twisted: bool = False) -> FockVector:
        return self.lattice_mode(2, 0, vec) - self.screening_s(vec, twisted)

    # -- explicit vectors --------------------------------------------------

    def _schur_c_vector(self, order: int, scale, vec: FockVector) -> FockVector:
        """Insert the degree-`order` Schur polynomial in scaled c letters."""
        if order < 0:
            return FockVector.zero()
        schur = schur_expand(order, scale)
        nums, M = over_one_den(schur.values())
        out: Dict[FockBasisVector, int] = {}
        for b, co in vec.nums.items():
            add_scaled(out, [
                (_with_c_letters(b, mu.parts, b.sector, b.d_part), n) for mu, n in zip(schur, nums)
            ], co)
        return FockVector._reduced(out, vec.den * M, vec.parity)

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


def _twice(n):
    """Twice the mode n: an int for an integer or half-odd n, else a Fraction."""
    if type(n) is int:
        return 2 * n
    num, den = (n if type(n) is Fraction else Fraction(n)).as_integer_ratio()
    return num * (2 // den) if den <= 2 else Fraction(2 * num, den)


def _twice_half_odd(s) -> int:
    f = Fraction(s)
    if f.denominator != 2:
        raise ValueError(f"half-odd mode required: {s}")
    return f.numerator
