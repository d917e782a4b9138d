"""Exact linear algebra over the rationals, and determinants over parameter
polynomials.

Both module layers reduce their checks to one graded piece at a time, and
CoordinateMap is the one bridge between their sparse vectors and these
matrices.  It holds the basis of a piece in a fixed order with the index of
each element, and turns a {basis element: coefficient} dict into a dense
column (Fraction(0) off the support, KeyError on an element outside the
piece), a list of such dicts into the Matrix of their columns (n x 0 and 0 x n
included), and a dense column, such as a kernel vector, back into a dict
without zeros.  verma.GradedBasis is a CoordinateMap of PBW words, and
FreeFieldRealization.piece gives the one of a Fock piece.

A Matrix of rational entries keeps each row as ints over one positive
denominator, reduced (gcd(den, *row) = 1), the form of a FockVector; data,
the rows as Fractions, is a view built on first read.  The Verma Gram blocks
are such matrices, handed over as integer rows with their denominators.  A
matrix with any other entry keeps its rows as given, over 1: determinant
takes polynomial entries, and every other function raises TypeError naming
the first entry that is not an int or a Fraction.  The entry types are read
once, when the matrix is made.

Rank, kernels and determinants run one fraction-free (Bareiss) elimination
of the stored integer rows, each divided by its content first, and every
division in it is checked to be exact.  A row's denominator and content
change no rank and no kernel; a determinant multiplies the contents back in
and divides by the denominators.  Kernels are back-substituted over the
integers too: one integer vector per free column, rescaled at each pivot
just enough for the solved entry to be an integer, so no ``Fraction`` is
formed before the result.

rank_mod_p eliminates the same integer rows modulo the prime P = 2^61 - 1.
Its result is a lower bound on the rank over Q, never a rank: it is used
only where that bound proves an exact statement by itself (the subsingular
detector's count in verma), and no report shows it.

EchelonSpan is the one incremental span: integer rows in reduced echelon
form, keyed by pivot column, that grows one vector at a time and answers
membership.  The Verma submodule closures grow one per degree, and in_span
puts the columns of a matrix in one.

Matrices have at most a few hundred rows, but the kernel matrices of the
Verma layer are sparse (about 5% nonzero), so elimination works on nonzero
entries only: a row with nothing to eliminate at a pivot is not touched
until it has (_int_echelon keeps the Bareiss factors it skipped as one
pending division), an elimination subtracts only on the pivot row's nonzero
columns, and back substitution sums over each pivot row's nonzero entries.
The rows, pivots and determinants are those of dense Bareiss elimination of
the same rows in the same order, bit for bit.

The order is sparsest first: the primitive rows are stably sorted by nonzero
count (the fill-in rule of Markowitz, 1957), so the many dependent rows of a
degenerate Gram block reach zero after few pivot steps.  No result depends
on the order.  rank and determinants sort the columns too, and a determinant
multiplies back the signs of both permutations.  Kernels keep the column
order: their pivot columns are the leftmost independent ones whatever the
row order, and each kernel vector is the one with 1 in its free column and 0
in the other free columns, made primitive.

Determinants are integer Bareiss eliminations, and ``determinant`` is the
one function that also takes polynomial entries.  Such a determinant is
interpolated, one parameter at a time: its degree in the parameter is at
most D, the largest sum of entry degrees along one permutation that avoids
every zero entry (an assignment problem, solved by the Hungarian method),
so its values at 0, 1, ..., D fix it exactly, and each value is the
determinant of a matrix with one parameter fewer.  Each entry is split once
into its coefficients in that parameter and evaluated at the D + 1 nodes by
Horner's rule.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .scalars import PARAMETERS, ParamPolynomial, over_one_den

_RATIONAL = {int, Fraction}
_ZERO = Fraction(0)


class Matrix:
    """Immutable rectangular matrix with exact entries: row i is nums[i] over
    dens[i] (see the module docstring), and rational says whether every
    entry is an int or a Fraction.  The lists are never changed."""

    __slots__ = ("rows", "cols", "nums", "dens", "rational", "_data")

    def __init__(self, data: Iterable[Sequence], cols: int = 0,
                 dens: Optional[Sequence[int]] = None):
        """Rows of equal length, row i over dens[i] > 0 (1 by default); cols
        is the width of a matrix with no rows."""
        rows = [list(r) for r in data]
        width = len(rows[0]) if rows else cols
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        dens = list(dens) if dens else [1] * len(rows)
        kinds = [set(map(type, r)) for r in rows]
        self.rational = all(k <= _RATIONAL for k in kinds)
        if not self.rational:
            rows = [r if d == 1 else [x * Fraction(1, d) for x in r] for r, d in zip(rows, dens)]
            dens = [1] * len(rows)
        else:
            for i, (row, den, k) in enumerate(zip(rows, dens, kinds)):
                if Fraction in k:
                    row, scale = over_one_den(row)
                    den *= scale
                if den != 1:
                    g = math.gcd(den, *row)
                    if g != 1:
                        row = [x // g for x in row]
                        den //= g
                rows[i], dens[i] = row, den
        self.nums, self.dens = rows, dens
        self.rows = len(rows)
        self.cols = width
        self._data = None

    @property
    def data(self) -> tuple:
        """The rows as Fractions, entries that are not ints as they are and
        every zero the one Fraction(0); built on first read."""
        d = self._data
        if d is None:
            d = self._data = tuple(
                tuple((Fraction(x, den) if type(x) is int else x) if x else _ZERO for x in row)
                for row, den in zip(self.nums, self.dens)
            )
        return d

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], cols)

    def stack(self, other: "Matrix") -> "Matrix":
        """self's rows over other's, of the same width."""
        return Matrix(self.nums + other.nums, self.cols, self.dens + other.dens)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self.nums, self.dens) == (
            other.cols, other.nums, other.dens
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class CoordinateMap:
    """The coordinates of one graded piece: its basis in a fixed order and the
    index of each element (see the module docstring)."""

    __slots__ = ("elements", "index")

    def __init__(self, elements: Sequence):
        self.elements = tuple(elements)
        self.index = {b: i for i, b in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def column(self, vec: Mapping) -> list:
        """vec as a dense column, with Fraction(0) off its support; an
        element outside the piece raises KeyError."""
        col = [Fraction(0)] * len(self.elements)
        for b, c in vec.items():
            col[self.index[b]] = c
        return col

    def matrix(self, vecs: Iterable[Mapping]) -> Matrix:
        """The matrix whose columns are the vectors, len(self) x len(vecs)."""
        cols = [self.column(v) for v in vecs]
        return Matrix(list(zip(*cols)) if cols else [()] * len(self.elements), len(cols))

    def vector(self, coords: Sequence) -> dict:
        """A dense column, such as a kernel vector, as a dict without zeros."""
        return {b: c for b, c in zip(self.elements, coords) if c}


# ---------------------------------------------------------------------------
# fraction-free elimination


def _rows_of(m: Matrix) -> List[List[int]]:
    """The integer rows of a rational matrix; raises TypeError naming the
    first entry that is not an int or a Fraction."""
    if not m.rational:
        bad = next(x for row in m.nums for x in row if type(x) not in _RATIONAL)
        raise TypeError(f"expected int or Fraction entries, got {bad!r}")
    return m.nums


def _int_echelon(work: List[List[int]]):
    """Fraction-free row echelon of integer rows, in place, touching only
    nonzero entries.  Returns (pivots, sign of the row swaps, last pivot).

    Bareiss rescales every row below the pivot at every step, by piv / prev,
    even a row with nothing to eliminate.  Here such a row is left alone, and
    at[i] records the pivot row i was last divided by (1 at the start).  The
    invariant, for every row not yet a pivot row: the Bareiss row equals
    work[i] * prev / at[i], where prev is the last pivot.  It holds because
    the skipped factors telescope, piv_{s+1}/piv_s * ... * piv_t/piv_{t-1} =
    piv_t / piv_s, so

    * a row eliminated at pivot piv becomes (row * piv - head * pivot_row)
      / at[i], the Bareiss row of that step, and at[i] becomes piv;
    * a row chosen as the pivot row is first scaled by prev / at[r].

    Both divisions are exact because their quotients are Bareiss entries,
    minors of the input, and both are still checked to leave no remainder.
    Scaling by nonzero pivots keeps the zero pattern, so pivot choice, swaps,
    sign and every returned row are those of the dense elimination.  Each
    step subtracts only on the pivot row's nonzero columns and rescales only
    nonzero entries.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: List[int] = []
    sign = 1
    prev = 1
    at = [1] * rows
    r = 0
    for col in range(cols):
        heads = [i for i in range(r, rows) if work[i][col]]
        if not heads:
            continue
        pivot_row = heads[0]
        if pivot_row != r:
            # the row moving down has a zero head, so heads[1:] stays valid
            work[r], work[pivot_row] = work[pivot_row], work[r]
            at[r], at[pivot_row] = at[pivot_row], at[r]
            sign = -sign
        row_r = work[r]
        support = [j for j in range(col, cols) if row_r[j]]
        if at[r] != prev:
            for j in support:
                q, rem = divmod(row_r[j] * prev, at[r])
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                row_r[j] = q
        piv = row_r[col]
        del support[0]
        for i in heads[1:]:
            row_i = work[i]
            head = row_i[col]
            row_i[col] = 0
            d = at[i]
            for j in [j for j in range(col + 1, cols) if row_i[j] and not row_r[j]]:
                q, rem = divmod(row_i[j] * piv, d)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                row_i[j] = q
            for j in support:
                q, rem = divmod(row_i[j] * piv - head * row_r[j], d)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                row_i[j] = q
            at[i] = piv
        prev = piv
        pivots.append(col)
        r += 1
        if r == rows:
            break
    last = work[r - 1][pivots[-1]] if pivots else 1
    return pivots, sign, last


def _permutation_sign(order: List[int]) -> int:
    """The sign of a permutation given as the list of its images:
    (-1)^(n - number of cycles)."""
    seen = set()
    cycles = 0
    for start in order:
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = order[j]
    return -1 if (len(order) - cycles) % 2 else 1


def _sparsest_first(rows: List[List[int]], columns: bool):
    """Fresh primitive copies of integer rows (each divided by its content),
    for an elimination to work on in place, in ascending order of nonzero
    count, and with columns=True with the columns in that order too (stable,
    so ties keep their order); see the module docstring.  Returns the copies
    and the factor f with det(rows) = f * det(copies): the signs of the row
    and column permutations times the contents."""
    counts = [len(row) - row.count(0) for row in rows]
    order = sorted(range(len(rows)), key=counts.__getitem__)
    factor = _permutation_sign(order)
    work = []
    for i in order:
        g = math.gcd(*rows[i])
        if g > 1:
            factor *= g
            work.append([x // g for x in rows[i]])
        else:
            work.append(list(rows[i]))
    if columns:
        counts = [len(col) - col.count(0) for col in zip(*work)]
        cols = sorted(range(len(counts)), key=counts.__getitem__)
        work = [[row[j] for j in cols] for row in work]
        factor *= _permutation_sign(cols)
    return work, factor


def _echelon_of(m: Matrix, columns: bool = False):
    """Echelon rows of a rational matrix, from its integer rows taken
    sparsest first, and its pivot columns.  Raises TypeError naming the
    first entry that is not an int or a Fraction.

    By default the columns keep their order, so the pivot columns are the
    leftmost independent columns of m, whatever the row order.  columns=True
    takes the columns sparsest first too, for rank, which needs only how
    many pivots there are.
    """
    work, _ = _sparsest_first(_rows_of(m), columns)
    pivots, _, _ = _int_echelon(work)
    return work, pivots


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _echelon_of(m, columns=True)
    return len(pivots)


#: the Mersenne prime 2^61 - 1, the modulus of rank_mod_p
_P = (1 << 61) - 1


def rank_mod_p(m: Matrix) -> int:
    """The rank over GF(P) of a rational matrix's integer rows, P = 2^61 - 1:
    a lower bound on the rank over Q, never a result.

    Every r x r minor that is nonzero mod P is a nonzero integer, so
    rank_P <= rank_Q; the two differ only when P divides every nonzero
    maximal minor.  The columns are taken sparsest first, and at each the
    pivot is the sparsest row with a nonzero head (the rows start sparsest
    first too, so ties keep that order); each elimination step touches only
    the pivot row's nonzero columns.  Raises TypeError naming the first
    entry that is not an int or a Fraction.
    """
    rows = _rows_of(m)
    counts = [len(row) - row.count(0) for row in rows]
    work = [[x % _P for x in rows[i]] for i in sorted(range(m.rows), key=counts.__getitem__)]
    counts = [len(col) - col.count(0) for col in zip(*work)]
    r = 0
    for col in sorted(range(len(counts)), key=counts.__getitem__):
        heads = [i for i in range(r, m.rows) if work[i][col]]
        if not heads:
            continue
        p = min(heads, key=lambda i: len(work[i]) - work[i].count(0))
        work[r], work[p] = work[p], work[r]
        row_r = work[r]
        inv = pow(row_r[col], -1, _P)
        support = [j for j, x in enumerate(row_r) if x and j != col]
        for i in heads:
            if i == p:
                continue
            # the row that was at r moved to p
            row_i = work[p if i == r else i]
            f = row_i[col] * inv % _P
            row_i[col] = 0
            for j in support:
                row_i[j] = (row_i[j] - f * row_r[j]) % _P
        r += 1
    return r


# The same function under a second name: perfbench/tracing.py wraps
# ``rational_rank`` in exact_linalg, verma and cli, and cli's rank calls go
# through this name so that they stay traced.
rational_rank = rank


def determinant(m: Matrix):
    """Exact determinant of a square matrix: a Fraction for rational entries,
    a ParamPolynomial for polynomial ones (interpolated, see _det)."""
    if not m.is_square():
        raise ValueError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return Fraction(1)
    if m.rational:
        return _rational_det(m)
    for row in m.nums:
        for x in row:
            if not isinstance(x, (int, Fraction, ParamPolynomial)):
                raise TypeError(f"determinant of a matrix with entry {x!r}")
    return ParamPolynomial._coerce(_det(m.nums))


def _rational_det(m: Matrix) -> Fraction:
    """Integer Bareiss on the primitive integer rows, with rows and columns
    taken sparsest first; the last pivot, times the sign of the row swaps
    and the factor of _sparsest_first, over the product of the row
    denominators, is the determinant."""
    work, factor = _sparsest_first(m.nums, columns=True)
    pivots, sign, last = _int_echelon(work)
    if len(pivots) < len(work):
        return Fraction(0)
    return Fraction(factor * sign * last, math.prod(m.dens))


def _coefficients(x, idx: int):
    """An entry as its coefficient list in parameter idx, lowest degree first,
    for Horner evaluation by _at.

    A polynomial in that parameter alone becomes (numerators, denominator),
    integers over one denominator; a polynomial in other parameters too, a
    list of ParamPolynomials in them.  Constants are returned as they are.
    """
    if not isinstance(x, ParamPolynomial):
        return x
    coeffs = [{} for _ in range(x.degree_in(PARAMETERS[idx]) + 1)]
    for exp, c in x.terms.items():
        coeffs[exp[idx]][exp[:idx] + (0,) + exp[idx + 1:]] = c
    if any(any(exp) for terms in coeffs for exp in terms):
        return [ParamPolynomial(terms) for terms in coeffs]
    return over_one_den([sum(terms.values(), Fraction(0)) for terms in coeffs])


def _at(entry, value: int):
    """A _coefficients entry at the given parameter value: a Fraction when no
    parameter is left, else a ParamPolynomial in the others; constant entries
    come out as they went in."""
    if isinstance(entry, tuple):
        nums, den = entry
        v = 0
        for a in reversed(nums):
            v = v * value + a
        return Fraction(v, den)
    if isinstance(entry, list):
        v = ParamPolynomial()
        for a in reversed(entry):
            v = v * value + a
        return v.constant_value() if v.is_constant() else v
    return entry


def _det(rows):
    """Determinant of a square matrix of ints, Fractions and ParamPolynomials,
    by evaluation and interpolation in the first parameter that occurs.

    Every Leibniz term is the product of the entries along one permutation,
    zero when one of them is, so the determinant's degree in the parameter
    is at most D, the largest sum of entry degrees along a permutation that
    avoids every zero entry (_max_assignment); with no such permutation the
    determinant is 0.  Its values at 0, 1, ..., D are determinants with one
    parameter fewer, and a polynomial of degree at most D is fixed by D + 1
    values: Newton's divided differences recover it exactly.
    """
    used = {
        i
        for row in rows
        for x in row
        if isinstance(x, ParamPolynomial)
        for exp in x.terms
        for i, e in enumerate(exp)
        if e
    }
    if not used:
        return _rational_det(Matrix(
            [x.constant_value() if isinstance(x, ParamPolynomial) else x for x in row]
            for row in rows
        ))
    idx = min(used)
    name = PARAMETERS[idx]
    bound = _max_assignment([
        [(x.degree_in(name) if isinstance(x, ParamPolynomial) else 0) if x else None for x in row]
        for row in rows
    ])
    if bound is None:
        return ParamPolynomial()
    split = [[_coefficients(x, idx) for x in row] for row in rows]
    c = [_det([[_at(x, k) for x in row] for row in split]) for k in range(bound + 1)]
    # divided differences at the nodes 0, 1, ..., bound: c[j] = f[0, ..., j]
    for j in range(1, bound + 1):
        for i in range(bound, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * Fraction(1, j)
    # expand c[0] + x (c[1] + (x - 1) (c[2] + ...)) into the coefficients of x^k
    coeffs = [c[bound]]
    for k in range(bound - 1, -1, -1):
        coeffs = (
            [c[k] - k * coeffs[0]]
            + [a - k * b for a, b in zip(coeffs, coeffs[1:])]
            + [coeffs[-1]]
        )
    terms = {}
    for k, a in enumerate(coeffs):
        for exp, v in ParamPolynomial._coerce(a).terms.items():
            terms[exp[:idx] + (k,) + exp[idx + 1:]] = v
    return ParamPolynomial(terms)


def _max_assignment(weights: List[List[Optional[int]]]) -> Optional[int]:
    """The largest sum weights[0][s(0)] + ... + weights[n-1][s(n-1)] over the
    permutations s that avoid every None entry, or None if each meets one.

    The Hungarian method (Kuhn 1955) in its O(n^3) form with row and column
    potentials, minimizing the cost -w, and big for a None entry.  Every
    permutation that avoids them costs at most 0, and one that meets a None
    costs at least big - (n - 1) * max w > 0, so the optimum takes a None
    entry exactly when no permutation avoids them all.
    """
    n = len(weights)
    top = max((w for row in weights for w in row if w is not None), default=0)
    big = n * top + 1
    cost = [[big if w is None else -w for w in row] for row in weights]
    u, v = [0] * (n + 1), [0] * (n + 1)
    # owner[j]: the row (from 1) assigned to column j; column 0 is a sentinel
    owner, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    chosen = [weights[owner[j] - 1][j - 1] for j in range(1, n + 1)]
    return None if None in chosen else sum(chosen)


def _int_kernel_vector(work: List[List[int]], pivots: List[int], supports: List[list],
                       free: int) -> list:
    """The kernel vector of integer echelon rows for one free column.

    Back substitution keeps one integer vector: before solving for pivot
    column pc with x[pc] * piv = -acc, the vector is rescaled by piv // g
    (g = gcd(acc, piv)), which makes x[pc] = -acc // g an integer.  acc sums
    over the pivot row's nonzero entries only: supports[k] lists the nonzero
    columns of row k right of its pivot.  Returns the primitive multiple with
    first nonzero entry positive, as Fractions.
    """
    x = [0] * len(work[0])
    x[free] = 1
    # pivots right of the free column see only zeros and solve to zero
    for k in range(bisect.bisect_left(pivots, free) - 1, -1, -1):
        row = work[k]
        acc = sum([row[j] * x[j] for j in supports[k]])
        if acc:
            pc = pivots[k]
            piv = row[pc]
            g = math.gcd(acc, piv)
            s = piv // g
            if s != 1:
                x = [c * s for c in x]
            x[pc] = -(acc // g)
    g = math.gcd(*x)
    if next(c for c in x if c) < 0:
        g = -g
    return [Fraction(c // g) for c in x]


def kernel_basis(m: Matrix) -> List[list]:
    """Basis of the right kernel {x : m x = 0} of a rational matrix.

    One vector per free column, back-substituted over the integers: each is
    a primitive integer vector, as Fractions, with first nonzero entry
    positive.  Raises TypeError on an entry that is not an int or a Fraction.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        basis = []
        for j in range(m.cols):
            v = [Fraction(0)] * m.cols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    work, pivots = _echelon_of(m)
    pivot_set = set(pivots)
    supports = [
        [j for j in range(pc + 1, m.cols) if row[j]]
        for row, pc in zip(work, pivots)
    ]
    return [
        _int_kernel_vector(work, pivots, supports, f)
        for f in range(m.cols)
        if f not in pivot_set
    ]


def in_span(v: Sequence, m: Matrix) -> bool:
    """Is the rational vector v in the column span of the rational matrix m?

    The columns of m, over the lcm of its row denominators, go into one
    EchelonSpan, and v is in it exactly when it reduces to zero there.  A
    matrix with no columns spans only the zero vector, of any length.
    """
    if m.cols and len(v) != m.rows:
        raise ValueError("dimension mismatch")
    (vec,) = _rows_of(Matrix([v]))
    den = math.lcm(*m.dens)
    span = EchelonSpan()
    for column in zip(*[[x * (den // d) for x in row] for row, d in zip(_rows_of(m), m.dens)]):
        span.insert(list(column))
    return span.contains(vec)


class EchelonSpan:
    """Incremental reduced row echelon span over the rationals, of integer
    vectors: a rational vector goes in as its ints over one denominator.

    Rows are primitive integer rows keyed by pivot column: each pivot is
    positive and every other pivot column of the row is zero.  Reduction is
    fraction-free, v <- row[piv] * v - v[piv] * row followed by division by
    the content, so no Fraction is formed.  Stored rows are rewritten in
    place as the span grows, so a row is always a new list, never one a
    caller passed in.
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

    def insert(self, vec: List[int]) -> bool:
        """Add vec unless it lies in the span; returns whether it was added."""
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

    def contains(self, vec: List[int]) -> bool:
        return not any(self.reduce(vec))

    def copy(self) -> "EchelonSpan":
        """An independent span with the same rows, each a new list."""
        span = EchelonSpan()
        span.rows = {piv: list(row) for piv, row in self.rows.items()}
        return span
