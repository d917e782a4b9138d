"""Dense exact linear algebra over rationals and parameter polynomials.

Everything here is fraction-free where it matters: rank and determinant use
Bareiss elimination, so integer matrices stay integer and polynomial matrices
stay polynomial (every intermediate entry is a minor of the input, hence the
divisions are exact).  Kernels are solved by back substitution over the field
after the fraction-free forward pass.

Matrices are small (a few hundred rows at most) and dense, so plain lists of
lists beat any sparse cleverness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from .scalars import ParamPolynomial, RatFunc, is_zero


def _exact_div(a, b):
    """a / b when the division is known to be exact in the ambient ring."""
    if isinstance(b, (int, Fraction)):
        if isinstance(a, ParamPolynomial):
            return ParamPolynomial({e: c / b for e, c in a.terms.items()})
        return a / b
    if isinstance(b, ParamPolynomial):
        if b.is_constant():
            c = b.constant_value()
            return _exact_div(a, c)
        if isinstance(a, (int, Fraction)):
            if a == 0:
                return Fraction(0)
            raise ValueError("inexact division of a constant by a polynomial")
        if isinstance(a, ParamPolynomial):
            return a.divexact(b)
    if isinstance(b, RatFunc):
        return RatFunc._coerce(a) / b
    raise TypeError(f"cannot divide {a!r} by {b!r}")


class Matrix:
    """Immutable rectangular matrix with exact entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [tuple(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.data = tuple(rows)
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(rows)

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            return cls([])
        return cls(list(zip(*cols)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int):
        return self.data[i]

    def column(self, j: int):
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data))) if self.rows else Matrix([])

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return Matrix([a + b for a, b in zip(self.data, other.data)])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.rows and other.rows and self.cols != other.cols:
            raise ValueError("column counts differ")
        return Matrix(list(self.data) + list(other.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def matvec(m: Matrix, v: Sequence) -> list:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    out = []
    for row in m.data:
        acc = Fraction(0)
        for a, x in zip(row, v):
            if not is_zero(a) and not is_zero(x):
                acc = acc + a * x
        out.append(acc)
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    bt = b.transpose()
    out = []
    for row in a.data:
        new = []
        for col in bt.data:
            acc = Fraction(0)
            for x, y in zip(row, col):
                if not is_zero(x) and not is_zero(y):
                    acc = acc + x * y
            new.append(acc)
        out.append(new)
    return Matrix(out)


# ---------------------------------------------------------------------------
# fraction-free elimination


def _all_rational(data) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in data for x in row)


def _int_rows(data):
    """Scale each row to a primitive integer row: multiply by the lcm of its
    denominators, then divide by the content.  Returns (rows, scales), where
    scales[i] = (lcm, content) of row i."""
    out, scales = [], []
    for row in data:
        L = math.lcm(*(x.denominator for x in row)) if row else 1
        ints = [x.numerator * (L // x.denominator) for x in row]
        g = math.gcd(*ints) or 1
        out.append([x // g for x in ints] if g > 1 else ints)
        scales.append((L, g))
    return out, scales


def _echelon(work: List[list]):
    """In-place fraction-free row echelon over parameter polynomials (any
    matrix with a non-rational entry).  Returns (pivot_cols, sign, last_pivot)."""
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: List[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not is_zero(work[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        piv = work[r][col]
        for i in range(r + 1, rows):
            head = work[i][col]
            if is_zero(head):
                # Bareiss rescale a*piv/prev keeps every entry a minor; it is
                # required even when nothing is being eliminated from this row
                row_i = work[i]
                for j in range(col + 1, cols):
                    if not is_zero(row_i[j]):
                        row_i[j] = _exact_div(row_i[j] * piv, prev)
                continue
            row_i = work[i]
            row_r = work[r]
            for j in range(col + 1, cols):
                row_i[j] = _exact_div(row_i[j] * piv - head * row_r[j], prev)
            row_i[col] = Fraction(0)
        prev = piv
        pivots.append(col)
        r += 1
        if r == rows:
            break
    last = work[r - 1][pivots[-1]] if pivots else 1
    return pivots, sign, last


def _int_echelon(work: List[List[int]]):
    """_echelon on integer rows: plain truthiness for zero tests, and every
    Bareiss division checked to leave no remainder."""
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: List[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        row_r = work[r]
        piv = row_r[col]
        for i in range(r + 1, rows):
            row_i = work[i]
            head = row_i[col]
            if head:
                for j in range(col + 1, cols):
                    q, rem = divmod(row_i[j] * piv - head * row_r[j], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division")
                    row_i[j] = q
                row_i[col] = 0
            else:
                # the Bareiss rescale a*piv/prev, as in _echelon
                for j in range(col + 1, cols):
                    a = row_i[j]
                    if a:
                        q, rem = divmod(a * piv, prev)
                        if rem:
                            raise ArithmeticError("inexact Bareiss division")
                        row_i[j] = q
        prev = piv
        pivots.append(col)
        r += 1
        if r == rows:
            break
    last = work[r - 1][pivots[-1]] if pivots else 1
    return pivots, sign, last


def _echelon_of(m: Matrix):
    """Echelonized copy of m, preferring the integer fast path.

    Returns (work, pivots, sign, last_pivot, scales) where scales are the
    (lcm, content) row scalings of _int_rows (none on the generic path).
    """
    if _all_rational(m.data):
        work, scales = _int_rows(m.data)
        pivots, sign, last = _int_echelon(work)
        return work, pivots, sign, last, scales
    work = [list(row) for row in m.data]
    pivots, sign, last = _echelon(work)
    return work, pivots, sign, last, []


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots, _, _, _ = _echelon_of(m)
    return len(pivots)


# The same function under a second name: perfbench/tracing.py wraps
# ``rational_rank`` in exact_linalg, verma and cli, and cli's rank calls go
# through this name so that they stay traced.
rational_rank = rank


def determinant(m: Matrix):
    """Exact determinant of a square matrix (Bareiss; last pivot is the det)."""
    if not m.is_square():
        raise ValueError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return Fraction(1)
    work, pivots, sign, last, scales = _echelon_of(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    if isinstance(last, int) and not isinstance(last, bool):
        # undo the row scalings: times each content, over each lcm
        contents = math.prod(g for _, g in scales)
        return Fraction(sign * last * contents, math.prod(L for L, _ in scales))
    return last if sign == 1 else -last


def kernel_basis(m: Matrix) -> List[list]:
    """Basis of the right kernel {x : m x = 0}.

    One vector per free column, solved by back substitution over the field.
    All-rational input yields primitive integer vectors (cleared denominators,
    first nonzero entry positive); symbolic input yields RatFunc entries.
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
    rational = _all_rational(m.data)
    work, pivots, _, _, _ = _echelon_of(m)
    if rational:
        work = [[Fraction(x) for x in row] for row in work]
        div = lambda a, b: a / b
    else:
        div = lambda a, b: RatFunc._coerce(a) / RatFunc._coerce(b)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            acc = Fraction(0)
            row = work[k]
            for j in range(pc + 1, m.cols):
                if not is_zero(row[j]) and not is_zero(x[j]):
                    acc = acc + row[j] * x[j]
            if is_zero(acc):
                x[pc] = Fraction(0)
            else:
                x[pc] = -div(acc, row[pc])
        if rational:
            L = math.lcm(*(Fraction(c).denominator for c in x))
            ints = [int(Fraction(c) * L) for c in x]
            g = math.gcd(*ints)
            if g:
                ints = [c // g for c in ints]
            lead = next((c for c in ints if c), 1)
            if lead < 0:
                ints = [-c for c in ints]
            x = [Fraction(c) for c in ints]
        basis.append(x)
    return basis


def in_span(v: Sequence, m: Matrix) -> bool:
    """Is the vector v in the column span of m?"""
    if len(v) != m.rows and not (m.rows == 0 and m.cols == 0):
        if m.cols == 0:
            return all(is_zero(x) for x in v)
        raise ValueError("dimension mismatch")
    if m.cols == 0:
        return all(is_zero(x) for x in v)
    base_rank = rank(m)
    aug = m.augment(Matrix.from_columns([list(v)]))
    return rank(aug) == base_rank
