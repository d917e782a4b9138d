import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.exact_linalg import (
    CoordinateMap,
    Matrix,
    determinant,
    in_span,
    _int_echelon,
    _max_assignment,
    kernel_basis,
    rank,
    rank_mod_p,
)
from shvkernel.freefield import FreeFieldRealization
from shvkernel.scalars import ParamPolynomial
from shvkernel.verma import pr_to_hw, shapovalov_gram, verma_basis

P = ParamPolynomial


# test-local matrix helpers: the library has no use for them


def column(m, j):
    return tuple(r[j] for r in m.data)


def transpose(m):
    return Matrix(list(zip(*m.data))) if m.rows else Matrix([])


def matvec(m, v):
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in m.data]


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return Matrix([matvec(transpose(b), row) for row in a.data])


def identity(n):
    return Matrix([[F(int(i == j)) for j in range(n)] for i in range(n)])


def _int_rows(data):
    """Scale each row to a primitive integer row: multiply by the lcm of its
    denominators, then divide by the content.  Returns (rows, scales), where
    scales[i] = (lcm, content) of row i."""
    out, scales = [], []
    for row in data:
        L = math.lcm(*(x.denominator for x in row if x))
        ints = [x.numerator * (L // x.denominator) if x else 0 for x in row]
        g = math.gcd(*(x for x in ints if x)) or 1
        out.append([x // g if x else 0 for x in ints] if g > 1 else ints)
        scales.append((L, g))
    return out, scales


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    m = Matrix([[1, 2], [3, 4]])
    assert m.data[1][0] == 3
    assert column(m, 1) == (2, 4)
    assert transpose(m).data[0] == (1, 3)
    with pytest.raises(ValueError):
        determinant(Matrix([[1, 2]]))
    # a matrix with no rows keeps its width through stack
    assert Matrix.zero(0, 3).stack(Matrix.zero(0, 3)).cols == 3


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(Matrix.zero(3, 5)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert rank(Matrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])) == 2
    assert rank(Matrix([])) == 0


def test_determinant_rational():
    assert determinant(Matrix([[F(1), F(1, 2)], [F(1, 2), F(1, 3)]])) == F(1, 12)
    assert determinant(Matrix([[2, 0, 1], [0, 3, 1], [0, 5, 2]])) == 2
    assert determinant(Matrix([[1, 2], [2, 4]])) == 0
    assert determinant(Matrix([])) == 1
    # permutation sign
    assert determinant(Matrix([[0, 1], [1, 0]])) == -1


def test_determinant_polynomial_entries():
    x, y = P.variable("cL"), P.variable("p")
    d = determinant(Matrix([[P(), x], [y, P()]]))
    assert d == -(x * y)
    # mixed Fraction/polynomial entries go down the generic Bareiss path
    m = Matrix([[x, F(1)], [F(1), x]])
    assert determinant(m) == x * x - 1
    # such a matrix keeps its entries as given, over 1: a row that comes
    # over a denominator, here the integer row [3, 2] over 6, is divided out
    mixed = Matrix([[x, F(1)]]).stack(Matrix([[F(1, 2), F(1, 3)]]))
    assert not mixed.rational and mixed.dens == [1, 1]
    assert mixed.data == ((x, F(1)), (F(1, 2), F(1, 3)))
    assert determinant(mixed) == x * F(1, 3) - F(1, 2)


def test_kernel_examples():
    assert kernel_basis(Matrix([[1, 1]])) == [[1, -1]]
    assert kernel_basis(identity(3)) == []
    ker = kernel_basis(Matrix([[1, 2, 3], [2, 4, 6]]))
    assert len(ker) == 2
    for v in ker:
        assert matvec(Matrix([[1, 2, 3]]), v) == [0]
    # zero-row matrix: whole space
    assert len(kernel_basis(Matrix.zero(2, 3))) == 3


def test_in_span():
    m = Matrix([[1, 0], [0, 1], [1, 1]])
    assert in_span([2, 3, 5], m)
    assert not in_span([1, 0, 0], m)
    empty = Matrix([[], [], []])
    assert in_span([0, 0, 0], empty)
    assert not in_span([1, 0, 0], empty)
    # no rows either: a vector of any length, zero or not
    assert in_span([0, 0], Matrix([]))
    assert not in_span([0, 1], Matrix([]))


def test_matmul_and_matvec():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert matmul(a, b).data == ((2, 1), (4, 3))
    assert matvec(a, [1, 1]) == [3, 7]
    with pytest.raises(ValueError):
        matvec(a, [1, 2, 3])


# ---------------------------------------------------------------------------
# property tests

entries = st.integers(-9, 9)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_det_zero_iff_rank_deficient(m):
    assert (determinant(m) == 0) == (rank(m) < m.rows)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: matrices(rc[0], rc[1])
    )
)
def test_rank_nullity(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.cols
    for v in ker:
        assert all(x == 0 for x in matvec(m, v))


@settings(max_examples=50, deadline=None)
@given(matrices(3, 3), matrices(3, 3))
def test_det_multiplicative(a, b):
    assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


@settings(max_examples=50, deadline=None)
@given(
    matrices(4, 3),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
        min_size=3,
        max_size=3,
    ),
)
def test_in_span_of_column_combination(m, coeffs):
    v = [sum(c * row[j] for j, c in enumerate(coeffs)) for row in m.data]
    assert in_span(v, m)


@settings(max_examples=40, deadline=None)
@given(matrices(4, 4))
def test_det_transpose_invariant(m):
    assert determinant(m) == determinant(transpose(m))


rational_entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n
            ).map(Matrix),
            st.integers(0, n - 1),
        )
    ),
    st.integers(-6, 6).filter(bool),
)
def test_row_scaling(m_row, k):
    # the integer path divides each row by its content; the determinant has to
    # multiply it back in, while rank and kernel do not see it
    m, i = m_row
    scaled = Matrix([[k * x for x in row] if j == i else row for j, row in enumerate(m.data)])
    assert determinant(scaled) == k * determinant(m)
    assert rank(scaled) == rank(m)
    assert kernel_basis(scaled) == kernel_basis(m)


def test_polynomial_bareiss_on_int_entries():
    # plain int entries beside one polynomial: the determinant interpolates,
    # while rank and kernels are for rational matrices only
    p = P.variable("p")
    m = Matrix([[2, 1, 0], [1, 1, 1], [0, 1, p]])
    assert determinant(m) == p - 2
    with pytest.raises(TypeError):
        rank(m)
    with pytest.raises(TypeError):
        kernel_basis(m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            matrices(n, n), st.integers(0, n - 1), st.integers(0, n - 1)
        )
    ),
    st.integers(-6, 6),
)
def test_symbolic_determinant_evaluates_to_integer_determinant(m_entry, k):
    # the polynomial path on a matrix with one entry p, evaluated at p = k,
    # against the integer path on the matrix with k in that place
    m, i, j = m_entry

    def with_entry(x):
        rows = [list(row) for row in m.data]
        rows[i][j] = x
        return Matrix(rows)

    d = determinant(with_entry(P.variable("p")))
    # d is a polynomial in p alone, the last parameter
    assert sum(c * k ** exp[-1] for exp, c in d.terms.items()) == determinant(with_entry(k))


# ---------------------------------------------------------------------------
# oracle: Bareiss elimination over polynomials


def divexact(a, b):
    """a / b for polynomials, by greedy leading-term elimination in lex
    order; raises ValueError unless the division is exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_b = max(b.terms)
    q, rem = P(), a
    while rem:
        lead = max(rem.terms)
        exp = tuple(x - y for x, y in zip(lead, lead_b))
        if min(exp) < 0:
            raise ValueError("inexact polynomial division")
        t = P({exp: rem.terms[lead] / b.terms[lead_b]})
        q, rem = q + t, rem - t * b
    return q


def bareiss_determinant(m):
    """The determinant by fraction-free elimination over polynomials: every
    entry stays a minor of m, each division is exact, and the last pivot is
    the determinant up to the sign of the row swaps."""
    n = m.rows
    work = [[P._coerce(x) for x in row] for row in m.data]
    sign, prev = 1, P.const(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if work[i][col]), None)
        if pivot_row is None:
            return P()
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        piv = work[col][col]
        for i in range(col + 1, n):
            head = work[i][col]
            for j in range(col + 1, n):
                work[i][j] = divexact(work[i][j] * piv - head * work[col][j], prev)
        prev = piv
    return prev if sign == 1 else -prev


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys_in(*names):
    # up to three terms, each of total degree at most 3
    monomial = st.tuples(
        small_fractions.filter(bool),
        st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)).filter(
            lambda exps: sum(exps) <= 3
        ),
    )

    def build(terms):
        out = P()
        for c, exps in terms:
            mono = P.const(c)
            for name, e in zip(names, exps):
                mono = mono * P.variable(name) ** e
            out = out + mono
        return out

    return st.lists(monomial, min_size=1, max_size=3).map(build)


symbolic_entries = st.one_of(
    st.just(F(0)), small_fractions, polys_in("p"), polys_in("cL", "p")
)


def _all_constant(rows):
    return all(not isinstance(x, P) or x.is_constant() for row in rows for x in row)


@st.composite
def symbolic_matrices(draw):
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(symbolic_entries, min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        rows[i] = [F(0)] * n
    if _all_constant(rows):
        rows[0][0] = P.variable("p")
    return Matrix(rows)


@settings(max_examples=80, deadline=None)
@given(symbolic_matrices())
def test_interpolated_determinant_matches_polynomial_bareiss(m):
    d = determinant(m)
    assert isinstance(d, P)
    assert d == bareiss_determinant(m)


def test_divexact():
    x, y = P.variable("cL"), P.variable("r")
    q = divexact(x * x - y * y, x - y)
    assert q == x + y
    with pytest.raises(ValueError):
        divexact(x * x + 1, x - y)
    with pytest.raises(ZeroDivisionError):
        divexact(x, P())


@settings(max_examples=60, deadline=None)
@given(polys_in("cL", "p"), polys_in("cL", "p"))
def test_divexact_roundtrip(a, b):
    if not b:
        return
    assert divexact(a * b, b) == a


NON_RATIONAL_CALLS = {
    "rank": lambda x: rank(Matrix([[1, 0], [0, x]])),
    "rank_mod_p": lambda x: rank_mod_p(Matrix([[1, 0], [0, x]])),
    "kernel_basis": lambda x: kernel_basis(Matrix([[1, 0], [0, x]])),
    "in_span": lambda x: in_span([1, 0], Matrix([[1, 0], [0, x]])),
    "in_span-vector": lambda x: in_span([1, x], Matrix([[1, 0], [0, 1]])),
    "determinant": lambda x: determinant(Matrix([[1, 0], [0, x]])),
}


@pytest.mark.parametrize(
    "call, entry",
    [(call, 1.5) for call in NON_RATIONAL_CALLS]
    + [(call, P.variable("p")) for call in NON_RATIONAL_CALLS if call != "determinant"],
    ids=str,
)
def test_non_rational_entry_is_a_type_error_naming_it(call, entry):
    # only determinant takes polynomial entries; no function takes a float
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        NON_RATIONAL_CALLS[call](entry)


# ---------------------------------------------------------------------------
# oracle: back substitution over the field


def _fraction_kernel_basis(m):
    """The rational kernel by back substitution in Fraction after a dense
    fraction-free forward pass in input order, then scaled to primitive
    integer vectors."""
    work, _ = _int_rows(m.data)
    pivots, _, _ = dense_int_echelon(work)
    work = [[F(x) for x in row] for row in work]
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivot_set):
        x = [F(0)] * m.cols
        x[f] = F(1)
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            acc = F(0)
            row = work[k]
            for j in range(pc + 1, m.cols):
                if row[j] and x[j]:
                    acc = acc + row[j] * x[j]
            x[pc] = F(0) if not acc else -(acc / row[pc])
        L = math.lcm(*(c.denominator for c in x))
        ints = [int(c * L) for c in x]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        basis.append([F(c) for c in ints])
    return basis


def rational_matrices_of(rows, cols):
    return st.lists(
        st.lists(rational_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix)


def _low_rank(rows, cols, k):
    # products of a rows x k and a k x cols factor: kernels of every size
    return st.tuples(rational_matrices_of(rows, k), rational_matrices_of(k, cols)).map(
        lambda ab: matmul(*ab)
    )


rational_matrices = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda rc: st.one_of(
        rational_matrices_of(*rc),
        st.integers(1, min(rc)).flatmap(lambda k: _low_rank(rc[0], rc[1], k)),
    )
)


@st.composite
def sparse_rows(draw, entry, max_rows=12, max_cols=12):
    """Rows at a density from 5% to 100%, with zero rows, zero columns,
    repeated rows and low rank mixed in: the shapes of the kernel matrices
    the Verma layer eliminates."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    # 0 * entry(rnd) is a zero of the entry type, as in the library's matrices
    data = [
        [entry(rnd) if rnd.random() < density else 0 * entry(rnd) for _ in range(cols)]
        for _ in range(rows)
    ]
    for feature in draw(
        st.lists(st.sampled_from(["zero row", "zero column", "repeat", "low rank"]), max_size=3)
    ):
        i, j = rnd.randrange(rows), rnd.randrange(cols)
        if feature == "zero row":
            data[i] = [0 * x for x in data[i]]
        elif feature == "zero column":
            for row in data:
                row[j] = 0 * row[j]
        elif feature == "repeat":
            k = rnd.choice([1, -1, 2, 3])
            data[i] = [k * x for x in data[rnd.randrange(rows)]]
        else:
            # each row a combination of a few others: rank at most that many
            basis = data[: rnd.randint(1, rows)]
            data = [
                [sum(rnd.choice([0, 0, 1, -2]) * b[c] for b in basis) for c in range(cols)]
                for _ in range(rows)
            ]
    return data


sparse_int_rows = sparse_rows(lambda rnd: rnd.randint(-9, 9))
sparse_rational_matrices = sparse_rows(
    lambda rnd: F(rnd.randint(-9, 9), rnd.randint(1, 6)), max_rows=8, max_cols=9
).map(Matrix)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_matrices, sparse_rational_matrices))
def test_integer_kernel_matches_fraction_back_substitution(m):
    ker = kernel_basis(m)
    expected = _fraction_kernel_basis(m)
    assert ker == expected
    assert [[type(c) for c in v] for v in ker] == [[type(c) for c in v] for v in expected]
    for v in ker:
        assert all(x == 0 for x in matvec(m, v))


# ---------------------------------------------------------------------------
# oracle: dense integer Bareiss


def dense_int_echelon(work):
    """Integer Bareiss as textbooks write it: every row below the pivot is
    rescaled by piv / prev at every step, whether or not it is eliminated."""
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
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
            for j in range(col + 1, cols):
                q, rem = divmod(row_i[j] * piv - head * row_r[j], prev)
                assert not rem
                row_i[j] = q
            row_i[col] = 0
        prev = piv
        pivots.append(col)
        r += 1
        if r == rows:
            break
    last = work[r - 1][pivots[-1]] if pivots else 1
    return pivots, sign, last


@settings(max_examples=300, deadline=None)
@given(sparse_int_rows)
def test_int_echelon_matches_dense_bareiss(data):
    work = [list(row) for row in data]
    expected_work = [list(row) for row in data]
    assert _int_echelon(work) == dense_int_echelon(expected_work)
    assert work == expected_work


def _input_order_det(m):
    """The determinant of a square rational matrix by dense integer Bareiss
    on its rows in input order."""
    work, scales = _int_rows(m.data)
    pivots, sign, last = dense_int_echelon(work)
    if len(pivots) < m.rows:
        return F(0)
    return F(sign * last * math.prod(g for _, g in scales), math.prod(L for L, _ in scales))


def _input_order_in_span(v, m):
    work, _ = _int_rows([list(row) + [x] for row, x in zip(m.data, v)])
    pivots, _, _ = dense_int_echelon(work)
    return not pivots or pivots[-1] != m.cols


@st.composite
def permuted(draw, matrices):
    """A matrix with its rows and its columns in a random order."""
    m = draw(matrices)
    rows = draw(st.permutations(range(m.rows)))
    cols = draw(st.permutations(range(m.cols)))
    return Matrix([[m.data[i][j] for j in cols] for i in rows])


@settings(max_examples=300, deadline=None)
@given(
    permuted(st.one_of(sparse_int_rows.map(Matrix), sparse_rational_matrices)),
    st.data(),
)
def test_sparsest_first_matches_input_order_elimination(m, data):
    # the library eliminates rows (and, for rank and determinants, columns)
    # sparsest first; the oracle eliminates densely in input order
    work, _ = _int_rows(m.data)
    pivots, _, _ = dense_int_echelon(work)
    assert rank(m) == len(pivots)
    n = min(m.rows, m.cols)
    square = Matrix([row[:n] for row in m.data[:n]])
    assert determinant(square) == _input_order_det(square)
    assert kernel_basis(m) == _fraction_kernel_basis(m)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols))
    combination = [sum(c * x for c, x in zip(coeffs, row)) for row in m.data]
    other = data.draw(st.lists(rational_entries, min_size=m.rows, max_size=m.rows))
    assert in_span(combination, m)
    for v in (combination, other):
        assert in_span(v, m) == _input_order_in_span(v, m)


def test_row_skipping_pivots_before_it_becomes_the_pivot_row():
    # row 2 has zero heads at the first two pivots, so it is left alone twice
    # and then scaled by prev / at[2] = 8 / 1 when it becomes the pivot row;
    # row 3 skips the first pivot and is eliminated at the second, dividing
    # by at[3] = 1 rather than by the previous pivot 2
    data = [
        [2, 1, 1, 1],
        [4, 6, 1, 2],
        [0, 0, 5, 1],
        [0, 1, 2, 7],
    ]
    work = [list(row) for row in data]
    expected_work = [list(row) for row in data]
    pivots, sign, last = _int_echelon(work)
    expected = dense_int_echelon(expected_work)
    assert (pivots, sign, last) == expected
    assert work == expected_work
    assert pivots == [0, 1, 2, 3]
    assert work[1][1] == 8
    assert sign == 1
    assert determinant(Matrix(data)) == last == 262


@settings(max_examples=100, deadline=None)
@given(sparse_rows(lambda rnd: F(rnd.randint(-9, 9), rnd.randint(1, 6))), st.data())
def test_integer_rows_are_primitive_row_multiples(data, draw):
    # each stored row is the row times its denominator, reduced, whether the
    # rows come as Fractions or as integer rows over given denominators
    dens = draw.draw(st.lists(st.integers(1, 12), min_size=len(data), max_size=len(data)))
    over = [[F(x) / d for x in row] for row, d in zip(data, dens)]
    ints = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in data]
    scaled = [d * math.lcm(*(y.denominator for y in row)) for row, d in zip(data, dens)]
    for m in (Matrix(over), Matrix(ints, len(data[0]), scaled)):
        assert m.rational and (m.rows, m.cols) == (len(data), len(data[0]))
        for row, nums, den in zip(over, m.nums, m.dens):
            assert [F(x, den) for x in nums] == row
            assert all(type(x) is int for x in nums) and type(den) is int and den > 0
            assert math.gcd(den, *nums) == 1
        assert m.data == tuple(map(tuple, over))
        assert all(type(x) is F for row in m.data for x in row)


# ---------------------------------------------------------------------------
# the coordinate map, on a Verma piece and on a Fock piece


_REALIZATION = FreeFieldRealization()
_PIECES = {
    "verma": lambda t: verma_basis(None, F(t, 2)),
    "fock": lambda t: _REALIZATION.piece(1, F(1, 3), F(t, 2)),
}
coefficients = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_PIECES)), st.integers(0, 5), st.data())
def test_coordinate_map(kind, t, data):
    piece = _PIECES[kind](t)
    n = len(piece)
    vecs = data.draw(
        st.lists(st.dictionaries(st.sampled_from(piece.elements), coefficients), max_size=4)
    )
    m = piece.matrix(vecs)
    assert (m.rows, m.cols) == (n, len(vecs))
    for j, vec in enumerate(vecs):
        col = piece.column(vec)
        assert list(column(m, j)) == col
        # column and back is the identity, and every entry keeps its type
        back = piece.vector(col)
        assert [(b, type(c), c) for b, c in back.items()] == sorted(
            ((b, type(c), c) for b, c in vec.items()), key=lambda e: piece.index[e[0]]
        )
        assert all(type(c) is F and c == 0 for b, c in zip(piece.elements, col) if b not in vec)
    # an element of the next piece is outside this one
    with pytest.raises(KeyError):
        piece.column({_PIECES[kind](t + 1).elements[-1]: 1})
    # n x 0 and 0 x n: rank 0, kernels {0} and the whole space
    for empty, shape, kernel_dim in (
        (piece.matrix([]), (n, 0), 0),
        (CoordinateMap(()).matrix([{}] * n), (0, n), n),
    ):
        assert (empty.rows, empty.cols) == shape
        assert rank(empty) == 0
        assert len(kernel_basis(empty)) == kernel_dim


# ---------------------------------------------------------------------------
# the mod-P rank, a lower bound on the rank over Q

MOD_P = (1 << 61) - 1


def test_rank_mod_p_examples():
    # a row P times another is zero mod P, and dependent over Q
    assert rank_mod_p(Matrix([[3, 5], [3 * MOD_P, 5 * MOD_P]])) == 1
    # determinant P: the rank drops mod P, and only the bound holds
    for lost in (Matrix([[1, 0], [0, MOD_P]]), Matrix([[1, 1], [1, 1 + MOD_P]])):
        assert (rank_mod_p(lost), rank(lost)) == (1, 2)
    assert rank_mod_p(Matrix([[F(1, 2), F(1, 3)], [F(3, 2), 1]])) == 1
    # at the third column taken the first remaining row is a head but not the
    # sparsest one, so it changes places with the pivot row
    moved = Matrix([
        [-3, 0, 0, 0, 0],
        [0, -2, 1, 1, 0],
        [-1, 3, 0, 3, -3],
        [-3, -3, 1, -2, 2],
        [0, 0, -1, 1, 0],
    ])
    assert rank_mod_p(moved) == rank(moved) == 4
    assert rank_mod_p(Matrix.zero(0, 3)) == rank_mod_p(Matrix.zero(3, 0)) == 0
    assert rank_mod_p(Matrix.zero(2, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(sparse_int_rows, sparse_rows(lambda rnd: F(rnd.randint(-9, 9), rnd.randint(1, 6)))),
    st.data(),
)
def test_rank_mod_p_is_a_lower_bound(data, draw):
    # some rows replaced by P times another row, or another row plus P
    # times a third, which can lose rank mod P
    rows = [list(row) for row in data]
    index = st.integers(0, len(rows) - 1)
    for kind in draw.draw(st.lists(st.sampled_from(["times P", "plus P times"]), max_size=2)):
        i, j, k = (draw.draw(index) for _ in range(3))
        other = [MOD_P * x for x in rows[k]]
        rows[i] = other if kind == "times P" else [a + b for a, b in zip(rows[j], other)]
    m = Matrix(rows)
    assert rank_mod_p(m) <= rank(m)
    # Hadamard: every minor of m's integer rows is below P in absolute value
    # (a nonzero integer row has norm at least 1, and zero rows are in no
    # nonzero minor), so a nonzero minor stays nonzero mod P
    if math.prod(filter(None, (sum(x * x for x in row) for row in m.nums))) < MOD_P**2:
        assert rank_mod_p(m) == rank(m)


# ---------------------------------------------------------------------------
# the interpolation degree bound, against the permutations themselves


def _brute_max_assignment(weights):
    sums = [
        sum(weights[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(weights)))
        if all(weights[i][j] is not None for i, j in enumerate(perm))
    ]
    return max(sums, default=None)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_max_assignment_is_the_best_permutation(weights):
    assert _max_assignment(weights) == _brute_max_assignment(weights)


def leibniz_determinant(m):
    """The sum over permutations of the signed products of entries."""
    total = P()
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = P.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * P._coerce(m.data[i][j])
        total = total + term
    return total


@st.composite
def sparse_symbolic_matrices(draw):
    """Small polynomial matrices, mostly zeros: often no permutation avoids
    every zero entry, and the determinant is 0 without interpolation."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just(F(0)), st.just(F(0)), small_fractions, polys_in("p"), polys_in("cL", "p")
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if _all_constant(rows):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = P.variable("p")
    return Matrix(rows)


@settings(max_examples=150, deadline=None)
@given(sparse_symbolic_matrices())
def test_interpolated_determinant_matches_leibniz_expansion(m):
    assert determinant(m) == leibniz_determinant(m)


def test_degree_bound_is_sharp_on_gram_blocks():
    # at levels 1/2 to 5/2 the assignment bound is the true degree in p of
    # the Gram determinant (the row and column bound gave 3, 5, 15, 31, 61)
    hw = pr_to_hw(P.variable("p"), F(1, 3))
    for level, degree in ((F(1, 2), 2), (1, 4), (F(3, 2), 10), (2, 22), (F(5, 2), 42)):
        gram = shapovalov_gram(hw, level)
        degrees = [[x.degree_in("p") if isinstance(x, P) else 0 if x else None for x in row]
                   for row in gram.nums]
        assert _max_assignment(degrees) == degree == determinant(gram).degree_in("p")
