from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.exact_linalg import (
    Matrix,
    determinant,
    in_span,
    kernel_basis,
    matmul,
    matvec,
    rank,
)
from shvkernel.scalars import ParamPolynomial, RatFunc

P = ParamPolynomial


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    m = Matrix([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert m.column(1) == (2, 4)
    assert m.transpose().row(0) == (1, 3)
    with pytest.raises(ValueError):
        determinant(Matrix([[1, 2]]))


def test_rank_examples():
    assert rank(Matrix.identity(4)) == 4
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


def test_kernel_examples():
    assert kernel_basis(Matrix([[1, 1]])) == [[1, -1]]
    assert kernel_basis(Matrix.identity(3)) == []
    ker = kernel_basis(Matrix([[1, 2, 3], [2, 4, 6]]))
    assert len(ker) == 2
    for v in ker:
        assert matvec(Matrix([[1, 2, 3]]), v) == [0]
    # zero-row matrix: whole space
    assert len(kernel_basis(Matrix.zero(2, 3))) == 3


def test_kernel_symbolic():
    p = P.variable("p")
    ker = kernel_basis(Matrix([[p, p]]))
    assert len(ker) == 1
    v = ker[0]
    combo = p * v[0] + p * v[1]
    assert RatFunc._coerce(combo).is_zero()


def test_in_span():
    m = Matrix([[1, 0], [0, 1], [1, 1]])
    assert in_span([2, 3, 5], m)
    assert not in_span([1, 0, 0], m)
    empty = Matrix([[], [], []])
    assert in_span([0, 0, 0], empty)
    assert not in_span([1, 0, 0], empty)


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
    assert determinant(m) == determinant(m.transpose())


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
