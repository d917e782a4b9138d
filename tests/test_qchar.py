from fractions import Fraction as F

import pytest

from shvkernel.qchar import (
    QSeries,
    char_simple,
    char_verma,
    compare_dims,
    schur_expand,
)
from shvkernel.shv_algebra import Partition


def count_partitions(n, min_part=1):
    """Partitions of n with every part at least min_part: the smallest part
    p is taken first, and the rest has parts at least p."""
    if n == 0:
        return 1
    return sum(count_partitions(n - p, p) for p in range(min_part, n + 1))


def count_superpartitions(twice_n, min_twice=1):
    """Sets of distinct positive half-odd parts summing to twice_n/2, every
    doubled part at least min_twice (odd), smallest part first."""
    if twice_n == 0:
        return 1
    return sum(
        count_superpartitions(twice_n - t, t + 2) for t in range(min_twice, twice_n + 1, 2)
    )


def brute_graded_dim(twice_d, vacuum=False):
    """Independent oracle: count PBW monomials (two even + two odd families)."""
    total = 0
    for t_Lmu in range(0, twice_d + 1, 2):
        nL = count_partitions(t_Lmu // 2, min_part=2 if vacuum else 1)
        if not nL:
            continue
        for t_Amu in range(0, twice_d - t_Lmu + 1, 2):
            nA = count_partitions(t_Amu // 2)
            for t_Glam in range(0, twice_d - t_Lmu - t_Amu + 1):
                t_Plam = twice_d - t_Lmu - t_Amu - t_Glam
                nG = count_superpartitions(t_Glam, min_twice=3 if vacuum else 1)
                nP = count_superpartitions(t_Plam)
                total += nL * nA * nG * nP
    return total


def vacuum_char(truncation):
    """The vacuum-module character: no L(-1) and no G(-1/2), so the Verma
    character times (1 - q^(1/2))."""
    return char_verma(truncation).mul_polynomial({0: 1, 1: -1})


def test_char_verma_matches_brute_enumeration():
    ch = char_verma(F(9, 2))
    for t in range(10):
        assert ch.coefficient(F(t, 2)) == brute_graded_dim(t)


def test_char_verma_known_prefix():
    # hand check at degree 3: even 2-colored partition counts (1,2,5,10) against
    # odd-pair counts (1,2,1,2,4,4,5) give 10+5+8+5 = 28
    ch = char_verma(4)
    assert [ch.coefficient(F(t, 2)) for t in range(9)] == [
        1, 2, 3, 6, 11, 18, 28, 44, 69,
    ]


def test_char_verma_vacuum():
    ch = vacuum_char(F(3, 2))
    assert [ch.coefficient(F(t, 2)) for t in range(4)] == [1, 1, 1, 3]
    full = vacuum_char(3)
    for t in range(7):
        assert full.coefficient(F(t, 2)) == brute_graded_dim(t, vacuum=True)


def test_two_colored_partitions_piece():
    # the purely even part of the character: prod (1-q^k)^(-2); at q^2 -> 5
    from shvkernel.qchar import _geometric_double_inverse, _mul_dict

    acc = {0: 1}
    for k in (1, 2):
        acc = _mul_dict(acc, _geometric_double_inverse(2 * k, 4), 4)
    assert acc[4] == 5


def test_truncation_guard():
    ch = char_verma(2)
    with pytest.raises(ValueError):
        ch.coefficient(F(5, 2))
    with pytest.raises(ValueError):
        ch.coefficient(F(1, 3))


def test_char_simple_odd():
    ch = char_simple(1, 2)
    assert [ch.coefficient(F(t, 2)) for t in range(5)] == [1, 1, 1, 3, 5]
    ch3 = char_simple(3, 2)
    assert [ch3.coefficient(F(t, 2)) for t in range(5)] == [1, 2, 3, 5, 9]


def test_char_simple_even():
    ch = char_simple(2, 2)
    assert [ch.coefficient(F(t, 2)) for t in range(5)] == [1, 2, 3, 6, 10]
    ch4 = char_simple(4, F(5, 2))
    assert [ch4.coefficient(F(t, 2)) for t in range(6)] == [1, 2, 3, 6, 11, 18]


def test_char_simple_duality():
    for p in (1, 2, 3):
        a = char_simple(p, 3)
        b = char_simple(-p, 3)
        assert a.coeffs == b.coeffs


def test_char_simple_rejects_bad_labels():
    with pytest.raises(ValueError):
        char_simple(0, 2)
    with pytest.raises(ValueError):
        char_simple(F(1, 2), 2)


def test_qseries_printing():
    ch = vacuum_char(F(3, 2))
    assert ch.to_text() == "q^h * (1 + q^1/2 + q + 3*q^3/2)"
    shifted = QSeries({0: 1, 1: 2}, F(1, 2), offset=F(3, 2))
    assert shifted.to_text() == "q^3/2 * (1 + 2*q^1/2)"
    assert ch.offset is None
    assert ch.coefficient(F(3, 2)) == 3


def test_compare_dims_pass_and_fail():
    ch = char_simple(1, F(3, 2))
    good = compare_dims(ch, [(0, 1), (F(1, 2), 1), (1, 1), (F(3, 2), 3)])
    assert good["pass"]
    bad = compare_dims(ch, [(0, 1), (F(1, 2), 2), (1, 1), (F(3, 2), 3)])
    assert not bad["pass"]
    flagged = [e for e in bad["entries"] if not e["ok"]]
    assert flagged == [
        {"degree": "1/2", "expected": 2, "actual": 1, "ok": False}
    ]


def test_compare_dims_requires_coverage():
    ch = char_simple(1, F(3, 2))
    with pytest.raises(ValueError):
        compare_dims(ch, [(0, 1), (1, 1)])


def test_schur_expand_small():
    assert schur_expand(0) == {Partition(): F(1)}
    assert schur_expand(1) == {Partition((1,)): F(1)}
    assert schur_expand(2) == {
        Partition((2,)): F(1, 2),
        Partition((1, 1)): F(1, 2),
    }
    assert schur_expand(3) == {
        Partition((3,)): F(1, 3),
        Partition((2, 1)): F(1, 2),
        Partition((1, 1, 1)): F(1, 6),
    }
    assert schur_expand(-2) == {}


def test_schur_expand_scale():
    s = schur_expand(2, scale=F(-1, 2))
    assert s[Partition((2,))] == F(-1, 4)
    assert s[Partition((1, 1))] == F(1, 8)


def test_schur_newton_recurrence():
    # r*S_r = sum_k x(-k)*S_(r-k); multiplying by x(-k) inserts a part k
    for r in range(1, 7):
        lhs = {mu: F(r) * c for mu, c in schur_expand(r).items()}
        rhs = {}
        for k in range(1, r + 1):
            for mu, c in schur_expand(r - k).items():
                bigger = Partition(tuple(sorted(mu.parts + (k,), reverse=True)))
                rhs[bigger] = rhs.get(bigger, F(0)) + c
        rhs = {m: c for m, c in rhs.items() if c}
        assert lhs == rhs
