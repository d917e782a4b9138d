from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.shv_algebra import (
    A,
    CA,
    CL,
    CLA,
    Element,
    G,
    L,
    P,
    Partition,
    SuperPartition,
    doubled,
    element_bracket,
    graded_tuples,
    half_degrees,
    pair_sort_key,
    parity,
    partitions_of,
    super_bracket,
    superpartitions_of,
    sym_key,
    symbols_at,
    word_parity,
    word_weight,
)


def half(k):
    return F(k, 2)


def is_canonical(word):
    """PBW order: keys weakly increase and no odd symbol repeats."""
    return all(
        sym_key(x) < sym_key(y) or (x == y and not parity(x)) for x, y in zip(word, word[1:])
    )


def el(*syms, c=F(1)):
    return Element.of(*syms, coefficient=c)


def normal_order(word):
    """The canonical PBW form of a word, as the product 1 * word."""
    return Element.one() * Element.of(*word)


def test_symbol_constructors_validate_modes():
    assert L(-2).mode.twice_value == -4
    assert G(half(-1)).mode.twice_value == -1
    assert G(F(3, 2)).mode.twice_value == 3
    with pytest.raises(ValueError):
        L(F(1, 2))
    with pytest.raises(ValueError):
        G(1)
    with pytest.raises(ValueError):
        P(0)
    assert str(P(F(-3, 2))) == "P(-3/2)"
    assert str(CL) == "CL"


def test_parity():
    assert parity(L(2)) == 0 and parity(A(-1)) == 0
    assert parity(G(half(1))) == 1 and parity(P(half(-5))) == 1
    assert parity(CLA) == 0
    assert word_parity((G(half(1)), P(half(1)))) == 0


def test_bracket_virasoro_sector():
    assert super_bracket(L(2), L(-2)) == el(L(0), c=F(4)) + el(CL, c=F(1, 2))
    assert super_bracket(L(1), L(1)).is_zero()
    assert super_bracket(L(3), L(-1)) == el(L(2), c=F(4))


def test_bracket_heisenberg_and_mixed():
    assert super_bracket(A(3), A(-3)) == el(CA, c=F(3))
    assert super_bracket(A(1), A(2)).is_zero()
    assert super_bracket(L(1), A(-1)) == el(A(0)) + el(CLA, c=F(-2))
    assert super_bracket(L(-1), A(1)) == el(A(0), c=F(-1))
    assert super_bracket(A(2), P(half(-1))).is_zero()
    assert super_bracket(A(1), G(half(-1))) == el(P(half(1)))


def test_bracket_odd_sector():
    assert super_bracket(G(half(1)), G(half(-1))) == el(L(0), c=F(2))
    assert super_bracket(G(half(3)), G(half(-3))) == el(L(0), c=F(2)) + el(
        CL, c=F(2, 3)
    )
    assert super_bracket(P(half(3)), G(half(-3))) == el(A(0)) + el(CLA, c=F(2))
    assert super_bracket(P(half(-1)), G(half(1))) == el(A(0)) + el(CLA, c=F(-2))
    assert super_bracket(P(half(1)), P(half(-1))) == el(CA)
    assert super_bracket(P(half(3)), P(half(1))).is_zero()


def test_bracket_centrals_vanish():
    for c in (CL, CA, CLA):
        assert super_bracket(c, L(5)).is_zero()
        assert super_bracket(G(half(7)), c).is_zero()


def test_weight():
    assert word_weight((L(-2),)) == 2
    assert word_weight((G(half(1)),)) == F(-1, 2)
    assert word_weight((P(half(-3)), A(-1))) == F(5, 2)
    assert word_weight((CL,)) == 0
    assert {word_weight(w) for w in normal_order((L(1), L(-1))).terms} == {0}


def test_normal_order_examples():
    assert normal_order((L(1), L(-1))) == el(L(-1), L(1)) + el(L(0), c=F(2))
    assert normal_order((G(half(1)), G(half(1)))) == el(L(1))
    assert normal_order((A(1), L(-1))) == el(L(-1), A(1)) + el(A(0))
    assert normal_order((P(half(-1)), P(half(-1)))).is_zero()
    # already canonical words pass through untouched
    w = (P(half(-3)), A(-2), G(half(-1)), L(0))
    assert is_canonical(w)
    assert normal_order(w) == el(*w)
    assert not is_canonical((L(-1), P(half(-3))))


def test_normal_order_triple_associativity_spot():
    x, y, z = el(G(half(1))), el(G(half(-1))), el(L(-1))
    assert (x * y) * z == x * (y * z)


def test_element_bracket_matches_table():
    pairs = [
        (L(2), L(-2)),
        (G(half(1)), G(half(-1))),
        (P(half(3)), G(half(-3))),
        (L(1), A(-1)),
        (A(1), G(half(-3))),
    ]
    for x, y in pairs:
        assert element_bracket(el(x), el(y)) == super_bracket(x, y)


def test_element_serialization():
    e = el(P(half(-3)), A(-2), G(half(-1)), c=F(1, 2)) + el(L(-3))
    txt = e.to_text()
    assert txt == "L(-3) + (1/2)*P(-3/2)A(-2)G(-1/2)"
    assert Element().to_text() == "0"


def test_partition_validation():
    assert Partition((3, 1, 1)).degree() == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    assert SuperPartition((F(5, 2), F(1, 2))).degree() == 3
    with pytest.raises(ValueError):
        SuperPartition((F(1, 2), F(1, 2)))  # strict decrease required
    with pytest.raises(ValueError):
        SuperPartition((1,))  # not half-odd


def test_partition_enumeration():
    assert len(list(partitions_of(5))) == 7
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert sum(min(p.parts) >= 2 for p in partitions_of(6)) == 4  # 6, 42, 33, 222
    assert [sp.parts for sp in superpartitions_of(5)] == [(F(5, 2),)]
    assert len(list(superpartitions_of(8))) == 2  # 7+1, 5+3
    assert len(list(superpartitions_of(9))) == 2  # 9, 5+3+1
    assert list(superpartitions_of(0)) == [SuperPartition()]


def test_graded_vocabulary():
    assert symbols_at(2) == (L(1), A(1))
    assert symbols_at(-3) == (G(half(-3)), P(half(-3)))
    assert half_degrees(F(3, 2)) == [F(0), half(1), F(1), half(3)]
    assert half_degrees(F(-1, 2)) == []
    assert [doubled(d) for d in (0, half(-3), "5/2", F(4))] == [0, -3, 5, 8]
    for bad in (F(1, 3), "2/3", F(-1, 4)):
        with pytest.raises(ValueError):
            doubled(bad)
    # an odd block, then an even block that takes the rest: the odd block
    # varies slowest, over its doubled degree ascending (1 and 3 leave an
    # odd rest, and 2 has no superpartition)
    blocks = ((1, tuple), (0, tuple))
    assert graded_tuples(4, blocks) == [((), (2,)), ((), (1, 1)), ((3, 1), ())]
    # build maps each block's parts to its entry, here the number of parts
    assert graded_tuples(4, ((0, len), (0, len))) == [(0, 1), (0, 2), (1, 1), (1, 0), (2, 0)]


def mk_pair(mu, lam):
    return (Partition(mu), SuperPartition([F(t, 2) for t in lam]))


# test-local oracle: the partial order that pair_sort_key totalizes


def _prec(a, b):
    """The refinement order on single partitions: 'prec' when a has the
    larger part at the first difference; equal prefixes of different lengths
    are incomparable."""
    for x, y in zip(a, b):
        if x != y:
            return "prec" if x > y else "succ"
    return "equal" if len(a) == len(b) else "incomparable"


def compare_pairs(a, b):
    """Partial order on (partition, superpartition) pairs: by total degree,
    then total number of parts, then refinement on the partition, then on
    the superpartition.  One of 'less', 'greater', 'equal', 'incomparable'."""
    (mu1, lam1), (mu2, lam2) = a, b
    da, db = mu1.degree() + lam1.degree(), mu2.degree() + lam2.degree()
    if da != db:
        return "less" if da < db else "greater"
    la, lb = len(mu1) + len(lam1), len(mu2) + len(lam2)
    if la != lb:
        return "less" if la < lb else "greater"
    c = _prec(mu1.parts, mu2.parts)
    if c == "equal":
        c = _prec(lam1.twice_parts, lam2.twice_parts)
        if c == "equal":
            return "equal"
    if c == "incomparable":
        return "incomparable"
    return "less" if c == "prec" else "greater"


def test_compare_pairs_by_degree_then_length():
    assert compare_pairs(mk_pair((1,), ()), mk_pair((2,), ())) == "less"
    assert compare_pairs(mk_pair((2,), ()), mk_pair((1, 1), ())) == "less"
    assert compare_pairs(mk_pair((1, 1), ()), mk_pair((2,), ())) == "greater"
    # same degree 5/2, same total length 2: partition refinement decides
    assert compare_pairs(mk_pair((2,), (1,)), mk_pair((1,), (3,))) == "less"


def test_compare_pairs_refinement():
    # first difference 3 > 2: (3,1) comes earlier in the refinement order
    assert compare_pairs(mk_pair((3, 1), ()), mk_pair((2, 2), ())) == "less"
    assert compare_pairs(mk_pair((2, 2), ()), mk_pair((3, 1), ())) == "greater"
    assert compare_pairs(mk_pair((2, 1), (1,)), mk_pair((2, 1), (1,))) == "equal"
    # equal partitions, superpartitions decide
    assert compare_pairs(mk_pair((2,), (7, 1)), mk_pair((2,), (5, 3))) == "less"


def test_compare_pairs_incomparable():
    a = mk_pair((1, 1, 1), ())
    b = mk_pair((1,), (3, 1))
    assert compare_pairs(a, b) == "incomparable"
    assert compare_pairs(b, a) == "incomparable"
    # totalized key still separates them deterministically
    assert pair_sort_key(*a) != pair_sort_key(*b)


def test_pair_sort_key_refines_compare():
    pairs = [
        mk_pair((2,), ()),
        mk_pair((1, 1), ()),
        mk_pair((1,), (1,)),
        mk_pair((), (3, 1)),
        mk_pair((2, 1), ()),
        mk_pair((), (1,)),
    ]
    for a in pairs:
        for b in pairs:
            c = compare_pairs(a, b)
            if c == "less":
                assert pair_sort_key(*a) < pair_sort_key(*b)
            elif c == "greater":
                assert pair_sort_key(*a) > pair_sort_key(*b)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def symbols(draw, max_twice=4, centrals=True):
    kinds = ["L", "A", "G", "P"] + (["CL", "CA", "CLA"] if centrals else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("CL", "CA", "CLA"):
        return {"CL": CL, "CA": CA, "CLA": CLA}[kind]
    if kind in ("L", "A"):
        n = draw(st.integers(-max_twice // 2, max_twice // 2))
        return L(n) if kind == "L" else A(n)
    t = draw(
        st.integers(-(max_twice // 2), max_twice // 2 - 1).map(lambda k: 2 * k + 1)
    )
    sym = G if kind == "G" else P
    return sym(F(t, 2))


@settings(max_examples=150, deadline=None)
@given(symbols(), symbols())
def test_super_antisymmetry(x, y):
    sign = F(-1 if parity(x) and parity(y) else 1)
    assert super_bracket(x, y) == (-sign) * super_bracket(y, x)


@settings(max_examples=100, deadline=None)
@given(symbols(), symbols(), symbols())
def test_super_jacobi(x, y, z):
    px, py, pz = parity(x), parity(y), parity(z)
    total = (
        F((-1) ** (px * pz)) * element_bracket(el(x), super_bracket(y, z))
        + F((-1) ** (py * px)) * element_bracket(el(y), super_bracket(z, x))
        + F((-1) ** (pz * py)) * element_bracket(el(z), super_bracket(x, y))
    )
    assert total.is_zero()


def _slow_nf(word):
    """Reference rewriting choosing the *last* disorder, recursive, unmemoized."""
    word = tuple(word)
    idx = -1
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if sym_key(x) > sym_key(y) or (x == y and parity(x)):
            idx = i
    if idx < 0:
        return {word: F(1)}
    x, y = word[idx], word[idx + 1]
    pre, post = word[:idx], word[idx + 2 :]
    out = {}

    def add(w, c):
        for cw, cc in _slow_nf(w).items():
            nv = out.get(cw, F(0)) + c * cc
            if nv:
                out[cw] = nv
            else:
                out.pop(cw, None)

    if x == y:
        for bw, bc in super_bracket(x, x).terms.items():
            add(pre + bw + post, F(1, 2) * bc)
    else:
        sign = F(-1 if parity(x) and parity(y) else 1)
        add(pre + (y, x) + post, sign)
        for bw, bc in super_bracket(x, y).terms.items():
            add(pre + bw + post, bc)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(symbols(max_twice=4), max_size=4))
def test_normal_order_confluence(word):
    word = tuple(word)
    assert normal_order(word).terms == _slow_nf(word)


@settings(max_examples=60, deadline=None)
@given(st.lists(symbols(max_twice=4), max_size=4))
def test_normal_order_preserves_weight_and_parity(word):
    word = tuple(word)
    e = normal_order(word)
    for w in e.terms:
        assert word_weight(w) == word_weight(word)
        assert word_parity(w) == word_parity(word)
        assert is_canonical(w)


@settings(max_examples=60, deadline=None)
@given(symbols(max_twice=4), symbols(max_twice=4), symbols(max_twice=4))
def test_product_associativity(x, y, z):
    assert (el(x) * el(y)) * el(z) == el(x) * (el(y) * el(z))
