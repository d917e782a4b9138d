from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.scalars import (
    PARAMETERS,
    DEFAULT_SPECIALIZATION,
    ParamPolynomial,
    add_scaled,
    format_rational,
    over_one_den,
    parse_rational,
    rational_roots_in,
)

P = ParamPolynomial


def var(name):
    return P.variable(name)


def evaluate(poly, assignment):
    """Test-local oracle: a polynomial at an exact parameter assignment."""
    total = F(0)
    for exp, coeff in poly.terms.items():
        for name, e in zip(PARAMETERS, exp):
            if e:
                coeff *= assignment[name] ** e
        total += coeff
    return total


def hw_weight_poly():
    # (1 - p^2)(cL - 3)/24 - r p, the quadratic weight of the standard family
    p, r, cL = var("p"), var("r"), var("cL")
    return (1 - p * p) * (cL - 3) * F(1, 24) - r * p


def test_parse_and_format_rationals():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    assert parse_rational("+3/6") == F(1, 2)
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 2)) == "-2"
    # only 'a' and 'a/b': Fraction's decimal, exponent and underscore forms
    # are refused, so no text can make an integer too long to print
    for text in ("one half", "1/0", "0.5", "1e5000", "1E3", "1_000", "3/-2", "1/ 2", "", "inf"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_polynomial_basics():
    p = var("p")
    cLa = var("cLa")
    sq = cLa * cLa
    assert sq.degree_in("cLa") == 2
    assert evaluate(sq, {"cLa": F(2, 3)}) == F(4, 9)
    assert not (p - p)
    assert not (p * 0)
    five = P.const(5)
    assert evaluate(five, {}) == 5
    assert str(P()) == "0"


def test_polynomial_truthiness():
    x = var("p")
    assert not bool(P())
    assert not bool(x - x)
    assert bool(x)
    assert bool(P.const(F(1, 2)))


def test_polynomial_str_is_deterministic():
    a = var("p") * var("cL") + 3 * var("r") - F(1, 2)
    b = -F(1, 2) + var("r") * 3 + var("cL") * var("p")
    assert str(a) == str(b)
    assert str(a) == "cL*p + 3*r - 1/2"


def test_evaluate_weight_family_example():
    h = hw_weight_poly()
    val = evaluate(h, {"p": F(1), "r": F(2, 3), "cL": F(11, 2)})
    assert val == F(-2, 3)
    # degenerate slot: hA = cLa(1+p) vanishes identically at p = -1
    hA = var("cLa") * (1 + var("p"))
    assert evaluate(hA, {"cLa": F(2, 3), "p": F(-1)}) == 0


def test_rational_roots_simple():
    p = var("p")
    assert rational_roots_in(1 - p * p, "p") == {F(1), F(-1)}
    assert rational_roots_in((p - 2) * (p - 2) * (p + 2), "p") == {F(2), F(-2)}
    assert rational_roots_in(p * p + 1, "p") == frozenset()
    assert rational_roots_in(p * (p * p - 9), "p") == {F(0), F(3), F(-3)}
    assert rational_roots_in((2 * p - 1) * (3 * p + 2), "p") == {F(1, 2), F(-2, 3)}
    assert rational_roots_in(F(7), "p") == frozenset()


def test_rational_roots_errors():
    p = var("p")
    with pytest.raises(ValueError):
        rational_roots_in(P(), "p")
    with pytest.raises(ValueError):
        rational_roots_in(F(0), "p")
    with pytest.raises(ValueError):
        rational_roots_in(p * var("cL"), "p")
    with pytest.raises(KeyError):
        rational_roots_in(p, "bogus")


def test_default_specialization_values():
    assert DEFAULT_SPECIALIZATION["cL"] == F(11, 2)
    assert DEFAULT_SPECIALIZATION["cLa"] == F(2, 3)
    assert DEFAULT_SPECIALIZATION["cA"] == 0
    assert DEFAULT_SPECIALIZATION["r"] == F(1, 3)


# ---------------------------------------------------------------------------
# property tests

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def monomials():
    return st.tuples(*(st.integers(0, 3) for _ in range(5)))


small_polys = st.dictionaries(monomials(), rationals, max_size=4).map(ParamPolynomial)
assignments = st.fixed_dictionaries(
    {name: rationals for name in ("cL", "cA", "cLa", "r", "p")}
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + P() == a
    assert a * P.const(1) == a


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, assignments)
def test_evaluate_is_a_homomorphism(a, b, at):
    assert evaluate(a + b, at) == evaluate(a, at) + evaluate(b, at)
    assert evaluate(a * b, at) == evaluate(a, at) * evaluate(b, at)


coefficients = st.one_of(st.integers(-3, 3), rationals, small_polys)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 5), coefficients, max_size=5),
    st.dictionaries(st.integers(0, 5), coefficients, max_size=5),
    coefficients,
)
def test_add_scaled_is_the_dense_sum_without_zeros(out, terms, scale):
    out = {k: c for k, c in out.items() if c}
    dense = [out.get(k, 0) + scale * terms.get(k, 0) for k in range(6)]
    before = dict(out)
    add_scaled(out, terms.items(), scale)
    assert out == {k: c for k, c in enumerate(dense) if c}
    assert all(out.values())
    for k, c in out.items():
        # a Fraction input gives a Fraction output, unless a polynomial takes part
        inputs = [before.get(k), terms.get(k), scale if k in terms else None]
        if not any(isinstance(x, P) for x in inputs) and any(isinstance(x, F) for x in inputs):
            assert type(c) is F


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12)), max_size=6))
def test_over_one_den_is_the_least_common_denominator(values):
    ints, den = over_one_den(values)
    assert [F(n, den) for n in ints] == values
    assert all(type(n) is int for n in ints) and type(den) is int and den > 0
    # the lcm of the denominators, so the numerators are already reduced
    assert all(den % F(x).denominator == 0 for x in values)
    assert gcd(den, *ints) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.booleans(),
)
def test_rational_roots_of_linear_factor_products(roots, lead, irreducible):
    # lead * prod (p - root), times p^2 + 2 (no rational root) if asked
    p = var("p")
    f = lead * (p - roots[0])
    for root in roots[1:]:
        f = f * (p - root)
    if irreducible:
        f = f * (p * p + 2)
    assert rational_roots_in(f, "p") == frozenset(roots)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=5),
    st.booleans(),
)
def test_rational_roots_ignore_a_large_content(roots, irreducible):
    # c * f has the roots of f; with the content c left in, the candidate
    # numerators would be found by trial division up to about 2**46
    p = var("p")
    f = P.const(1)
    for root in roots:
        f = f * (p - root)
    if irreducible:
        f = f * (p * p + 2)
    c = 2**60 * 3**20
    assert rational_roots_in(c * f, "p") == rational_roots_in(f, "p") == frozenset(roots)
