from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.scalars import (
    DEFAULT_SPECIALIZATION,
    ParamPolynomial,
    RatFunc,
    evaluate,
    format_rational,
    parse_rational,
    rational_roots_in,
)

P = ParamPolynomial


def var(name):
    return P.variable(name)


def hw_weight_poly():
    # (1 - p^2)(cL - 3)/24 - r p, the quadratic weight of the standard family
    p, r, cL = var("p"), var("r"), var("cL")
    return (1 - p * p) * (cL - 3) * F(1, 24) - r * p


def test_parse_and_format_rationals():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 2)) == "-2"
    with pytest.raises(ValueError):
        parse_rational("one half")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_polynomial_basics():
    p = var("p")
    cLa = var("cLa")
    sq = cLa * cLa
    assert sq.degree_in("cLa") == 2
    assert sq.evaluate({"cLa": F(2, 3)}) == F(4, 9)
    assert (p - p).is_zero()
    assert (p * 0).is_zero()
    five = P.const(5)
    assert five.evaluate({}) == 5
    assert str(P()) == "0"


def test_polynomial_str_is_deterministic():
    a = var("p") * var("cL") + 3 * var("r") - F(1, 2)
    b = -F(1, 2) + var("r") * 3 + var("cL") * var("p")
    assert str(a) == str(b)
    assert str(a) == "cL*p + 3*r - 1/2"


def test_evaluate_weight_family_example():
    h = hw_weight_poly()
    val = h.evaluate({"p": F(1), "r": F(2, 3), "cL": F(11, 2)})
    assert val == F(-2, 3)
    # degenerate slot: hA = cLa(1+p) vanishes identically at p = -1
    hA = var("cLa") * (1 + var("p"))
    assert hA.evaluate({"cLa": F(2, 3), "p": F(-1)}) == 0


def test_evaluate_missing_parameter_reports_names():
    h = hw_weight_poly()
    with pytest.raises(KeyError) as err:
        h.evaluate({"p": F(1)})
    msg = str(err.value)
    assert "cL" in msg and "r" in msg


def test_substitute_partial():
    h = hw_weight_poly()
    hs = h.substitute({"cL": F(11, 2), "r": F(1, 3)})
    assert hs.degree_in("cL") == 0
    assert hs.evaluate({"p": F(2)}) == h.evaluate(
        {"cL": F(11, 2), "r": F(1, 3), "p": F(2)}
    )


def test_divexact():
    x, y = var("cL"), var("r")
    q = ((x * x - y * y)).divexact(x - y)
    assert q == x + y
    with pytest.raises(ValueError):
        (x * x + 1).divexact(x - y)
    with pytest.raises(ZeroDivisionError):
        x.divexact(P())


def test_ratfunc_arithmetic():
    p = RatFunc.variable("p")
    s = 1 / (p - 1) + 1 / (p + 1)
    expect = (2 * p) / (p * p - 1)
    assert s == expect
    assert (s - expect).is_zero()
    assert s.evaluate({"p": F(3)}) == F(3, 4)
    with pytest.raises(ZeroDivisionError):
        s.evaluate({"p": F(1)})
    # exact cancellation collapses the denominator
    collapsed = (p * p - 1) / (p - 1)
    assert collapsed.den.is_constant()
    assert collapsed == p + 1


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
    assert (a + b).evaluate(at) == a.evaluate(at) + b.evaluate(at)
    assert (a * b).evaluate(at) == a.evaluate(at) * b.evaluate(at)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a
