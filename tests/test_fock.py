"""FockVector, integer numerators over one denominator, against a plain
{state: Fraction} oracle with the same semantics."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.fock import FockBasisVector, FockVector, LatticePoint

#: states over two sectors, so sums mix them
STATES = [
    FockBasisVector(LatticePoint(F(1, 3), F(-1)), psip, (), d_part)
    for psip in ((), (1,), (3, 1))
    for d_part in ((), (1,), (2, 1))
] + [FockBasisVector(LatticePoint(F(5, 6), F(-1)), (), (1,), (), (2,))]


class OracleVector:
    """A Fock vector as nonzero Fraction coefficients, combined entry by entry."""

    def __init__(self, terms=None, parity=0):
        self.terms = {b: F(c) for b, c in (terms or {}).items() if c}
        self.parity = parity & 1

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        c = F(c)
        if not c:
            return OracleVector()
        return OracleVector({b: v * c for b, v in self.terms.items()}, self.parity)

    def scale_sqrt2(self):
        if self.is_zero():
            return self
        if self.parity:
            return OracleVector({b: 2 * v for b, v in self.terms.items()}, 0)
        return OracleVector(self.terms, 1)

    def combine(self, other, subtract):
        if self.is_zero():
            return other.scale(-1) if subtract else other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ValueError("cannot add vectors of different sqrt(2)-parity")
        out = dict(self.terms)
        for b, v in other.terms.items():
            out[b] = out.get(b, 0) + (-v if subtract else v)
        return OracleVector(out, self.parity)

    def __eq__(self, other):
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.parity == other.parity and self.terms == other.terms

    def to_text(self):
        if self.is_zero():
            return "0"
        root = "sqrt2*" if self.parity else ""
        ordered = sorted(self.terms.items(), key=lambda kv: kv[0].to_text())
        bits = [f"({c})*{b.to_text()}" for b, c in ordered]
        return root + " + ".join(bits)


coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=12)
)
term_dicts = st.dictionaries(st.sampled_from(STATES), coefficients, max_size=4)
scalars = st.one_of(
    st.just(0), st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=8)
)
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), term_dicts, st.integers(0, 1)),
        st.tuples(st.just("scale"), scalars),
        st.tuples(st.just("sqrt2")),
    ),
    max_size=8,
)


def assert_canonical(v):
    """Nonzero int numerators over a positive int denominator, reduced; the
    zero vector has den 1."""
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int and n for n in v.nums.values())
    assert math.gcd(v.den, *v.nums.values()) == 1
    assert v.den == 1 or v.nums


def assert_agrees(v, o):
    assert_canonical(v)
    assert v.terms == o.terms
    assert all(type(c) is F for c in v.terms.values())
    assert v.parity == o.parity
    assert v.is_zero() == o.is_zero()
    assert v.to_text() == o.to_text()
    for b in STATES:
        got = v.coefficient(b)
        assert type(got) is F and got == o.terms.get(b, 0)


class TestFockVectorAgainstOracle:
    @given(start=term_dicts, parity=st.integers(0, 1), ops=operations)
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_fraction_oracle(self, start, parity, ops):
        v, o = FockVector(start, parity), OracleVector(start, parity)
        assert_agrees(v, o)
        for op in ops:
            if op[0] == "scale":
                v, o = v.scale(op[1]), o.scale(op[1])
            elif op[0] == "sqrt2":
                v, o = v.scale_sqrt2(), o.scale_sqrt2()
            else:
                _, terms, p = op
                w, q = FockVector(terms, p), OracleVector(terms, p)
                subtract = op[0] == "sub"
                try:
                    want = o.combine(q, subtract)
                except ValueError:
                    with pytest.raises(ValueError):
                        v + w if not subtract else v - w
                    continue
                v, o = (v - w if subtract else v + w), want
                assert (v == w) == (o == q)
            assert_agrees(v, o)

    @given(a=term_dicts, b=term_dicts, pa=st.integers(0, 1), pb=st.integers(0, 1),
           c=scalars)
    @settings(max_examples=200, deadline=None)
    def test_equality_matches_the_oracle(self, a, b, pa, pb, c):
        pairs = [
            (FockVector(a, pa), OracleVector(a, pa)),
            (FockVector(b, pb), OracleVector(b, pb)),
            (FockVector(a, pa).scale(c), OracleVector(a, pa).scale(c)),
        ]
        for v, o in pairs:
            for w, q in pairs:
                assert (v == w) == (o == q)
                assert (v != w) == (not o == q)

    def test_mixed_parities_raise(self):
        even, odd = FockVector({STATES[0]: 1}, 0), FockVector({STATES[1]: F(1, 2)}, 1)
        for x, y in ((even, odd), (odd, even)):
            with pytest.raises(ValueError):
                x + y
            with pytest.raises(ValueError):
                x - y
        # a zero vector takes either parity
        assert FockVector({}, 1) + even == even
        assert (even - FockVector({}, 1)).parity == 0

    def test_terms_is_a_memoized_view(self):
        v = FockVector({STATES[0]: F(2, 3), STATES[1]: -2}, 0)
        assert (v.den, v.nums) == (3, {STATES[0]: 2, STATES[1]: -6})
        assert v.terms is v.terms
        assert v.terms == {STATES[0]: F(2, 3), STATES[1]: F(-2)}
        assert FockVector().den == 1 and FockVector({STATES[0]: 0}).nums == {}
