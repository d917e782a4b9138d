"""Highest weight module machinery: bases, action, Gram matrices, singular
vectors, submodule closures.

The small Gram matrices used as oracles here were computed by hand from the
bracket table; the helper comments show the arithmetic.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.exact_linalg import EchelonSpan, Matrix
from shvkernel.qchar import char_simple, char_verma
from shvkernel.scalars import DEFAULT_SPECIALIZATION, ParamPolynomial, add_scaled, over_one_den
from shvkernel import cli, exact_linalg, shv_algebra, verma
from shvkernel.shv_algebra import A, G, L, P, _normal_form, sym_key
from shvkernel.verma import (
    ModuleVector,
    Submodule,
    VermaAction,
    _gram,
    act,
    det_formula_phi,
    det_vanishing_check,
    embedding_diagram,
    get_action,
    highest_weight_vector,
    kostant_p2,
    maximal_submodule_dim,
    phi_operator,
    pr_to_hw,
    predicted_det_roots,
    shapovalov_gram,
    simple_graded_dim,
    singular_vector_from_phi,
    singular_vectors,
    subsingular_vectors,
    verma_basis,
)

CL = DEFAULT_SPECIALIZATION["cL"]
CLA = DEFAULT_SPECIALIZATION["cLa"]
R = DEFAULT_SPECIALIZATION["r"]


def hw_for(p, r=R):
    return pr_to_hw(Fraction(p), Fraction(r))


class TestWeightFamily:
    def test_weights(self):
        hw = hw_for(1, Fraction(1, 3))
        # (1 - 1) * (cL - 3)/24 - 1/3 = -1/3 ; (1 + 1) * 2/3 = 4/3
        assert hw.h == Fraction(-1, 3)
        assert hw.hA == Fraction(4, 3)
        assert hw.cA == 0

    def test_shift_by_one_in_r(self):
        # h(p, r) + p = h(p, r - 1)
        for p in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            h1 = pr_to_hw(p, R).h
            h2 = pr_to_hw(p, R - 1).h
            assert h1 + p == h2

    def test_roundtrip(self):
        hw = hw_for(Fraction(5, 7), Fraction(2, 3))
        # invert hA = (1 + p) cLa, then h = (1 - p^2)(cL - 3)/24 - r p
        p = hw.hA / hw.cLa - 1
        r = ((1 - p * p) * (hw.cL - 3) / 24 - hw.h) / p
        assert (p, r) == (Fraction(5, 7), Fraction(2, 3))

    def test_symbolic_p(self):
        p = ParamPolynomial.variable("p")
        hw = pr_to_hw(p, R)
        # h is a polynomial in p alone, the last parameter
        got = sum(c * (-1) ** exp[-1] for exp, c in hw.h.terms.items())
        assert got == pr_to_hw(Fraction(-1), R).h


class TestBasis:
    def test_dims_match_character(self):
        series = char_verma(Fraction(9, 2))
        hw = hw_for(1)
        for t in range(10):
            d = Fraction(t, 2)
            assert len(verma_basis(hw, d)) == series.coefficient(d)

    def test_known_prefix(self):
        hw = hw_for(1)
        dims = [len(verma_basis(hw, Fraction(t, 2))) for t in range(9)]
        assert dims == [1, 2, 3, 6, 11, 18, 28, 44, 69]

    def test_degree_one_words(self):
        hw = hw_for(1)
        words = verma_basis(hw, 1).words
        assert set(words) == {
            (A(-1),),
            (L(-1),),
            (P(Fraction(-1, 2)), G(Fraction(-1, 2))),
        }

    def test_block_mode_order(self):
        hw = hw_for(1)
        # modes within each block ascend (most negative first)
        for w in verma_basis(hw, Fraction(5, 2)).words:
            for kind in ("P", "A", "G", "L"):
                modes = [s.mode.value for s in w if s.kind == kind]
                assert modes == sorted(modes)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            verma_basis(hw_for(1), Fraction(1, 3))


class TestAction:
    def test_cartan_eigenvalues(self):
        hw = hw_for(2)
        v = highest_weight_vector()
        lv = act(L(-1), v, hw)
        # L(1) L(-1) v = [L(1), L(-1)] v = 2 L(0) v = 2h v
        back = act(L(1), lv, hw)
        assert back.coords == (2 * hw.h,)

    def test_g_pairing(self):
        hw = hw_for(3)
        v = highest_weight_vector()
        gv = act(G(Fraction(-1, 2)), v, hw)
        assert act(G(Fraction(1, 2)), gv, hw).coords == (2 * hw.h,)
        # P(1/2) G(-1/2) v = A(0) v = hA v
        assert act(P(Fraction(1, 2)), gv, hw).coords == (hw.hA,)

    def test_mixed_pair(self):
        hw = hw_for(3)
        v = highest_weight_vector()
        av = act(A(-1), v, hw)
        # L(1) A(-1) v = (A(0) - 2 CLA) v
        assert act(L(1), av, hw).coords == (hw.hA - 2 * hw.cLa,)
        lv = act(L(-1), v, hw)
        assert act(A(1), lv, hw).coords == (hw.hA,)

    def test_p_squares_to_zero(self):
        hw = hw_for(1)
        v = highest_weight_vector()
        pv = act(P(Fraction(-1, 2)), v, hw)
        assert act(P(Fraction(-1, 2)), pv, hw).is_zero()

    def test_raising_kills_highest(self):
        hw = hw_for(2)
        v = highest_weight_vector()
        for sym in (L(1), A(2), G(Fraction(3, 2)), P(Fraction(1, 2))):
            assert act(sym, v, hw).is_zero()

    def test_inhomogeneous_rejected(self):
        from shvkernel.shv_algebra import Element

        hw = hw_for(1)
        x = Element.of(L(-1)) + Element.of(L(-2))
        with pytest.raises(ValueError):
            act(x, highest_weight_vector(), hw)

    def test_vector_serialization(self):
        hw = hw_for(1)
        v = act(L(-1), highest_weight_vector(), hw)
        assert v.degree == 1
        assert len(v.coords) == 3
        assert "L(-1)" in v.to_text()


class TestShapovalov:
    def test_half_level_gram_by_hand(self):
        # Basis at degree 1/2: [G(-1/2)v, P(-1/2)v].
        #   <Gv, Gv> = 2h                <Gv, Pv> = hA - 2 cLa
        #   <Pv, Gv> = -hA               <Pv, Pv> = 0
        p, r = Fraction(5, 3), Fraction(1, 7)
        hw = pr_to_hw(p, r)
        g = shapovalov_gram(hw, Fraction(1, 2))
        assert g.data == (
            (2 * hw.h, hw.hA - 2 * hw.cLa),
            (-hw.hA, Fraction(0)),
        )

    def test_half_level_det_symbolic(self):
        p = ParamPolynomial.variable("p")
        hw = pr_to_hw(p, R)
        from shvkernel.exact_linalg import determinant

        det = determinant(shapovalov_gram(hw, Fraction(1, 2)))
        # hA (hA - 2 cLa) = (p^2 - 1) cLa^2
        assert det == (p * p - 1) * CLA * CLA

    def test_generic_is_nondegenerate(self):
        hw = pr_to_hw(Fraction(5, 7), R)
        for t in range(1, 5):
            d = Fraction(t, 2)
            assert simple_graded_dim(hw, d) == len(verma_basis(hw, d))

    def test_simple_dims_odd(self):
        hw = hw_for(1)
        dims = [simple_graded_dim(hw, Fraction(t, 2)) for t in range(5)]
        assert dims == [1, 1, 1, 3, 5]

    def test_simple_dims_even(self):
        hw = hw_for(2)
        dims = [simple_graded_dim(hw, Fraction(t, 2)) for t in range(5)]
        assert dims == [1, 2, 3, 6, 10]
        assert dims == [n for _, n in char_simple(2, Fraction(2)).dims()]

    def test_maximal_submodule_dims(self):
        hw = hw_for(1)
        assert [maximal_submodule_dim(hw, Fraction(t, 2)) for t in range(4)] == [
            0,
            1,
            2,
            3,
        ]

    def test_maximal_submodule_at_depth(self):
        # the maximal submodule is most of the Verma module: 104 of 152 at
        # degree 5 and 222 of 323 at degree 6, for the label and its dual
        hw = hw_for(1, Fraction(1, 3))
        dual = hw_for(-1, Fraction(-1, 3))
        assert simple_graded_dim(hw, 5) == simple_graded_dim(dual, 5) == 48
        assert maximal_submodule_dim(hw, 6) == 222


class TestSingular:
    def test_odd_label_location(self):
        hw = hw_for(1)
        assert singular_vectors(hw, Fraction(1, 2)) != []
        sv = singular_vectors(hw, Fraction(1, 2))[0]
        # the only singular direction is P(-1/2) v
        assert sv.to_dict() == {(P(Fraction(-1, 2)),): Fraction(1)}

    def test_even_label_no_low_singular(self):
        # p = 2: nothing at degrees 1/2, 1, 3/2; one dimension at degree 2
        hw = hw_for(2)
        for t in (1, 2, 3):
            assert singular_vectors(hw, Fraction(t, 2)) == []
        assert len(singular_vectors(hw, 2)) == 1

    def test_generic_has_none(self):
        hw = pr_to_hw(Fraction(5, 7), R)
        for t in range(1, 5):
            assert singular_vectors(hw, Fraction(t, 2)) == []

    def test_negative_odd_chain_start(self):
        # p = -1: hA = 0, and the degree-1/2 kernel is G(-1/2)v + (1/2)P(-1/2)v
        hw = hw_for(-1)
        svs = singular_vectors(hw, Fraction(1, 2))
        assert len(svs) == 1
        assert svs[0].to_dict() == {
            (G(Fraction(-1, 2)),): Fraction(1),
            (P(Fraction(-1, 2)),): Fraction(1, 2),
        }

    def test_raising_annihilation(self):
        hw = hw_for(-2)
        for sv in singular_vectors(hw, 2):
            for sym in (L(1), L(2), A(1), A(2), G(Fraction(1, 2)), G(Fraction(3, 2)),
                        P(Fraction(1, 2)), P(Fraction(3, 2))):
                assert act(sym, sv, hw).is_zero()


class TestPhiOperator:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            phi_operator(1)
        with pytest.raises(ValueError):
            phi_operator(0)

    def test_leading_term(self):
        op = phi_operator(-1)
        assert op.terms[(L(-1),)] == 1

    def test_image_is_singular(self):
        for p in (-1, -2):
            hw, vec = singular_vector_from_phi(p, R)
            assert not vec.is_zero()
            assert vec.degree == -p
            for t in range(1, 2 * (-p) + 1):
                sym = (
                    L(t // 2) if t % 2 == 0 else G(Fraction(t, 2))
                )
                assert act(sym, vec, hw).is_zero()
                sym2 = (
                    A(t // 2) if t % 2 == 0 else P(Fraction(t, 2))
                )
                assert act(sym2, vec, hw).is_zero()

    def test_image_equals_kernel_vector(self):
        # both sides are normalized with coefficient 1 on the L(p) word,
        # so the match is exact equality, not just proportionality
        for p in (-1, -2):
            hw, vec = singular_vector_from_phi(p, R)
            kern = singular_vectors(hw, -p)
            assert len(kern) == 1
            assert vec.to_dict() == kern[0].to_dict()

    def test_leading_coeff_in_module(self):
        _, vec = singular_vector_from_phi(-1, R)
        assert vec.to_dict()[(L(-1),)] == 1


class TestDeterminant:
    def test_phi_factor_symbolic(self):
        p = ParamPolynomial.variable("p")
        hw = pr_to_hw(p, R)
        # with x = 1 + p the quartic collapses to (k^2 - p^2)(l^2 - p^2)
        phi = det_formula_phi(1, 3, hw)
        expect = CLA**4 * Fraction(1, 4) * (1 - p * p) * (9 - p * p)
        assert phi == expect

    def test_phi_factor_validation(self):
        hw = hw_for(1)
        with pytest.raises(ValueError):
            det_formula_phi(1, 2, hw)
        with pytest.raises(ValueError):
            det_formula_phi(0, 2, hw)

    def test_predicted_roots(self):
        assert predicted_det_roots(Fraction(1, 2)) == {Fraction(1), Fraction(-1)}
        assert predicted_det_roots(1) == {Fraction(1), Fraction(-1)}
        assert predicted_det_roots(Fraction(3, 2)) == {
            Fraction(1),
            Fraction(-1),
            Fraction(3),
            Fraction(-3),
        }
        assert predicted_det_roots(2) == {
            Fraction(s * k) for s in (1, -1) for k in (1, 2, 3)
        }

    def test_vanishing_check_low_levels(self):
        for level in (Fraction(1, 2), Fraction(1)):
            report = det_vanishing_check(level)
            assert report["match"], report
            assert report["computed_roots"] == ["-1", "1"]

    def test_kostant_counts(self):
        assert [kostant_p2(Fraction(t, 2)) for t in range(6)] == [1, 2, 3, 6, 11, 18]
        assert kostant_p2(Fraction(-1, 2)) == 0


class TestSubmoduleStructure:
    def test_subsingular_at_degree_one(self):
        hw = hw_for(1)
        u0 = singular_vectors(hw, Fraction(1, 2))[0]
        s = Submodule(hw, Fraction(3, 2))
        s.add_generator(u0.to_dict(), Fraction(1, 2))
        # <u0> is thin: P(-1/2)u0 = 0 leaves one direction per degree here
        assert s.graded_dim(Fraction(1, 2)) == 1
        assert s.graded_dim(1) == 1
        subs = subsingular_vectors(hw, 1, s)
        assert len(subs) == 1
        w1 = subs[0]
        # every raising image of w1 lies in <u0>, but w1 itself does not
        for sym in (L(1), A(1), G(Fraction(1, 2)), P(Fraction(1, 2))):
            img = act(sym, w1, hw)
            assert s.contains(img.to_dict(), img.degree)
        assert not s.contains(w1.to_dict(), 1)

    def test_subsingular_generates_maximal_submodule(self):
        hw = hw_for(1)
        u0 = singular_vectors(hw, Fraction(1, 2))[0]
        s = Submodule(hw, Fraction(3, 2))
        s.add_generator(u0.to_dict(), Fraction(1, 2))
        w1 = subsingular_vectors(hw, 1, s)[0]
        closure = Submodule(hw, Fraction(3, 2))
        closure.add_generator(w1.to_dict(), 1)
        dims = [closure.graded_dim(Fraction(t, 2)) for t in range(4)]
        expect = [maximal_submodule_dim(hw, Fraction(t, 2)) for t in range(4)]
        assert dims == expect == [0, 1, 2, 3]
        # the closure picked up the singular vector through the raising action
        assert closure.contains(u0.to_dict(), Fraction(1, 2))

    def test_degrees_must_be_half_integers(self):
        hw = hw_for(1)
        u0 = singular_vectors(hw, Fraction(1, 2))[0].to_dict()
        s = Submodule(hw, Fraction(3, 2))
        s.add_generator(u0, Fraction(1, 2))
        for read in (s.graded_dim, lambda d: graded_span(s, d), lambda d: s.contains(u0, d)):
            with pytest.raises(ValueError):
                read(Fraction(1, 3))
        with pytest.raises(ValueError):
            Submodule(hw, Fraction(4, 3))
        with pytest.raises(ValueError):
            s.add_generator(u0, Fraction(2, 3))
        # below degree 0 a submodule is empty, as subsingular_vectors reads it
        assert s.graded_dim(Fraction(-1, 2)) == 0 and graded_span(s, -1) == []

    def test_no_subsingular_generic(self):
        hw = pr_to_hw(Fraction(5, 7), R)
        s = Submodule(hw, Fraction(3, 2))
        assert subsingular_vectors(hw, 1, s) == []


class TestDiagram:
    def test_even_negative_chain_start(self):
        d = embedding_diagram(-2, R, 2)
        assert d.pattern == "singular-chain"
        assert [(n.degree, n.kind) for n in d.nodes] == [
            (Fraction(0), "highest"),
            (Fraction(2), "singular"),
        ]
        assert d.edges == [("v", "sing@2")]

    def test_interleaved_start(self):
        d = embedding_diagram(1, R, 1)
        kinds = [(n.degree, n.kind) for n in d.nodes]
        assert (Fraction(1, 2), "singular") in kinds
        assert (Fraction(1), "subsingular") in kinds
        assert d.pattern == "interleaved-chain"
        # the subsingular node dominates the singular one
        assert ("sub@1", "sing@1/2") in d.edges

    def test_irreducible_is_single_node(self):
        d = embedding_diagram(Fraction(5, 7), R, 1)
        assert d.pattern == "single-node"
        assert d.to_json()["nodes"] == [
            {"id": "v", "degree": "0", "kind": "highest"}
        ]


# ---------------------------------------------------------------------------
# the module-level action and the recursive Gram assembly, against oracles
# that normal-order whole words in the enveloping algebra


def _oracle_apply_symbol(hw, sym, word):
    """sym * word * v: normal-order (sym,) + word, then evaluate each term's
    Cartan tail on v; a raising letter at the right end kills the term."""
    subs = {"L": hw.h, "A": hw.hA, "CL": hw.cL, "CA": hw.cA, "CLA": hw.cLa}
    out = {}
    for w, c in _normal_form((sym,) + word).items():
        cut = len(w)
        for i in range(len(w) - 1, -1, -1):
            block = sym_key(w[i])[0]
            if block == 2:
                c = None
                break
            if block == 0:
                break
            c = c * subs[w[i].kind]
            cut = i
        if c is None:
            continue
        lowered = w[:cut]
        prev = out.get(lowered)
        nv = c if prev is None else prev + c
        if nv == 0:
            out.pop(lowered, None)
        else:
            out[lowered] = nv
    return out


def theta_word(word):
    """Antipode of a lowering word: the reversed raising word and a global
    sign, from L(n) -> L(-n), A(n) -> -A(-n), G(s) -> G(-s), P(s) -> -P(-s)."""
    images = {"L": (L, 1), "A": (A, -1), "G": (G, 1), "P": (P, -1)}
    sign = 1
    out = []
    for s in reversed(word):
        kind, sg = images[s.kind]
        sign *= sg
        out.append(kind(-s.mode.value))
    return tuple(out), sign


def _oracle_gram(hw, degree):
    """<w, v> = sign * (theta(w) * v)[v], one full theta word per entry."""
    memo = {}

    def apply(sym, vec):
        new = {}
        for w, c in vec.items():
            if (sym, w) not in memo:
                memo[sym, w] = _oracle_apply_symbol(hw, sym, w)
            for w2, c2 in memo[sym, w].items():
                prev = new.get(w2)
                nv = c * c2 if prev is None else prev + c * c2
                if nv == 0:
                    new.pop(w2, None)
                else:
                    new[w2] = nv
        return new

    words = verma_basis(hw, degree).words
    rows = []
    for w in words:
        op, sign = theta_word(w)
        row = []
        for v in words:
            vec = {v: Fraction(1)}
            for sym in reversed(op):
                vec = apply(sym, vec)
            val = vec.get((), Fraction(0))
            row.append(sign * val if sign < 0 else val)
        rows.append(row)
    return rows


class _WordAction:
    """The action as a recursion on basis words with Fraction coefficients
    (rational and polynomial on a symbolic label), memoized per (symbol,
    word), and its symbol maps: the same recursion and the same maps as
    VermaAction, in {word: coefficient} dicts rather than integer columns
    over basis positions.  It has a _gram_cache, so _gram runs on it."""

    def __init__(self, hw):
        self.hw = hw
        self._subs = {"L": hw.h, "A": hw.hA, "CL": hw.cL, "CA": hw.cA, "CLA": hw.cLa}
        self._symbolic = any(isinstance(c, ParamPolynomial) for c in self._subs.values())
        self._cache = {}
        self._gram_cache = {}

    def _scalar(self, kind, word):
        c = self._subs[kind]
        return {word: c} if c else {}

    def apply_symbol(self, sym, word):
        key = (sym, word)
        if key in self._cache:
            return self._cache[key]
        if sym.kind in shv_algebra._CENTRAL_KINDS:
            out = self._scalar(sym.kind, word)
        elif not word:
            block = sym_key(sym)[0]
            out = {(sym,): Fraction(1)} if block == 0 else {} if block == 2 else self._scalar(sym.kind, ())
        else:
            s1, rest = word[0], word[1:]
            odd = shv_algebra.parity(sym)
            if sym_key(sym) < sym_key(s1) or (sym == s1 and not odd):
                out = {(sym,) + word: Fraction(1)}
            elif sym == s1:
                out = {}
                for (b,), bc in shv_algebra.super_bracket(sym, sym).terms.items():
                    add_scaled(out, self.apply_symbol(b, rest).items(), Fraction(1, 2) * bc)
            else:
                out = {}
                sign = -1 if (odd and shv_algebra.parity(s1)) else 1
                for u, c in self.apply_symbol(sym, rest).items():
                    add_scaled(out, self.apply_symbol(s1, u).items(), sign * c)
                for (b,), bc in shv_algebra.super_bracket(sym, s1).terms.items():
                    add_scaled(out, self.apply_symbol(b, rest).items(), bc)
        self._cache[key] = out
        return out

    def symbol_map(self, sym, twice):
        target = verma_basis(None, Fraction(twice - sym.mode.twice_value, 2)).index
        images = [self.apply_symbol(sym, w) for w in verma_basis(None, Fraction(twice, 2)).words]
        if self._symbolic:
            den = 1
            columns = [[(target[u], c) for u, c in image.items()] for image in images]
        else:
            ints, den = over_one_den([c for image in images for c in image.values()])
            it = iter(ints)
            columns = [[(target[u], next(it)) for u in image] for image in images]
        return verma.SymbolMap(den, len(target), columns)


_ORACLE_WEIGHTS = {
    "p=1": pr_to_hw(Fraction(1), Fraction(1, 3)),
    "p=-2": pr_to_hw(Fraction(-2), Fraction(3, 4)),
    "p=5/7": pr_to_hw(Fraction(5, 7), Fraction(2, 3)),
    "p symbolic": pr_to_hw(ParamPolynomial.variable("p"), R),
}
_ORACLE_SYMBOLS = [shv_algebra.CL, shv_algebra.CA, shv_algebra.CLA] + [
    kind(Fraction(t, 2))
    for t in range(-6, 7)
    for kind in ((L, A) if t % 2 == 0 else (G, P))
]
_ORACLE_WORDS = [w for t in range(7) for w in verma_basis(None, Fraction(t, 2)).words]


def _typed(vec):
    return {w: (type(c), c) for w, c in vec.items()}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(_ORACLE_WEIGHTS.values())),
    st.sampled_from(_ORACLE_SYMBOLS),
    st.sampled_from(_ORACLE_WORDS),
)
def test_apply_symbol_matches_normal_form_oracle(hw, sym, word):
    # a fresh action, so the recursion runs rather than a cache lookup; the
    # word-form boundary turns the integer column back into coefficients
    got = VermaAction(hw).apply_word((sym,), {word: Fraction(1)})
    assert _typed(got) == _typed(_oracle_apply_symbol(hw, sym, word))


@pytest.mark.parametrize("hw", list(_ORACLE_WEIGHTS.values()), ids=list(_ORACLE_WEIGHTS))
def test_recursive_gram_matches_theta_word_gram(hw):
    for t in range(7):
        got = shapovalov_gram(hw, Fraction(t, 2))
        want = _oracle_gram(hw, Fraction(t, 2))
        assert [[(type(x), x) for x in row] for row in got.data] == [
            [(type(x), x) for x in row] for row in want
        ]


@pytest.mark.parametrize("label", ["p=1", "p=-2", "p=5/7"])
def test_gram_blocks_are_reduced_integer_rows(label):
    # every cached block is a Matrix whose stored rows are ints over one
    # positive denominator prime to the row, the oracle's row over it; the
    # Gram matrix is that block itself
    hw = _ORACLE_WEIGHTS[label]
    action = VermaAction(hw)
    _gram(action, 6)
    assert sorted(action._gram_cache) == list(range(7))
    for t, block in action._gram_cache.items():
        want = _oracle_gram(hw, Fraction(t, 2))
        assert isinstance(block, Matrix) and block.rational
        assert shapovalov_gram(hw, Fraction(t, 2)) is get_action(hw)._gram_cache[t]
        assert block.rows == block.cols == len(want)
        assert len(block.nums) == len(block.dens) == len(want)
        for row, den, want_row in zip(block.nums, block.dens, want):
            assert type(den) is int and den > 0
            assert len(row) == block.cols and all(type(n) is int for n in row)
            assert math.gcd(den, *row) == 1
            assert [Fraction(n, den) for n in row] == want_row


def test_symbol_map_keeps_symbolic_coefficients():
    # on a label symbolic in p, each column of a map is the word recursion's
    # image of that basis word, types included, over den 1
    hw = _ORACLE_WEIGHTS["p symbolic"]
    action, oracle = VermaAction(hw), _WordAction(hw)
    polynomial = 0
    for t in range(5):
        words = verma_basis(hw, Fraction(t, 2)).words
        for tm in range(-4, 5):
            for sym in shv_algebra.symbols_at(tm):
                t2 = t - sym.mode.twice_value
                if t2 < 0:
                    continue
                smap = action.symbol_map(sym, t)
                target = verma_basis(hw, Fraction(t2, 2)).words
                assert smap.den == 1 and smap.rows == len(target)
                for w, column in zip(words, smap.columns):
                    got = {target[j]: a for j, a in column}
                    assert _typed(got) == _typed(oracle.apply_symbol(sym, w))
                    polynomial += sum(isinstance(a, ParamPolynomial) for _, a in column)
    assert polynomial


_MAP_LABELS = {
    "(1, 1/3)": hw_for(1, Fraction(1, 3)),
    "(3, 2/3)": hw_for(3, Fraction(2, 3)),
    "(-1, 1/3)": hw_for(-1, Fraction(1, 3)),
    "(1/2, 1/3)": hw_for(Fraction(1, 2), Fraction(1, 3)),
    "p symbolic": _ORACLE_WEIGHTS["p symbolic"],
}


@pytest.mark.parametrize("label", list(_MAP_LABELS))
def test_symbol_maps_match_the_word_recursion(label):
    # every map at degrees <= 4 (every symbol whose target degree is >= 0)
    # has the word recursion's den and columns, entries, order and types
    hw = _MAP_LABELS[label]
    action, oracle = VermaAction(hw), _WordAction(hw)
    for t in range(9):
        for tm in range(-8, t + 1):
            for sym in shv_algebra.symbols_at(tm):
                got, want = action.symbol_map(sym, t), oracle.symbol_map(sym, t)
                assert (got.den, got.rows) == (want.den, want.rows)
                assert [[(j, type(a), a) for j, a in c] for c in got.columns] == [
                    [(j, type(a), a) for j, a in c] for c in want.columns
                ]


@pytest.mark.parametrize("p", [1, 3])
def test_gram_blocks_match_the_word_recursion(p):
    # the blocks to degree 5, assembled from either action's maps
    hw = hw_for(p, Fraction(1, 3))
    action, oracle = VermaAction(hw), _WordAction(hw)
    for t in range(11):
        got, want = _gram(action, t), _gram(oracle, t)
        assert (got.nums, got.dens) == (want.nums, want.dens)


def test_action_survives_a_cleared_basis_cache():
    # an action's memo outlives _BASIS_CACHE.clear(): on the degree-1/2
    # piece a memo hit at degree 0 leads to a miss on the degree-2 piece,
    # which the clear dropped and nothing has rebuilt by then
    hw = hw_for(1, Fraction(1, 3))
    action = VermaAction(hw)
    action.symbol_map(L(-2), 0)
    verma._BASIS_CACHE.clear()
    got = action.symbol_map(L(-2), 1)
    want = _WordAction(hw).symbol_map(L(-2), 1)
    assert (got.den, [list(c) for c in got.columns]) == (want.den, want.columns)


def test_apply_symbol_columns_are_reduced():
    # every memoized result is a Column: den > 0 prime to its int numerators,
    # each index inside the target piece (none below degree 0), each
    # numerator nonzero
    hw = hw_for(1, Fraction(1, 3))
    action = VermaAction(hw)
    _gram(action, 8)
    assert action._sym_cache
    for (sym, t, i), (den, column) in action._sym_cache.items():
        assert i < len(verma_basis(hw, Fraction(t, 2)))
        t2 = t - sym.mode.twice_value
        rows = len(verma_basis(hw, Fraction(t2, 2))) if t2 >= 0 else 0
        assert type(den) is int and den > 0 and math.gcd(den, *(a for _, a in column)) == 1
        assert all(type(a) is int and a and 0 <= j < rows for j, a in column)


# ---------------------------------------------------------------------------
# the integer echelon span and the worklist closure, against the Fraction
# RREF and the full-sweep closure they replace


class _FractionEchelon:
    """Reduced row echelon span with rows normalized to pivot 1, in Fraction."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        inv = Fraction(1) / v[piv]
        v = [c * inv for c in v]
        for other in self.rows.values():
            c = other[piv]
            if c:
                other[:] = [a - c * b for a, b in zip(other, v)]
        self.rows[piv] = v
        return True

    def contains(self, vec):
        return all(not c for c in self.reduce(vec))


_span_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _vectors(length, min_size, max_size):
    return st.lists(
        st.lists(_span_entries, min_size=length, max_size=length),
        min_size=min_size,
        max_size=max_size,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 4)).flatmap(
        lambda nb: st.tuples(
            _vectors(nb[0], nb[1], nb[1]), _vectors(nb[1], 1, 8), _vectors(nb[1], 1, 4)
        )
    )
)
def test_integer_echelon_span_matches_fraction_rref(case):
    # inserted and queried vectors are combinations of a few base vectors, so
    # both fresh and dependent vectors occur
    base, inserts, queries = case

    def combo(coeffs):
        return [sum((c * x for c, x in zip(coeffs, col)), Fraction(0)) for col in zip(*base)]

    got, want = EchelonSpan(), _FractionEchelon()
    for coeffs in inserts:
        v = combo(coeffs)
        assert got.insert(over_one_den(v)[0]) == want.insert(v)
        assert list(got.rows) == list(want.rows)
        for piv, row in got.rows.items():
            assert row[piv] > 0 and math.gcd(*row) == 1
            assert all(type(x) is int for x in row)
            assert [Fraction(x, row[piv]) for x in row] == want.rows[piv]
    for coeffs in queries + [[1] + [0] * (len(base) - 1)]:
        v = combo(coeffs)
        assert got.contains(over_one_den(v)[0]) == want.contains(v)
    assert len(got.rows) == len(want.rows)


class _FullSweepClosure:
    """The closure as a full sweep in Fractions: every symbol on every
    vector, repeated until a sweep adds nothing.  Vectors are {word:
    Fraction} dicts from VermaAction.apply_word, kept per degree in
    insertion order, with membership by the Fraction echelon above."""

    def __init__(self, hw, max_degree):
        self.hw = hw
        self.action = VermaAction(hw)
        self.max_twice = int(Fraction(max_degree) * 2)
        self.spans, self.echelons = {}, {}

    def graded_spans(self):
        return [self.spans.get(t, []) for t in range(self.max_twice + 1)]

    def _try_add(self, vec, t):
        if not vec or t > self.max_twice:
            return False
        echelon = self.echelons.setdefault(t, _FractionEchelon())
        if not echelon.insert(verma_basis(self.hw, Fraction(t, 2)).column(vec)):
            return False
        self.spans.setdefault(t, []).append(dict(vec))
        return True

    def add_generator(self, vec, degree):
        if not self._try_add(vec, int(Fraction(degree) * 2)):
            return
        symbols = []
        for tm in range(1, self.max_twice + 1):
            if tm % 2 == 0:
                symbols += [L(tm // 2), A(tm // 2), L(-(tm // 2)), A(-(tm // 2))]
            else:
                s = Fraction(tm, 2)
                symbols += [G(s), P(s), G(-s), P(-s)]
        changed = True
        while changed:
            changed = False
            for t in sorted(self.spans):
                for vec in list(self.spans[t]):
                    for sym in symbols:
                        t2 = t - sym.mode.twice_value
                        if 0 <= t2 and self._try_add(self.action.apply_word((sym,), vec), t2):
                            changed = True


def graded_span(sub, degree):
    """The submodule's spanning vectors at the degree, as {word: Fraction}."""
    t = shv_algebra.doubled(degree)
    vecs = sub.integer_span(t)
    words = verma_basis(sub.hw, Fraction(t, 2)).words if vecs else ()
    return [{w: Fraction(a, den) for w, a in zip(words, ints) if a} for ints, den in vecs]


def _spans(sub):
    return [graded_span(sub, Fraction(t, 2)) for t in range(sub.max_twice + 1)]


@pytest.mark.parametrize("p, r, max_degree", [(-1, Fraction(1, 3), 3), (1, Fraction(1, 3), 2)])
def test_worklist_closure_matches_full_sweep(p, r, max_degree):
    # the generators embedding_diagram adds, one closure each and all of
    # them accumulated in order
    hw = pr_to_hw(Fraction(p), r)
    nodes = [n for n in embedding_diagram(p, r, max_degree).nodes if n.node_id != "v"]
    assert nodes
    got, want = Submodule(hw, max_degree), _FullSweepClosure(hw, max_degree)
    for node in nodes:
        gen = node.vector.to_dict()
        one, one_want = Submodule(hw, max_degree), _FullSweepClosure(hw, max_degree)
        one.add_generator(gen, node.degree)
        one_want.add_generator(gen, node.degree)
        assert _spans(one) == one_want.graded_spans()
        got.add_generator(gen, node.degree)
        want.add_generator(gen, node.degree)
        assert _spans(got) == want.graded_spans()


@pytest.mark.parametrize("p", [-1, 1])
def test_symbol_map_is_the_symbol_action(p):
    # each column of a symbol map, over its denominator, is the word
    # recursion's image of that basis word, for every symbol of the closure
    # window at degrees 0..3
    hw = hw_for(p, Fraction(1, 3))
    action, oracle = VermaAction(hw), _WordAction(hw)
    for t in range(7):
        words = verma_basis(hw, Fraction(t, 2)).words
        for tm in range(1, 7):
            for sym in shv_algebra.symbols_at(tm) + shv_algebra.symbols_at(-tm):
                t2 = t - sym.mode.twice_value
                if t2 < 0:
                    continue
                smap = action.symbol_map(sym, t)
                assert smap.den > 0 and smap.rows == len(verma_basis(hw, Fraction(t2, 2)))
                target = verma_basis(hw, Fraction(t2, 2)).words
                assert len(smap.columns) == len(words)
                for w, column in zip(words, smap.columns):
                    assert all(type(a) is int and a for _, a in column)
                    got = {target[j]: Fraction(a, smap.den) for j, a in column}
                    assert got == oracle.apply_symbol(sym, w)
                assert action.symbol_map(sym, t) is smap


# ---------------------------------------------------------------------------
# the subsingular count and the seeded diagram submodule, against the kernel
# detector and fresh closures


def _kernel_subsingular(hw, degree, submodule):
    """The kernel detector alone: every new direction of the kernel of
    [raising images | -S] on its first columns, reduced modulo S_d."""
    basis = verma_basis(hw, degree)
    n = len(basis)
    m = verma._raised(hw, basis, submodule)
    if m is None:
        return []
    candidates = [x[:n] for x in exact_linalg.kernel_basis(m) if any(x[:n])]
    span = EchelonSpan()
    for ints, _ in submodule.integer_span(basis.twice_degree):
        span.insert(ints)
    return [
        ModuleVector.from_dict(verma._normalize_leading(basis.vector(x)), degree)
        for x in candidates
        if span.insert(over_one_den(x)[0])
    ]


@pytest.mark.parametrize("fallback", [False, True], ids=["count", "fallback"])
def test_subsingular_count_matches_the_kernel_detector(monkeypatch, fallback):
    # every call of the diagrams at p = +-1, -2, 2, 3 to degree 3; a mod-P
    # rank one lower than the true rank never proves the count, so every
    # call falls back
    if fallback:
        lower = verma.rank_mod_p
        monkeypatch.setattr(verma, "rank_mod_p", lambda m: lower(m) - 1)
    found = []

    def checked(hw, degree, submodule):
        got = subsingular_vectors(hw, degree, submodule)
        assert got == _kernel_subsingular(hw, degree, submodule)
        found.append(len(got))
        return got

    monkeypatch.setattr(verma, "subsingular_vectors", checked)
    for p in (1, -1, -2, 2, 3):
        embedding_diagram(p, Fraction(1, 3), 3)
    assert len(found) == 30
    assert found.count(1) == 2 and found.count(0) == 28


@pytest.mark.parametrize("p", [1, 3, 5])
def test_subsingular_command_takes_no_mod_p_rank(monkeypatch, p):
    # the subsingular command finds a vector at every label it runs at, where
    # the count can never prove there is none: it goes straight to the
    # kernel, and its vector is the counted detector's and the kernel's
    ranks, seen = [], []
    lower = verma.rank_mod_p
    monkeypatch.setattr(verma, "rank_mod_p", lambda m: ranks.append(m) or lower(m))
    kernel_half = verma.kernel_subsingular_vectors

    def recorded(hw, degree, submodule):
        got = kernel_half(hw, degree, submodule)
        seen.append((hw, degree, submodule, got))
        return got

    monkeypatch.setattr(cli, "kernel_subsingular_vectors", recorded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["subsingular", "--p", str(p), "--format", "json"]) == 0
    assert ranks == []
    [(hw, degree, submodule, got)] = seen
    assert degree == p and len(got) == 1
    [check] = [c for c in json.loads(out.getvalue())["checks"] if c["name"] == "subsingular-detected"]
    normalized = check["details"]["normalized"]
    assert normalized == got[0].to_text()
    assert got == _kernel_subsingular(hw, degree, submodule)
    counted = subsingular_vectors(hw, degree, submodule)
    assert len(ranks) == 1 and [v.to_text() for v in counted] == [normalized]


def test_subsingular_needs_a_submodule_closed_through_the_degree():
    # S = <u0> at p = 1: closed only to 1/2 or 1, S_{3/2} misses vectors
    # whose raising images lie in S, and the kernel detector would report
    # them as subsingular
    hw = hw_for(1, Fraction(1, 3))
    u0 = singular_vectors(hw, Fraction(1, 2))[0].to_dict()
    for top, false_vectors in ((Fraction(1, 2), 1), (Fraction(1), 2), (Fraction(3, 2), 0)):
        s = Submodule(hw, top)
        s.add_generator(u0, Fraction(1, 2))
        assert len(_kernel_subsingular(hw, Fraction(3, 2), s)) == false_vectors
        if false_vectors:
            with pytest.raises(ValueError, match="closed only through degree"):
                subsingular_vectors(hw, Fraction(3, 2), s)
        else:
            assert subsingular_vectors(hw, Fraction(3, 2), s) == []


def test_diagram_work_counters(monkeypatch):
    # at p = -1 to degree 4 no degree has a subsingular vector, so the count
    # replaces each of the eight subsingular kernels; the accumulated
    # submodule starts from the first node's 113 closed vectors instead of
    # closing them again (381 before)
    kernels, processed = [0], [0]
    kernel_basis, close = verma.kernel_basis, Submodule._close

    def counted_kernel(m):
        kernels[0] += 1
        return kernel_basis(m)

    def counted_close(self):
        before = sum(self._processed.values())
        close(self)
        processed[0] += sum(self._processed.values()) - before

    monkeypatch.setattr(verma, "kernel_basis", counted_kernel)
    monkeypatch.setattr(Submodule, "_close", counted_close)
    d = embedding_diagram(-1, Fraction(1, 3), 4)
    assert d.pattern == "singular-chain"
    assert (kernels[0], processed[0]) == (8, 268)


def test_seeded_submodule_shares_no_rows(monkeypatch):
    # at p = 1 the accumulated submodule is a copy of sing@1/2's closure when
    # sub@1 joins it; the closure itself must stay that of sing@1/2 alone
    made = []

    class Recorded(Submodule):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verma, "Submodule", Recorded)
    max_degree = Fraction(2)
    d = embedding_diagram(1, Fraction(1, 3), max_degree)
    first = d.nodes[1]
    assert (first.node_id, d.nodes[2].node_id) == ("sing@1/2", "sub@1")
    # made: the empty start, sing@1/2's closure, its copy, sub@1's closure
    start, closure, accumulated = made[:3]
    assert not start.integer_span(1) and accumulated.contains(d.nodes[2].vector.to_dict(), 1)
    fresh = Submodule(closure.hw, max_degree)
    fresh.add_generator(first.vector.to_dict(), first.degree)
    dims = [fresh.graded_dim(Fraction(t, 2)) for t in range(5)]
    assert [closure.graded_dim(Fraction(t, 2)) for t in range(5)] == dims
    assert [accumulated.graded_dim(Fraction(t, 2)) for t in range(5)] != dims
    assert _spans(closure) == _spans(fresh)
    assert {t: e.rows for t, e in closure._echelons.items()} == {
        t: e.rows for t, e in fresh._echelons.items()
    }
    assert not closure.contains(d.nodes[2].vector.to_dict(), 1)
