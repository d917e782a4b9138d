"""Highest weight module machinery: bases, action, Gram matrices, singular
vectors, submodule closures.

The small Gram matrices used as oracles here were computed by hand from the
bracket table; the helper comments show the arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shvkernel.qchar import char_simple, char_verma
from shvkernel.scalars import DEFAULT_SPECIALIZATION, ParamPolynomial
from shvkernel import shv_algebra
from shvkernel.shv_algebra import A, G, L, P, _normal_form, sym_key
from shvkernel.verma import (
    DegenerateFamilyError,
    HighestWeightData,
    ModuleVector,
    Submodule,
    VermaAction,
    act,
    det_formula_phi,
    det_vanishing_check,
    embedding_diagram,
    highest_weight_vector,
    hw_to_pr,
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
    theta_word,
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
        lab = hw_to_pr(hw)
        assert lab.p == Fraction(5, 7)
        assert lab.r == Fraction(2, 3)

    def test_degenerate_line(self):
        hw = HighestWeightData(cL=CL, cA=Fraction(0), cLa=CLA, h=Fraction(1), hA=CLA)
        with pytest.raises(DegenerateFamilyError):
            hw_to_pr(hw)

    def test_symbolic_p(self):
        p = ParamPolynomial.variable("p")
        hw = pr_to_hw(p, R)
        got = hw.h.evaluate({"p": Fraction(-1), "cL": CL, "cA": 0, "cLa": CLA, "r": R})
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
        blob = v.to_json()
        assert blob["degree"] == "1"
        assert len(blob["coords"]) == 3
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

    def test_no_subsingular_generic(self):
        hw = pr_to_hw(Fraction(5, 7), R)
        s = Submodule(hw, Fraction(3, 2))
        assert subsingular_vectors(hw, 1, s) == []


class TestDiagram:
    def test_even_negative_chain_start(self):
        d = embedding_diagram(-2, R, 2)
        assert d.pattern == "singular-chain"
        assert d.node_kinds() == [(Fraction(0), "highest"), (Fraction(2), "singular")]
        assert d.edges == [("v", "sing@2")]

    def test_interleaved_start(self):
        d = embedding_diagram(1, R, 1)
        kinds = d.node_kinds()
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
    # a fresh action, so the recursion runs rather than a cache lookup
    got = VermaAction(hw).apply_symbol(sym, word)
    assert _typed(got) == _typed(_oracle_apply_symbol(hw, sym, word))


@pytest.mark.parametrize("hw", list(_ORACLE_WEIGHTS.values()), ids=list(_ORACLE_WEIGHTS))
def test_recursive_gram_matches_theta_word_gram(hw):
    for t in range(7):
        got = shapovalov_gram(hw, Fraction(t, 2))
        want = _oracle_gram(hw, Fraction(t, 2))
        assert [[(type(x), x) for x in row] for row in got.data] == [
            [(type(x), x) for x in row] for row in want
        ]
