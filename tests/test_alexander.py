"""Tests for the twisted Alexander routes and the cocycle action."""

import numpy as np
import pytest

from ptbundle.alexander import (
    RingRep,
    WadaInvariant,
    bundle_twisted_alexander,
    coboundary_defect,
    monodromy_action,
    phi_map,
    relative_char_poly,
    res_l_map,
    route_agreement,
    twisted_alexander,
)
from ptbundle.holonomy import build_solutions
from ptbundle.numeric import (
    LaurentPoly,
    char_poly,
    equal_up_to_unit,
    integer_round,
    laurent_allclose,
    root_multiplicity,
)
from ptbundle.presentation import (
    AbelianizationMap,
    Presentation,
    bundle_presentation,
    monodromy_endo,
    monodromy_trace,
    parse_monodromy,
)
from ptbundle.words import GroupRingElem, Word, parse_word, ring_one_minus

KNOT_NAMES = ("a", "b")

TREFOIL = Presentation(KNOT_NAMES, (parse_word("aaBBB", KNOT_NAMES),))
TREFOIL_STANDARD = Presentation(KNOT_NAMES, (parse_word("abaBAB", KNOT_NAMES),))

TRIVIAL_REP = RingRep((np.eye(1, dtype=complex), np.eye(1, dtype=complex)), (3, 2))
TRIVIAL_STANDARD = RingRep((np.eye(1, dtype=complex), np.eye(1, dtype=complex)), (1, 1))


def heusener_rep(s, t):
    """Rank-3 representation of the trefoil group with two free parameters."""
    omega = np.exp(2j * np.pi / 3)
    mat_a = np.array([[1, 0, 0], [s, -1, 0], [t, 0, -1]], dtype=complex)
    mat_b = np.array(
        [[1, omega - 1, omega**2 - 1], [0, omega, 0], [0, 0, omega**2]],
        dtype=complex,
    )
    return RingRep((mat_a, mat_b), (3, 2))


def int_poly(coeffs):
    return LaurentPoly({i: complex(c) for i, c in enumerate(coeffs) if c})


def product(*polys):
    out = LaurentPoly.one()
    for p in polys:
        out = out * p
    return out


T_MINUS_1 = int_poly([-1, 1])

# Degree-15 adjoint targets for the two worked bundles and the degree-16
# tensor-square target for RRL, stored in factored form and multiplied out
# here so a typo in any one factor would break several assertions at once.
LLRR_SL4_TARGET = product(
    int_poly([-1]),
    *(T_MINUS_1,) * 5,
    int_poly([1, -18, 1]),
    int_poly([1, -18, 1]),
    int_poly([1, -114, -17, -316, -17, -114, 1]),
)
RRL_SL4_TARGET = product(
    int_poly([-1]),
    *(T_MINUS_1,) * 5,
    int_poly([1, -18, 90, -18, 1]),
    int_poly([1, -38, 15, -84, 15, -38, 1]),
)
RRL_GL16_TARGET = product(
    *(T_MINUS_1,) * 4,
    int_poly([1, -4, 1]),
    int_poly([1, -18, 90, -18, 1]),
    int_poly([1, -38, 15, -84, 15, -38, 1]),
)

ONE_MINUS_X3 = int_poly([1, 0, 0, -1])
SECOND_CYCLOTOMIC_LIKE = int_poly([1, -1, 1])


@pytest.fixture(scope="module")
def llrr():
    endo = monodromy_endo(parse_monodromy("LLRR"))
    return endo, build_solutions(endo)[0]


@pytest.fixture(scope="module")
def rrl():
    endo = monodromy_endo(parse_monodromy("RRL"))
    return endo, build_solutions(endo)[0]


class TestPhiMap:
    def test_one_minus_a_trefoil(self):
        out = phi_map(ring_one_minus(Word(((0, 1),))), TRIVIAL_REP)
        assert out.shape == (1, 1)
        assert laurent_allclose(out.entries[0][0], ONE_MINUS_X3, tol=1e-12)

    def test_fox_column_of_trefoil_relator(self):
        word_a2b1 = parse_word("aaB", KNOT_NAMES)
        word_a2b2 = parse_word("aaBB", KNOT_NAMES)
        elem = (
            GroupRingElem.from_word(word_a2b1, -1)
            + GroupRingElem.from_word(word_a2b2, -1)
            - GroupRingElem.one()
        )
        out = phi_map(elem, TRIVIAL_REP)
        assert laurent_allclose(
            out.entries[0][0], int_poly([-1, 0, -1, 0, -1]), tol=1e-12
        )

    def test_zero_element(self):
        out = phi_map(GroupRingElem({}), heusener_rep(0.3, 0.7))
        assert all(cell.is_zero() for row in out.entries for cell in row)

    def test_multiplicative_on_group_elements(self):
        rep = heusener_rep(1.1 - 0.4j, 0.2 + 0.9j)
        u = parse_word("abA", KNOT_NAMES)
        v = parse_word("Bab", KNOT_NAMES)
        lhs = phi_map(GroupRingElem.from_word(u * v), rep)
        prod = phi_map(GroupRingElem.from_word(u), rep).evaluate(0.7 + 0.1j) @ phi_map(
            GroupRingElem.from_word(v), rep
        ).evaluate(0.7 + 0.1j)
        assert np.allclose(lhs.evaluate(0.7 + 0.1j), prod, atol=1e-12)


class TestTrefoilInvariant:
    def test_trivial_rep_fraction(self):
        inv = twisted_alexander(TREFOIL, TRIVIAL_REP)
        assert inv.column == 0
        assert laurent_allclose(inv.numerator, int_poly([-1, 0, -1, 0, -1]), tol=1e-12)
        assert laurent_allclose(inv.denominator, ONE_MINUS_X3, tol=1e-12)
        # the fraction does not reduce to a polynomial here
        assert inv.quotient is None

    def test_trivial_rep_cross_multiplied_value(self):
        inv = twisted_alexander(TREFOIL, TRIVIAL_REP)
        lhs = inv.numerator * int_poly([-1, 1])
        rhs = SECOND_CYCLOTOMIC_LIKE * inv.denominator
        assert equal_up_to_unit(lhs, rhs, tol=1e-10)

    def test_standard_presentation_oracle(self):
        inv = twisted_alexander(TREFOIL, TRIVIAL_REP)
        oracle = twisted_alexander(TREFOIL_STANDARD, TRIVIAL_STANDARD)
        assert laurent_allclose(oracle.denominator, int_poly([1, -1]), tol=1e-12)
        assert equal_up_to_unit(
            inv.numerator * oracle.denominator,
            oracle.numerator * inv.denominator,
            tol=1e-10,
        )

    def test_column_choice_is_immaterial(self):
        first = twisted_alexander(TREFOIL, TRIVIAL_REP, column=0)
        second = twisted_alexander(TREFOIL, TRIVIAL_REP, column=1)
        assert equal_up_to_unit(
            first.numerator * second.denominator,
            second.numerator * first.denominator,
            tol=1e-10,
        )

    def test_heusener_family_collapses(self):
        rng = np.random.default_rng(2024)
        quotients = []
        for _ in range(5):
            s, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            inv = twisted_alexander(TREFOIL, heusener_rep(s, t))
            quot = inv.normalized_quotient()
            assert quot is not None
            assert equal_up_to_unit(quot, ONE_MINUS_X3, tol=1e-8)
            quotients.append(quot)
        for other in quotients[1:]:
            assert laurent_allclose(quotients[0], other, tol=1e-8)

    def test_heusener_column_independence(self):
        rep = heusener_rep(0.5 - 1.2j, -0.3 + 0.8j)
        first = twisted_alexander(TREFOIL, rep, column=0)
        second = twisted_alexander(TREFOIL, rep, column=1)
        assert equal_up_to_unit(
            first.numerator * second.denominator,
            second.numerator * first.denominator,
            tol=1e-8,
        )

    def test_bad_abelianization_rejected(self):
        broken = RingRep(TRIVIAL_REP.matrices, (2, 2))
        with pytest.raises(ValueError):
            twisted_alexander(TREFOIL, broken)

    def test_singular_rep_rejected(self):
        with pytest.raises(ValueError):
            RingRep((np.zeros((2, 2)), np.eye(2)), (3, 2))


class TestBundleRoute:
    def test_llrr_adjoint_matches_target(self, llrr):
        endo, sol = llrr
        poly = bundle_twisted_alexander(endo, sol.representation("sl4"))
        rounded = integer_round(poly, tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == LLRR_SL4_TARGET

    def test_rrl_adjoint_matches_target(self, rrl):
        endo, sol = rrl
        poly = bundle_twisted_alexander(endo, sol.representation("sl4"))
        assert equal_up_to_unit(poly, RRL_SL4_TARGET, tol=1e-6)

    def test_rrl_tensor_square_matches_target(self, rrl):
        endo, sol = rrl
        poly = bundle_twisted_alexander(endo, sol.representation("gl16"))
        rounded = integer_round(poly, tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == RRL_GL16_TARGET

    def test_degree_equals_rep_dimension(self, llrr):
        endo, sol = llrr
        for kind, dim in (("sl4", 15), ("v", 9), ("gl16", 16)):
            poly = bundle_twisted_alexander(endo, sol.representation(kind))
            assert poly.min_exp == 0
            assert poly.max_exp == dim

    def test_all_solution_branches_agree(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        polys = [
            integer_round(bundle_twisted_alexander(endo, sol.representation("sl4")))
            for sol in build_solutions(endo)
        ]
        assert all(p == polys[0] for p in polys)

    def test_generic_route_agrees_cross_multiplied(self, rrl):
        endo, sol = rrl
        rep = sol.representation("v")
        pres, _, alpha = bundle_presentation(parse_monodromy("RRL"))
        ring = RingRep((rep[0], rep[1], rep[2]), alpha.exponents)
        generic = twisted_alexander(pres, ring)
        # columns for the fiber generators have identically zero
        # denominators, so the meridian column is the first usable one
        assert generic.column == 2
        bundle = bundle_twisted_alexander(endo, rep)
        assert equal_up_to_unit(
            generic.numerator, bundle * generic.denominator, tol=1e-6
        )

    def test_multiplicity_drop_from_adjoint_to_tensor_square(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            m_sl, _ = root_multiplicity(
                bundle_twisted_alexander(endo, sol.representation("sl4")), 1.0
            )
            m_gl, _ = root_multiplicity(
                bundle_twisted_alexander(endo, sol.representation("gl16")), 1.0
            )
            assert m_sl == 5
            assert m_gl == m_sl - 1

    def test_deflated_ratio_matches_monodromy_trace(self, llrr, rrl):
        for word, pair in (("LLRR", llrr), ("RRL", rrl)):
            endo, sol = pair
            trace = monodromy_trace(parse_monodromy(word))
            _, defl_sl = root_multiplicity(
                bundle_twisted_alexander(endo, sol.representation("sl4")), 1.0
            )
            _, defl_gl = root_multiplicity(
                bundle_twisted_alexander(endo, sol.representation("gl16")), 1.0
            )
            ratio = abs(complex(defl_gl.evaluate(1.0) / defl_sl.evaluate(1.0)))
            assert ratio == pytest.approx(abs(trace - 2), abs=1e-6)


class TestCocycleAction:
    def test_res_l_vanishes_for_trivial_rep(self):
        rep = {i: np.eye(3, dtype=complex) for i in range(3)}
        assert np.max(np.abs(res_l_map(rep))) == 0.0

    def test_kernel_dimensions(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            for kind, dim in (("sl4", 15), ("v", 9), ("gl16", 17)):
                action = monodromy_action(endo, sol.representation(kind))
                assert action.kernel_basis.shape == (
                    2 * sol.representation(kind)[0].shape[0],
                    dim,
                )

    def test_coboundaries_transform_by_meridian(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            rep = sol.representation("sl4")
            action = monodromy_action(endo, rep)
            assert coboundary_defect(action, rep) < 1e-7

    def test_coboundary_action_similar_to_meridian(self, llrr):
        endo, sol = llrr
        rep = sol.representation("sl4")
        action = monodromy_action(endo, rep)
        eye = np.eye(15)
        embed = np.vstack([eye - rep[0], eye - rep[1]]).astype(float)
        induced = np.linalg.pinv(embed) @ np.asarray(action.matrix, dtype=float) @ embed
        mer_inv = np.linalg.inv(np.asarray(rep[2], dtype=float))
        assert laurent_allclose(char_poly(induced), char_poly(mer_inv), tol=1e-6)

    def test_llrr_relative_char_poly(self, llrr):
        endo, sol = llrr
        action = monodromy_action(endo, sol.representation("sl4"))
        rounded = integer_round(relative_char_poly(action), tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == LLRR_SL4_TARGET

    def test_rrl_relative_char_poly(self, rrl):
        endo, sol = rrl
        action = monodromy_action(endo, sol.representation("sl4"))
        rounded = integer_round(relative_char_poly(action), tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == RRL_SL4_TARGET

    def test_relative_multiplicities(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            for kind, expected in (("sl4", 5), ("v", 3)):
                action = monodromy_action(endo, sol.representation(kind))
                mult, _ = root_multiplicity(relative_char_poly(action), 1.0)
                assert mult == expected


def both_routes(endo, rep):
    """route_agreement on freshly built Wada polynomial and cocycle action."""
    wada = bundle_twisted_alexander(endo, rep)
    return route_agreement(wada, monodromy_action(endo, rep), rep)


class TestRouteAgreement:
    @pytest.mark.parametrize("kind", ["sl4", "v"])
    def test_llrr(self, llrr, kind):
        endo, sol = llrr
        report = both_routes(endo, sol.representation(kind))
        assert report.match

    @pytest.mark.parametrize("kind", ["sl4", "v"])
    def test_rrl(self, rrl, kind):
        endo, sol = rrl
        report = both_routes(endo, sol.representation(kind))
        assert report.match

    def test_gl16_routes_also_agree(self, rrl):
        endo, sol = rrl
        report = both_routes(endo, sol.representation("gl16"))
        assert report.match

    def test_quotient_degrees_match(self, llrr):
        endo, sol = llrr
        report = both_routes(endo, sol.representation("sl4"))
        assert report.wada.span == 15
        assert report.action_quotient.span == 15

    def test_relation_defect_breaks_match(self, rrl):
        # the polynomials still agree; only the coboundary step fails
        endo, sol = rrl
        rep = dict(sol.representation("sl4"))
        rep[0] = rep[0] @ (np.eye(15) + 3e-7 * np.diag(np.arange(15) % 3 - 1.0))
        report = both_routes(endo, rep)
        assert report.coboundary_defect > 1e-6
        assert not report.match
        assert equal_up_to_unit(report.wada, report.action_quotient, tol=1e-6)
