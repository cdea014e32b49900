"""Tests for the twisted Alexander routes and the cocycle action."""

import numpy as np
import pytest

from helpers import equal_up_to_unit, laurent_allclose
from ptbundle import alexander
from ptbundle.alexander import (
    RingRep,
    WadaInvariant,
    bundle_twisted_alexander,
    coboundary_defect,
    fox_action,
    monodromy_action,
    phi_map,
    relative_char_poly,
    res_l_map,
    twisted_alexander,
)
from ptbundle.certify import (
    ALL_REPS,
    INCONCLUSIVE,
    RIGID,
    _solution_report,
    certify,
    cross_checks,
)
from ptbundle.holonomy import (
    HolonomySolution,
    TraceTriple,
    build_solution,
    holonomy_from_triple,
    lorentz_holonomy,
)
from ptbundle.numeric import (
    EXT_COMPLEX,
    GeneratorImages,
    LaurentPoly,
    Tolerances,
    char_poly,
    integer_round,
    matrix_det,
    poly_quotient,
    quotient_interpolate,
    root_multiplicity,
    word_product,
)
from ptbundle.presentation import (
    AbelianizationMap,
    Presentation,
    bundle_presentation,
    monodromy_endo,
    monodromy_trace,
    parse_monodromy,
)
from ptbundle.words import (EndoF2, GroupRingElem, Word, fox_derivative, parse_word,
                            ring_one_minus)

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
    spec = parse_monodromy("LLRR")
    return monodromy_endo(spec), build_solution(spec)


@pytest.fixture(scope="module")
def rrl():
    spec = parse_monodromy("RRL")
    return monodromy_endo(spec), build_solution(spec)


def entry(image, i, j):
    """Entry (i, j) of the polynomial matrix {w: M_w} as a LaurentPoly."""
    return LaurentPoly({w: m[i, j] for w, m in image.items()})


def value_at(image, z):
    return sum(z**w * m for w, m in image.items())


class TestPhiMap:
    def test_one_minus_a_trefoil(self):
        out = phi_map(ring_one_minus(Word(((0, 1),))), TRIVIAL_REP)
        assert all(m.shape == (1, 1) for m in out.values())
        assert laurent_allclose(entry(out, 0, 0), ONE_MINUS_X3, tol=1e-12)

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
            entry(out, 0, 0), int_poly([-1, 0, -1, 0, -1]), tol=1e-12
        )

    def test_zero_element(self):
        out = phi_map(GroupRingElem({}), heusener_rep(0.3, 0.7))
        assert not any(np.any(m) for m in out.values())

    def test_multiplicative_on_group_elements(self):
        rep = heusener_rep(1.1 - 0.4j, 0.2 + 0.9j)
        u = parse_word("abA", KNOT_NAMES)
        v = parse_word("Bab", KNOT_NAMES)
        z = 0.7 + 0.1j
        lhs = phi_map(GroupRingElem.from_word(u * v), rep)
        prod = value_at(phi_map(GroupRingElem.from_word(u), rep), z) @ value_at(
            phi_map(GroupRingElem.from_word(v), rep), z
        )
        assert np.allclose(value_at(lhs, z), prod, atol=1e-12)


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

    def test_conjugated_relator_shifts_numerator(self):
        # a (aaBBB) a^-1: the numerator's exponents move, the quotient does not
        conjugated = Presentation(KNOT_NAMES, (parse_word("aaaBBBA", KNOT_NAMES),))
        inv = twisted_alexander(conjugated, heusener_rep(0.4 + 0.3j, -1.2 + 0.5j))
        assert inv.numerator.min_exp != inv.denominator.min_exp
        assert inv.quotient is not None
        assert inv.quotient.min_exp == 0
        assert equal_up_to_unit(inv.quotient, ONE_MINUS_X3, tol=1e-8)

    def test_presentation_without_relators(self):
        free = Presentation(("a",), ())
        inv = twisted_alexander(free, RingRep((2 * np.eye(1),), (1,)))
        assert inv.numerator == LaurentPoly.one()
        assert laurent_allclose(inv.denominator, int_poly([1, -2]), tol=1e-12)
        assert inv.quotient is None

    def test_relator_defect_rejected(self):
        mat_a, mat_b = heusener_rep(0.3, 0.7).matrices
        broken = RingRep((mat_a, 2 * mat_b), (3, 2))
        with pytest.raises(ValueError, match="relator 0"):
            twisted_alexander(TREFOIL, broken)

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

    def test_small_scalar_rep_accepted(self):
        # det = 1e-16, but the rank decision sees a full-rank matrix
        rep = RingRep((0.1 * np.eye(16),) * 2, (1, 0))
        assert rep.dimension == 16


class TestBundleRoute:
    def test_llrr_adjoint_matches_target(self, llrr):
        endo, sol = llrr
        rep = sol.representation("sl4")
        poly = bundle_twisted_alexander(fox_action(endo, rep), rep)
        rounded = integer_round(poly, tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == LLRR_SL4_TARGET

    def test_rrl_adjoint_matches_target(self, rrl):
        endo, sol = rrl
        rep = sol.representation("sl4")
        poly = bundle_twisted_alexander(fox_action(endo, rep), rep)
        assert equal_up_to_unit(poly, RRL_SL4_TARGET, tol=1e-6)

    def test_rrl_tensor_square_matches_target(self, rrl):
        endo, sol = rrl
        rep = sol.representation("gl16")
        poly = bundle_twisted_alexander(fox_action(endo, rep), rep)
        rounded = integer_round(poly, tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == RRL_GL16_TARGET

    def test_degree_equals_rep_dimension(self, llrr):
        endo, sol = llrr
        for kind, dim in (("sl4", 15), ("v", 9), ("gl16", 16)):
            rep = sol.representation(kind)
            poly = bundle_twisted_alexander(fox_action(endo, rep), rep)
            assert poly.min_exp == 0
            assert poly.max_exp == dim

    def test_all_solution_branches_agree(self):
        # the solve keeps one branch, the holonomy; its polynomial is the
        # same whether the images come from the lift or from certify
        spec = parse_monodromy("LLRR")
        endo = monodromy_endo(spec)
        reps = [build_solution(spec).representation("sl4"),
                certify(spec).solution.representation("sl4")]
        polys = [integer_round(bundle_twisted_alexander(fox_action(endo, rep), rep))
                 for rep in reps]
        assert polys[0] is not None and polys[1] == polys[0]

    def test_generic_route_agrees_cross_multiplied(self, llrr, rrl):
        for word, (endo, sol) in (("RRL", rrl), ("LLRR", llrr)):
            pres, _, alpha = bundle_presentation(parse_monodromy(word))
            for kind in ("sl4", "v", "gl16"):
                rep = sol.representation(kind)
                ring = RingRep((rep[0], rep[1], rep[2]), alpha.exponents)
                generic = twisted_alexander(pres, ring)
                # columns for the fiber generators have identically zero
                # denominators, so the meridian column is the first usable one
                assert generic.column == 2
                bundle = bundle_twisted_alexander(fox_action(endo, rep), rep)
                assert equal_up_to_unit(
                    generic.numerator, bundle * generic.denominator, tol=1e-6
                ), (word, kind)

    def test_multiplicity_drop_from_adjoint_to_tensor_square(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            sl4, gl16 = sol.representation("sl4"), sol.representation("gl16")
            m_sl, _ = root_multiplicity(
                bundle_twisted_alexander(fox_action(endo, sl4), sl4), 1.0
            )
            m_gl, _ = root_multiplicity(
                bundle_twisted_alexander(fox_action(endo, gl16), gl16), 1.0
            )
            assert m_sl == 5
            assert m_gl == m_sl - 1

    def test_deflated_ratio_matches_monodromy_trace(self, llrr, rrl):
        for word, pair in (("LLRR", llrr), ("RRL", rrl)):
            endo, sol = pair
            trace = monodromy_trace(parse_monodromy(word))
            sl4, gl16 = sol.representation("sl4"), sol.representation("gl16")
            _, defl_sl = root_multiplicity(
                bundle_twisted_alexander(fox_action(endo, sl4), sl4), 1.0
            )
            _, defl_gl = root_multiplicity(
                bundle_twisted_alexander(fox_action(endo, gl16), gl16), 1.0
            )
            ratio = abs(complex(defl_gl.evaluate(1.0) / defl_sl.evaluate(1.0)))
            assert ratio == pytest.approx(abs(trace - 2), abs=1e-6)


PINNED_WORDS = ("LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR")


@pytest.fixture(scope="module")
def pinned_reports():
    """The certify report of each pinned word."""
    return {word: certify(word) for word in PINNED_WORDS}


@pytest.fixture(scope="module")
def pinned_solutions(pinned_reports):
    """(endo, images by label, verdict) of the holonomy of each pinned word."""
    return [(monodromy_endo(parse_monodromy(word)),
             {label: report.solution.representation(label) for label in ("sl4", "v", "gl16")},
             report.verdict)
            for word, report in pinned_reports.items()]


@pytest.fixture(scope="module")
def rigid_solutions(pinned_solutions):
    """(endo, images by label) of every rigid solution of the pinned words."""
    return [(endo, images) for endo, images, verdict in pinned_solutions
            if verdict == RIGID]


def fox_blocks(endo, rep):
    """The fiber Fox derivatives of the two monodromy images, as matrices.

    Built term by term from ``fox_derivative`` and one word product per
    term, rows by image and columns by generator.
    """
    def fox_block(image, j):
        return sum((coeff * word_product(word, rep)
                    for word, coeff in fox_derivative(image, j).terms.items()),
                   np.zeros_like(rep[0]))

    return [[fox_block(image, j) for j in range(2)]
            for image in (endo.image_a, endo.image_b)]


def dense_meridian_quotient(endo, rep):
    """det(P - z (I2 (x) rep(x))) / det(I - z rep(x)), sampled by stacked LU.

    P is the block matrix of ``fox_blocks``; the dense meridian pencil is
    the form of the Wada quotient before the meridian is factored out.
    """
    p = np.block(fox_blocks(endo, rep)).astype(EXT_COMPLEX)
    mer = np.asarray(rep[2]).astype(EXT_COMPLEX)
    q = np.kron(np.eye(2), mer)
    n = mer.shape[0]
    return quotient_interpolate(
        lambda z: matrix_det(p - z[:, None, None] * q),
        lambda z: matrix_det(np.eye(n) - z[:, None, None] * mer),
        n,
    )


class TestFoxAction:
    def test_matches_fox_calculus_bit_for_bit(self, pinned_solutions):
        # the one-pass prefix products against one word product per Fox term
        for endo, images, _ in pinned_solutions:
            for rep in images.values():
                want = np.block([[rep.inverse(2) @ block for block in row]
                                 for row in fox_blocks(endo, rep)])
                got = fox_action(endo, rep)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_keeps_the_image_products(self, pinned_solutions):
        # the prefix ends on each monodromy image's product, and word_product,
        # which the relation residuals call, then reads it without
        # multiplying the image again
        class Counted(GeneratorImages):
            reads = 0

            def __getitem__(self, gen):
                self.reads += 1
                return super().__getitem__(gen)

        for endo, images, _ in pinned_solutions:
            for rep in images.values():
                inverses = {gen: rep.inverse(gen) for gen in rep}
                counted = Counted(dict(rep), inverses)
                fox_action(endo, counted)
                for image in (endo.image_a, endo.image_b):
                    reads = counted.reads
                    product = word_product(image, counted)
                    assert counted.reads == reads
                    want = word_product(image, GeneratorImages(dict(rep), inverses))
                    assert product.dtype == want.dtype
                    assert np.array_equal(product, want)

    def test_inverse_letters(self):
        # the pinned words' images have no inverse letters; with rep(x) = I
        # the action is P itself
        endo = EndoF2(parse_word("aBA", ("a", "b")), parse_word("B", ("a", "b")))
        rng = np.random.default_rng(3)
        rep = GeneratorImages([np.eye(2) + 0.1 * rng.standard_normal((2, 2))
                               for _ in range(2)] + [np.eye(2)])
        want = np.block(fox_blocks(endo, rep))
        assert np.array_equal(fox_action(endo, rep), want)


class TestFixedQuotient:
    def test_coboundary_map_is_kept(self, pinned_solutions):
        # the Wada route, H^0 and the defect check read one E per representation
        for _, images, _ in pinned_solutions:
            for rep in images.values():
                eye = np.eye(len(rep[0]))
                kept = alexander._coboundary_map(rep)
                assert alexander._coboundary_map(rep) is kept
                assert kept.dtype == rep[0].dtype
                assert np.array_equal(kept, np.vstack([eye - rep[0], eye - rep[1]]))

    def test_gl16_divisions_are_polydiv_quotients(self, pinned_solutions, monkeypatch):
        # the Wada route divides by the H^0 factor in gl16, where the
        # Lorentz form is a fixed vector; each division must give the bits
        # np.polydiv gave
        divisions = []

        def recorded(dividend, divisor):
            quotient = poly_quotient(dividend, divisor)
            divisions.append((dividend, divisor, quotient))
            return quotient

        monkeypatch.setattr(alexander, "poly_quotient", recorded)
        for endo, images, _ in pinned_solutions:
            bundle_twisted_alexander(fox_action(endo, images["gl16"]), images["gl16"])
        assert len(divisions) == len(pinned_solutions)
        for dividend, divisor, quotient in divisions:
            want = np.polydiv(dividend, divisor)[0]
            assert dividend.dtype == quotient.dtype == want.dtype == EXT_COMPLEX
            assert len(divisor) > 1 and len(quotient) == 17
            for part in (np.real, np.imag):
                assert np.array_equal(part(quotient), part(want))
                assert np.array_equal(np.signbit(part(quotient)), np.signbit(part(want)))


class TestPencilDeterminants:
    def test_wada_matches_dense_meridian_pencil(self, rigid_solutions):
        worst = 0.0
        for endo, images in rigid_solutions:
            for rep in images.values():
                wada = bundle_twisted_alexander(fox_action(endo, rep), rep)
                reference = dense_meridian_quotient(endo, rep)
                scale = max(wada.max_abs(), reference.max_abs())
                exps = set(wada.coeffs) | set(reference.coeffs)
                worst = max(worst, max(abs(wada.coeff(e) - reference.coeff(e))
                                       for e in exps) / scale)
        assert worst <= 1e-9, worst


class TestCocycleAction:
    def test_res_l_vanishes_for_trivial_rep(self):
        rep = {i: np.eye(3, dtype=complex) for i in range(3)}
        assert np.max(np.abs(res_l_map(rep))) == 0.0

    def test_kernel_dimensions(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            for kind, dim in (("sl4", 15), ("v", 9), ("gl16", 17)):
                rep = sol.representation(kind)
                action = monodromy_action(fox_action(endo, rep), rep)
                assert action.kernel_basis.shape == (2 * rep[0].shape[0], dim)

    def test_coboundaries_transform_by_meridian(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            rep = sol.representation("sl4")
            action = monodromy_action(fox_action(endo, rep), rep)
            assert coboundary_defect(action, rep) < 1e-7

    def test_coboundary_action_similar_to_meridian(self, llrr):
        endo, sol = llrr
        rep = sol.representation("sl4")
        action = monodromy_action(fox_action(endo, rep), rep)
        eye = np.eye(15)
        embed = np.vstack([eye - rep[0], eye - rep[1]]).astype(float)
        induced = np.linalg.pinv(embed) @ np.asarray(action.matrix, dtype=float) @ embed
        mer_inv = np.linalg.inv(np.asarray(rep[2], dtype=float))
        assert laurent_allclose(char_poly(induced), char_poly(mer_inv), tol=1e-6)

    def test_llrr_relative_char_poly(self, llrr):
        endo, sol = llrr
        rep = sol.representation("sl4")
        action = monodromy_action(fox_action(endo, rep), rep)
        rounded = integer_round(relative_char_poly(action), tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == LLRR_SL4_TARGET

    def test_rrl_relative_char_poly(self, rrl):
        endo, sol = rrl
        rep = sol.representation("sl4")
        action = monodromy_action(fox_action(endo, rep), rep)
        rounded = integer_round(relative_char_poly(action), tol=1e-6)
        assert rounded is not None
        assert int_poly(rounded) == RRL_SL4_TARGET

    def test_relative_multiplicities(self, llrr, rrl):
        for endo, sol in (llrr, rrl):
            for kind, expected in (("sl4", 5), ("v", 3)):
                rep = sol.representation(kind)
                action = monodromy_action(fox_action(endo, rep), rep)
                mult, _ = root_multiplicity(relative_char_poly(action), 1.0)
                assert mult == expected


def both_routes(endo, rep):
    """The Wada polynomial and the relative characteristic polynomial."""
    matrix = fox_action(endo, rep)
    action = monodromy_action(matrix, rep)
    return bundle_twisted_alexander(matrix, rep), relative_char_poly(action)


class TestRouteAgreement:
    @pytest.mark.parametrize("kind", ["sl4", "v"])
    def test_llrr(self, llrr, kind):
        endo, sol = llrr
        wada, relative = both_routes(endo, sol.representation(kind))
        assert equal_up_to_unit(wada, relative, tol=1e-6)

    @pytest.mark.parametrize("kind", ["sl4", "v"])
    def test_rrl(self, rrl, kind):
        endo, sol = rrl
        wada, relative = both_routes(endo, sol.representation(kind))
        assert equal_up_to_unit(wada, relative, tol=1e-6)

    def test_gl16_routes_also_agree(self, rrl):
        # the longitude-killing kernel of gl16 has one more dimension, on
        # which the action is trivial
        endo, sol = rrl
        wada, relative = both_routes(endo, sol.representation("gl16"))
        assert equal_up_to_unit(wada * LaurentPoly({0: -1.0, 1: 1.0}), relative, tol=1e-6)

    def test_quotient_degrees_match(self, llrr):
        endo, sol = llrr
        wada, relative = both_routes(endo, sol.representation("sl4"))
        assert wada.span == 15
        assert relative.span == 15

    def test_relation_defect_breaks_match(self, rrl):
        # images that break the bundle relations leave the coboundaries
        # not invariant, so Z^1/B^1 carries no induced map: the Wada route
        # refuses and names the defect
        endo, sol = rrl
        rep = dict(sol.representation("sl4"))
        rep[0] = rep[0] @ (np.eye(15) + 3e-7 * np.diag(np.arange(15) % 3 - 1.0))
        assert coboundary_defect(monodromy_action(fox_action(endo, rep), rep), rep) > 1e-6
        with pytest.raises(ArithmeticError, match="relative defect .* exceeds the root"):
            both_routes(endo, rep)

    def test_routes_agree_on_every_rigid_pinned_solution(self, pinned_reports):
        # the routes check compares v's polynomial on the longitude-killing
        # kernel with the one on Z^1/B^1; sl4 and gl16 derive from v
        rigid = [report for report in pinned_reports.values() if report.verdict == RIGID]
        assert len(rigid) == len(PINNED_WORDS)
        for report in rigid:
            differences = report.cross_checks["routes"].values
            assert set(differences) == {"v"}
            assert max(differences.values()) <= 1e-9, differences
        # the split keeps the Wada unit (-1)^16 of gl16, as the quotient of
        # determinants gave
        rrl = pinned_reports["RRL"]
        assert int_poly(integer_round(rrl.evidence["gl16"].polynomial)) == RRL_GL16_TARGET

    def test_llllr_geometric_candidate_fails_the_routes_check(self):
        # A fixed point of LLLLR's letter maps with real tr a and imaginary
        # tr b and tr ab, not the holonomy: its images break the bundle
        # relator at a relative 1e-4, though their relation residuals pass;
        # v's Wada polynomial is built, and the two polynomials of v's action
        # disagree, so the sl4 and gl16 evidence derived from v's counts for
        # nothing either
        spec, tols = parse_monodromy("LLLLR"), Tolerances()
        endo = monodromy_endo(spec)
        triple = TraceTriple(0.7044022574779152 + 0j, -0.6188503598659675j, 0.18293076933535973j)
        sl2 = holonomy_from_triple(triple, endo, spec.letters)
        solution = HolonomySolution(triple, sl2, lorentz_holonomy(sl2), endo)
        report = cross_checks(_solution_report(spec, solution, ALL_REPS, tols))
        assert report.geometric_candidate
        assert set(report.evidence) == set(ALL_REPS)
        assert not report.failures
        routes = report.cross_checks["routes"]
        assert not routes.ok and report.route_match is False
        assert set(routes.values) == {"v"} and routes.values["v"] > 1e-6
        assert report.verdict == INCONCLUSIVE
