"""End-to-end checks pinning the externally visible behavior of the package.

The integer polynomial targets for the two worked monodromy words were
frozen from independent runs of the determinant route and the cocycle
route before these tests were written.  Everything else here is either
an exact algebraic identity, a dimension count, or a determinism
guarantee, each at the tolerance the rest of the code promises.
"""

import contextlib
import io
import json
import random
import time

import numpy as np
import pytest

from helpers import (
    cross_residual,
    equal_up_to_unit,
    expand,
    laurent_allclose,
    necklace_words,
)
from ptbundle.alexander import (
    RingRep,
    bundle_twisted_alexander,
    coboundary_defect,
    fox_action,
    monodromy_action,
    relative_char_poly,
    res_l_map,
    twisted_alexander,
)
from ptbundle.certify import certify
from ptbundle.cli import run
from ptbundle.holonomy import (
    KILLING_SPLIT,
    LORENTZ_FORM,
    build_solution,
    fixed_vectors_dim,
    holonomy_residuals,
    longitude_centralizer_dims,
    rep_residuals,
    restrict_block,
    solve_traces,
)
from ptbundle.numeric import (
    LaurentPoly,
    integer_round,
    nullspace,
)
from ptbundle.presentation import (
    Presentation,
    monodromy_endo,
    monodromy_trace,
    parse_monodromy,
)
from ptbundle.words import (
    GroupRingElem,
    Word,
    fox_derivative,
    generator,
    parse_word,
    ring_one_minus,
)

BUNDLE_WORDS = ("LLRR", "RRL")


def markov(a, b, c):
    """A^2 + B^2 + C^2 - ABC, zero where the peripheral holonomy is parabolic."""
    return a * a + b * b + c * c - a * b * c


def certify_json(word):
    """Exit code and parsed JSON report of ``certify --format json -- word``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["certify", "--format", "json", "--", word])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def negate(coeffs):
    return [-c for c in coeffs]


T_MINUS_1 = [-1, 1]

# Frozen targets, stored factored so a typo in one factor breaks several
# assertions at once.  The degree-15 polynomials come from the 15-dim
# conjugation representation, the degree-16 one from the tensor square.
LLRR_SL4_INTS = expand(
    [-1],
    *(T_MINUS_1,) * 5,
    [1, -18, 1],
    [1, -18, 1],
    [1, -114, -17, -316, -17, -114, 1],
)
RRL_SL4_INTS = expand(
    [-1],
    *(T_MINUS_1,) * 5,
    [1, -18, 90, -18, 1],
    [1, -38, 15, -84, 15, -38, 1],
)
RRL_GL16_INTS = expand(
    *(T_MINUS_1,) * 4,
    [1, -4, 1],
    [1, -18, 90, -18, 1],
    [1, -38, 15, -84, 15, -38, 1],
)

# The same targets fully multiplied out, frozen independently of expand().
RRL_SL4_EXPANDED = [
    1, -61, 1079, -8307, 30977, -72077, 121983, -158731,
    158731, -121983, 72077, -30977, 8307, -1079, 61, -1,
]
RRL_GL16_EXPANDED = [
    1, -64, 1260, -11424, 53860, -150432, 290836, -427904, 487734,
    -427904, 290836, -150432, 53860, -11424, 1260, -64, 1,
]

KNOT_NAMES = ("a", "b")
TREFOIL = Presentation(KNOT_NAMES, (parse_word("aaBBB", KNOT_NAMES),))
TREFOIL_STANDARD = Presentation(KNOT_NAMES, (parse_word("abaBAB", KNOT_NAMES),))
TRIVIAL_REP = RingRep((np.eye(1, dtype=complex), np.eye(1, dtype=complex)), (3, 2))
TRIVIAL_STANDARD = RingRep((np.eye(1, dtype=complex), np.eye(1, dtype=complex)), (1, 1))


def heusener_rep(s, t):
    """Rank-3 trefoil representation with two free parameters."""
    omega = np.exp(2j * np.pi / 3)
    mat_a = np.array([[1, 0, 0], [s, -1, 0], [t, 0, -1]], dtype=complex)
    mat_b = np.array(
        [[1, omega - 1, omega**2 - 1], [0, omega, 0], [0, 0, omega**2]],
        dtype=complex,
    )
    return RingRep((mat_a, mat_b), (3, 2))


@pytest.fixture(scope="module")
def bundles():
    """Monodromy endomorphism and lifted holonomy for both worked words."""
    out = {}
    for word in BUNDLE_WORDS:
        spec = parse_monodromy(word)
        out[word] = (monodromy_endo(spec), build_solution(spec))
    return out


@pytest.fixture(scope="module")
def reports():
    return {word: certify(word) for word in BUNDLE_WORDS}


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """JSON output of the certify subcommand for both worked words."""
    base = tmp_path_factory.mktemp("certify")
    out = {}
    for word in BUNDLE_WORDS:
        path = base / f"{word}.json"
        code = run(["certify", word, "--format", "json", "--output", str(path)])
        assert code == 0
        out[word] = json.loads(path.read_text())
    return out


def test_target_factorizations_expand_to_frozen_lists():
    assert RRL_SL4_INTS == RRL_SL4_EXPANDED
    assert RRL_GL16_INTS == RRL_GL16_EXPANDED
    assert LLRR_SL4_INTS[0] == 1 and LLRR_SL4_INTS[-1] == -1
    assert len(LLRR_SL4_INTS) == 16


class TestIntegerPolynomialTargets:
    """The three pinned integer polynomials on the worked monodromies."""

    def test_llrr_adjoint_action_polynomial(self, tmp_path):
        # Full pipeline through the command line, timed end to end.
        out = tmp_path / "llrr_sl4.json"
        start = time.perf_counter()
        code = run(["action", "LLRR", "--reps", "sl4", "--format", "json",
                    "--output", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        data = json.loads(out.read_text())
        assert len(data["solutions"]) >= 1
        hits = 0
        for sol in data["solutions"]:
            ints = sol["representations"]["sl4"]["relative_char_poly_integer"]
            assert ints is not None
            assert ints in (LLRR_SL4_INTS, negate(LLRR_SL4_INTS))
            hits += 1
        assert hits >= 1

    def test_rrl_tensor_square_determinant_route(self, tmp_path):
        start = time.perf_counter()
        spec = parse_monodromy("RRL")
        endo, rep = monodromy_endo(spec), build_solution(spec).representation("gl16")
        poly = bundle_twisted_alexander(fox_action(endo, rep), rep)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        ints = integer_round(poly, tol=1e-6)
        assert ints is not None
        # dense() starts at the lowest nonzero exponent, so comparing
        # trimmed lists already ignores an overall power of t.
        assert ints in (RRL_GL16_INTS, negate(RRL_GL16_INTS))

    def test_rrl_adjoint_cocycle_route(self, bundles):
        endo, sol = bundles["RRL"]
        rep = sol.representation("sl4")
        action = monodromy_action(fox_action(endo, rep), rep)
        ints = integer_round(relative_char_poly(action), tol=1e-6)
        assert ints is not None
        assert ints in (RRL_SL4_INTS, negate(RRL_SL4_INTS))


class TestCertification:
    """Verdicts and certificate multiplicities through the command line."""

    def test_both_words_certify_rigid(self, cli_reports):
        for word in BUNDLE_WORDS:
            assert cli_reports[word]["verdict"] == "rigid-rel-cusp"

    def test_adjoint_multiplicity_five_fires_on_both(self, cli_reports):
        for word in BUNDLE_WORDS:
            for sol in cli_reports[word]["solutions"]:
                ev = sol["evidence"]["sl4"]
                assert ev["multiplicity"] == 5
                assert ev["fired"] and ev["decisive"]
                assert "sl4-multiplicity-5" in sol["certificates"]

    def test_rrl_tensor_square_multiplicity_four_fires(self, cli_reports):
        for sol in cli_reports["RRL"]["solutions"]:
            ev = sol["evidence"]["gl16"]
            assert ev["multiplicity"] == 4
            assert ev["fired"] and ev["decisive"]
            assert "gl16-multiplicity-4" in sol["certificates"]


class TestCoverage:
    """The holonomy is found and certified on every rotation and every short word."""

    @pytest.mark.parametrize("word", ["LLR", "LLRR", "LLLRR", "LLRLR"])
    def test_every_rotation_and_mirror_certifies(self, word):
        # each rotation is solved from scratch, not reduced to one
        # representative, so the solve must find the same bundle each time
        mirror = word.translate(str.maketrans("LR", "RL"))
        for unrotated in (word, mirror):
            for k in range(len(word)):
                rotated = unrotated[k:] + unrotated[:k]
                code, data = certify_json(rotated)
                assert code == 0, rotated
                (sol,) = data["solutions"]
                assert {label: ev["multiplicity"] for label, ev in sol["evidence"].items()} \
                    == {"sl4": 5, "v": 3, "gl16": 4}, rotated

    def test_short_words_never_abort(self):
        # the words that certified under the random multistart solver
        # still certify, and no word ends in a numerical failure
        certified_before = {"LR", "LLR", "LRR", "LLRR", "LLLLR", "LRRRR", "LLLLRR", "LLRRLR",
                            "LLRRRR", "LRRLRR", "LLLRRLR", "LLRLRLR", "LLRLRRR"}
        words = [w for n in range(2, 8) for w in necklace_words(n)]
        words += ["L^4R^4", "LLRLRRLR", "L^8R", "L^12R"]
        codes = {word: certify_json(word)[0] for word in words}
        assert certified_before <= set(words)
        assert {w: c for w, c in codes.items() if c not in (0, 4)} == {}
        assert {w: codes[w] for w in certified_before if codes[w] != 0} == {}


class TestTrefoilBaselines:
    """Known closed forms for the one-relator determinant route."""

    def test_parametrized_family_is_constant(self):
        rng = np.random.default_rng(20260823)
        quotients = []
        for _ in range(5):
            s = complex(rng.normal(), rng.normal())
            t = complex(rng.normal(), rng.normal())
            inv = twisted_alexander(TREFOIL, heusener_rep(s, t))
            q = inv.normalized_quotient()
            assert q is not None
            quotients.append(q)
        target = LaurentPoly({0: 1.0, 3: -1.0})
        for q in quotients:
            assert equal_up_to_unit(q, target, tol=1e-8)
        base = quotients[0]
        for q in quotients[1:]:
            assert laurent_allclose(q, base, tol=1e-8)

    def test_trivial_character_fraction(self):
        x_minus_1 = LaurentPoly({0: -1.0, 1: 1.0})
        quadratic = LaurentPoly({0: 1.0, 1: -1.0, 2: 1.0})
        inv = twisted_alexander(TREFOIL, TRIVIAL_REP)
        assert inv.quotient is None
        # numerator * (x - 1) agrees with (x^2 - x + 1) * denominator,
        # cross-multiplied so the non-exact division never happens.
        assert cross_residual(inv, quadratic, x_minus_1) <= 1e-10
        assert equal_up_to_unit(
            inv.numerator * x_minus_1, quadratic * inv.denominator, tol=1e-10
        )

    def test_trivial_character_presentation_independent(self):
        first = twisted_alexander(TREFOIL, TRIVIAL_REP)
        second = twisted_alexander(TREFOIL_STANDARD, TRIVIAL_STANDARD)
        lhs = first.numerator * second.denominator
        rhs = second.numerator * first.denominator
        assert equal_up_to_unit(lhs, rhs, tol=1e-10)


class TestRouteAgreement:
    """Determinant route versus cocycle route on both adjoint variants."""

    @pytest.mark.parametrize("word", BUNDLE_WORDS)
    @pytest.mark.parametrize("kind", ("sl4", "v"))
    def test_routes_match_up_to_unit(self, bundles, word, kind):
        endo, sol = bundles[word]
        rep = sol.representation(kind)
        matrix = fox_action(endo, rep)
        action = monodromy_action(matrix, rep)
        assert coboundary_defect(action, rep) <= 1e-6
        assert equal_up_to_unit(
            bundle_twisted_alexander(matrix, rep), relative_char_poly(action), tol=1e-6
        )


class TestMultiplicityStep:
    """Tensor-square multiplicity is one below the adjoint multiplicity."""

    def test_step_down_on_both_words(self, reports):
        for word in BUNDLE_WORDS:
            report = reports[word]
            m_sl = report.evidence["sl4"].multiplicity
            m_gl = report.evidence["gl16"].multiplicity
            assert m_gl == m_sl - 1

    def test_extra_factor_value_matches_trace(self, reports):
        for word in BUNDLE_WORDS:
            expected = abs(complex(monodromy_trace(parse_monodromy(word))) - 2.0)
            report = reports[word]
            ratio = abs(
                report.evidence["gl16"].deflated_at_one
                / report.evidence["sl4"].deflated_at_one
            )
            assert ratio == pytest.approx(expected, rel=1e-6)

    def test_rrl_extra_factor_value_is_two(self, reports):
        report = reports["RRL"]
        ratio = abs(
            report.evidence["gl16"].deflated_at_one
            / report.evidence["sl4"].deflated_at_one
        )
        assert ratio == pytest.approx(2.0, rel=1e-6)


def _random_word(rng, max_len, rank):
    n = rng.randrange(max_len + 1)
    return Word([(rng.randrange(rank), rng.choice([1, -1])) for _ in range(n)])


class TestAlgebraicProperties:
    """Identity suites the implementation must satisfy everywhere."""

    def test_fox_fundamental_identity_200_words(self):
        rng = random.Random(8231)
        for _ in range(200):
            w = _random_word(rng, max_len=12, rank=3)
            total = GroupRingElem.zero()
            for j in range(3):
                total = total + fox_derivative(w, j) * ring_one_minus(generator(j))
            assert total == ring_one_minus(w)

    def test_fox_product_rule_200_pairs(self):
        rng = random.Random(8232)
        for _ in range(200):
            u = _random_word(rng, max_len=10, rank=3)
            v = _random_word(rng, max_len=10, rank=3)
            for j in range(3):
                assert fox_derivative(u * v, j) == (
                    fox_derivative(u, j) + u * fox_derivative(v, j)
                )

    def test_lorentz_form_preserved(self, bundles):
        for word in BUNDLE_WORDS:
            _, sol = bundles[word]
            for g in sol.lorentz.values():
                defect = float(
                    np.max(np.abs(g.T @ LORENTZ_FORM @ g - LORENTZ_FORM))
                )
                assert defect <= 1e-9

    def test_markov_residual_of_accepted_triples(self, bundles):
        for word in BUNDLE_WORDS:
            _, sol = bundles[word]
            triples = solve_traces(parse_monodromy(word).letters)
            assert triples
            for triple in triples:
                assert abs(markov(*triple.as_tuple())) <= 1e-10
            assert abs(markov(*sol.triple.as_tuple())) <= 1e-10

    def test_bundle_relations_hold_in_every_representation(self, bundles):
        for word in BUNDLE_WORDS:
            endo, sol = bundles[word]
            diag = holonomy_residuals(sol.sl2, endo)
            assert diag["relation_a"] <= 1e-7
            assert diag["relation_b"] <= 1e-7
            lorentz_block = restrict_block(sol.adjoint, KILLING_SPLIT.skew)
            for images in (lorentz_block, *map(sol.representation, ("sl4", "v", "gl16"))):
                res = rep_residuals(images, endo)
                assert max(res.values()) <= 1e-7

    def test_longitude_restriction_kernel_dimensions(self, bundles):
        for word in BUNDLE_WORDS:
            _, sol = bundles[word]
            for kind, expected in (("sl4", 15), ("v", 9)):
                kernel = nullspace(res_l_map(sol.representation(kind)))
                assert kernel.shape[1] == expected

    def test_longitude_centralizer_dimensions(self, bundles):
        for word in BUNDLE_WORDS:
            _, sol = bundles[word]
            adjoint = sol.representation("sl4")
            assert longitude_centralizer_dims(adjoint) == (5, 2, 3)

    def test_no_invariant_vectors_in_adjoint(self, bundles):
        for word in BUNDLE_WORDS:
            _, sol = bundles[word]
            assert fixed_vectors_dim(sol.representation("sl4")) == 0


class TestDeterminism:
    def test_repeat_certify_runs_byte_identical(self, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            code = run([
                "certify", "LLRR", "--format", "json",
                "--output", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
