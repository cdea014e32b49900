"""Tests for trace polynomials, trace solving, and the representation tower."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbundle.holonomy import (
    LONGITUDE,
    LORENTZ_FORM,
    MARKOV,
    SL4_BASIS,
    TracePoly,
    TraceTriple,
    adjoint_rep,
    build_solutions,
    fiber_matrices,
    holonomy_from_triple,
    holonomy_residuals,
    killing_split,
    kronecker_rep,
    lorentz_holonomy,
    psl2_to_lorentz,
    rep_residuals,
    restrict_block,
    sl4_coordinates,
    solve_meridian,
    solve_traces,
    trace_polynomial,
    trace_system,
)
from ptbundle.numeric import matrix_det, nullspace
from ptbundle.presentation import monodromy_endo, parse_monodromy
from ptbundle.words import parse_word

A = TracePoly.variable(0)
B = TracePoly.variable(1)
C = TracePoly.variable(2)


def fiber_word(text):
    return parse_word(text, ("a", "b"))


# Closed-form solution of the trace system for the LLRR monodromy:
# the second equation forces B^2 = 2 - 2i on the geometric branch and
# the first gives A = CB/2.
def llrr_exact_triple():
    b = -cmath.sqrt(2 - 2j)
    root = cmath.sqrt(b * b - 2)
    return (-cmath.sqrt(2) * b / root, b, -2 * cmath.sqrt(2) / root)


def rrl_exact_trace_a():
    return -cmath.sqrt((5 - 1j * cmath.sqrt(7)) / 2)


def triple_distance(sol: TraceTriple, target) -> float:
    vec = np.array(sol.as_tuple())
    tgt = np.array(target)
    return min(
        float(np.max(np.abs(vec - tgt))), float(np.max(np.abs(vec.conj() - tgt)))
    )


def is_conjugate_representative(sol: TraceTriple, target) -> bool:
    vec = np.array(sol.as_tuple())
    tgt = np.array(target)
    return float(np.max(np.abs(vec.conj() - tgt))) < float(np.max(np.abs(vec - tgt)))


class TestTracePoly:
    def test_arithmetic(self):
        p = A * B - 2 * C + 1
        q = p - 1 + 2 * C
        assert q == A * B
        assert p * TracePoly.constant(0) == TracePoly({})
        assert not TracePoly({})
        assert (A - A) == TracePoly({})

    def test_evaluate(self):
        p = A * A + B * C - 3
        assert p.evaluate((2.0, 1.0, 5.0)) == pytest.approx(4 + 5 - 3)
        assert p.evaluate((1j, 2.0, 0.0)) == pytest.approx(-4)

    def test_partials(self):
        p = A * A * C - A * B - C
        assert p.partial(0) == 2 * A * C - B
        assert p.partial(1) == -A
        assert p.partial(2) == A * A - 1

    def test_markov_partials(self):
        assert MARKOV.partial(0) == 2 * A - B * C
        assert MARKOV.partial(2) == 2 * C - A * B


class TestTracePolynomial:
    def test_base_words(self):
        assert trace_polynomial(fiber_word("1")) == TracePoly.constant(2)
        assert trace_polynomial(fiber_word("a")) == A
        assert trace_polynomial(fiber_word("B")) == B
        assert trace_polynomial(fiber_word("ab")) == C
        assert trace_polynomial(fiber_word("ba")) == C

    def test_classical_identities(self):
        assert trace_polynomial(fiber_word("a^2")) == A * A - 2
        assert trace_polynomial(fiber_word("aB")) == A * B - C
        assert trace_polynomial(fiber_word("Ab")) == A * B - C
        assert trace_polynomial(fiber_word("ab^2")) == C * B - A
        assert trace_polynomial(fiber_word("ba^2")) == A * C - B
        assert trace_polynomial(fiber_word("a^3b")) == A * A * C - A * B - C
        assert trace_polynomial(fiber_word("aba^2")) == (A * C - B) * A - C

    def test_commutator_is_markov_minus_two(self):
        assert trace_polynomial(LONGITUDE) == MARKOV - 2

    def test_conjugation_invariance(self):
        w = fiber_word("a^2bAb^3")
        conj = fiber_word("bab") * w * fiber_word("bab").inverse()
        assert trace_polynomial(conj) == trace_polynomial(w)
        assert trace_polynomial(w.inverse()) == trace_polynomial(w)

    def test_monodromy_image_traces(self):
        llrr = monodromy_endo(parse_monodromy("LLRR"))
        assert trace_polynomial(llrr.image_a) == C * B - A
        assert trace_polynomial(llrr.image_b) == ((C * B - A) * B - C) * (
            C * B - A
        ) - B
        rrl = monodromy_endo(parse_monodromy("RRL"))
        assert trace_polynomial(rrl.image_a) == (A * C - B) * A - C
        assert trace_polynomial(rrl.image_b) == A * C - B

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_matrix_traces(self, seed):
        """The trace polynomial is an identity for every SL2 pair.

        Oracle: draw a random pair of unimodular matrices, a random word,
        and compare the polynomial evaluated at (tr a, tr b, tr ab) with
        the trace of the literal matrix product.
        """
        rng = np.random.default_rng(seed)

        def random_sl2():
            while True:
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                if abs(det) > 1e-3:
                    return m / np.sqrt(complex(det))

        mat_a, mat_b = random_sl2(), random_sl2()
        point = (
            complex(np.trace(mat_a)),
            complex(np.trace(mat_b)),
            complex(np.trace(mat_a @ mat_b)),
        )
        letters = rng.integers(0, 4, size=rng.integers(1, 9))
        word = parse_word("".join("abAB"[k] for k in letters), ("a", "b")) or None
        if word is None:
            return
        mats = {0: mat_a, 1: mat_b}
        prod = np.eye(2, dtype=complex)
        for gen, exp in word.letters:
            prod = prod @ (mats[gen] if exp > 0 else np.linalg.inv(mats[gen]))
        expected = complex(np.trace(prod))
        got = trace_polynomial(word).evaluate(point)
        assert abs(got - expected) < 1e-7 * max(1.0, abs(expected))


class TestTraceSystem:
    def test_llrr_equations(self):
        eqs = trace_system(monodromy_endo(parse_monodromy("LLRR")))
        assert eqs[0] == C * B - 2 * A
        assert eqs[1] == ((C * B - A) * B - C) * (C * B - A) - 2 * B
        assert eqs[2] == MARKOV

    def test_rrl_equations(self):
        eqs = trace_system(monodromy_endo(parse_monodromy("RRL")))
        assert eqs[0] == (A * C - B) * A - C - A
        assert eqs[1] == A * C - 2 * B
        assert eqs[2] == MARKOV


class TestSolveTraces:
    def test_llrr_finds_geometric_branch(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        sols = solve_traces(endo, seed=0)
        assert len(sols) >= 4
        target = llrr_exact_triple()
        assert min(triple_distance(s, target) for s in sols) < 1e-9
        eqs = trace_system(endo)
        for sol in sols:
            for eq in eqs:
                assert abs(eq.evaluate(sol.as_tuple())) < 1e-9

    def test_rrl_finds_geometric_branch(self):
        endo = monodromy_endo(parse_monodromy("RRL"))
        sols = solve_traces(endo, seed=0)
        assert sols
        assert any(
            min(
                abs(s.trace_a - rrl_exact_trace_a()),
                abs(s.trace_a - rrl_exact_trace_a().conjugate()),
            )
            < 1e-9
            for s in sols
        )

    def test_deterministic_for_fixed_seed(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        first = solve_traces(endo, seed=3)
        second = solve_traces(endo, seed=3)
        assert [s.as_tuple() for s in first] == [s.as_tuple() for s in second]

    def test_diverging_starts_raise_no_warning(self):
        # some LLLRRR starts overflow in TracePoly.evaluate before the
        # Newton loop discards them as non-finite
        endo = monodromy_endo(parse_monodromy("LLLRRR"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve_traces(endo, seed=0)

    def test_conjugates_collapsed(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        sols = solve_traces(endo, seed=0)
        for i, s in enumerate(sols):
            for t in sols[i + 1 :]:
                conj = np.array(s.as_tuple()).conj()
                assert np.max(np.abs(conj - np.array(t.as_tuple()))) > 1e-6


class TestFiberMatrices:
    def test_trace_coordinates_recovered(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        sol = solve_traces(endo, seed=0)[0]
        mat_a, mat_b = fiber_matrices(sol)
        assert np.trace(mat_a) == pytest.approx(sol.trace_a)
        assert np.trace(mat_b) == pytest.approx(sol.trace_b)
        assert np.trace(mat_a @ mat_b) == pytest.approx(sol.trace_ab)
        assert np.linalg.det(mat_a) == pytest.approx(1.0)
        assert np.linalg.det(mat_b) == pytest.approx(1.0)

    def test_rejects_vanishing_trace_ab(self):
        with pytest.raises(ValueError):
            fiber_matrices(TraceTriple(1.0, 1.0, 0.0))


class TestMeridian:
    def test_llrr_meridian_matches_known_matrix(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        sols = solve_traces(endo, seed=0)
        target = llrr_exact_triple()
        sol = min(sols, key=lambda s: triple_distance(s, target))
        assert triple_distance(sol, target) < 1e-9
        rep = holonomy_from_triple(sol, endo)
        expected = np.array([[-1.0, 1j], [0.0, -1.0]])
        if is_conjugate_representative(sol, target):
            expected = expected.conj()
        assert np.max(np.abs(rep.mat_x - expected)) < 1e-8

    def test_rrl_meridian_matches_known_matrix(self):
        endo = monodromy_endo(parse_monodromy("RRL"))
        sols = solve_traces(endo, seed=0)
        sol = min(
            sols,
            key=lambda s: min(
                abs(s.trace_a - rrl_exact_trace_a()),
                abs(s.trace_a - rrl_exact_trace_a().conjugate()),
            ),
        )
        rep = holonomy_from_triple(sol, endo)
        expected = np.array([[-1.0, -(1 + 1j * cmath.sqrt(7)) / 4], [0.0, -1.0]])
        if abs(sol.trace_a - rrl_exact_trace_a().conjugate()) < abs(
            sol.trace_a - rrl_exact_trace_a()
        ):
            expected = expected.conj()
        assert np.max(np.abs(rep.mat_x - expected)) < 1e-8

    def test_residuals_small(self):
        for name in ("LLRR", "RRL"):
            endo = monodromy_endo(parse_monodromy(name))
            for sol in solve_traces(endo, seed=0):
                rep = holonomy_from_triple(sol, endo)
                res = holonomy_residuals(rep, endo)
                assert max(res.values()) < 1e-9, (name, res)


class TestLorentz:
    def test_identity_maps_to_identity(self):
        out = psl2_to_lorentz(np.eye(2, dtype=complex))
        assert np.max(np.abs(out - np.eye(4))) < 1e-12

    def test_sign_is_quotiented(self):
        mat = np.array([[2.0, 1j], [0.5j, 1.0]])
        mat = mat / np.sqrt(complex(np.linalg.det(mat)))
        assert np.max(np.abs(psl2_to_lorentz(mat) - psl2_to_lorentz(-mat))) < 1e-12

    def test_multiplicative(self):
        rng = np.random.default_rng(11)

        def rand_sl2():
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            return m / np.sqrt(complex(np.linalg.det(m)))

        u, v = rand_sl2(), rand_sl2()
        left = psl2_to_lorentz(u @ v)
        right = psl2_to_lorentz(u) @ psl2_to_lorentz(v)
        assert np.max(np.abs(left - right)) < 1e-10

    def test_geometric_images_are_lorentz(self):
        endo = monodromy_endo(parse_monodromy("LLRR"))
        rep = holonomy_from_triple(solve_traces(endo, seed=0)[0], endo)
        lor = lorentz_holonomy(rep)
        for mat in lor.generator_images():
            assert np.max(np.abs(mat.imag)) == 0.0
            assert float(matrix_det(mat)) == pytest.approx(1.0)
            defect = mat.T @ LORENTZ_FORM @ mat - LORENTZ_FORM
            assert np.max(np.abs(defect)) < 1e-10

    def test_equivalent_to_reference_frame(self):
        """Same holonomy written in a different coordinate convention.

        These reference matrices for the LLRR bundle come from an
        independent computation that uses another identification of
        Minkowski space; a single invertible change of basis must carry
        all three of our generator images to them simultaneously.
        """
        s2 = np.sqrt(2.0)
        ref_a = (
            np.array(
                [
                    [-1, -1, 2, -2],
                    [3, -1, -3.5, 4.5],
                    [1, 0.5, 7 / 8, -1 / 8],
                    [3, -0.5, -31 / 8, 41 / 8],
                ]
            )
            / s2
        )
        ref_b = (
            np.array(
                [
                    [1, 1, -0.5, -0.5],
                    [1, 1, 2, -2],
                    [0.5, -2, -9 / 8, 15 / 8],
                    [-0.5, -2, -15 / 8, 25 / 8],
                ]
            )
            / s2
        )
        ref_x = np.array(
            [[1, 0, 1, 1], [0, 1, 0, 0], [-1, 0, 0.5, -0.5], [1, 0, 0.5, 1.5]],
            dtype=float,
        )
        endo = monodromy_endo(parse_monodromy("LLRR"))
        target = llrr_exact_triple()
        sol = min(solve_traces(endo, seed=0), key=lambda s: triple_distance(s, target))
        lor = lorentz_holonomy(holonomy_from_triple(sol, endo))
        mine = lor.generator_images()
        eye = np.eye(4)
        blocks = [
            np.kron(eye, mine[k].T) - np.kron(ref, eye)
            for k, ref in enumerate((ref_a, ref_b, ref_x))
        ]
        basis = nullspace(np.vstack(blocks), tol=1e-7)
        assert basis.shape[1] == 1
        change = basis[:, 0].reshape(4, 4).real
        assert abs(np.linalg.det(change)) > 1e-6
        for k, ref in enumerate((ref_a, ref_b, ref_x)):
            assert np.max(np.abs(change @ mine[k] - ref @ change)) < 1e-8


class TestSl4Basis:
    def test_basis_is_traceless_and_spans(self):
        assert len(SL4_BASIS) == 15
        stack = np.array([basis.reshape(-1) for basis in SL4_BASIS])
        assert np.linalg.matrix_rank(stack) == 15
        for basis in SL4_BASIS:
            assert abs(np.trace(basis)) == 0.0

    def test_coordinates_roundtrip(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((4, 4))
        mat -= np.trace(mat) / 4.0 * np.eye(4)
        coords = sl4_coordinates(mat)
        rebuilt = sum(c * basis for c, basis in zip(coords, SL4_BASIS))
        assert np.max(np.abs(rebuilt - mat)) < 1e-12

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            sl4_coordinates(np.eye(4))


@pytest.fixture(scope="module")
def llrr_solution():
    endo = monodromy_endo(parse_monodromy("LLRR"))
    sols = build_solutions(endo, seed=0)
    target = llrr_exact_triple()
    return endo, min(sols, key=lambda s: triple_distance(s.triple, target))


class TestDerivedReps:
    def test_adjoint_satisfies_relations(self, llrr_solution):
        endo, sol = llrr_solution
        adj = adjoint_rep(sol.lorentz)
        assert all(m.shape == (15, 15) for m in adj.values())
        res = rep_residuals(adj, endo)
        assert max(res.values()) < 1e-10
        for mat in adj.values():
            assert float(matrix_det(mat)) == pytest.approx(1.0, abs=1e-8)

    def test_adjoint_preserves_trace_form(self, llrr_solution):
        _, sol = llrr_solution
        adj = adjoint_rep(sol.lorentz)
        gram = np.zeros((15, 15))
        for p, bp in enumerate(SL4_BASIS):
            for q, bq in enumerate(SL4_BASIS):
                gram[p, q] = np.trace(bp @ bq)
        for mat in adj.values():
            assert np.max(np.abs(mat.T @ gram @ mat - gram)) < 1e-8

    def test_killing_split_dimensions(self):
        split = killing_split()
        assert split.skew.shape == (15, 6)
        assert split.complement.shape == (15, 9)
        for block in (split.skew, split.complement):
            eye = np.eye(block.shape[1])
            assert np.max(np.abs(block.T @ block - eye)) < 1e-12
        for col in split.skew.T:
            mat = sum(c * basis for c, basis in zip(col, SL4_BASIS))
            assert np.max(np.abs(mat.T @ LORENTZ_FORM + LORENTZ_FORM @ mat)) < 1e-10

    def test_restricted_blocks_are_invariant(self, llrr_solution):
        endo, sol = llrr_solution
        adj = adjoint_rep(sol.lorentz)
        split = killing_split()
        for block, dim in ((split.complement, 9), (split.skew, 6)):
            images = restrict_block(adj, block)
            assert all(m.shape == (dim, dim) for m in images.values())
            assert max(rep_residuals(images, endo).values()) < 1e-10

    def test_restrict_block_detects_leak(self, llrr_solution):
        _, sol = llrr_solution
        adj = adjoint_rep(sol.lorentz)
        bogus = np.linalg.qr(np.random.default_rng(2).standard_normal((15, 3)))[0]
        with pytest.raises(ArithmeticError):
            restrict_block(adj, bogus)

    def test_kronecker_satisfies_relations(self, llrr_solution):
        endo, sol = llrr_solution
        kron = kronecker_rep(sol.lorentz)
        assert all(m.shape == (16, 16) for m in kron.values())
        assert max(rep_residuals(kron, endo).values()) < 1e-10
        expected = np.kron(sol.lorentz.mat_a, sol.lorentz.mat_a)
        assert np.max(np.abs(kron[0] - expected)) == 0.0

    def test_fiber_action_has_no_invariants(self, llrr_solution):
        """The adjoint action of the fiber subgroup fixes only zero."""
        _, sol = llrr_solution
        adj = adjoint_rep(sol.lorentz)
        stacked = np.vstack([adj[0] - np.eye(15), adj[1] - np.eye(15)])
        assert nullspace(stacked, tol=1e-9).shape[1] == 0

    def test_solution_rep_dispatch(self, llrr_solution):
        _, sol = llrr_solution
        assert sol.representation("sl4")[0].shape == (15, 15)
        assert sol.representation("v")[2].shape == (9, 9)
        assert sol.representation("pso31")[1].shape == (6, 6)
        assert sol.representation("gl16")[0].shape == (16, 16)
        with pytest.raises(ValueError):
            sol.representation("spin")
