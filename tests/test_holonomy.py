"""Tests for the trace equations, trace solving, and the representation tower."""

import cmath
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from ptbundle import holonomy
from ptbundle.holonomy import (
    KILLING_SPLIT,
    LORENTZ_FORM,
    MARKOV,
    SL4_BASIS,
    SL4_COORDS,
    SL4_VECS,
    CompiledTraceSystem,
    TracePoly,
    TraceTriple,
    adjoint_rep,
    build_solutions,
    holonomy_from_triple,
    holonomy_residuals,
    killing_split,
    kronecker_rep,
    lorentz_holonomy,
    psl2_to_lorentz,
    rep_residuals,
    restrict_block,
    sl4_coordinates,
    solve_traces,
    trace_system,
)
from ptbundle.numeric import (
    ESCAPE_RADIUS,
    EXT_COMPLEX,
    ORIGIN_RADIUS,
    GeneratorImages,
    Tolerances,
    matrix_det,
    newton_multistart,
    nullspace,
    word_product,
)
from ptbundle.presentation import monodromy_endo, parse_monodromy

A = TracePoly.variable(0)
B = TracePoly.variable(1)
C = TracePoly.variable(2)


def lift_inputs(word):
    """The automorphism and compiled trace system of a monodromy word."""
    spec = parse_monodromy(word)
    return monodromy_endo(spec), CompiledTraceSystem(trace_system(spec))


# Closed-form solution of the trace system for the LLRR monodromy:
# the second equation forces B^2 = 2 - 2i on the geometric branch and
# the first gives A = CB/2.
def llrr_exact_triple():
    b = -cmath.sqrt(2 - 2j)
    root = cmath.sqrt(b * b - 2)
    return (-cmath.sqrt(2) * b / root, b, -2 * cmath.sqrt(2) / root)


def rrl_exact_trace_a():
    return -cmath.sqrt((5 - 1j * cmath.sqrt(7)) / 2)


SIGN_CHANGES = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def orbit_distances(sol: TraceTriple, target) -> list[tuple[float, bool]]:
    """Distance from each of the 8 images of sol to target, and whether
    that image is conjugated."""
    tgt = np.array(target)
    out = []
    for signs in SIGN_CHANGES:
        vec = np.array(signs) * np.array(sol.as_tuple())
        for conj in (False, True):
            image = vec.conj() if conj else vec
            out.append((float(np.max(np.abs(image - tgt))), conj))
    return out


def triple_distance(sol: TraceTriple, target) -> float:
    return min(orbit_distances(sol, target))[0]


def is_conjugate_representative(sol: TraceTriple, target) -> bool:
    return min(orbit_distances(sol, target))[1]


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


class TestCompiledTraceSystem:
    @staticmethod
    def random_poly(rng, terms=40, low=0, degree=19, variables=3):
        """Random terms in the first ``variables`` coordinates."""
        keys = (tuple(int(e) for e in rng.integers(low, degree + 1, size=variables))
                + (0,) * (3 - variables) for _ in range(terms))
        return TracePoly({key: int(rng.integers(-60000, 60001)) for key in keys})

    @classmethod
    def random_system(cls, rng, **kwargs):
        return tuple(cls.random_poly(rng, **kwargs) for _ in range(3))

    @staticmethod
    def random_points(rng, count=60):
        scale = 10.0 ** rng.uniform(-2, 1, size=(count, 1))
        points = (rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))) * scale
        points[::7, 0] = 0.0                              # exact zero coordinates
        points[1::7, 1] = complex(-0.0, 0.0)
        points[2::7, 2] = rng.integers(-3, 4, size=points[2::7, 2].shape)
        points[3::7] *= 1e30                              # overflow scale
        return points

    @staticmethod
    def value_bytes(x):
        """Bytes of the real and imaginary parts, without the padding of an
        80-bit long double."""
        parts = np.stack([x.real, x.imag])
        width = 10 if np.finfo(parts.dtype).nmant == 63 else parts.dtype.itemsize
        return parts.view(np.uint8).reshape(parts.shape + (-1,))[..., :width].tobytes()

    @np.errstate(all="ignore")
    def test_matches_scalar_evaluate_bit_for_bit(self):
        rng = np.random.default_rng(5)
        overflowed = False
        systems = [
            (-A, -B, MARKOV),  # -A and -B sum to 0.0, not -0.0, where A or B is zero
            *[self.random_system(rng) for _ in range(4)],
            self.random_system(rng, terms=12, low=100, degree=120),  # numpy's general power
            # rows of very unequal widths; the first equation has no C, so a zero partial
            (self.random_poly(rng, terms=60, variables=2), A - 2, MARKOV),
        ]
        for eqs in systems:
            system = CompiledTraceSystem(eqs)
            points = self.random_points(rng)
            polys = list(eqs) + [eq.partial(i) for eq in eqs for i in range(3)]
            # the Newton starts in double, and the polish in extended precision
            for z in points, points.astype(EXT_COMPLEX):
                values, jac = system(z)
                assert values.dtype == jac.dtype == z.dtype
                got = np.concatenate([values, jac.reshape(len(z), 9)], axis=1)
                want = np.array([[p.evaluate(w) for p in polys] for w in z], dtype=z.dtype)
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite)
                assert self.value_bytes(got[finite]) == self.value_bytes(want[finite])
                overflowed |= not finite[3::7].all()
        assert overflowed
        assert not systems[-1][0].partial(2)

    @np.errstate(all="ignore")
    def test_array_power_is_scalar_power(self):
        # The power table relies on np.power running numpy's scalar z ** n.
        rng = np.random.default_rng(2)
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        z *= 10.0 ** rng.uniform(-3, 40, 40)
        z[:4] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        exponents = np.arange(121)
        got = np.power(z[:, None], exponents)
        want = np.array([[w ** int(n) for n in exponents] for w in z])
        assert not np.isfinite(want).all()
        assert got.tobytes() == want.tobytes()

    def test_empty_batch(self):
        _, system = lift_inputs("LLRR")
        values, jac = system(np.zeros((0, 3), dtype=complex))
        assert values.shape == (0, 3)
        assert jac.shape == (0, 3, 3)

    def test_system_without_roots_gives_none(self):
        # The Jacobian row of the constant 1 is zero, so every start stops
        # at once and the polish and residual run on an empty batch.
        system = CompiledTraceSystem((TracePoly.constant(1), A - B, B - C))
        assert newton_multistart(system, 3, seed=0) == []

    @np.errstate(all="ignore")
    def test_points_evaluate_independently_of_the_batch(self):
        rng = np.random.default_rng(8)
        system = CompiledTraceSystem(self.random_system(rng))
        assert 8192 // len(system._coeffs) < 64  # the batch spans several blocks
        points = self.random_points(rng, count=64)
        point = points[5].copy()
        alone = [a.tobytes() for a in system(point[None])]
        for index in range(64):
            batch = points.copy()
            batch[index] = point
            values, jac = system(batch)
            assert [values[index].tobytes(), jac[index].tobytes()] == alone


# Every hyperbolic L/R word of length 2 to 7, all rotations included (240),
# and the longer and negated words of the benchmark corpus.
LR_WORDS = ["".join(letters) for n in range(2, 8) for letters in itertools.product("LR", repeat=n)
            if "L" in letters and "R" in letters] + ["L^4R^4", "LLRLRRLR", "L^8R", "L^12R",
                                                     "-LLRR", "-RRL"]


@pytest.fixture(scope="module")
def lr_word_systems():
    out = {}
    for word in LR_WORDS:
        spec = parse_monodromy(word)
        out[word] = (monodromy_endo(spec), trace_system(spec))
    return out


def markov_points(rng, count):
    """Random complex A, B with C a root of C^2 - ABC + A^2 + B^2 = 0."""
    a, b = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
    roots = np.sqrt((a * b) ** 2 - 4 * (a * a + b * b))
    c = (a * b + np.where(rng.integers(2, size=count), roots, -roots)) / 2
    return np.stack([a, b, c], axis=1)


class TestTraceSystem:
    def test_llrr_equations(self):
        eqs = trace_system(parse_monodromy("LLRR"))
        assert eqs[0] == C * B - 2 * A
        assert eqs[1] == ((C * B - A) * B - C) * (C * B - A) - 2 * B
        assert eqs[2] == MARKOV

    def test_rrl_equations(self):
        eqs = trace_system(parse_monodromy("RRL"))
        assert eqs[0] == (A * C - B) * A - C - A
        assert eqs[1] == A * C - 2 * B
        assert eqs[2] == MARKOV

    @pytest.mark.parametrize("word", LR_WORDS)
    def test_term_order_pinned(self, word):
        # TracePoly equality ignores term order, but CompiledTraceSystem
        # sums in term order, so the order decides the bits of every Newton
        # iterate.
        eqs = trace_system(parse_monodromy(word))
        for eq in eqs[:2]:
            assert list(eq.terms) == sorted(eq.terms)
        assert eqs[2] is MARKOV
        assert list(MARKOV.terms) == [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]

    def test_composition_memory_bounded(self):
        # The composition holds three polynomials at a time, so the peak
        # stays near the size of the result (893 terms in tr phi(b)).
        tracemalloc.start()
        try:
            trace_system(parse_monodromy("LLRLRRLRR"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    def test_matches_matrix_traces(self, lr_word_systems):
        """At points of the Markov surface, tr phi(a) and tr phi(b) from the
        letter maps are the traces of the automorphism's image words,
        multiplied out over the model matrices that the lift and the Wada
        route use."""
        rng = np.random.default_rng(0)
        wrong = []
        for word, (endo, eqs) in lr_word_systems.items():
            for point in markov_points(rng, 5):
                fiber = GeneratorImages(holonomy._model_matrices(*point))
                for eq, var, image in ((eqs[0], A, endo.image_a), (eqs[1], B, endo.image_b)):
                    want = complex(np.trace(word_product(image, fiber)))
                    got = (eq + var).evaluate(point)
                    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        wrong.append((word, str(image), got, want))
        assert wrong == []

    def test_degree_at_most_word_length(self, lr_word_systems):
        """tr of a word of length n has total degree at most n."""
        over = []
        for word, (endo, eqs) in lr_word_systems.items():
            for image, trace in ((endo.image_a, eqs[0] + A), (endo.image_b, eqs[1] + B)):
                if max(map(sum, trace.terms)) > len(image):
                    over.append((word, str(image)))
        assert over == []


class RecordingSystem:
    """A trace system that keeps every batch of points and values it gives."""

    def __init__(self, system):
        self.system = system
        self.points, self.values = [], []

    def __call__(self, z):
        values, jac = self.system(z)
        self.points.append(z.copy())
        self.values.append(values)
        return values, jac


class TestSolveTraces:
    def test_llrr_finds_geometric_branch(self):
        _, system = lift_inputs("LLRR")
        sols = solve_traces(system, seed=0)
        assert sum(s.orbit_roots for s in sols) >= 4
        target = llrr_exact_triple()
        assert min(triple_distance(s, target) for s in sols) < 1e-9
        for sol in sols:
            for eq in system.equations:
                assert abs(eq.evaluate(sol.as_tuple())) < 1e-9

    def test_rrl_finds_geometric_branch(self):
        _, system = lift_inputs("RRL")
        sols = solve_traces(system, seed=0)
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
        _, system = lift_inputs("LLRR")
        first = solve_traces(system, seed=3)
        second = solve_traces(system, seed=3)
        assert [s.as_tuple() for s in first] == [s.as_tuple() for s in second]

    def test_diverging_starts_raise_no_warning(self):
        # A start at 1e200 overflows the degree-19 LLRLRRLR system at its
        # first evaluation, before the Newton loop discards it as non-finite.
        # The second start diverges and stops at ESCAPE_RADIUS before its
        # values overflow.
        system = RecordingSystem(lift_inputs("LLRLRRLR")[1])
        starts = iter([[1e200, 1, 1], [1.5, 0.5j, 1 - 1j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            newton_multistart(system, 3, starts=2,
                              sampler=lambda rng: np.array(next(starts), dtype=complex))
        stopped = sum(int((~np.isfinite(values).all(axis=1)).sum())
                      for values in system.values)
        assert stopped == 1

    def test_escaping_starts_stop_at_the_radius(self):
        # At seed 0 most LRLRLR starts escape to infinity; F stays finite
        # there up to |z| ~ 1e46, so without the radius they run all 80
        # iterations: 80 + 3 polish + 1 residual system calls.
        system = RecordingSystem(lift_inputs("LRLRLR")[1])
        solve_traces(system, seed=0)
        assert len(system.points) < 84
        assert max(np.max(np.abs(z), initial=0.0) for z in system.points) <= ESCAPE_RADIUS

    @pytest.mark.parametrize("word", ["LLRR", "LRLRLR", "LLRLLR", "LLRLRRLR"])
    def test_steps_stay_between_the_radii(self, word):
        # Each start is evaluated where it was drawn; every later point
        # lies in [ORIGIN_RADIUS, ESCAPE_RADIUS], though the starts of
        # these words run into the trivial character 0 or off to infinity.
        system = RecordingSystem(lift_inputs(word)[1])
        solve_traces(system, seed=0)
        reach = np.concatenate([np.abs(z).max(axis=1) for z in system.points[1:]])
        assert ORIGIN_RADIUS <= reach.min() and reach.max() <= ESCAPE_RADIUS

    def test_conjugates_collapsed(self):
        sols = solve_traces(lift_inputs("LLRR")[1], seed=0)
        for i, s in enumerate(sols):
            for t in sols[i + 1 :]:
                conj = np.array(s.as_tuple()).conj()
                assert np.max(np.abs(conj - np.array(t.as_tuple()))) > 1e-6

    @pytest.mark.parametrize("word", ["LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR"])
    def test_one_solution_per_orbit(self, word):
        sols = solve_traces(lift_inputs(word)[1], seed=0)
        for i, s in enumerate(sols):
            for t in sols[i + 1 :]:
                assert triple_distance(s, t.as_tuple()) > 1e-6


class TestFiberMatrices:
    def test_trace_coordinates_recovered(self):
        endo, system = lift_inputs("LLRR")
        sol = solve_traces(system, seed=0)[0]
        rep = holonomy_from_triple(sol, endo, system)
        mat_a, mat_b = (rep[k].astype(complex) for k in (0, 1))
        assert np.trace(mat_a) == pytest.approx(sol.trace_a)
        assert np.trace(mat_b) == pytest.approx(sol.trace_b)
        assert np.trace(mat_a @ mat_b) == pytest.approx(sol.trace_ab)
        assert np.linalg.det(mat_a) == pytest.approx(1.0)
        assert np.linalg.det(mat_b) == pytest.approx(1.0)

    def test_rejects_vanishing_trace_ab(self):
        endo, system = lift_inputs("LLRR")
        with pytest.raises(ValueError):
            holonomy_from_triple(TraceTriple(1.0, 1.0, 0.0), endo, system)


class TestMeridian:
    def test_llrr_meridian_matches_known_matrix(self):
        endo, system = lift_inputs("LLRR")
        sols = solve_traces(system, seed=0)
        target = llrr_exact_triple()
        sol = min(sols, key=lambda s: triple_distance(s, target))
        assert triple_distance(sol, target) < 1e-9
        rep = holonomy_from_triple(sol, endo, system)
        expected = np.array([[-1.0, 1j], [0.0, -1.0]])
        if is_conjugate_representative(sol, target):
            expected = expected.conj()
        assert np.max(np.abs(rep[2] - expected)) < 1e-8

    def test_rrl_meridian_matches_known_matrix(self):
        endo, system = lift_inputs("RRL")
        sols = solve_traces(system, seed=0)
        sol = min(
            sols,
            key=lambda s: min(
                abs(s.trace_a - rrl_exact_trace_a()),
                abs(s.trace_a - rrl_exact_trace_a().conjugate()),
            ),
        )
        rep = holonomy_from_triple(sol, endo, system)
        expected = np.array([[-1.0, -(1 + 1j * cmath.sqrt(7)) / 4], [0.0, -1.0]])
        if abs(sol.trace_a - rrl_exact_trace_a().conjugate()) < abs(
            sol.trace_a - rrl_exact_trace_a()
        ):
            expected = expected.conj()
        assert np.max(np.abs(rep[2] - expected)) < 1e-8

    @pytest.mark.parametrize("word,triple,message", [
        pytest.param("LLLR", None, "no meridian intertwiner found",
                     id="LLLR-no meridian intertwiner found"),
        # the trivial character, as Newton without ORIGIN_RADIUS reaches
        # it for LLLLRR at seed 0
        pytest.param("LLLLRR", (-2.5e-8 - 1.4e-8j, 0j, -1.4e-8 + 2.5e-8j),
                     "not unique across sign lifts",
                     id="LLLLRR-not unique across sign lifts"),
    ])
    def test_failure_names_the_cause(self, word, triple, message):
        with pytest.raises(ArithmeticError, match=message):
            if triple is None:
                build_solutions(parse_monodromy(word))
            else:
                holonomy_from_triple(TraceTriple(*triple), *lift_inputs(word))

    def test_llllrr_lifts_every_triple(self):
        solutions = build_solutions(parse_monodromy("LLLLRR"))
        assert len(solutions) == len(solve_traces(lift_inputs("LLLLRR")[1], seed=0)) > 0

    def test_exactly_representable_character_lifts(self):
        # the normal matrix of (0, 1, i) has an exactly zero pivot unless
        # the inverse iteration's shift survives long double rounding
        endo, system = lift_inputs("LLLRRRR")
        rep = holonomy_from_triple(TraceTriple(0j, 1 + 0j, 1j), endo, system)
        res = holonomy_residuals(rep, endo)
        parabolic = res.pop("meridian_parabolic")
        assert max(res.values()) < 1e-30, res
        # the lifted meridian is -I: central, so not parabolic
        assert parabolic > Tolerances().root, parabolic

    def test_residuals_small(self):
        for name in ("LLRR", "RRL"):
            endo, system = lift_inputs(name)
            for sol in solve_traces(system, seed=0):
                rep = holonomy_from_triple(sol, endo, system)
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
        endo, system = lift_inputs("LLRR")
        rep = holonomy_from_triple(solve_traces(system, seed=0)[0], endo, system)
        lor = lorentz_holonomy(rep)
        for mat in lor.values():
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
        endo, system = lift_inputs("LLRR")
        target = llrr_exact_triple()
        sol = min(solve_traces(system, seed=0), key=lambda s: triple_distance(s, target))
        lor = lorentz_holonomy(holonomy_from_triple(sol, endo, system))
        mine = lor
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

    def test_readout_inverts_basis_exactly(self):
        assert np.array_equal(SL4_COORDS @ SL4_VECS, np.eye(15))

    def test_traceless_check_is_per_matrix(self):
        # the small matrix's trace hides under the large one's scale
        big = np.diag([1e9, -1e9, 0.0, 0.0])
        small = np.diag([1e-3, 0.0, 0.0, 0.0])
        assert sl4_coordinates(big)[12] == 1e9
        with pytest.raises(ValueError, match="not traceless"):
            sl4_coordinates(np.array([big, small]))


@pytest.fixture(scope="module")
def llrr_solution():
    spec = parse_monodromy("LLRR")
    endo, sols = monodromy_endo(spec), build_solutions(spec, seed=0)
    target = llrr_exact_triple()
    return endo, min(sols, key=lambda s: triple_distance(s.triple, target))


PINNED_WORDS = ("LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR")

REFERENCE_HERMITIAN_BASIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[1, 0], [0, 1]], dtype=complex),
)


def reference_lorentz(mat):
    """The Lorentz image as a loop: M H M* for each Hermitian basis matrix H."""
    cols = []
    for basis in REFERENCE_HERMITIAN_BASIS:
        image = mat @ basis @ mat.conj().T
        cols.append([image[0, 1].real, image[0, 1].imag,
                     (image[0, 0] - image[1, 1]).real / 2.0,
                     (image[0, 0] + image[1, 1]).real / 2.0])
    return np.array(cols).T


def reference_sl4_basis():
    basis = []
    for i, j in itertools.permutations(range(4), 2):
        mat = np.zeros((4, 4))
        mat[i, j] = 1.0
        basis.append(mat)
    for k in range(3):
        mat = np.zeros((4, 4))
        mat[k, k], mat[k + 1, k + 1] = 1.0, -1.0
        basis.append(mat)
    return basis


def reference_adjoint(mat, inv):
    """The sl4 image as a loop: g E g^-1 for each basis matrix E, read entry by entry."""
    cols = []
    for basis in reference_sl4_basis():
        image = mat @ basis @ inv
        coords = [image[i, j] for i, j in itertools.permutations(range(4), 2)]
        running = 0.0
        for k in range(3):
            running += image[k, k]
            coords.append(running)
        cols.append(coords)
    return np.array(cols).T


@pytest.fixture(scope="module")
def pinned_solutions():
    per_word = [build_solutions(parse_monodromy(word), seed=0) for word in PINNED_WORDS]
    assert all(per_word)
    return [sol for sols in per_word for sol in sols]


class TestKroneckerReadouts:
    def test_images_match_per_basis_loops(self, pinned_solutions):
        for sol in pinned_solutions:
            lorentz = [reference_lorentz(mat) for mat in sol.sl2.values()]
            # a Lorentz inverse is the image of the SL2 inverse
            inverses = [reference_lorentz(sol.sl2.inverse(gen)) for gen in sol.sl2]
            adjoint = [reference_adjoint(mat, inv) for mat, inv in zip(lorentz, inverses)]
            expected = {
                "sl4": adjoint,
                "v": restrict_block(dict(enumerate(adjoint)), KILLING_SPLIT.complement).values(),
                "gl16": [np.kron(mat, mat) for mat in lorentz],
            }
            pairs = [(sol.lorentz, lorentz)]
            pairs += [(sol.representation(kind), refs) for kind, refs in expected.items()]
            for images, refs in pairs:
                for mat, ref in zip(images.values(), refs, strict=True):
                    assert mat.dtype == ref.dtype
                    assert np.array_equal(mat, ref)

    def test_every_layer_inverts_by_construction(self, pinned_solutions):
        # each layer's inverse is read off the layer below, not eliminated
        for sol in pinned_solutions:
            layers = [sol.sl2, sol.lorentz]
            layers += [sol.representation(kind) for kind in ("sl4", "v", "gl16")]
            for images in layers:
                for gen, mat in images.items():
                    inverse = images.inverse(gen)
                    assert inverse.dtype == mat.dtype
                    scale = np.max(np.abs(mat)) * np.max(np.abs(inverse))
                    defect = np.max(np.abs(mat @ inverse - np.eye(len(mat))))
                    assert defect <= 1e-17 * scale

    def test_adjoint_rejects_a_wrong_inverse(self, llrr_solution):
        class TransposedInverse(GeneratorImages):
            def inverse(self, gen):
                return self[gen].T  # a Lorentz inverse is J g^T J

        _, sol = llrr_solution
        with pytest.raises(ValueError, match="not traceless"):
            adjoint_rep(TransposedInverse(sol.lorentz))

    def test_lorentz_image_must_preserve_the_form(self):
        with pytest.raises(ArithmeticError, match="J-orthogonality"):
            psl2_to_lorentz(np.diag([2.0, 1.0]).astype(complex))


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

    def test_killing_split_is_exact_in_long_double(self):
        gram = np.array([[np.trace(bp @ bq) for bq in SL4_BASIS] for bp in SL4_BASIS])
        for block in (KILLING_SPLIT.skew, KILLING_SPLIT.complement):
            assert block.dtype == np.longdouble
            assert np.max(np.abs(block.T @ block - np.eye(block.shape[1]))) < 1e-18
        overlap = KILLING_SPLIT.skew.T @ gram @ KILLING_SPLIT.complement
        assert np.max(np.abs(overlap)) < 1e-18

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
        expected = np.kron(sol.lorentz[0], sol.lorentz[0])
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
