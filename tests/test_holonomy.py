"""Tests for the letter maps, the holonomy solve, and the representation tower."""

import cmath
import contextlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from ptbundle import holonomy
from ptbundle.holonomy import (
    FLAT_STARTS,
    KILLING_SPLIT,
    LORENTZ_FORM,
    SL4_BASIS,
    SL4_COORDS,
    SL4_VECS,
    TraceTriple,
    _FIXED_ROWS,
    _PICKS,
    _PRODUCT_PAIRS,
    _ShootingLayout,
    _THIRD_ROW,
    _kron2,
    _markov,
    _shooting_system,
    adjoint_rep,
    build_solution,
    holonomy_from_triple,
    holonomy_residuals,
    killing_split,
    kronecker_rep,
    layer_shapes,
    letter_map,
    lorentz_holonomy,
    psl2_to_lorentz,
    rep_residuals,
    restrict_block,
    sl4_coordinates,
    solve_traces,
)
from ptbundle.numeric import (
    EXT_COMPLEX,
    GeneratorImages,
    Tolerances,
    matrix_det,
    nullspace,
    word_product,
)
from ptbundle.presentation import monodromy_endo, parse_monodromy


def lift_inputs(word):
    """The automorphism and the L/R letters of a monodromy word."""
    spec = parse_monodromy(word)
    return monodromy_endo(spec), spec.letters


def compose(letters, point):
    """The letter maps applied to one character in reading order."""
    image = tuple(point)
    for letter in letters:
        image, _ = letter_map(letter, image, np.eye(3))
    return np.array(image)


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


def is_l_of(letters):
    return np.array([letter == "L" for letter in letters])


def layout_of(letters):
    return _ShootingLayout(is_l_of(letters))


def value_bytes(x):
    """Bytes of the real and imaginary parts, without the padding of an
    80-bit long double."""
    parts = np.stack([x.real, x.imag])
    width = 10 if np.finfo(parts.dtype).nmant == 63 else parts.dtype.itemsize
    return parts.view(np.uint8).reshape(parts.shape + (-1,))[..., :width].tobytes()


def layered_system(x, letters):
    """The shooting equations of one start x (n, 3), assembled one layer at
    a time from ``letter_map`` and ``_markov``."""
    n = len(letters)
    values = np.zeros(4 * n, dtype=x.dtype)
    jac = np.zeros((4 * n, 3 * n), dtype=x.dtype)
    for i, letter in enumerate(letters):
        rows, after = slice(3 * i, 3 * i + 3), (i + 1) % n
        point = tuple(x[i, :, None])
        image, tangent = letter_map(letter, point, np.eye(3))
        values[rows] = np.concatenate(image) - x[after]
        jac[rows, 3 * i:3 * i + 3] = np.stack(np.broadcast_arrays(*tangent))
        jac[rows, 3 * after:3 * after + 3] -= np.eye(3)
        markov, gradient = _markov(*point)
        values[3 * n + i] = markov[0]
        jac[3 * n + i, 3 * i:3 * i + 3] = gradient[0]
    return values, jac


# The solve as it stood when the four flat starts advanced as one batch,
# kept as the oracle of the per-start solve: the shooting equations of a
# (k, n, 3) stack, and Gauss-Newton on the stack, dropping each start as
# it stops, with each start solved alone when the batched step raises.
def batched_shooting_system(x, layout):
    """Values (k, 4n) and Jacobians (k, 4n, 3n) of a stack of starts."""
    k, n, _ = x.shape
    first, second, p, s = x.reshape(k, 3 * n)[:, layout.picks].transpose(2, 0, 1)
    c = x[..., 2]
    third = c[..., None] * layout.u + p[..., None] * layout.v - layout.w
    if n == 1:
        third = third - layout.v
    pairs = x[..., _PRODUCT_PAIRS]
    products = pairs[..., :3] * pairs[..., 3:]
    squares = x * x
    values = np.empty((k, 4 * n), dtype=x.dtype)
    np.subtract(squares[..., 0] + squares[..., 1] + squares[..., 2], products[..., 2] * c,
                out=values[:, 3 * n:])
    defects = values[:, :3 * n].reshape(k, n, 3)
    following = x[:, layout.after]
    np.subtract(first, following[..., 0], out=defects[..., 0])
    np.subtract(second, following[..., 1], out=defects[..., 1])
    np.subtract(p * c - s, following[..., 2], out=defects[..., 2])
    jac = np.empty((k, 4 * n, 3 * n), dtype=x.dtype)
    jac[:] = layout.template
    flat = jac.reshape(k, 12 * n * n)
    flat[:, layout.third_at] = third.reshape(k, 3 * n)
    flat[:, layout.markov_at] = (2 * x - products).reshape(k, 3 * n)
    return values, jac


def batched_step(normal, rhs, jac, values):
    """One start's step, solved alone, or its least-squares step."""
    try:
        return np.linalg.solve(normal, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, -values, rcond=None)[0]


@np.errstate(over="ignore", invalid="ignore")
def batched_solve_traces(letters):
    is_l = np.array([letter == "L" for letter in letters])
    layout = _ShootingLayout(is_l)
    x = np.repeat(FLAT_STARTS[:, None], len(letters), axis=1)
    residual = np.full(len(x), np.inf)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for _ in range(holonomy._MAX_ITER):
        current = x[active]
        values, jac = batched_shooting_system(current, layout)
        size = np.abs(values).max(axis=1)
        finite = np.isfinite(size)
        residual[active] = np.where(finite, size, np.inf)
        done = finite & (size <= 1e-13 * np.maximum(1.0, np.abs(current).max(axis=(1, 2))) ** 2)
        converged[active[done]] = True
        live = ~done & finite
        if not live.all():
            active, current, values, jac = active[live], current[live], values[live], jac[live]
        if not active.size:
            break
        adjoint = jac.conj().transpose(0, 2, 1)
        normal, rhs = adjoint @ jac, -(adjoint @ values[..., None])
        try:
            steps = np.linalg.solve(normal, rhs)[..., 0]
        except np.linalg.LinAlgError:
            steps = np.array([batched_step(*start) for start in zip(normal, rhs, jac, values)])
        x[active] = current + steps.reshape(current.shape)
    for start in np.flatnonzero(converged):
        shapes = layer_shapes(x[start], is_l)
        margin = shapes.imag / np.maximum(1.0, np.abs(shapes))
        tol = holonomy._HALF_PLANE_TOL
        if np.all(margin > tol) or np.all(margin < -tol):
            chi = x[start] if margin[0] > 0 else x[start].conj()
            shapes = shapes if margin[0] > 0 else shapes.conj()
            return [TraceTriple(*map(complex, chi[0]), shapes=tuple(map(complex, shapes)))]
    raise ArithmeticError(
        f"no start reached a positively oriented fixed point of the letter maps "
        f"({converged.sum()} of {len(x)} converged, none with its shapes in one "
        f"half-plane; best residual {residual.min():.3g})")

class TestTracePoly:
    """The trace polynomials the solve is made of: the letter maps and the
    Markov polynomial."""

    def test_arithmetic(self):
        # integer characters stay integers, exactly, and both letter maps
        # keep the Markov polynomial, so Markov triples go to Markov triples
        for point in [(3, 3, 3), (3, 6, 3), (2, -1, 5)]:
            for letter in "LR":
                image, _ = letter_map(letter, point, np.eye(3))
                assert all(type(v) is int for v in image)
                assert _markov(*image)[0] == _markov(*point)[0]
        assert _markov(3, 3, 3)[0] == _markov(3, 6, 3)[0] == 0
        # an extended-precision character stays extended
        image, rows = letter_map("R", np.array([1, 2j, 3], dtype=EXT_COMPLEX), np.eye(3))
        assert {np.asarray(v).dtype for v in (*image, *rows[2:])} == {np.dtype(EXT_COMPLEX)}

    def test_evaluate(self):
        assert letter_map("L", (2.0, 1.0, 5.0), np.eye(3))[0] == (5.0, 1.0, 3.0)
        assert letter_map("R", (2.0, 1.0, 5.0), np.eye(3))[0] == (2.0, 5.0, 9.0)
        assert letter_map("L", (1j, 2.0, 0.0), np.eye(3))[0] == pytest.approx((0.0, 2.0, -1j))
        # a batch of characters, one per column
        points = np.array([[2.0, 1j], [1.0, 2.0], [5.0, 0.0]])
        image, _ = letter_map("R", points, (0, 0, 0))
        assert np.array_equal(np.array(image), [[2.0, 1j], [5.0, 0.0], [9.0, -2.0]])

    def test_partials(self):
        a, b, c = 2 + 1j, -3.0, 0.5j
        _, rows = letter_map("L", (a, b, c), np.eye(3))
        assert np.array_equal(np.array(rows), [[0, 0, 1], [0, 1, 0], [-1, c, b]])
        _, rows = letter_map("R", (a, b, c), np.eye(3))
        assert np.array_equal(np.array(rows), [[1, 0, 0], [0, 0, 1], [c, -1, a]])
        # a tangent goes through a composition by the chain rule
        point, tangent, product = (a, b, c), np.eye(3), np.eye(3)
        for letter in "LLRLR":
            _, step = letter_map(letter, point, np.eye(3))
            point, tangent = letter_map(letter, point, tangent)
            product = np.array(step) @ product
        assert np.allclose(np.array(tangent), product, rtol=1e-14, atol=0)

    def test_markov_partials(self):
        value, gradient = _markov(3, 3, 3)
        assert value == 0 and np.array_equal(gradient, [-3, -3, -3])
        rng = np.random.default_rng(4)
        a, b, c = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        _, gradient = _markov(a, b, c)
        assert np.array_equal(gradient, np.stack([2 * a - b * c, 2 * b - a * c, 2 * c - a * b],
                                                 axis=-1))
        for k in range(3):
            step = np.eye(3)[k][:, None] * 1e-7
            difference = (_markov(*(np.array([a, b, c]) + step))[0]
                          - _markov(*(np.array([a, b, c]) - step))[0]) / 2e-7
            assert np.allclose(difference, gradient[:, k], atol=1e-6)


class TestCompiledTraceSystem:
    """The shooting equations of one start, ``_shooting_system``."""

    @staticmethod
    def random_layers(rng, count, n):
        scale = 10.0 ** rng.uniform(-2, 1, size=(count, 1, 1))
        x = (rng.standard_normal((count, n, 3)) + 1j * rng.standard_normal((count, n, 3))) * scale
        x[::7, :, 0] = 0.0                                # exact zero coordinates
        x[1::7, :, 1] = complex(-0.0, 0.0)
        x[2::7, :, 2] = rng.integers(-3, 4, size=x[2::7, :, 2].shape)
        x[3::7] *= 1e110                                  # ABC overflows in double
        return x

    @np.errstate(all="ignore")
    def test_matches_scalar_evaluate_bit_for_bit(self):
        rng = np.random.default_rng(5)
        overflowed = False
        for letters in ("L", "R", "LR", "LLRR", "LRLLRLRR", "L" * 12 + "R"):
            x = self.random_layers(rng, 30, len(letters))
            # the solve in double, and the same equations in extended precision
            for z in x, x.astype(EXT_COMPLEX):
                for k in range(len(z)):
                    values, jac = _shooting_system(z[k], layout_of(letters))
                    assert values.dtype == jac.dtype == z.dtype
                    want = layered_system(z[k], letters)
                    for got, expected in zip((values, jac), want):
                        finite = np.isfinite(expected)
                        assert np.array_equal(np.isfinite(got), finite)
                        assert value_bytes(got[finite]) == value_bytes(expected[finite])
                    overflowed |= not np.isfinite(want[0]).all()
        assert overflowed

    def test_array_power_is_scalar_power(self):
        # layer_shapes squares the ratios of a whole stack at once, as the
        # batched solve kept here calls it; each start's shapes, and so its
        # half-plane test, have the bits they have when its layers are
        # squared alone
        rng = np.random.default_rng(2)
        letters = "LLRLRRLRR"
        x = rng.standard_normal((64, 9, 3)) + 1j * rng.standard_normal((64, 9, 3))
        x *= 10.0 ** rng.uniform(-3, 3, (64, 9, 1))
        x[:2, 0, 1:] = [[3.0, 1.5], [2.0, -2j]]           # B / C real and imaginary
        shapes = layer_shapes(x, is_l_of(letters))
        assert shapes[0, 0].imag == shapes[1, 0].imag == 0
        for k in range(len(x)):
            assert layer_shapes(x[k], is_l_of(letters)).tobytes() == shapes[k].tobytes()

    def test_system_without_roots_gives_none(self, monkeypatch):
        # The trivial character 0 solves the shooting equations of every
        # word, and starts there converge at once; its shapes are 0/0, so it
        # is no holonomy, and the solve gives no triple and no warning.
        monkeypatch.setattr(holonomy, "FLAT_STARTS", np.zeros((2, 3), dtype=complex))
        with pytest.raises(ArithmeticError, match=r"\(2 of 2 converged, none with its shapes "
                           r"in one half-plane; best residual 0\)"):
            solve_traces("LLRR")

    @staticmethod
    def reference_system(x, is_l):
        """The shooting equations with the word's layout rebuilt at every call,
        as ``_shooting_system`` built it before ``_ShootingLayout``."""
        k, n, _ = x.shape
        layers, letter = np.arange(n), is_l.astype(np.intp)
        after = (layers + 1) % n
        first, second, p, s = x[:, layers[:, None], _PICKS[letter]].transpose(2, 0, 1)
        c = x[..., 2]
        images = np.stack([first, second, p * c - s], axis=-1)
        u, v, w = _THIRD_ROW[letter].transpose(1, 0, 2)
        third = c[..., None] * u + p[..., None] * v - w
        if n == 1:
            third = third - v
        fixed = np.zeros((n, 3, n, 3))
        fixed[layers, :2, layers] = _FIXED_ROWS[letter]
        fixed[layers, :, after] -= np.eye(3)
        products = x[..., [1, 0, 0]] * x[..., [2, 2, 1]]
        squares = x * x
        markov = squares[..., 0] + squares[..., 1] + squares[..., 2] - products[..., 2] * c
        jac = np.zeros((k, 4 * n, n, 3), dtype=x.dtype)
        jac[:, :3 * n] = fixed.reshape(3 * n, n, 3)
        jac[:, 3 * layers + 2, layers] = third
        jac[:, 3 * n + layers, layers] = 2 * x - products
        values = np.concatenate([(images - x[:, after]).reshape(k, 3 * n), markov], axis=1)
        return values, jac.reshape(k, 4 * n, 3 * n)

    @np.errstate(all="ignore")
    @pytest.mark.parametrize("letters", ["L", "R", "LR", "RL", "LLRR", "LLLRLRR", "L" * 12 + "R"])
    def test_layout_built_once_keeps_the_bits(self, letters):
        # One layout serves every iteration of every start of a solve; each
        # start gets the bits of the equations built whole.
        rng = np.random.default_rng(len(letters))
        layout = layout_of(letters)
        x = self.random_layers(rng, 5, len(letters))
        x[0] = FLAT_STARTS[0]
        for dtype in (complex, EXT_COMPLEX):
            batch = x.astype(dtype)
            built = self.reference_system(batch, is_l_of(letters))
            for k in range(len(batch)):
                got = _shooting_system(batch[k], layout)
                want = [a[k] for a in built]
                assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
                assert [value_bytes(a) for a in got] == [value_bytes(a) for a in want]

    @np.errstate(all="ignore")
    def test_points_evaluate_independently_of_the_batch(self):
        # a start evaluated alone gets the bits it got at any place in the
        # stack of the batched solve
        rng = np.random.default_rng(8)
        letters = "LLRLRRLR"
        x = self.random_layers(rng, 64, len(letters))
        point = x[5].copy()
        alone = [a.tobytes() for a in _shooting_system(point, layout_of(letters))]
        for index in range(64):
            batch = x.copy()
            batch[index] = point
            values, jac = batched_shooting_system(batch, layout_of(letters))
            assert [values[index].tobytes(), jac[index].tobytes()] == alone


# Every hyperbolic L/R word of length 2 to 7, all rotations included (240),
# and the longer and negated words of the benchmark corpus.
LR_WORDS = ["".join(letters) for n in range(2, 8) for letters in itertools.product("LR", repeat=n)
            if "L" in letters and "R" in letters] + ["L^4R^4", "LLRLRRLR", "L^8R", "L^12R",
                                                     "-LLRR", "-RRL"]


def markov_points(rng, count):
    """Random complex A, B with C a root of C^2 - ABC + A^2 + B^2 = 0."""
    a, b = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
    roots = np.sqrt((a * b) ** 2 - 4 * (a * a + b * b))
    c = (a * b + np.where(rng.integers(2, size=count), roots, -roots)) / 2
    return np.stack([a, b, c], axis=1)


class TestTraceSystem:
    def test_llrr_equations(self):
        rng = np.random.default_rng(1)
        for a, b, c in rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)):
            phi_a, phi_b, _ = compose("LLRR", (a, b, c))
            assert phi_a == pytest.approx(c * b - a)
            assert phi_b == pytest.approx(((c * b - a) * b - c) * (c * b - a) - b)

    def test_rrl_equations(self):
        rng = np.random.default_rng(2)
        for a, b, c in rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)):
            phi_a, phi_b, _ = compose("RRL", (a, b, c))
            assert phi_a == pytest.approx((a * c - b) * a - c)
            assert phi_b == pytest.approx(a * c - b)

    @pytest.mark.parametrize("word", LR_WORDS)
    def test_term_order_pinned(self, word):
        # _shooting_system sums every row in a fixed order, so the order
        # decides the bits of every Gauss-Newton iterate: at the flat starts
        # and at random layers, its rows are those built one layer at a time,
        # bit for bit.
        letters = parse_monodromy(word).letters
        rng = np.random.default_rng(len(letters))
        size = (2, len(letters), 3)
        x = np.concatenate([np.repeat(FLAT_STARTS[:, None], len(letters), axis=1),
                            rng.standard_normal(size) + 1j * rng.standard_normal(size)])
        for k in range(len(x)):
            values, jac = _shooting_system(x[k], layout_of(letters))
            want_values, want_jac = layered_system(x[k], letters)
            assert values.tobytes() == want_values.tobytes()
            assert jac.tobytes() == want_jac.tobytes()

    def test_composition_memory_bounded(self):
        # The solve holds one start's dense (4n, 3n) Jacobian at a time, so
        # its peak grows with the square of the word's length; for nine
        # letters it stays near 0.1 MB.
        tracemalloc.start()
        try:
            solve_traces("LLRLRRLRR")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_degree_at_most_word_length(self):
        """tr of a word of length n has total degree at most n.  Along a
        line t v the composed letter maps are polynomials in t, of degree at
        most 2^(letters); their coefficients above the lengths of phi(a) and
        phi(b) vanish."""
        rng = np.random.default_rng(6)
        over = []
        for word in LR_WORDS:
            endo, letters = lift_inputs(word)
            count = 2 ** (len(letters) + 1)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            image = tuple(v[:, None] * np.exp(2j * np.pi * np.arange(count) / count))
            for letter in letters:
                image, _ = letter_map(letter, image, (0, 0, 0))
            for values, word_image in zip(image[:2], (endo.image_a, endo.image_b)):
                coeffs = np.abs(np.fft.fft(values)) / count
                degree = np.flatnonzero(coeffs > 1e-9 * np.abs(values).max()).max()
                if degree > len(word_image):
                    over.append((word, str(word_image), degree))
        assert over == []

    def test_letter_jacobians_match_differences(self):
        rng = np.random.default_rng(3)
        point = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for letter in "LR":
            _, rows = letter_map(letter, point, np.eye(3))
            for k in range(3):
                step = np.eye(3)[k] * 1e-7
                plus, _ = letter_map(letter, point + step, np.eye(3))
                minus, _ = letter_map(letter, point - step, np.eye(3))
                difference = (np.array(plus) - np.array(minus)) / 2e-7
                assert np.allclose(difference, np.array(rows)[:, k], atol=1e-7)

    def test_matches_matrix_traces(self):
        """At points of the Markov surface, the composed letter maps give the
        traces of phi(a), phi(b) and phi(ab), multiplied out from the
        automorphism's image words over the model matrices that the lift
        and the Wada route use."""
        rng = np.random.default_rng(0)
        wrong = []
        for word in LR_WORDS:
            endo, letters = lift_inputs(word)
            for point in markov_points(rng, 5):
                fiber = GeneratorImages(holonomy._model_matrices(*point))
                images = [word_product(image, fiber) for image in (endo.image_a, endo.image_b)]
                want = [complex(np.trace(m)) for m in (*images, images[0] @ images[1])]
                got = compose(letters, point)
                if np.max(np.abs(got - want)) > 1e-9 * max(1.0, np.max(np.abs(want))):
                    wrong.append((word, got, want))
        assert wrong == []


def mirror(word):
    """The L <-> R mirror of a word."""
    return word.translate(str.maketrans("LR", "RL"))


def record_evaluations(monkeypatch):
    """The layers of every start the solve evaluates, in order."""
    evaluations = []
    system = holonomy._shooting_system

    def record(x, layout):
        evaluations.append(x.copy())
        return system(x, layout)

    monkeypatch.setattr(holonomy, "_shooting_system", record)
    return evaluations


def runs_by_start(evaluations, starts):
    """The evaluations split into the runs of the starts, in order: a run
    begins where every layer is at the next start."""
    runs = []
    for x in evaluations:
        if len(runs) < len(starts) and np.array_equal(x, np.broadcast_to(starts[len(runs)],
                                                                         x.shape)):
            runs.append([])
        runs[-1].append(x)
    return runs


class TestSolveTraces:
    def test_llrr_finds_geometric_branch(self):
        (sol,) = solve_traces("LLRR")
        assert triple_distance(sol, llrr_exact_triple()) < 1e-9
        assert np.max(np.abs(compose("LLRR", sol.as_tuple()) - sol.as_tuple())) < 1e-12

    def test_rrl_finds_geometric_branch(self):
        # up to the sign change and conjugation that give the same character
        (sol,) = solve_traces("RRL")
        exact = rrl_exact_trace_a()
        assert min(abs(sign * sol.trace_a - target) for sign in (1, -1)
                   for target in (exact, exact.conjugate())) < 1e-9

    def test_conjugates_collapsed(self):
        # starts 0 and 1 are conjugate; the representative kept has Im z > 0
        (sol,) = solve_traces("LLRR")
        assert all(z.imag > 0 for z in sol.shapes)
        is_l = np.array([letter == "L" for letter in "LLRR"])
        chi = np.array(sol.as_tuple())
        layers = [chi := compose(letter, chi) for letter in "LLR"]
        shapes = layer_shapes(np.array([sol.as_tuple(), *layers]), is_l)
        assert np.allclose(shapes, sol.shapes, rtol=1e-12)

    @pytest.mark.parametrize("word", ["LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR"])
    def test_one_solution_per_orbit(self, word):
        (sol,) = solve_traces(word)
        assert len(sol.shapes) == len(word)
        assert sol.shape_margin > 0.1

    def test_figure_eight_shapes_are_regular(self):
        (sol,) = solve_traces("LR")
        assert np.max(np.abs(np.array(sol.shapes) - cmath.exp(1j * cmath.pi / 3))) < 1e-12
        assert np.max(np.abs(np.array(sol.as_tuple()) - FLAT_STARTS[1])) < 1e-12

    @pytest.mark.parametrize("word", ["LLR", "LLRR", "LLLRR", "LLRLR"])
    def test_rotations_shift_the_shapes(self, word):
        # each rotation is solved from scratch, and of the mirror too; the
        # base layer of rotation k is layer k of the unrotated word
        for unrotated in (word, mirror(word)):
            (base,) = solve_traces(unrotated)
            for k in range(1, len(word)):
                (sol,) = solve_traces(unrotated[k:] + unrotated[:k])
                expected = np.roll(np.array(base.shapes), -k)
                assert np.max(np.abs(np.array(sol.shapes) - expected)) < 1e-9, (unrotated, k)

    def test_no_positively_oriented_start_is_a_numerical_failure(self):
        # from the flat starts all four starts of L^15R converge to
        # characters whose shapes do not lie in one half-plane
        with pytest.raises(ArithmeticError, match=r"no start reached a positively oriented "
                           r"fixed point .*\(4 of 4 converged.*best residual"):
            solve_traces("L" * 15 + "R")

    def test_deterministic_for_fixed_seed(self):
        # the flat starts are the solve's only seed
        first, second = solve_traces("LLRLRRLR"), solve_traces("LLRLRRLR")
        assert first == second

    def test_diverging_starts_raise_no_warning(self, monkeypatch):
        # A start at 1e200 overflows the Markov rows at its first
        # evaluation, and so does the convergence bound max(1, max|chi|)^2;
        # it stops there unconverged, and the next start runs.
        evaluations = record_evaluations(monkeypatch)
        starts = np.array([[1e200, 1, 1], FLAT_STARTS[0]])
        monkeypatch.setattr(holonomy, "FLAT_STARTS", starts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (sol,) = solve_traces("LLRLRRLR")
            runs = runs_by_start(evaluations, starts)
            assert len(runs) == 2 and len(runs[0]) == 1
            monkeypatch.setattr(holonomy, "FLAT_STARTS", FLAT_STARTS[:1])
            assert solve_traces("LLRLRRLR") == [sol]
            monkeypatch.setattr(holonomy, "FLAT_STARTS", np.array([[1e200, 1, 1]], dtype=complex))
            with pytest.raises(ArithmeticError, match=r"\(0 of 1 converged.*best residual inf\)"):
                solve_traces("LLRLRRLR")

    def test_escaping_starts_stop_at_the_radius(self, monkeypatch):
        # A start at 1e20 escapes to 1e107 in one step, and stops one step
        # later, where its equations are no longer finite: that is its only
        # radius.  The flat start after it converges unchanged.
        evaluations = record_evaluations(monkeypatch)
        starts = np.array([[1e20] * 3, FLAT_STARTS[0]], dtype=complex)
        monkeypatch.setattr(holonomy, "FLAT_STARTS", starts)
        (sol,) = solve_traces("LRLRLR")
        escaping, flat = runs_by_start(evaluations, starts)
        reach = [np.abs(x).max() for x in escaping]
        assert len(reach) == 3 and reach[0] == 1e20
        assert reach[1] > 1e100 and np.isnan(reach[2])
        assert np.abs(np.array(flat)).max() < 10
        monkeypatch.setattr(holonomy, "FLAT_STARTS", FLAT_STARTS[:1])
        assert solve_traces("LRLRLR") == [sol]

    @pytest.mark.parametrize("word", ["LLRR", "LRLRLR", "LLRLLR", "LLRLRRLR"])
    def test_steps_stay_between_the_radii(self, word, monkeypatch):
        # Newton from random starts runs into the trivial character 0 or
        # off to infinity on these words; from each flat start, run alone,
        # every layer of every iterate keeps max|chi_i| between 1 and 10,
        # and the start converges (stops finite) well inside the
        # iteration cap.
        for start in FLAT_STARTS:
            with monkeypatch.context() as patch:
                evaluations = record_evaluations(patch)
                patch.setattr(holonomy, "FLAT_STARTS", start[None])
                with contextlib.suppress(ArithmeticError):  # not every start is the holonomy
                    solve_traces(word)
            reach = np.concatenate([np.abs(x).max(axis=1) for x in evaluations])
            assert 1.0 <= reach.min() and reach.max() <= 10.0
            assert len(evaluations) <= 10 < holonomy._MAX_ITER


def solve_or_message(solve, letters):
    """The one triple of a solve, or the message of its ArithmeticError."""
    try:
        (sol,) = solve(letters)
    except ArithmeticError as err:
        return str(err)
    return sol


def solution_bytes(sol):
    return np.array([*sol.as_tuple(), *sol.shapes, sol.shape_margin]).tobytes()


class TestAgainstTheBatchedSolve:
    """The per-start solve gives what the batched solve gave, bit for bit."""

    @staticmethod
    def mismatches(words):
        out = []
        for word in words:
            letters = parse_monodromy(word).letters
            got = solve_or_message(solve_traces, letters)
            want = solve_or_message(batched_solve_traces, letters)
            if isinstance(got, str) or isinstance(want, str):
                if got != want:
                    out.append((word, got, want))
            elif solution_bytes(got) != solution_bytes(want):
                out.append((word, got, want))
        return out

    def test_corpus_words(self):
        # every rotation of the corpus words of length 2 to 7, and the rest
        assert self.mismatches(LR_WORDS) == []

    def test_random_words(self):
        rng = np.random.default_rng(7)
        words = ["".join(rng.choice(["L", "R"], size=n)) for n in rng.integers(8, 21, size=60)]
        assert self.mismatches(words) == []

    @pytest.mark.parametrize("word", ["L^15R", "R^15L", "L^15R^15"])
    def test_long_runs_fail_with_the_same_message(self, word):
        letters = parse_monodromy(word).letters
        got = solve_or_message(solve_traces, letters)
        assert got.startswith("no start reached a positively oriented fixed point")
        assert got == solve_or_message(batched_solve_traces, letters)

    @pytest.mark.parametrize("word, starts", [("LLRR", 1), ("L^12R", 3), ("L^15R", 4)])
    def test_stops_at_the_first_start_that_reaches_it(self, word, starts, monkeypatch):
        # start 0 is the holonomy of LLRR, and the later starts are never
        # evaluated; L^12R, the one corpus word start 0 misses, is reached
        # by start 2; no start reaches the holonomy of L^15R
        evaluations = record_evaluations(monkeypatch)
        with contextlib.suppress(ArithmeticError):
            solve_traces(parse_monodromy(word).letters)
        runs = runs_by_start(evaluations, FLAT_STARTS)
        assert len(runs) == starts
        assert all(1 < len(run) <= holonomy._MAX_ITER for run in runs)

class TestFiberMatrices:
    def test_trace_coordinates_recovered(self):
        endo, letters = lift_inputs("LLRR")
        (sol,) = solve_traces(letters)
        rep = holonomy_from_triple(sol, endo, letters)
        mat_a, mat_b = (rep[k].astype(complex) for k in (0, 1))
        assert np.trace(mat_a) == pytest.approx(sol.trace_a)
        assert np.trace(mat_b) == pytest.approx(sol.trace_b)
        assert np.trace(mat_a @ mat_b) == pytest.approx(sol.trace_ab)
        assert np.linalg.det(mat_a) == pytest.approx(1.0)
        assert np.linalg.det(mat_b) == pytest.approx(1.0)

    def test_rejects_vanishing_trace_ab(self):
        endo, letters = lift_inputs("LLRR")
        with pytest.raises(ValueError):
            holonomy_from_triple(TraceTriple(1.0, 1.0, 0.0), endo, letters)


class TestMeridian:
    def test_llrr_meridian_matches_known_matrix(self):
        endo, letters = lift_inputs("LLRR")
        (sol,) = solve_traces(letters)
        target = llrr_exact_triple()
        assert triple_distance(sol, target) < 1e-9
        rep = holonomy_from_triple(sol, endo, letters)
        expected = np.array([[-1.0, 1j], [0.0, -1.0]])
        if is_conjugate_representative(sol, target):
            expected = expected.conj()
        assert np.max(np.abs(rep[2] - expected)) < 1e-8

    def test_rrl_meridian_matches_known_matrix(self):
        endo, letters = lift_inputs("RRL")
        (sol,) = solve_traces(letters)
        rep = holonomy_from_triple(sol, endo, letters)
        expected = np.array([[-1.0, -(1 + 1j * cmath.sqrt(7)) / 4], [0.0, -1.0]])
        exact = rrl_exact_trace_a()
        if min(abs(sol.trace_a + exact.conjugate()), abs(sol.trace_a - exact.conjugate())) < min(
            abs(sol.trace_a + exact), abs(sol.trace_a - exact)
        ):
            expected = expected.conj()
        assert np.max(np.abs(rep[2] - expected)) < 1e-8

    @pytest.mark.parametrize("word,triple,message", [
        # a root of tr phi(a) = A, tr phi(b) = B and the Markov relation
        # with tr phi(ab) != C, so no fixed point of the letter maps
        pytest.param("LLLR", ((1 - 1j * 7 ** 0.5) / 2, -1 + 0j, -1 + 0j),
                     "no meridian intertwiner found",
                     id="LLLR-no meridian intertwiner found"),
        # near the trivial character, which the polish drives to C = 0
        pytest.param("LLLLRR", (-2.5e-8 - 1.4e-8j, 0j, -1.4e-8 + 2.5e-8j),
                     "polished trace of ab vanishes",
                     id="LLLLRR-polished trace of ab vanishes"),
    ])
    def test_failure_names_the_cause(self, word, triple, message):
        with pytest.raises(ArithmeticError, match=message):
            holonomy_from_triple(TraceTriple(*triple), *lift_inputs(word))

    def test_llllrr_lifts_every_triple(self):
        solution = build_solution(parse_monodromy("LLLLRR"))
        assert solution.triple == solve_traces("LLLLRR")[0]

    @pytest.mark.parametrize("word", ["LRL", "RLR"])
    def test_polish_is_regular_on_the_markov_c_curve(self, word):
        # the holonomy of LRL has 2C = AB, where the Jacobian of
        # (F_A, F_B, markov) is singular; the four-row polish still lifts it
        endo, letters = lift_inputs(word)
        (sol,) = solve_traces(letters)
        a, b, c = sol.as_tuple()
        assert abs(2 * c - a * b) < 1e-12
        res = holonomy_residuals(holonomy_from_triple(sol, endo, letters), endo)
        assert max(res.values()) < 1e-9, res

    def test_exactly_representable_character_lifts(self):
        # (0, -1, i) is a fixed point of the letter maps of LLLRRRR, and its
        # normal matrix has an exactly zero pivot unless the inverse
        # iteration's shift survives long double rounding
        endo, letters = lift_inputs("LLLRRRR")
        triple = (0j, -1 + 0j, 1j)
        assert np.array_equal(compose(letters, triple), triple)
        rep = holonomy_from_triple(TraceTriple(*triple), endo, letters)
        res = holonomy_residuals(rep, endo)
        parabolic = res.pop("meridian_parabolic")
        assert max(res.values()) < 1e-30, res
        # the lifted meridian is -I: central, so not parabolic
        assert parabolic > Tolerances().root, parabolic

    @staticmethod
    def reference_systems(triple, endo, letters):
        """The four sign patterns' intertwining systems, one np.kron pair per block."""
        mats = holonomy._model_matrices(*holonomy._polish_triple(triple, letters))
        fiber = holonomy.sl2_images(mats)
        targets = [word_product(image, fiber) for image in (endo.image_a, endo.image_b)]
        eye = np.eye(2, dtype=EXT_COMPLEX)
        return [np.vstack([np.kron(eye, mat.T) - np.kron(sign * target, eye)
                           for mat, target, sign in zip(mats, targets, signs)])
                for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]

    @pytest.mark.parametrize("word", ["LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR", "LRL",
                                      "LLLRRRR"])
    def test_intertwining_systems_pinned(self, word, monkeypatch):
        # The lift hands nullspace, in one call, the stack of the systems the
        # per-pattern np.kron construction gives, bit for bit and signed
        # zeros included, so every later step of the lift keeps its bits.
        # LRL's holonomy lies on 2C = AB; LLLRRRR is lifted at its exactly
        # representable character (0, -1, i), whose systems hold exact zeros.
        endo, letters = lift_inputs(word)
        if word == "LLLRRRR":
            triple = TraceTriple(0j, -1 + 0j, 1j)
        else:
            (triple,) = solve_traces(letters)
        seen = []
        original = holonomy.nullspace

        def record(stacked, **kwargs):
            seen.append(stacked.copy())
            return original(stacked, **kwargs)

        monkeypatch.setattr(holonomy, "nullspace", record)
        holonomy_from_triple(triple, endo, letters)
        want = np.stack(self.reference_systems(triple, endo, letters))
        assert [(got.dtype, got.shape) for got in seen] == [(want.dtype, (4, 8, 4))]
        assert value_bytes(seen[0]) == value_bytes(want)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_central_meridian_follows_null_tol(self, sign):
        # X = sI + 1e-7 N with N nilpotent has tr X = 2s exactly: it reads
        # as parabolic, and as central (so not parabolic) only when null_tol
        # takes 1e-7 for zero
        endo, letters = lift_inputs("LLRR")
        (sol,) = solve_traces(letters)
        rep = holonomy_from_triple(sol, endo, letters)
        mat_x = sign * np.eye(2, dtype=EXT_COMPLEX) + 1e-7 * np.array([[0, 1], [0, 0]])
        near = holonomy.sl2_images([rep[0], rep[1], mat_x])
        assert holonomy_residuals(near, endo)["meridian_parabolic"] == 0.0
        assert holonomy_residuals(near, endo, null_tol=1e-6)["meridian_parabolic"] == 1.0

    def test_residuals_small(self):
        for name in ("LLRR", "RRL"):
            endo, letters = lift_inputs(name)
            for sol in solve_traces(letters):
                rep = holonomy_from_triple(sol, endo, letters)
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
        endo, letters = lift_inputs("LLRR")
        rep = holonomy_from_triple(solve_traces(letters)[0], endo, letters)
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
        endo, letters = lift_inputs("LLRR")
        (sol,) = solve_traces(letters)
        lor = lorentz_holonomy(holonomy_from_triple(sol, endo, letters))
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
    return monodromy_endo(spec), build_solution(spec)


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
    return [build_solution(parse_monodromy(word)) for word in PINNED_WORDS]


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

    @pytest.mark.parametrize("dtype", [np.longdouble, EXT_COMPLEX, complex])
    @pytest.mark.parametrize("left_shape, right_shape",
                             [((2, 2), (2, 2)), ((4, 4), (4, 4)), ((2, 3), (3, 1))])
    def test_kron2_forms_the_bits_of_kron(self, dtype, left_shape, right_shape):
        rng = np.random.default_rng(len(left_shape + right_shape))
        imag = 1j if np.issubdtype(dtype, np.complexfloating) else 0
        left, right = (((rng.standard_normal(shape) + imag * rng.standard_normal(shape))
                        .astype(dtype) / 3) for shape in (left_shape, right_shape))
        # the lift's and the tower's operands: conjugates and transposed views
        for a, b in ((left, right), (left, right.conj()), (left.T, right.T), (right, left)):
            got, want = _kron2(a, b), np.kron(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert value_bytes(got) == value_bytes(want)

    def test_kron2_of_stacks_is_kron_of_each_member(self):
        rng = np.random.default_rng(4)
        mats = (rng.standard_normal((3, 2, 2)) + 1j).astype(EXT_COMPLEX) / 3
        signed = np.multiply.outer([1, -1], mats)  # (2, 3, 2, 2), as the lift's blocks
        eye = np.eye(2, dtype=EXT_COMPLEX)
        square = (rng.standard_normal((5, 4, 4)) - 1j).astype(EXT_COMPLEX) / 7
        cases = [(_kron2(eye, mats), [np.kron(eye, m) for m in mats]),
                 (_kron2(mats, np.transpose(mats, (0, 2, 1))), [np.kron(m, m.T) for m in mats]),
                 (_kron2(signed, eye), [[np.kron(m, eye) for m in row] for row in signed]),
                 (_kron2(square, square.conj()), [np.kron(m, m.conj()) for m in square])]
        for got, members in cases:
            want = np.array(members)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert value_bytes(got) == value_bytes(want)

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
        assert restrict_block(sol.adjoint, KILLING_SPLIT.skew)[1].shape == (6, 6)
        assert sol.representation("gl16")[0].shape == (16, 16)
        with pytest.raises(ValueError):
            sol.representation("spin")
