"""Numeric kernel tests: interpolated determinants, deflation, nullspaces."""

import random

import numpy as np
import pytest

from helpers import equal_up_to_unit, laurent_allclose, monic_normalize
from ptbundle import holonomy, numeric
from ptbundle.holonomy import FLAT_STARTS, solve_traces
from ptbundle.numeric import (
    EXT_COMPLEX,
    LaurentPoly,
    Tolerances,
    char_poly,
    compress,
    det_polymatrix,
    integer_round,
    interpolate_on_circle,
    linear_solve,
    matrix_det,
    normalize_unit,
    nullity,
    nullspace,
    poly_quotient,
    quotient_interpolate,
    root_multiplicity,
)
from ptbundle.numeric import _hessenberg as hessenberg
from ptbundle.presentation import parse_monodromy


def P(**terms):
    """P(x2=3, c=1) -> 3x^2 + 1; keys are 'c' or 'x<k>' / 'xm<k>' for negatives."""
    coeffs = {}
    for key, val in terms.items():
        if key == "c":
            coeffs[0] = val
        elif key.startswith("xm"):
            coeffs[-int(key[2:])] = val
        else:
            coeffs[int(key[1:])] = val
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


def test_laurent_basic_ops():
    p = P(c=1, x1=2)          # 1 + 2x
    q = P(x1=1, xm1=-1)       # x - 1/x
    assert (p * q).coeffs == {2: 2.0, 1: 1.0, 0: -2.0, -1: -1.0}
    assert (p + q - q) == p
    assert p.evaluate(2.0) == pytest.approx(5.0)
    assert q.evaluate(2.0) == pytest.approx(1.5)
    assert p.shifted(3).min_exp == 3
    assert P().is_zero()


def test_laurent_reciprocal_and_units():
    p = P(c=1, x1=-18, x2=1)
    q = P(x3=2, x4=-36, x5=2)  # 2x^3 * p
    assert equal_up_to_unit(p, q)
    assert monic_normalize(q).coeff(0) == pytest.approx(2.0 / 2.0)
    r = P(c=2, x1=3)
    assert not equal_up_to_unit(r, P(c=3, x1=2))
    # shift only: leading coefficient -3 is not a unit, so no rescale
    assert normalize_unit(P(xm2=-1, x1=-3)).coeffs == {0: -1.0, 3: -3.0}
    # leading coefficient -1 is a unit: scaled to +1
    assert normalize_unit(P(xm2=3, x1=-1)).coeffs == {0: -3.0, 3: 1.0}


def test_laurent_realified_and_cleaned():
    p = LaurentPoly({0: 1 + 1e-9j, 1: -2 + 0j})
    assert p.realified(1e-6).coeffs == {0: 1.0, 1: -2.0}


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_interpolate_on_circle_matches_scalar_dft():
    # reference: the term-by-term inverse DFT that the engine's array DFT replaced
    lo, count, radius = -2, 6, 1.13
    target = P(xm2=3, xm1=-1, c=2, x1=0.5, x3=-7)
    points = [radius * np.exp(2j * np.pi * j / count) for j in range(count)]
    coeffs = {}
    for k in range(count):
        acc = 0j
        for j, z in enumerate(points):
            acc += target.evaluate(z) / z ** lo * np.exp(-2j * np.pi * j * k / count)
        coeffs[lo + k] = acc / count / radius ** k
    reference = LaurentPoly(coeffs)
    got = interpolate_on_circle(target.evaluate, count, lo=lo, radii=(radius,))
    assert laurent_allclose(got, reference, 1e-13)
    assert laurent_allclose(got, target, 1e-14)


def test_interpolate_on_circle_one_call_per_radius():
    # the sampled function gets all count + 2 points of a radius in one array
    target = P(c=5, x1=-3, x2=1, x3=2)
    calls = []

    def value_at(z):
        calls.append((len(z), z.dtype, float(np.max(np.abs(z)))))
        values = target.evaluate(z)
        if calls[-1][2] > 1.9:   # radius 2.0: corrupt the validation values
            values[4:] += 1.0
        return values

    got = interpolate_on_circle(value_at, 4, radii=(2.0, 1.13))
    assert laurent_allclose(got, target, 1e-12)
    assert [(n, dtype) for n, dtype, _ in calls] == [(6, np.dtype(EXT_COMPLEX))] * 2
    assert [r for _, _, r in calls] == pytest.approx([2.0, 1.13])

    # real coefficients: the samples k = 0 ... count // 2, then the two
    # validation points, for an odd and an even count
    for target in (P(c=5, x1=-3, x2=1, x3=2), P(xm1=2, c=5, x1=-3, x2=1, x3=2)):
        count = target.span + 1
        calls.clear()

        def value_at(z):
            calls.append((len(z), z.dtype, float(np.max(np.abs(z)))))
            assert np.all(z[:count // 2 + 1].imag > -1e-15)   # the upper half
            values = target.evaluate(z)
            if calls[-1][2] > 1.9:
                values[-2:] += 1.0
            return values

        got = interpolate_on_circle(value_at, count, lo=target.min_exp,
                                    radii=(2.0, 1.13), real=True)
        assert laurent_allclose(got, target, 1e-12)
        assert [(n, dtype) for n, dtype, _ in calls] == \
            [(count // 2 + 3, np.dtype(EXT_COMPLEX))] * 2
        assert [r for _, _, r in calls] == pytest.approx([2.0, 1.13])


def reference_det(a):
    """The per-matrix LU that the stacked matrix_det must reproduce bit for bit."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    det = a.dtype.type(1)
    for k in range(n - 1):
        p = int(np.argmax(np.abs(a[k:, k]))) + k
        if a[p, k] == 0:
            return a.dtype.type(0)
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
            det = -det
        piv = a[k, k]
        det = det * piv
        factors = a[k + 1:, k:k + 1] / piv
        a[k + 1:, k + 1:] = a[k + 1:, k + 1:] - factors * a[k, k + 1:]
    return det * a[n - 1, n - 1] if n else det


def _bits(x):
    """tobytes() of each real component, without x87 long double padding."""
    x = np.asarray(x).reshape(-1)
    info = np.finfo(x.dtype)
    used = (info.nmant + info.nexp + 8) // 8
    return x.view(np.uint8).reshape(-1, info.dtype.itemsize)[:, :used].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32])
def test_stacked_det_matches_per_matrix_lu_bit_for_bit(n):
    rng = np.random.default_rng(n)
    shape = (12, n, n)
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(EXT_COMPLEX)
    stack[3, :, n // 2] = 0          # a singular member
    stack[5, :, n - 1] = 0           # singular only at the last pivot
    stack[7] *= 1e8                  # large entries beside the singular ones
    got = matrix_det(stack)
    assert got.shape == (12,) and got.dtype == EXT_COMPLEX
    for member, det in zip(stack, got):
        assert _bits(det) == _bits(reference_det(member))
        assert _bits(matrix_det(member)) == _bits(det)
    assert got[3] == 0 and got[5] == 0 and np.all(got[[0, 1, 2, 4, 6, 7]] != 0)
    assert matrix_det(stack.reshape(3, 4, n, n)).shape == (3, 4)


def test_det_of_empty_and_single_matrices():
    assert matrix_det(np.zeros((0, 0))) == 1.0
    ones = matrix_det(np.zeros((3, 0, 0), dtype=EXT_COMPLEX))
    assert ones.dtype == EXT_COMPLEX and np.all(ones == 1)
    rng = np.random.default_rng(1)
    real = rng.standard_normal((4, 4))
    det = matrix_det(real)
    assert type(det) is np.float64 and _bits(det) == _bits(reference_det(real))
    cplx = real + 1j * rng.standard_normal((4, 4))
    det = matrix_det(cplx)
    assert type(det) is np.complex128
    assert det == pytest.approx(reference_det(cplx), rel=1e-14)


def reference_solve(a, b):
    """linear_solve without its zero-pivot check, the oracle of its bits."""
    a = np.array(a, copy=True)
    rhs = np.array(b, copy=True, dtype=np.promote_types(a.dtype, np.asarray(b).dtype))
    a = a.astype(rhs.dtype, copy=False)
    n = a.shape[0]
    for k in range(n):
        p = int(np.argmax(np.abs(a[k:, k]))) + k
        if p != k:
            a[[k, p]] = a[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= factors[:, None] * a[k, k:]
        rhs[k + 1:] -= factors[:, None] * rhs[k]
    for k in range(n - 1, -1, -1):
        rhs[k] = (rhs[k] - a[k, k + 1:] @ rhs[k + 1:]) / a[k, k]
    return rhs


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, EXT_COMPLEX])
def test_shared_elimination_keeps_linear_solve_and_lu_bits(dtype):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9)).astype(dtype)
    b = rng.standard_normal((9, 4)).astype(dtype)
    if np.iscomplexobj(a):
        a = a + 1j * rng.standard_normal((9, 9))
    assert _bits(linear_solve(a, b)) == _bits(reference_solve(a, b))
    assert _bits(linear_solve(a, b[:, 0])) == _bits(reference_solve(a, b[:, :1])[:, 0].copy())
    assert _bits(matrix_det(a)) == _bits(reference_det(a))


def diagonally_dominant(rng, n, dtype):
    """A random n x n matrix of dtype whose partial pivoting swaps no rows."""
    a = rng.standard_normal((n, n)) + 4 * n * np.eye(n)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal((n, n))
    return a.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, EXT_COMPLEX])
@pytest.mark.parametrize("pivoting", [False, True])
def test_augmented_elimination_keeps_the_bits_of_the_reference(dtype, pivoting):
    # one elimination of [a | b] forms the sums of separate updates of a and b
    rng = np.random.default_rng(3 + pivoting)
    swaps = 0
    for n in range(1, 6):
        for _ in range(20):
            a = diagonally_dominant(rng, n, dtype)
            if pivoting:
                a = np.ascontiguousarray(a[rng.permutation(n)][:, rng.permutation(n)])
                swaps += n > 1 and np.argmax(np.abs(a[:, 0])) != 0
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                      rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))):
                b = b.astype(np.result_type(b, dtype))
                want = reference_solve(a, b if b.ndim == 2 else b[:, None])
                got = linear_solve(a, b)
                assert got.dtype == want.dtype and got.shape == b.shape
                assert _bits(got) == _bits(want if b.ndim == 2 else want[:, 0].copy())
    assert (swaps > 0) == pivoting


# ---------------------------------------------------------------------------
# Extended-precision products: np.dot forms the bits of @
# ---------------------------------------------------------------------------

# (rows, inner, columns) of the products the lift and the tower form: the
# 2x2 lift and its 3-unknown polish, the 8x4 intertwining systems, the
# 4x4 Lorentz and 16x15 sl4 read-outs, the 6-, 9-, 15- and 16-dimensional
# layers, and the 2n-square Fox actions.
TOWER_SHAPES = [(2, 2, 2), (3, 4, 3), (4, 8, 4), (4, 4, 4), (15, 16, 15), (6, 15, 6),
                (9, 15, 9), (15, 15, 15), (16, 16, 16), (30, 30, 30), (32, 32, 32)]


def extended_operand(rng, shape, dtype):
    """Random entries of dtype that use all of its mantissa."""
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype) / dtype(3)


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
@pytest.mark.parametrize("rows, inner, cols", TOWER_SHAPES)
def test_dot_forms_the_bits_of_matmul(dtype, rows, inner, cols):
    rng = np.random.default_rng(rows * inner * cols)
    left = extended_operand(rng, (rows, inner), dtype)
    right = extended_operand(rng, (inner, cols), dtype)
    vector = extended_operand(rng, inner, dtype)
    covector = extended_operand(rng, rows, dtype)
    # conjugate-transposed views, as in the normal matrices and compressions
    left_h = extended_operand(rng, (inner, rows), dtype).conj().T
    right_h = extended_operand(rng, (cols, inner), dtype).conj().T
    for a, b in ((left, right), (left, vector), (covector, left), (left_h, right),
                 (left, right_h), (left_h, right_h), (left_h, vector), (right_h.T, left_h.T)):
        got, want = np.dot(a, b), a @ b
        assert got.dtype == want.dtype == dtype
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("left_dtype, right_dtype", [
    (np.longdouble, np.float64), (np.float64, np.longdouble),
    (np.clongdouble, np.complex128), (np.complex128, np.clongdouble),
    (np.clongdouble, np.float64), (np.longdouble, np.complex128),
])
@pytest.mark.parametrize("rows, inner, cols", TOWER_SHAPES[:6])
def test_dot_forms_the_bits_of_matmul_on_mixed_operands(left_dtype, right_dtype,
                                                        rows, inner, cols):
    # extended matrices against the double constants (LORENTZ_FORM,
    # _HERMITIAN_VECS) and double kernel bases
    rng = np.random.default_rng(rows + inner + cols)
    left = extended_operand(rng, (rows, inner), left_dtype)
    right = extended_operand(rng, (cols, inner), right_dtype).T
    vector = extended_operand(rng, inner, right_dtype)
    for a, b in ((left, right), (left, vector), (right.T, left.conj().T)):
        got, want = np.dot(a, b), a @ b
        assert got.dtype == want.dtype
        assert np.finfo(got.dtype).eps < 1e-17
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("degrees", [(8, 2), (32, 1), (17, 3), (2, 4), (0, 0)])
def test_poly_quotient_is_polydiv_quotient(degrees):
    # an extended dividend over a double divisor, as the Wada route divides
    rng = np.random.default_rng(sum(degrees))
    dividend = extended_operand(rng, degrees[0] + 1, EXT_COMPLEX)
    divisor = list(rng.standard_normal(degrees[1] + 1) + 1j * rng.standard_normal(degrees[1] + 1))
    got, want = poly_quotient(dividend, divisor), np.polydiv(dividend, divisor)[0]
    assert got.dtype == want.dtype == EXT_COMPLEX
    assert _bits(got) == _bits(want)
    real = rng.standard_normal(degrees[0] + 1)
    assert _bits(poly_quotient(real, real[:degrees[1] + 1])) == _bits(
        np.polydiv(real, real[:degrees[1] + 1])[0])


def test_poly_quotient_adds_zero_like_polydiv():
    # negative zeros in the dividend become +0 before any arithmetic
    nz = complex(-0.0, -0.0)
    dividend = np.array([nz, 1, nz, complex(-0.0, 2), nz, nz], dtype=EXT_COMPLEX)
    for divisor in ([1 + 0j, 0j], [2 + 1j], [complex(-1.0, -0.0), nz, 3 + 0j]):
        got, want = poly_quotient(dividend, divisor), np.polydiv(dividend, divisor)[0]
        assert _bits(got) == _bits(want)
    assert _bits(poly_quotient(dividend, [1 + 0j])) == _bits(dividend + 0.0)
    assert not np.signbit(poly_quotient(dividend, [1 + 0j]).real).any()


def test_poly_quotient_of_an_exact_product():
    # (x - 1)^2 (x^2 - 18 x + 1) over (x - 1)^2
    divisor = [1 + 0j, -2 + 0j, 1 + 0j]
    dividend = np.convolve(divisor, [1, -18, 1]).astype(EXT_COMPLEX)
    assert list(poly_quotient(dividend, divisor)) == [1, -18, 1]


# ---------------------------------------------------------------------------
# Characteristic polynomials by La Budde's recurrence on the Hessenberg form
# ---------------------------------------------------------------------------


def reference_hessenberg(a):
    """_hessenberg with its swaps by fancy indexing, the oracle of its bits."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    for k in range(n - 2):
        p = int(np.argmax(np.abs(a[k + 1:, k]))) + k + 1
        if a[p, k] == 0:
            continue
        if p != k + 1:
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
        factors = a[k + 2:, k] / a[k + 1, k]
        a[k + 2:, k + 1:] -= factors[:, None] * a[k + 1, k + 1:]
        a[k + 2:, k] = 0
        a[:, k + 1] += np.dot(a[:, k + 2:], factors)
    return a


def numpy_char_poly(m):
    """det(m - t I), exponent 0 first, from np.poly's det(t I - m)."""
    return np.poly(m)[::-1] * (-1) ** len(m)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, EXT_COMPLEX])
@pytest.mark.parametrize("n", [6, 9, 17])
def test_hessenberg_swaps_by_slices_keep_the_bits(dtype, n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)).astype(dtype)
    if np.iscomplexobj(a):
        a = a + 1j * rng.standard_normal((n, n))
    # step 0 is skipped: column 0 is already zero below the diagonal
    a[1:, 0] = 0
    got = hessenberg(a)
    assert got.dtype == a.dtype
    assert _bits(got) == _bits(reference_hessenberg(a))
    assert np.all(np.tril(got, -2) == 0)


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 17, 22, 30])
def test_char_poly_matches_np_poly(n, complex_input):
    # also the sign test: det(H - t I) and det(t I - H) differ at odd
    # powers of t for even n and at even powers for odd n
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n))
    if complex_input:
        m = m + 1j * rng.standard_normal((n, n))
    _, got = char_poly(m).dense()
    want = numpy_char_poly(m)
    assert len(got) == n + 1
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_char_poly_of_sizes_zero_and_one():
    assert char_poly(np.zeros((0, 0))) == LaurentPoly.one()
    assert char_poly(np.array([[3.0]])).coeffs == {0: 3.0, 1: -1.0}
    assert char_poly(np.array([[2.0 - 1.5j]])).coeffs == {0: 2.0 - 1.5j, 1: -1.0}


def test_char_poly_across_a_zero_subdiagonal():
    # block upper triangular: the reduction leaves h[4, 3] exactly zero,
    # and the polynomial is the product of the blocks'
    rng = np.random.default_rng(11)
    m = rng.standard_normal((10, 10))
    m[4:, :4] = 0.0
    assert np.diagonal(hessenberg(m.astype(np.longdouble)), -1)[3] == 0
    want = char_poly(m[:4, :4]) * char_poly(m[4:, 4:])
    assert laurent_allclose(char_poly(m), want, 1e-14)
    _, got = char_poly(m).dense()
    assert np.max(np.abs(np.array(got) - numpy_char_poly(m))) <= 1e-12 * np.max(np.abs(got))
    # already Hessenberg, with two zero subdiagonal entries in the middle
    h = np.triu(rng.standard_normal((10, 10)), -1)
    h[[4, 7], [3, 6]] = 0.0
    want = char_poly(h[:4, :4]) * char_poly(h[4:7, 4:7]) * char_poly(h[7:, 7:])
    assert laurent_allclose(char_poly(h), want, 1e-14)


@pytest.mark.parametrize("n", [1, 2, 7, 16, 17])
def test_char_poly_leading_coefficient_and_real_coefficients_are_exact(n):
    rng = np.random.default_rng(n)
    m = 40 * rng.standard_normal((n, n))
    real, cplx = char_poly(m), char_poly(m + 1j * rng.standard_normal((n, n)))
    assert real.max_exp == cplx.max_exp == n
    assert real.coeff(n) == cplx.coeff(n) == (-1) ** n
    assert all(c.imag == 0 for c in real.coeffs.values())
    assert any(c.imag != 0 for c in cplx.coeffs.values())


def test_real_pencil_is_reduced_in_real_extended_precision(monkeypatch):
    reduced = []

    def recording_reduction(a):
        reduced.append(a.dtype)
        return hessenberg(a)

    monkeypatch.setattr(numeric, "_hessenberg", recording_reduction)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    got = char_poly(m)
    char_poly(m.astype(complex))
    assert reduced == [np.dtype(numeric._REAL_DT), np.dtype(EXT_COMPLEX)]
    _, coeffs = got.dense()
    want = numpy_char_poly(m)
    assert np.max(np.abs(np.array(coeffs) - want)) <= 1e-13 * np.max(np.abs(want))


def poly_matrix(entries):
    """{w: M_w} for a square matrix given as rows of LaurentPoly entries."""
    n = len(entries)
    exps = {e for row in entries for cell in row for e in cell.coeffs}
    return {w: np.array([[entries[i][j].coeff(w) for j in range(n)] for i in range(n)])
            for w in exps}


def test_det_2x2_example():
    # [[1 + x, x], [x, 1 - x]]
    m = {0: np.eye(2), 1: np.array([[1.0, 1.0], [1.0, -1.0]])}
    det = det_polymatrix(m)
    assert laurent_allclose(det, P(c=1, x2=-2), 1e-12)


def test_det_zero_row():
    m = {0: np.array([[0.0, 0.0], [1.0, 0.0]]), 2: np.array([[0.0, 0.0], [0.0, 3.0]])}
    assert det_polymatrix(m).is_zero()
    assert det_polymatrix({}).is_zero()


def _cofactor_det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entries[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_against_cofactor_oracle():
    rng = random.Random(424242)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        entries = [[LaurentPoly({e: rng.randint(-4, 4) for e in range(rng.randint(0, 3))})
                    for _ in range(n)] for _ in range(n)]
        expected = _cofactor_det(entries)
        got = det_polymatrix(poly_matrix(entries))
        assert laurent_allclose(got, expected, 1e-10)


def test_det_window_not_fooled_by_row_spans():
    # each row has span-0 entries but the determinant has span 4
    x2 = P(x2=1)
    one = LaurentPoly.one()
    det = det_polymatrix(poly_matrix([[x2, one], [one, x2]]))
    assert laurent_allclose(det, P(x4=1, c=-1), 1e-12)


def test_det_laurent_entries():
    det = det_polymatrix(poly_matrix([[P(xm1=1), P(c=2)], [P(c=3), P(x1=4)]]))
    assert laurent_allclose(det, P(c=-2), 1e-12)


# ---------------------------------------------------------------------------
# characteristic polynomials, deflation
# ---------------------------------------------------------------------------


def test_char_poly_companion():
    companion = np.array([[0.0, -1.0], [1.0, 18.0]])
    p = char_poly(companion)
    assert laurent_allclose(p, P(c=1, x1=-18, x2=1), 1e-10)


def test_char_poly_matches_polymatrix_route():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    pencil = {0: m, 1: -np.eye(6)}
    assert laurent_allclose(char_poly(m), det_polymatrix(pencil), 1e-9)


def test_char_poly_real_output_for_real_matrix():
    # convention is det(m - t I), so the leading coefficient is (-1)^n
    m = np.diag([1.0, 2.0, 3.0])
    p = char_poly(m)
    assert all(c.imag == 0 for c in p.coeffs.values())
    assert laurent_allclose(p, P(c=6, x1=-11, x2=6, x3=-1), 1e-10)


def test_root_multiplicity():
    p = P(c=-1, x1=1) * P(c=-1, x1=1) * P(c=-1, x1=1) * P(c=1, x1=-18, x2=1)
    mult, deflated = root_multiplicity(p, 1.0)
    assert mult == 3
    assert deflated.evaluate(1.0) == pytest.approx(-16.0)
    mult2, _ = root_multiplicity(P(c=2, x1=5), 1.0)
    assert mult2 == 0
    # relative thresholds: scaling the polynomial must not change the count
    mult3, _ = root_multiplicity(p * 1e8, 1.0)
    assert mult3 == 3


def test_quotient_interpolate():
    # numerator (1-t)^6 (t^2 - 3t + 5), denominator (1-t)^6: division by a
    # high-multiplicity unipotent-style factor recovered pointwise
    target = P(c=5, x1=-3, x2=1)
    den6 = LaurentPoly.one()
    for _ in range(6):
        den6 = den6 * P(c=1, x1=-1)
    num = target * den6
    q = quotient_interpolate(lambda z: num.evaluate(z), lambda z: den6.evaluate(z), 2)
    assert laurent_allclose(q, target, 1e-10)
    # a degree below the true one cannot reproduce the fresh validation points
    with pytest.raises(ArithmeticError, match="validation residual"):
        quotient_interpolate(lambda z: num.evaluate(z), lambda z: den6.evaluate(z), 1)


def test_quotient_interpolate_radius_retry():
    # the denominator t - 2 vanishes at the first sample point of radius 2
    target = P(c=5, x1=-3, x2=1)
    den = P(c=-2, x1=1)
    num = target * den
    q = quotient_interpolate(lambda z: num.evaluate(z), lambda z: den.evaluate(z), 2)
    assert laurent_allclose(q, target, 1e-10)
    # with no other radius to move to, the error names every radius tried
    with pytest.raises(ArithmeticError, match=r"\(2\.0,\) .*denominator vanished"):
        quotient_interpolate(lambda z: num.evaluate(z), lambda z: den.evaluate(z), 2,
                             radii=(2.0,))
    with pytest.raises(ArithmeticError, match=r"every radius in \(2\.0, 2\.4, 1\.7\)"):
        quotient_interpolate(lambda z: num.evaluate(z), lambda z: den.evaluate(z), 1)


def test_quotient_interpolate_denominator_zero_at_a_validation_point():
    # degree 2: three samples, then the two validation points
    target = P(c=5, x1=-3, x2=1)
    den = P(c=3, x1=1)
    num = target * den
    radii = []

    def den_at(z, zero_radius):
        radii.append(round(float(abs(z[0])), 6))
        values = den.evaluate(z)
        if zero_radius is None or radii[-1] == zero_radius:
            values[3] = 0
        return values

    q = quotient_interpolate(num.evaluate, lambda z: den_at(z, 2.0), 2)
    assert laurent_allclose(q, target, 1e-10)
    assert radii == [2.0, 2.4]
    with pytest.raises(ArithmeticError) as err:
        quotient_interpolate(num.evaluate, lambda z: den_at(z, None), 2)
    for radius in ("2", "2.4", "1.7"):
        assert "radius %s: denominator vanished" % radius in str(err.value)


# ---------------------------------------------------------------------------
# nullspace, Gauss-Newton of the holonomy solve, rounding
# ---------------------------------------------------------------------------


def test_nullspace_dims_and_quality():
    m = np.array([[1.0, 1.0, 0.0]])
    basis = nullspace(m)
    assert basis.shape == (3, 2)
    assert np.allclose(m @ basis, 0.0, atol=1e-12)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    assert nullspace(np.zeros((2, 3))).shape == (3, 3)
    assert nullspace(np.eye(4)).shape == (4, 0)


def kernel_problem(dtype):
    """A rank-4 7x9 matrix of dtype, kernel dimension 5, in full extended precision."""
    rng = np.random.default_rng(11)
    return np.dot(extended_operand(rng, (7, 4), dtype), extended_operand(rng, (4, 9), dtype))


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_refined_nullspace_keeps_the_extended_dtype(dtype):
    m = kernel_problem(dtype)
    assert nullspace(m).dtype == (np.float64 if dtype == np.longdouble else np.complex128)
    refined = nullspace(m, refine=True)
    assert refined.shape == (9, 5) and refined.dtype == dtype


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_refinement_cuts_the_kernel_residual(dtype):
    m = kernel_problem(dtype)
    scale = float(np.max(np.abs(m)))
    plain = float(np.max(np.abs(np.dot(m, nullspace(m)))))
    refined = float(np.max(np.abs(np.dot(m, nullspace(m, refine=True)))))
    assert plain > 1e-17 * scale
    assert refined < 1e-3 * plain and refined < 1e-18 * scale


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_refinement_makes_the_basis_orthonormal_in_extended(dtype):
    basis = nullspace(kernel_problem(dtype), refine=True)
    gram = np.dot(basis.conj().T, basis)
    assert float(np.max(np.abs(gram - np.eye(5)))) < 1e-18


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.longdouble, np.clongdouble])
def test_nullity_is_the_dimension_of_the_nullspace(dtype):
    # the same cast and rank rule, from the singular values alone
    rng = np.random.default_rng(17)
    deficient = np.dot(extended_operand(rng, (7, 4), dtype), extended_operand(rng, (4, 9), dtype))
    cases = [deficient, deficient.T, extended_operand(rng, (5, 5), dtype),
             np.eye(4, dtype=dtype), np.zeros((2, 3), dtype=dtype),
             np.zeros((0, 3), dtype=dtype), np.zeros((3, 0), dtype=dtype),
             np.array([1, 1, 0], dtype=dtype)]
    for m in cases:
        for tol in (1e-9, 0.5):
            assert nullity(m, tol) == nullspace(m, tol).shape[1]
    assert [nullity(m) for m in cases] == [5, 3, 0, 0, 3, 3, 0, 2]


def test_compress_of_an_invariant_subspace():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    block = rng.standard_normal((6, 6))
    block[2:, :2] = 0    # the first two coordinates are invariant
    m = q @ block @ q.T
    got = compress(m, q[:, :2], "leaked")
    assert np.max(np.abs(got - block[:2, :2])) < 1e-13
    with pytest.raises(ArithmeticError, match="^the subspace leaks$"):
        compress(m, q[:, 2:4], "the subspace leaks")


def solve_from(starts, letters, monkeypatch):
    """The holonomy solve from the given starts instead of the flat ones,
    or the message of its ArithmeticError."""
    with monkeypatch.context() as patch:
        patch.setattr(holonomy, "FLAT_STARTS", np.array(starts, dtype=complex))
        try:
            (sol,) = solve_traces(letters)
        except ArithmeticError as err:
            return str(err)
    return sol


def triple_bytes(sol):
    return np.array([*sol.as_tuple(), *sol.shapes]).tobytes()


def mirror(word):
    return word.translate(str.maketrans("LR", "RL"))


def test_newton_markov_symmetric_root():
    # The Markov relation is symmetric in A and B, the swap (B, A, C) turns
    # the letter maps of a word into those of its L <-> R mirror, and the
    # flat starts into each other.  The mirror reverses the orientation, so
    # its holonomy is the conjugate of the swap, with shapes 1 / conj(z).
    swap = [1, 0, 2]
    assert {FLAT_STARTS[k][swap].tobytes() for k in range(4)} == {
        start.tobytes() for start in FLAT_STARTS}
    for word in ("LR", "LLR", "LLRR", "LLLRR", "LLRLR", "LLRLRRLR"):
        (sol,) = solve_traces(word)
        (image,) = solve_traces(mirror(word))
        swapped = np.array(sol.as_tuple())[swap].conj()
        assert np.max(np.abs(np.array(image.as_tuple()) - swapped)) < 1e-12, word
        assert np.max(np.abs(np.array(image.shapes) - 1 / np.conj(sol.shapes))) < 1e-12, word


def test_newton_singular_jacobian_starts(monkeypatch):
    # when the solve of a start's normal equations raises, that step is the
    # least-squares step on its Jacobian, and the start goes on to the
    # holonomy
    solve, lstsq = np.linalg.solve, np.linalg.lstsq
    calls, jacobians = [], []

    def singular_once(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    def least_squares(jac, rhs, rcond):
        jacobians.append(jac.shape)
        return lstsq(jac, rhs, rcond=rcond)

    (expected,) = solve_traces("LLRR")
    monkeypatch.setattr(holonomy.np.linalg, "solve", singular_once)
    monkeypatch.setattr(holonomy.np.linalg, "lstsq", least_squares)
    (sol,) = solve_traces("LLRR")
    monkeypatch.undo()
    assert calls[:2] == [(12, 12)] * 2 and jacobians == [(16, 12)]
    assert np.max(np.abs(np.array([*sol.as_tuple(), *sol.shapes])
                         - [*expected.as_tuple(), *expected.shapes])) <= 1e-12


def test_newton_singular_start_leaves_the_others_their_bits(monkeypatch):
    # The start at (5, 5, 5) gets a zero Jacobian, so its normal matrix is
    # singular at every iteration.  It takes the least-squares step, 0, and
    # stays put unconverged up to the iteration cap; the start after it
    # reaches the holonomy with the bits it has without the singular start.
    system, lstsq, scales = holonomy._shooting_system, np.linalg.lstsq, []

    def zero_jacobian_at_five(x, layout):
        values, jac = system(x, layout)
        if np.all(x == 5):
            jac[:] = 0
        return values, jac

    def least_squares(jac, rhs, rcond):
        scales.append(np.abs(jac).max())
        return lstsq(jac, rhs, rcond=rcond)

    monkeypatch.setattr(holonomy, "_shooting_system", zero_jacobian_at_five)
    monkeypatch.setattr(holonomy.np.linalg, "lstsq", least_squares)
    alone = solve_from([FLAT_STARTS[0]], "LLRLLR", monkeypatch)
    beside = solve_from([[5, 5, 5], FLAT_STARTS[0]], "LLRLLR", monkeypatch)
    assert triple_bytes(beside) == triple_bytes(alone)
    assert scales and set(scales) == {0.0}


# Two starts near the figure-eight start that reach the holonomy of LLRR
# with different last bits.
NEAR_HOLONOMY = [list(FLAT_STARTS[0]), list(FLAT_STARTS[0] + 0.01)]


@pytest.mark.parametrize("first, third", [NEAR_HOLONOMY, NEAR_HOLONOMY[::-1]])
def test_newton_keeps_the_first_start_of_a_repeated_root(first, third, monkeypatch):
    alone = solve_from([first], "LLRR", monkeypatch)
    again = solve_from([third], "LLRR", monkeypatch)
    assert triple_bytes(alone) != triple_bytes(again)
    assert np.max(np.abs(np.array([*alone.as_tuple(), *alone.shapes])
                         - [*again.as_tuple(), *again.shapes])) <= 1e-12
    # the first start that reaches the holonomy gives it, and the trivial
    # character and the other start after it are never evaluated
    solved = solve_from([first, [0, 0, 0], third], "LLRR", monkeypatch)
    assert triple_bytes(solved) == triple_bytes(alone)


def test_newton_batch_drops_stopped_starts_and_steps_the_rest(monkeypatch):
    # F overflows at the first start, and the second is the trivial
    # character, so each stops after one evaluation.  The third converges
    # in eight evaluations and is the holonomy, with the bits it has
    # alone; the last two are never evaluated.
    starts = [[1e200, 1, 1], [0, 0, 0], FLAT_STARTS[3], FLAT_STARTS[0] + 0.01, FLAT_STARTS[2]]
    first_layers = []
    system = holonomy._shooting_system

    def record(x, layout):
        first_layers.append(x[0].copy())
        return system(x, layout)

    monkeypatch.setattr(holonomy, "_shooting_system", record)
    sol = solve_from(starts, "LLRLLR", monkeypatch)
    assert len(first_layers) == 1 + 1 + 8
    assert np.array_equal(first_layers[:3], np.array(starts[:3], dtype=complex))
    assert triple_bytes(sol) == triple_bytes(solve_from(starts[2:3], "LLRLLR", monkeypatch))


@pytest.mark.parametrize("word", ["LR", "LLRR", "LLLRRR", "LRLRLR", "LRRLRR", "LLRLLR", "L^8R",
                                  "LLRLRRLR"])
def test_solve_traces_matches_scalar_newton(word, monkeypatch):
    # The flat starts solved one at a time, in order: the first that
    # reaches the holonomy gives the solve's triple, bit for bit.
    letters = parse_monodromy(word).letters
    (solved,) = solve_traces(letters)
    for start in FLAT_STARTS:
        alone = solve_from([start], letters, monkeypatch)
        if not isinstance(alone, str):
            break
    assert triple_bytes(solved) == triple_bytes(alone)


def test_integer_round():
    p = LaurentPoly({0: 1.0000000002, 1: -18.0000000001, 2: 1.0})
    assert integer_round(p, 1e-6) == [1, -18, 1]
    assert integer_round(LaurentPoly({0: 1.001}), 1e-6) is None
    assert integer_round(LaurentPoly({0: 1 + 1e-3j}), 1e-6) is None


def test_tolerances_defaults():
    t = Tolerances()
    assert (t.det, t.root, t.null) == (1e-8, 1e-6, 1e-9)
