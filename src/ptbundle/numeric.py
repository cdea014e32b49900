"""Numeric kernel: Laurent polynomials, determinants, deflation, nullspaces.

Scalars are python ``complex``; matrices are numpy arrays.  A matrix of
Laurent polynomials sum_w x^w M_w is a map ``{exponent w: matrix M_w}``
and is sampled at all points of a circle with one ``tensordot``.  A
characteristic polynomial is read off exactly: ``char_poly`` reduces the
matrix once to upper Hessenberg form and runs La Budde's coefficient
recurrence on it.  Every other polynomial that comes from a numeric
function (a determinant of a polynomial matrix, a quotient of two
determinants) goes through one engine, ``interpolate_on_circle``: the
function is sampled on a circle, the coefficients are read off with one
inverse DFT, and the result is validated at two fresh points on the same
circle before it is returned.  The points of one radius arrive as one
array, and a polynomial matrix (``det_polymatrix``) is one stack for one
``matrix_det`` call per radius.
A polynomial with real coefficients (its caller's matrices have a real
dtype) takes conjugate values at conjugate points, so it is sampled only
on the closed upper half of the circle: count // 2 + 3 points per radius
instead of count + 2.  A failed sample or validation moves on to the
caller's next radius.
Determinants use radius 1.13, off the unit circle where group-element
spectra like to sit; the quotients of two determinants
(``quotient_interpolate``) use radii 2.0, 2.4 and 1.7, away from the root
cluster of a unipotent denominator at 1.

Sampling, the determinants, the Hessenberg reduction, the recurrence and
the DFT run in 80-bit extended precision when the platform provides it
(x86 long double), which keeps their rounding error far below the error
inherited from the input matrices.  All public tolerances are relative:
to the largest sample magnitude for interpolation, to the current max
coefficient for deflation, to the largest singular value for nullspaces
and nullities.

numpy has no BLAS for long double, and its ``@`` runs a generic loop there
that takes about twice as long as ``np.dot``, which forms the same sums in
the same order (a 30 x 30 complex long double product: 350 us against
180 us, numpy 2.4 on x86-64).  So every matrix product whose operands can be
extended precision, here and in ``alexander`` and ``holonomy``, is an
``np.dot``, and polynomial long division is ``poly_quotient``: the bits of
``np.polydiv``, without the remainder trimming that makes np.polydiv ten
times as slow.  A stack times a constant is one ``np.dot``, each member
with the bits of its own (with the constant on the left the stack's axis
comes first).  Rows and columns are swapped by slice copies, not by fancy
indexing, which costs about three times as much there.
``tests/test_imports.py`` fails on an ``@``, ``np.kron``, ``np.polydiv``
or a fancy-index swap in those modules.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# extended precision setup
# ---------------------------------------------------------------------------

_HAS_EXTENDED = np.finfo(np.longdouble).eps < 1e-17
_REAL_DT = np.longdouble if _HAS_EXTENDED else np.float64
EXT_COMPLEX = np.clongdouble if _HAS_EXTENDED else np.complex128
_PI = _REAL_DT("3.14159265358979323846264338327950288419716939937510") if _HAS_EXTENDED else np.float64(np.pi)

# Sample circles: determinants, quotients.
DET_RADII = (1.13,)
QUOTIENT_RADII = (2.0, 2.4, 1.7)


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout the pipeline (CLI-overridable)."""

    det: float = 1e-8    # determinant interpolation validation
    root: float = 1e-6   # root-multiplicity deflation
    null: float = 1e-9   # nullspace singular-value cutoff


def matrix_det(a: np.ndarray):
    """Determinants of a stack (..., n, n) via partial-pivot LU.

    The LU runs over the whole stack at once, so the Python loop runs n
    times per stack.  Each member gets the bits of an LU of it alone in
    extended precision and real dtypes (numpy's array complex128 multiply
    may round apart from its scalar one).  A member with an exactly zero
    pivot is frozen as the identity and gets exactly 0.  The dtype is
    preserved and one (n, n) matrix gives a scalar; numpy's det downcasts
    extended-precision inputs, so sampling code must come through here.
    """
    a = np.array(a, copy=True)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape((int(np.prod(batch)), n, n))
    members = np.arange(len(a))
    det = np.ones(len(a), dtype=a.dtype)
    for k in range(n - 1):
        p = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
        singular = a[members, p, k] == 0   # the whole column is 0, so p == k
        if singular.any():
            a[singular] = np.eye(n, dtype=a.dtype)
            det[singular] = 0
        a[members, k], a[members, p] = a[members, p], a[members, k]
        det = np.where(p != k, -det, det)
        piv = a[:, k, k]
        det = det * piv
        factors = a[:, k + 1:, k:k + 1] / piv[:, None, None]
        a[:, k + 1:, k + 1:] -= factors * a[:, k:k + 1, k + 1:]
    if n:
        det = det * a[:, n - 1, n - 1]
    return det.reshape(batch)[()]


def linear_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    Unlike numpy.linalg.solve this keeps longdouble/clongdouble inputs in
    their own precision.  b may be a vector or a matrix of right-hand
    sides.  The elimination runs once on the augmented matrix [a | b], so
    each step is one row swap and one update of a and b together.  Raises
    ArithmeticError on an exactly zero pivot.
    """
    a, b = np.asarray(a), np.asarray(b)
    vector = b.ndim == 1
    n = a.shape[0]
    augmented = np.empty((n, n + (1 if vector else b.shape[1])),
                         dtype=np.promote_types(a.dtype, b.dtype))
    augmented[:, :n] = a
    augmented[:, n:] = b.reshape(n, -1)
    for k in range(n):
        p = int(np.abs(augmented[k:, k]).argmax()) + k
        if augmented[p, k] == 0:
            raise ArithmeticError("singular matrix in linear_solve")
        if p != k:
            row = augmented[k].copy()
            augmented[k], augmented[p] = augmented[p], row
        factors = augmented[k + 1:, k] / augmented[k, k]
        augmented[k + 1:, k:] -= factors[:, None] * augmented[k, k:]
    rhs = augmented[:, n:].copy()
    for k in range(n - 1, -1, -1):
        rhs[k] = (rhs[k] - np.dot(augmented[k, k + 1:n], rhs[k + 1:])) / augmented[k, k]
    return rhs[:, 0] if vector else rhs


def matrix_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse via linear_solve; preserves extended-precision dtypes."""
    a = np.asarray(a)
    return linear_solve(a, np.eye(a.shape[0], dtype=a.dtype))


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Upper Hessenberg matrix similar to a, by pivoted elementary similarities.

    Step k swaps the largest entry below the diagonal of column k into the
    subdiagonal, subtracts multiples of that row from the rows below it
    and adds the same multiples of their columns to its column.  A column
    that is already zero below the diagonal is skipped.  The dtype is kept.
    """
    a = np.array(a, copy=True)
    columns = a.T  # column j of a is the row columns[j] of this view
    for k in range(a.shape[0] - 2):
        p = int(np.abs(a[k + 1:, k]).argmax()) + k + 1
        if a[p, k] == 0:
            continue
        if p != k + 1:
            row = a[k + 1].copy()
            a[k + 1], a[p] = a[p], row
            column = columns[k + 1].copy()
            columns[k + 1], columns[p] = columns[p], column
        factors = a[k + 2:, k] / a[k + 1, k]
        a[k + 2:, k + 1:] -= np.multiply.outer(factors, a[k + 1, k + 1:])
        a[k + 2:, k] = 0
        columns[k + 1] += np.dot(a[:, k + 2:], factors)
    return a


class GeneratorImages(Mapping):
    """Read-only generator matrices by index, each inverse kept once computed.

    A representation is built once per solution and then used by every
    word product, relation check and action of that solution, so its
    inverses are computed once, not in each of those calls.  ``inverses``
    holds the inverses a builder formed by construction (a layer of the
    holonomy tower forms them with its images); an inverse not given is a
    ``matrix_inverse`` on first use.  Being read-only, the images cannot
    drift from their kept inverses.  ``kept`` holds any other object
    derived from the images, computed once per key.
    """

    def __init__(self, matrices: Mapping[int, np.ndarray] | Sequence[np.ndarray],
                 inverses: Mapping[int, np.ndarray] | Sequence[np.ndarray] = ()):
        self._matrices = dict(matrices if isinstance(matrices, Mapping) else enumerate(matrices))
        self._inverses = dict(inverses if isinstance(inverses, Mapping) else enumerate(inverses))
        self._kept: dict = {}

    @classmethod
    def of(cls, images) -> "GeneratorImages":
        """The images themselves when they keep inverses, else a new wrapper."""
        return images if isinstance(images, cls) else cls(images)

    def __getitem__(self, gen: int) -> np.ndarray:
        return self._matrices[gen]

    def __iter__(self):
        return iter(self._matrices)

    def __len__(self) -> int:
        return len(self._matrices)

    def inverse(self, gen: int) -> np.ndarray:
        if gen not in self._inverses:
            self._inverses[gen] = matrix_inverse(self._matrices[gen])
        return self._inverses[gen]

    def kept(self, key, build: Callable[[], object]):
        """build(), computed on the first call with this key and then kept."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]


def word_product(word, images) -> np.ndarray:
    """Image of a free-group word under generator matrices indexed 0, 1, ...

    The dtype follows the inputs, so extended-precision images give an
    extended-precision product.  ``GeneratorImages`` supply their kept
    inverses and keep the product (or the one ``keep_product`` gave), so
    it is shared and must not be changed in place; for a plain sequence
    or mapping each needed inverse is computed once per call.
    """
    images = GeneratorImages.of(images)

    def build() -> np.ndarray:
        dtype = np.result_type(*(np.asarray(m).dtype for m in images.values()))
        out = np.eye(images[0].shape[0], dtype=dtype)
        for gen, exp in word.letters:
            out = np.dot(out, images[gen] if exp > 0 else images.inverse(gen))
        return out
    return images.kept(("word_product", word.letters), build)


def keep_product(images: GeneratorImages, word, product: np.ndarray) -> None:
    """Keep product, word multiplied out by the caller, for ``word_product``.

    It must have the bits ``word_product`` would give; an earlier kept
    product stays.
    """
    images.kept(("word_product", word.letters), lambda: product)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Laurent polynomial sum c_e * x^e stored as {exponent: complex coeff}.

    Exact zeros are never stored; near-zeros are kept, so that every
    tolerance decision stays visible at its call site.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, complex]] = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (LaurentPoly, (self.coeffs,))

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[complex], min_exp: int = 0) -> "LaurentPoly":
        return cls({min_exp + i: c for i, c in enumerate(coeffs)})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    @property
    def span(self) -> int:
        return self.max_exp - self.min_exp if self.coeffs else 0

    def coeff(self, e: int) -> complex:
        return self.coeffs.get(e, 0j)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def dense(self) -> tuple[int, list[complex]]:
        """(min_exp, coefficient list from min_exp to max_exp inclusive)."""
        if not self.coeffs:
            return 0, [0j]
        lo, hi = self.min_exp, self.max_exp
        out = [0j] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            out[e - lo] = c
        return lo, out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0j) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, float, complex)):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0j) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def evaluate(self, z):
        """Horner-free evaluation; z may be complex, a numpy scalar or an array."""
        total = z * 0
        for e, c in self.coeffs.items():
            total = total + (z ** e) * c
        return total

    def realified(self, rel_tol: float = 1e-6) -> "LaurentPoly":
        """Drop imaginary parts when they are relatively tiny; else unchanged."""
        m = self.max_abs()
        if m == 0.0:
            return self
        if all(abs(c.imag) <= rel_tol * m for c in self.coeffs.values()):
            return LaurentPoly({e: complex(c.real, 0.0) for e, c in self.coeffs.items()})
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        bits = []
        for e in sorted(self.coeffs):
            bits.append("(%r)*x^%d" % (self.coeffs[e], e))
        return "LaurentPoly(%s)" % " + ".join(bits)


def laurent_distance(p: LaurentPoly, q: LaurentPoly) -> float:
    """Largest coefficient difference, relative to the larger max coefficient (or 1)."""
    return (p - q).max_abs() / max(p.max_abs(), q.max_abs(), 1.0)


def normalize_unit(p: LaurentPoly, lead_tol: float = 1e-6) -> LaurentPoly:
    """Shift min exponent to 0; scale leading coefficient to +1 when |lead| ~ 1."""
    if p.is_zero():
        return p
    q = p.shifted(-p.min_exp)
    lead = q.coeff(q.max_exp)
    if abs(abs(lead) - 1.0) <= lead_tol:
        q = q * (1.0 / lead)
    return q


def interpolate_on_circle(value_at: Callable, count: int, *, lo: int = 0,
                          tol: float = 1e-8,
                          radii: Sequence[float] = DET_RADII,
                          real: bool = False) -> LaurentPoly:
    """Laurent polynomial sum_{k < count} c_{lo+k} x^(lo+k) from its values.

    value_at receives one extended-precision array of points on a circle
    (sample points, then two fresh validation phases) and returns the
    function values there as an array of the same length: one call per
    radius.  The samples are the count points r exp(2 pi i k / count).
    With ``real`` the caller promises real coefficients, so the value at a
    conjugate point is the conjugate value: value_at then gets only the
    samples k = 0 ... count // 2 and sample count - k is filled with the
    conjugate of sample k.  The coefficients come from one inverse DFT of
    the count samples, and the result must reproduce each validation value
    within tol relative to the largest sample (or reference) magnitude.
    An ArithmeticError from sampling or validation moves on to the next
    radius; when every radius fails, the error names them all.
    """
    k = np.arange(count)
    theta = np.concatenate([
        2 * _PI * k.astype(_REAL_DT) / _REAL_DT(count),
        (np.array([0.37, 0.71]) * 2 * np.pi / count).astype(_REAL_DT),
    ])
    unit = np.cos(theta) + 1j * np.sin(theta)
    # entry (k, j) is exp(-2 pi i jk / count)
    dft = unit[:count].conj()[np.outer(k, k) % count]
    half = count // 2 + 1 if real else count
    asked = np.r_[0:half, count:count + 2]
    failures = []
    for radius in radii:
        r = _REAL_DT(radius)
        points = r * unit
        try:
            sampled = np.asarray(value_at(points[asked]), dtype=EXT_COMPLEX)
            values = sampled[:half]
            # samples count - k = conj(sample k); none are missing when half == count
            values = np.concatenate([values, values[1:count - half + 1][::-1].conj()])
            raw = np.dot(dft, values / points[:count] ** lo) / count
            size = np.abs(raw.astype(complex))
            coeffs = raw / r ** k.astype(_REAL_DT)
            # the cutoff, relative to the largest radius-scaled coefficient,
            # sits above the DFT's rounding and below real coefficients: a
            # degree-32 determinant with coefficients up to 2.5e11 can have
            # constant term 1
            poly = LaurentPoly({lo + j: coeffs[j]
                                for j in np.flatnonzero(size > 1e-15 * size.max())})
            scale = max(float(np.max(np.abs(values.astype(complex)))), 1.0)
            for z, reference in zip(points[count:], sampled[half:]):
                residual = abs(complex(poly.evaluate(z) - reference))
                if not residual <= tol * max(scale, abs(complex(reference))):
                    raise ArithmeticError(
                        "validation residual %.3e vs scale %.3e" % (residual, scale))
            return poly
        except ArithmeticError as err:
            failures.append("radius %g: %s" % (radius, err))
    raise ArithmeticError("interpolation failed at every radius in %s (%s)"
                          % (tuple(radii), "; ".join(failures)))


def det_polymatrix(coeffs: Mapping[int, np.ndarray], tol: float = 1e-8,
                   radii: Sequence[float] = DET_RADII) -> LaurentPoly:
    """Determinant of the square polynomial matrix sum_w x^w coeffs[w].

    Samples the row-wise exponent window: row i spans the smallest to the
    largest w for which row i of coeffs[w] is nonzero, and the window is
    the sum of those spans.  A row that is zero in every coeffs[w] (or an
    empty map) gives the zero polynomial.  Real matrices give a real
    polynomial, sampled on half the circle.
    """
    if not coeffs:
        return LaurentPoly.zero()
    exps = np.array(sorted(coeffs))
    stack = np.array([coeffs[w] for w in exps], dtype=EXT_COMPLEX)
    if stack.shape[1] != stack.shape[2]:
        raise ValueError("determinant of a non-square polynomial matrix")
    live = np.any(stack != 0, axis=2).T  # live[i, k]: row i of coeffs[exps[k]] is nonzero
    if not np.all(np.any(live, axis=1)):
        return LaurentPoly.zero()
    lo = sum(int(exps[row].min()) for row in live)
    hi = sum(int(exps[row].max()) for row in live)
    return interpolate_on_circle(lambda z: matrix_det(np.tensordot(z[:, None] ** exps, stack, axes=1)),
                                 hi - lo + 1, lo=lo, tol=tol, radii=radii,
                                 real=all(np.isrealobj(m) for m in coeffs.values()))


def char_poly(m: np.ndarray) -> LaurentPoly:
    """det(m - t I) by La Budde's recurrence on the upper Hessenberg form of m.

    m is reduced once (``_hessenberg``), in extended precision of its own
    kind (real for a real m), to H with subdiagonal s.  For
    p_k = det(t I - H_k), H_k the leading k x k block of H, expansion along
    the last column of H_{k+1} gives p_0 = 1 and

        p_{k+1}(t) = t p_k(t) - sum_{i <= k} g_ik p_i(t),  g_ik = h_ik s_i ... s_{k-1},

    and det(m - t I) = (-1)^n p_n (Rehman and Ipsen, "La Budde's method for
    computing characteristic polynomials", 2011; Wilkinson, The Algebraic
    Eigenvalue Problem, 1965).  The recurrence is O(n^3), needs no
    pivoting and cannot fail.  The leading coefficient is exactly (-1)^n,
    and a real m gives exactly real coefficients.
    """
    n = m.shape[0]
    h = _hessenberg(m.astype(_REAL_DT if np.isrealobj(m) else EXT_COMPLEX))
    # steps[j, k] = s_j for j < k, else 1, so the running product up column k
    # is s_i ... s_{k-1} in each row i <= k, the only rows the loop reads
    steps = np.where(np.arange(n)[:, None] < np.arange(n), np.append(np.diagonal(h, -1), 1)[:, None], 1)
    g = h * np.cumprod(steps[::-1], axis=0)[::-1]
    p = np.zeros((n + 1, n + 1), dtype=h.dtype)
    p[0, 0] = 1
    for k in range(n):
        p[k + 1, 1:] = p[k, :-1]
        p[k + 1] -= np.dot(g[:k + 1, k], p[:k + 1])
    return LaurentPoly.from_coeffs(-p[n] if n % 2 else p[n])


def quotient_interpolate(numerator_at: Callable, denominator_at: Callable,
                         quotient_degree: int, tol: float = 1e-8,
                         radii: Sequence[float] = QUOTIENT_RADII) -> LaurentPoly:
    """Interpolate q(x) = numerator(x)/denominator(x) as a polynomial.

    Both callables receive the extended-precision array of all sample and
    validation points of one radius and return the values there.  A zero
    or non-finite denominator at any of those points fails that radius.
    Pointwise division replaces long division, which amplifies noise
    combinatorially where the denominator's roots cluster at x = 1; each
    radius r keeps every sample at distance >= |r - 1| from that cluster.
    When q is not a polynomial of degree quotient_degree, validation fails
    at every radius and an ArithmeticError is raised.
    """
    def value_at(z):
        den = denominator_at(z)
        if np.any(den == 0) or not np.all(np.isfinite(np.asarray(den, dtype=complex))):
            raise ArithmeticError("denominator vanished at a sample point")
        return numerator_at(z) / den

    return interpolate_on_circle(value_at, quotient_degree + 1, tol=tol, radii=radii)


def poly_quotient(dividend, divisor) -> np.ndarray:
    """Quotient of polynomial long division, coefficients highest degree first.

    The bits of ``np.polydiv(dividend, divisor)[0]``: both inputs get
    ``+ 0.0`` (no negative zeros), the quotient and running remainder take
    their common dtype, and the reciprocal of the leading divisor
    coefficient stays in the divisor's own dtype.  The remainder, which
    np.polydiv trims with an ``allclose`` per leading zero, is dropped.
    """
    rem, div = np.atleast_1d(dividend) + 0.0, np.atleast_1d(divisor) + 0.0
    rem = rem.astype(np.result_type(rem, div))
    scale, n = 1.0 / div[0], len(div) - 1
    quotient = np.zeros(max(len(rem) - n, 1), dtype=rem.dtype)
    for k in range(len(rem) - n):
        quotient[k] = step = scale * rem[k]
        rem[k:k + n + 1] -= step * div
    return quotient


def root_multiplicity(p: LaurentPoly, z0: complex, tol: float = 1e-6) -> tuple[int, LaurentPoly]:
    """Multiplicity of z0 as a root, with the deflated polynomial.

    Synthetic division by (x - z0) repeats while the remainder stays within
    tol relative to the current coefficient scale; on exit the deflated
    value at z0 exceeds that threshold.
    """
    if p.is_zero():
        return 0, p
    _, coeffs = p.dense()
    count = 0
    while len(coeffs) > 1:
        scale = max(abs(c) for c in coeffs)
        if scale == 0.0:
            break
        quot = [0j] * (len(coeffs) - 1)
        acc = 0j
        for i in range(len(coeffs) - 1, 0, -1):
            acc = coeffs[i] + acc * z0
            quot[i - 1] = acc
        rem = coeffs[0] + acc * z0
        if abs(rem) <= tol * scale:
            coeffs = quot
            count += 1
        else:
            break
    return count, LaurentPoly.from_coeffs(coeffs, 0)


def _ranked_svd(m: np.ndarray, tol: float, *, compute_uv: bool):
    """m's rank by the package's one rule, s > tol * s[0], and its SVD in double.

    Extended-precision inputs are cast down to double first (LAPACK has no
    longdouble kernels); real stays real.  The SVD is (u, s, vh), or s
    alone without ``compute_uv``, and None for an empty m, of rank 0.
    This is the package's only SVD, so its only rank rule;
    ``tests/test_imports.py`` fails on an svd anywhere else.
    """
    double = np.atleast_2d(np.asarray(m))
    if double.dtype == np.clongdouble:
        double = double.astype(np.complex128)
    elif double.dtype == np.longdouble:
        double = double.astype(np.float64)
    if double.size == 0:
        return 0, None
    svd = np.linalg.svd(double, full_matrices=True, compute_uv=compute_uv)
    s = svd[1] if compute_uv else svd
    return int(np.sum(s > tol * s[0])), svd


def nullity(m: np.ndarray, tol: float = 1e-9) -> int:
    """Kernel dimension of m, ``nullspace(m, tol).shape[1]``, from singular values alone."""
    return np.atleast_2d(np.asarray(m)).shape[1] - _ranked_svd(m, tol, compute_uv=False)[0]


def nullspace(m: np.ndarray, tol: float = 1e-9, *, refine: bool = False) -> np.ndarray:
    """Orthonormal kernel basis (columns); tol is relative to sigma_max.

    The rank comes from ``_ranked_svd``, in double; callers keep precision
    by multiplying the basis back into their own extended matrices, or ask
    for ``refine``: in m's own precision, one Newton step N - m^+ (m N)
    makes m annihilate the basis and one step N (3 - N^H N) / 2 makes it
    orthonormal again.  A caller that reads only the kernel's dimension
    calls ``nullity``.
    """
    given = np.atleast_2d(np.asarray(m))
    n = given.shape[1]
    rank, factors = _ranked_svd(given, tol, compute_uv=True)
    if factors is None:
        return np.eye(n)
    u, s, vh = factors
    if s[0] == 0.0:
        return np.eye(n, dtype=vh.dtype)
    basis = vh[rank:].conj().T
    if refine:
        step = np.dot(u[:, :rank].conj().T, np.dot(given, basis)) / s[:rank, None]
        basis = basis - np.dot(vh[:rank].conj().T, step)
        basis = np.dot(basis, 3 * np.eye(n - rank) - np.dot(basis.conj().T, basis)) / 2
    return basis


def compress(m: np.ndarray, basis: np.ndarray, leak_message: str) -> np.ndarray:
    """basis^H m basis for orthonormal columns spanning an m-invariant subspace.

    Raises ArithmeticError(leak_message) when m (or a member of a stack m)
    carries the subspace out of itself by more than 1e-7 relative to max(1, max|m|).
    """
    carried = np.dot(m, basis)
    compressed = np.moveaxis(np.dot(basis.conj().T, carried), 0, -2)
    leak = np.max(np.abs(carried - np.moveaxis(np.dot(basis, compressed), 0, -2)),
                  axis=(-2, -1), initial=0.0).astype(float)
    if np.any(leak > 1e-7 * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)).astype(float))):
        raise ArithmeticError(leak_message)
    return compressed


def integer_round(p: LaurentPoly, tol: float = 1e-6) -> Optional[list[int]]:
    """Integer coefficient list (from the min exponent) or None past tolerance."""
    _, coeffs = p.dense()
    out = []
    for c in coeffs:
        k = round(c.real)
        if abs(c.real - k) > tol or abs(c.imag) > tol:
            return None
        out.append(int(k))
    return out
