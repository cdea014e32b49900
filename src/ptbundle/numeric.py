"""Numeric kernel: Laurent polynomials, determinants, deflation, nullspaces.

Scalars are python ``complex``; matrices are numpy arrays.  Every
polynomial that comes from a numeric function (a determinant of a
polynomial matrix, a characteristic polynomial, a quotient of two
determinants) goes through one engine, ``interpolate_on_circle``: the
function is sampled on a circle, the coefficients are read off with one
inverse DFT, and the result is validated at two fresh points on the same
circle before it is returned.  A failed sample or validation moves on to
the caller's next radius.  Determinants and characteristic polynomials
use radius 1.13, off the unit circle where group-element spectra like to
sit; quotients use radii 2.0, 2.4 and 1.7, away from the root cluster of
a unipotent denominator at 1.

Sampling, the LU determinants and the DFT run in 80-bit extended
precision when the platform provides it (x86 long double), which keeps
the interpolation's rounding error far below the error inherited from
the input matrices.  All public tolerances are relative: to the largest
sample magnitude for interpolation, to the current max coefficient for
deflation, to the largest singular value for nullspaces.
"""

from __future__ import annotations

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

# Sample circles: determinants and characteristic polynomials, quotients.
DET_RADII = (1.13,)
QUOTIENT_RADII = (2.0, 2.4, 1.7)


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout the pipeline (CLI-overridable)."""

    det: float = 1e-8    # determinant interpolation validation
    root: float = 1e-6   # root-multiplicity deflation
    null: float = 1e-9   # nullspace singular-value cutoff


def matrix_det(a: np.ndarray):
    """Determinant via partial-pivot LU; preserves the input dtype.

    numpy's det downcasts extended-precision inputs, so sampling code that
    wants clongdouble accuracy must come through here.
    """
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


def linear_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    Unlike numpy.linalg.solve this keeps longdouble/clongdouble inputs in
    their own precision.  b may be a vector or a matrix of right-hand
    sides.  Raises ArithmeticError on an exactly zero pivot.
    """
    a = np.array(a, copy=True)
    vector = np.ndim(b) == 1
    rhs = np.array(b, copy=True, dtype=np.promote_types(a.dtype, np.asarray(b).dtype))
    if vector:
        rhs = rhs.reshape(-1, 1)
    a = a.astype(rhs.dtype, copy=False)
    n = a.shape[0]
    for k in range(n):
        p = int(np.argmax(np.abs(a[k:, k]))) + k
        if a[p, k] == 0:
            raise ArithmeticError("singular matrix in linear_solve")
        if p != k:
            a[[k, p]] = a[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= factors[:, None] * a[k, k:]
        rhs[k + 1:] -= factors[:, None] * rhs[k]
    for k in range(n - 1, -1, -1):
        rhs[k] = (rhs[k] - a[k, k + 1:] @ rhs[k + 1:]) / a[k, k]
    return rhs[:, 0] if vector else rhs


def matrix_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse via linear_solve; preserves extended-precision dtypes."""
    a = np.asarray(a)
    return linear_solve(a, np.eye(a.shape[0], dtype=a.dtype))


def word_product(word, images: Sequence[np.ndarray]) -> np.ndarray:
    """Image of a free-group word under generator matrices indexed 0, 1, ...

    The dtype follows the inputs, so extended-precision images give an
    extended-precision product; each needed inverse is computed once.
    """
    dtype = np.result_type(*(np.asarray(m).dtype for m in images))
    out = np.eye(images[0].shape[0], dtype=dtype)
    inverses: dict[int, np.ndarray] = {}
    for gen, exp in word.letters:
        if exp > 0:
            out = out @ images[gen]
        else:
            if gen not in inverses:
                inverses[gen] = matrix_inverse(images[gen])
            out = out @ inverses[gen]
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Laurent polynomial sum c_e * x^e stored as {exponent: complex coeff}.

    Exact zeros are never stored; near-zeros are only dropped by an explicit
    cleaned() call so that tolerance decisions stay visible at call sites.
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

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def term(cls, coeff: complex, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls({1: 1.0})

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
        """Horner-free evaluation; z may be complex or a numpy scalar."""
        total = z * 0
        for e, c in self.coeffs.items():
            total = total + (z ** e) * c
        return total

    def reciprocal(self) -> "LaurentPoly":
        """x^(max_exp+min_exp) * p(1/x): same coefficient multiset reversed."""
        s = self.max_exp + self.min_exp
        return LaurentPoly({s - e: c for e, c in self.coeffs.items()})

    def cleaned(self, rel_tol: float = 1e-12) -> "LaurentPoly":
        m = self.max_abs()
        if m == 0.0:
            return LaurentPoly()
        return LaurentPoly({e: c for e, c in self.coeffs.items() if abs(c) > rel_tol * m})

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


def laurent_allclose(p: LaurentPoly, q: LaurentPoly, tol: float = 1e-9) -> bool:
    """Coefficientwise comparison, relative to the larger max coefficient."""
    scale = max(p.max_abs(), q.max_abs(), 1.0)
    exps = set(p.coeffs) | set(q.coeffs)
    return all(abs(p.coeff(e) - q.coeff(e)) <= tol * scale for e in exps)


def normalize_unit(p: LaurentPoly, lead_tol: float = 1e-6) -> LaurentPoly:
    """Shift min exponent to 0; scale leading coefficient to +1 when |lead| ~ 1."""
    if p.is_zero():
        return p
    q = p.shifted(-p.min_exp)
    lead = q.coeff(q.max_exp)
    if abs(abs(lead) - 1.0) <= lead_tol:
        q = q * (1.0 / lead)
    return q


def monic_normalize(p: LaurentPoly) -> LaurentPoly:
    """Shift min exponent to 0 and divide by the leading coefficient."""
    if p.is_zero():
        return p
    q = p.shifted(-p.min_exp)
    return q * (1.0 / q.coeff(q.max_exp))


def equal_up_to_unit(p: LaurentPoly, q: LaurentPoly, tol: float = 1e-8,
                     allow_reciprocal: bool = False) -> bool:
    """Whether p = c x^k q for a scalar c (optionally also allowing reversal)."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    pm, qm = monic_normalize(p), monic_normalize(q)
    if pm.span != qm.span:
        return False
    if laurent_allclose(pm, qm, tol):
        return True
    return allow_reciprocal and laurent_allclose(pm, monic_normalize(qm.reciprocal()), tol)


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Matrix with LaurentPoly entries (rows of rows)."""

    __slots__ = ("entries", "shape")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = [list(r) for r in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged PolyMatrix")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "shape", (len(rows), width))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        rows: list[list[LaurentPoly]] = []
        for block_row in blocks:
            height = block_row[0].shape[0]
            if any(b.shape[0] != height for b in block_row):
                raise ValueError("block row heights disagree")
            for i in range(height):
                row: list[LaurentPoly] = []
                for b in block_row:
                    row.extend(b.entries[i])
                rows.append(row)
        return cls(rows)

    def evaluate(self, z) -> np.ndarray:
        vals = [[e.evaluate(z) for e in row] for row in self.entries]
        if not vals:
            return np.zeros((0, 0), dtype=complex)
        return np.array(vals)

    def exponent_window(self) -> Optional[tuple[int, int]]:
        """Row-wise window [lo, hi] containing every determinant exponent.

        lo sums each row's smallest valuation over nonzero entries, hi sums
        the largest degree; a row of zeros makes the determinant zero and
        returns None.
        """
        lo = hi = 0
        for row in self.entries:
            vals = [e for e in row if not e.is_zero()]
            if not vals:
                return None
            lo += min(e.min_exp for e in vals)
            hi += max(e.max_exp for e in vals)
        return lo, hi


def interpolate_on_circle(value_at: Callable, count: int, *, lo: int = 0,
                          tol: float = 1e-8,
                          radii: Sequence[float] = DET_RADII) -> LaurentPoly:
    """Laurent polynomial sum_{k < count} c_{lo+k} x^(lo+k) from its values.

    value_at receives extended-precision points on a circle and returns the
    function value there.  The coefficients come from one inverse DFT of
    count samples, and the result must reproduce value_at at two fresh
    phases within tol relative to the largest sample (or reference)
    magnitude.  An ArithmeticError from sampling or validation moves on to
    the next radius; when every radius fails, the error names them all.
    """
    k = np.arange(count)
    theta = np.concatenate([
        2 * _PI * k.astype(_REAL_DT) / _REAL_DT(count),
        (np.array([0.37, 0.71]) * 2 * np.pi / count).astype(_REAL_DT),
    ])
    unit = np.cos(theta) + 1j * np.sin(theta)
    # entry (k, j) is exp(-2 pi i jk / count)
    dft = unit[:count].conj()[np.outer(k, k) % count]
    failures = []
    for radius in radii:
        r = _REAL_DT(radius)
        points = r * unit
        try:
            values = np.array([value_at(z) for z in points[:count]], dtype=EXT_COMPLEX)
            raw = dft @ (values / points[:count] ** lo) / count
            size = np.abs(raw.astype(complex))
            coeffs = raw / r ** k.astype(_REAL_DT)
            poly = LaurentPoly({lo + j: coeffs[j]
                                for j in np.flatnonzero(size > 1e-12 * size.max())})
            scale = max(float(np.max(np.abs(values.astype(complex)))), 1.0)
            for z in points[count:]:
                reference = value_at(z)
                residual = abs(complex(poly.evaluate(z) - reference))
                if not residual <= tol * max(scale, abs(complex(reference))):
                    raise ArithmeticError(
                        "validation residual %.3e vs scale %.3e" % (residual, scale))
            return poly
        except ArithmeticError as err:
            failures.append("radius %g: %s" % (radius, err))
    raise ArithmeticError("interpolation failed at every radius in %s (%s)"
                          % (tuple(radii), "; ".join(failures)))


def det_polymatrix(m: PolyMatrix, degree_bound: Optional[int] = None,
                   tol: float = 1e-8,
                   radii: Sequence[float] = DET_RADII) -> LaurentPoly:
    """Determinant of a square PolyMatrix by evaluation-interpolation.

    Samples span+1 points (span from the row-wise exponent window, widened
    to degree_bound if the caller supplies a larger promise).
    """
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("determinant of non-square PolyMatrix")
    if rows == 0:
        return LaurentPoly.one()
    window = m.exponent_window()
    if window is None:
        return LaurentPoly.zero()
    lo, hi = window
    span = hi - lo
    if degree_bound is not None:
        span = max(span, int(degree_bound))
    return interpolate_on_circle(lambda z: matrix_det(m.evaluate(z)), span + 1,
                                 lo=lo, tol=tol, radii=radii)


def poly_div_exact(num: LaurentPoly, den: LaurentPoly, tol: float = 1e-8) -> LaurentPoly:
    """Exact Laurent division; raises ArithmeticError when the remainder is large.

    Result has minimum exponent 0 (unit-normalized shift); tol is relative
    to the numerator's max coefficient.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    _, ncoeffs = num.dense()
    _, dcoeffs = den.dense()
    if len(ncoeffs) < len(dcoeffs):
        raise ArithmeticError("numerator degree below denominator degree")
    scale = num.max_abs()
    quot = [0j] * (len(ncoeffs) - len(dcoeffs) + 1)
    rem = list(ncoeffs)
    dlead = dcoeffs[-1]
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(dcoeffs) - 1] / dlead
        quot[k] = q
        if q != 0:
            for i, dc in enumerate(dcoeffs):
                rem[k + i] -= q * dc
    worst = max(abs(c) for c in rem)
    if worst > tol * scale:
        raise ArithmeticError(
            "polynomial division not exact: remainder %.3e vs numerator scale %.3e"
            % (worst, scale))
    return LaurentPoly.from_coeffs(quot, 0).cleaned(1e-14)


def char_poly(m: np.ndarray, tol: float = 1e-8,
              radii: Sequence[float] = DET_RADII) -> LaurentPoly:
    """det(m - t I) by sample-and-interpolate; leading coefficient snapped to (-1)^n."""
    n = m.shape[0]
    if n == 0:
        return LaurentPoly.one()
    base = np.array(m, dtype=EXT_COMPLEX)
    eye = np.eye(n, dtype=EXT_COMPLEX)
    poly = interpolate_on_circle(lambda z: matrix_det(base - z * eye), n + 1,
                                 tol=tol, radii=radii)
    poly = LaurentPoly({**poly.coeffs, n: (-1.0) ** n})
    return poly.realified(1e-6) if np.isrealobj(m) else poly


def quotient_interpolate(numerator_at: Callable, denominator_at: Callable,
                         quotient_degree: int, tol: float = 1e-8,
                         radii: Sequence[float] = QUOTIENT_RADII) -> LaurentPoly:
    """Interpolate q(x) = numerator(x)/denominator(x) known to be polynomial.

    Both callables receive an extended-precision sample point and return the
    determinant value there.  Used where the denominator's roots cluster at
    x = 1 (unipotent meridian images) and coefficientwise long division
    would amplify noise combinatorially; each radius r keeps every sample
    at distance >= |r - 1| from that cluster.
    """
    def value_at(z):
        den = denominator_at(z)
        if den == 0 or not np.isfinite(complex(den)):
            raise ArithmeticError("denominator vanished at a sample point")
        return numerator_at(z) / den

    return interpolate_on_circle(value_at, quotient_degree + 1, tol=tol, radii=radii)


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


def nullspace(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal kernel basis (columns); tol is relative to sigma_max.

    Extended-precision inputs are cast down to double first (LAPACK has no
    longdouble kernels); callers keep precision by multiplying the basis
    back into their own extended matrices.
    """
    m = np.atleast_2d(np.asarray(m))
    if m.dtype == np.clongdouble:
        m = m.astype(np.complex128)
    elif m.dtype == np.longdouble:
        m = m.astype(np.float64)
    n = m.shape[1]
    if m.size == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(n, dtype=vh.dtype)
    rank = int(np.sum(s > tol * smax))
    return vh[rank:].conj().T


# Diverging starts overflow before the finiteness checks below discard them.
@np.errstate(over="ignore", invalid="ignore")
def newton_multistart(fun: Callable, jac: Callable, dim: int, starts: int = 64,
                      seed: int = 0, sampler: Optional[Callable] = None,
                      residual_tol: float = 1e-10, dedup_tol: float = 1e-6,
                      max_iter: int = 80) -> list[np.ndarray]:
    """Solve fun(z) = 0 (C^dim -> C^dim) by Newton from seeded random starts.

    Deterministic for a fixed seed.  Roots are kept when the final residual
    infinity-norm is <= residual_tol, deduplicated at distance dedup_tol,
    and returned sorted lexicographically by (Re, Im) of the coordinates.
    """
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(starts):
        if sampler is not None:
            z = np.asarray(sampler(rng), dtype=complex)
        else:
            z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * 1.5
        converged = False
        for _ in range(max_iter):
            fv = np.asarray(fun(z), dtype=complex)
            if not np.all(np.isfinite(fv)):
                break
            if np.max(np.abs(fv)) < 1e-14:
                converged = True
                break
            try:
                step = np.linalg.solve(np.asarray(jac(z), dtype=complex), -fv)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            z = z + step
            if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(z)))):
                converged = True
                break
        if not converged:
            continue
        # a couple of polish iterations squeeze the residual to machine level
        for _ in range(3):
            fv = np.asarray(fun(z), dtype=complex)
            try:
                z = z + np.linalg.solve(np.asarray(jac(z), dtype=complex), -fv)
            except np.linalg.LinAlgError:
                break
        if np.max(np.abs(np.asarray(fun(z), dtype=complex))) > residual_tol:
            continue
        if any(np.max(np.abs(z - w)) <= dedup_tol for w in found):
            continue
        found.append(z)
    def sort_key(v):
        return tuple(x for c in v for x in (c.real, c.imag))
    return sorted(found, key=sort_key)


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
