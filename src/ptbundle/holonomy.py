"""Holonomy reconstruction for once-punctured torus bundles.

Pipeline: trace equations for the fiber generators, Newton solving over
the Markov surface, explicit 2x2 matrices for the fiber group, meridian
recovery from the gluing relations, and the derived linear
representations (Lorentz 4x4, adjoint 15x15, restricted 9x9, Kronecker
16x16) that feed the twisted Alexander machinery.

The sign changes (A, B, C) -> (eA, dB, edC), alone or with complex
conjugation, give one PSL(2,C) character up to conjugation, so the same
derived representations and polynomials; the solver keeps one root per
orbit of these eight maps, and the tower runs once per character.

Each twist acts on characters by a polynomial map (the mapping-class
action on Fricke coordinates; Goldman, Geom. Topol. 2003), so
``trace_system`` composes the letters' maps in reading order and sorts
the terms of each fixed-point equation.  The equations are compiled once
into a ``CompiledTraceSystem``, which evaluates the equations and their
partials at a whole batch of Newton starts with the exact arithmetic of
``TracePoly.evaluate`` at each one: one ``np.power`` table, gathered
into real and imaginary planes, the products as in-place real ufuncs on
those planes, and one in-order complex ``cumsum`` per Jacobian row.  The
same compiled system serves the multistart solve in double precision
and, on EXT_COMPLEX points, the polish of every solution.

Each solution is lifted once, in extended precision: the polished triple
gives the fiber pair and both phi-images, the four sign patterns of the
gluing relations are tried once, and the one intertwining system with a
one-dimensional kernel gives the meridian by inverse iteration.

Every layer of the tower is a Kronecker square followed by a constant
read-out, and every layer is a ``GeneratorImages`` of a, b, x (indices
0, 1, 2).  The Lorentz image of M is M (x) conj(M) on the Hermitian
basis, read in Minkowski coordinates; ``sl4`` is g (x) g^-T on the
traceless basis ``SL4_VECS``, read by ``SL4_COORDS``; ``v`` restricts
it to the Killing complement, a constant built from an explicit basis;
``gl16`` is g (x) g.  No layer inverts by elimination: a 2x2 inverse is
the adjugate over the determinant, and every other layer reads its
inverses off the layer below (the Lorentz image of the 2x2 inverse, the
``sl4`` read-out of g^-1 (x) g^T, the restricted ``sl4`` inverse,
g^-1 (x) g^-1), each built on first use.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .numeric import (
    EXT_COMPLEX,
    ORIGIN_RADIUS,
    GeneratorImages,
    Tolerances,
    compress,
    linear_solve,
    matrix_det,
    newton_multistart,
    nullspace,
    word_product,
)
from .presentation import MonodromySpec, monodromy_endo
from .words import EndoF2, parse_word

# Matrices downstream of the trace solution are built in extended precision
# (EXT_COMPLEX) so the characteristic-polynomial coefficients (up to ~10^6
# for the worked bundles) survive integer rounding at 1e-6.  LAPACK-backed
# steps (SVD kernels) stay in double; everything else preserves the dtype.

# ---------------------------------------------------------------------------
# Integer polynomials in the three trace coordinates.
# ---------------------------------------------------------------------------

# Exponent triples (i, j, k) stand for A^i * B^j * C^k where A, B, C are
# the traces of a, b, ab.


class TracePoly:
    """Polynomial with integer coefficients in the trace coordinates."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        clean = {}
        if terms:
            for key, val in terms.items():
                if val:
                    clean[key] = int(val)
        self.terms = clean

    @staticmethod
    def constant(value: int) -> "TracePoly":
        return TracePoly({(0, 0, 0): value})

    @staticmethod
    def variable(index: int) -> "TracePoly":
        key = [0, 0, 0]
        key[index] = 1
        return TracePoly({tuple(key): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TracePoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "TracePoly | int") -> "TracePoly":
        if isinstance(other, int):
            other = TracePoly.constant(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0) + val
        return TracePoly(out)

    def __neg__(self) -> "TracePoly":
        return TracePoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "TracePoly | int") -> "TracePoly":
        if isinstance(other, int):
            other = TracePoly.constant(other)
        return self + (-other)

    def __mul__(self, other: "TracePoly | int") -> "TracePoly":
        if isinstance(other, int):
            return TracePoly({k: v * other for k, v in self.terms.items()})
        out: dict[tuple[int, int, int], int] = {}
        for (i1, j1, k1), v1 in self.terms.items():
            for (i2, j2, k2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + v1 * v2
        return TracePoly(out)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence[complex]) -> complex:
        a, b, c = point
        total = 0j
        for (i, j, k), val in self.terms.items():
            total += val * a**i * b**j * c**k
        return total

    def partial(self, index: int) -> "TracePoly":
        out: dict[tuple[int, int, int], int] = {}
        for key, val in self.terms.items():
            exp = key[index]
            if exp == 0:
                continue
            new = list(key)
            new[index] = exp - 1
            tup = tuple(new)
            out[tup] = out.get(tup, 0) + val * exp
        return TracePoly(out)


MARKOV = (
    TracePoly.variable(0) * TracePoly.variable(0)
    + TracePoly.variable(1) * TracePoly.variable(1)
    + TracePoly.variable(2) * TracePoly.variable(2)
    - TracePoly.variable(0) * TracePoly.variable(1) * TracePoly.variable(2)
)


# ---------------------------------------------------------------------------
# The trace equations of a monodromy word.
# ---------------------------------------------------------------------------


def trace_system(spec: MonodromySpec) -> tuple[TracePoly, TracePoly, TracePoly]:
    """Fixed-point trace equations for a monodromy word.

    Returns (tr phi(a) - A, tr phi(b) - B, markov) where markov vanishes
    exactly when the peripheral holonomy is parabolic with trace -2.  The
    twists act on characters by L: (A, B, C) -> (C, B, BC - A) and
    R: (A, B, C) -> (A, C, AC - B), composed in reading order; the
    elliptic involution of a negated word fixes every character.  The
    terms of each fixed-point equation come sorted by exponent triple,
    the order in which ``CompiledTraceSystem`` sums them.
    """
    variables = [TracePoly.variable(i) for i in range(3)]
    a, b, c = variables
    for letter in spec.letters:
        a, b, c = (c, b, b * c - a) if letter == "L" else (a, c, a * c - b)
    eq_a, eq_b = (TracePoly(dict(sorted((image - var).terms.items())))
                  for image, var in zip((a, b), variables))
    return (eq_a, eq_b, MARKOV)


# ---------------------------------------------------------------------------
# Batched evaluation of a trace system.
# ---------------------------------------------------------------------------

# The batched evaluation repeats, at every point, the floating-point
# operations of TracePoly.evaluate, because a Newton start near a basin
# boundary goes to another root when a value changes in its last bit.  It
# relies on three rules:
# - ``np.power`` on a complex array runs numpy's scalar ``z ** n``;
# - numpy's array complex multiply rounds apart from the scalar one, so
#   each product is written out in real ufuncs with the scalar's
#   operations: int * complex is (c ar - ai 0.0, c ai + ar 0.0), where the
#   zero products keep signed zeros and turn an infinite power into NaN,
#   and complex * complex is (re fr - im fi, re fi + im fr);
# - ``cumsum`` adds in order, as the scalar loop does (``np.sum``, ``@``
#   and ``np.add.reduce`` add pairwise or in blocks, at least for one
#   point), and a sum that starts at +0 never becomes -0, so adding a
#   zero term leaves it unchanged.


class CompiledTraceSystem:
    """Three trace equations and their nine partials, compiled for Newton.

    The terms are laid out by Jacobian row: equation i, then its partials
    by A, B and C, each led by a zero term (as 0j leads the scalar sum) and
    padded with zero terms to the row's widest polynomial.  Calling the
    system on a (k, 3) array of points builds one power table and gathers
    its real and imaginary parts for every term into two real arrays.  The
    coefficient step and the two factor products run in place on those
    arrays, the terms are assembled as complex numbers once, and each row
    is summed with one ``cumsum``.  It returns the values (k, 3) and the
    Jacobians (k, 3, 3) in the complex dtype of the points (complex128 for
    the Newton starts, EXT_COMPLEX for the polish); every entry has the
    bits that TracePoly.evaluate gives at that point.  ``equations`` and
    ``partials`` keep the polynomials.
    """

    def __init__(self, equations: Sequence[TracePoly]):
        self.equations = tuple(equations)
        self.partials = tuple(tuple(eq.partial(i) for i in range(3)) for eq in self.equations)
        rows = [(eq, *row) for eq, row in zip(self.equations, self.partials)]
        widths = [1 + max(len(p.terms) for p in row) for row in rows]
        terms = [term for row, width in zip(rows, widths) for p in row
                 for term in [((0, 0, 0), 0), *p.terms.items()]
                 + [((0, 0, 0), 0)] * (width - 1 - len(p.terms))]
        # first term and width of each Jacobian row
        self._rows = list(zip(np.cumsum([0] + [4 * w for w in widths[:2]]), widths))
        exps = np.array([key for key, _ in terms], dtype=np.intp)
        self._coeffs = np.array([[float(val)] for _, val in terms])
        self._exponents = np.arange(exps.max() + 1)[:, None]
        # row of A^i, B^j, C^k of each term in the power table
        self._gather = (exps + np.arange(3) * len(self._exponents)).T

    def __call__(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Blocks of points keep each complex (padded terms, points) array
        # near 128 kB, so long words reuse freed heap memory instead of
        # raising peak RSS.
        block = max(1, 8192 // len(self._coeffs))
        sums = np.empty((3, 4, len(z)), dtype=z.dtype)
        for lo in range(0, len(z), block):
            self._sums(z[lo:lo + block], sums[..., lo:lo + block])
        return sums[:, 0].T, sums[:, 1:].transpose(2, 0, 1)

    def _sums(self, z: np.ndarray, out: np.ndarray) -> None:
        # [variable and exponent, point]
        table = np.power(z.T[:, None], self._exponents).reshape(3 * len(self._exponents), len(z))
        # [A, B or C factor, term, point], real and imaginary planes
        (ar, br, cr), (ai, bi, ci) = (part.take(self._gather, axis=0)
                                      for part in (table.real, table.imag))
        # coeff * A^i as numpy's scalar int * complex
        re, im = self._coeffs * ar, self._coeffs * ai
        np.subtract(re, np.multiply(ai, 0.0, out=ai), out=re)
        np.add(im, np.multiply(ar, 0.0, out=ar), out=im)
        # times B^j, then C^k, with ar and ai as scratch
        for fr, fi in (br, bi), (cr, ci):
            np.multiply(re, fi, out=ar)
            np.multiply(im, fr, out=ai)
            np.subtract(np.multiply(re, fr, out=re), np.multiply(im, fi, out=im), out=re)
            np.add(ar, ai, out=im)
        terms = np.empty(re.shape, dtype=z.dtype)
        terms.real, terms.imag = re, im
        for row, (start, width) in enumerate(self._rows):
            part = terms[start:start + 4 * width].reshape(4, width, len(z))
            out[row] = part.cumsum(axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Solving the trace equations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceTriple:
    """One solution (tr a, tr b, tr ab) of the trace equations."""

    trace_a: complex
    trace_b: complex
    trace_ab: complex
    orbit_roots: int = 1  # solver roots it stands for: itself, sign images, conjugates

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.trace_a, self.trace_b, self.trace_ab)


def _markov_sampler(rng: np.random.Generator) -> np.ndarray:
    """Random start on or near the Markov surface.

    Half the draws are plain complex Gaussians; the other half pick A, B
    at random and solve the Markov relation for C, which concentrates
    starts on the surface carrying the geometric solution.
    """
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    if rng.integers(2) == 0:
        return 1.5 * raw
    a, b = 1.5 * raw[0], 1.5 * raw[1]
    # C^2 - (AB) C + (A^2 + B^2) = 0
    disc = cmath.sqrt((a * b) ** 2 - 4.0 * (a * a + b * b))
    c = ((a * b) + disc) / 2.0 if rng.integers(2) == 0 else ((a * b) - disc) / 2.0
    return np.array([a, b, c], dtype=complex)


# Roots this close in max norm are one root, and a root this close to an
# image of a kept root is in that root's orbit.
_DEDUP_TOL = 1e-6

# (A, B, C) -> (eA, dB, edC) for the four sign pairs (e, d).
_SIGN_CHANGES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


def solve_traces(
    system: CompiledTraceSystem, *, starts: int = 64, seed: int = 0
) -> list[TraceTriple]:
    """Solve the trace equations by deterministic multistart Newton.

    Returns one irreducible solution per PSL(2,C) character.  Real triples
    and triples with C ~ 0 are dropped (they cannot give an irreducible
    SL2 representation with parabolic boundary).  So are triples within
    ``ORIGIN_RADIUS`` of 0, the trivial character (0, 0, 0) of the finite
    Q8 representation, which every word's system has, and roots with one
    of their eight sign and conjugation images within ``_DEDUP_TOL`` of a
    kept root.  The first root of an orbit in sorted order is kept, and its
    ``orbit_roots`` counts the roots it stands for.  ``system`` is the
    compiled ``trace_system`` of the word.
    """
    roots = newton_multistart(
        system,
        3,
        starts=starts,
        seed=seed,
        sampler=_markov_sampler,
        residual_tol=1e-10,
        dedup_tol=_DEDUP_TOL,
    )

    kept: list[np.ndarray] = []
    counts: list[int] = []
    for root in roots:
        if max(abs(root)) < ORIGIN_RADIUS:
            continue  # the trivial character, fixed by both letter maps
        if max(abs(root.imag)) < 1e-8:
            continue  # real solutions never give the discrete faithful one
        if abs(root[2]) < 1e-8:
            continue  # C = 0 breaks the explicit matrix model
        signed = _SIGN_CHANGES * root
        images = np.concatenate([signed, signed.conj()])
        for k, prev in enumerate(kept):
            if np.min(np.max(np.abs(images - prev), axis=1)) < _DEDUP_TOL:
                counts[k] += 1
                break
        else:
            kept.append(root)
            counts.append(1)
    return [TraceTriple(*map(complex, r), orbit_roots=n) for r, n in zip(kept, counts)]


# ---------------------------------------------------------------------------
# SL2 holonomy of one solution.
# ---------------------------------------------------------------------------


def _model_matrices(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Maclachlan-Reid normal form for the free group on a, b.

    The pair has tr a = A, tr b = B, tr ab = C, and both matrices have
    determinant 1 exactly when the triple satisfies the Markov relation.
    The dtype follows the scalars.
    """
    mat_a = np.array([[a * c - b, a / c], [a * c, b]]) / c
    mat_b = np.array([[b * c - a, -b / c], [-b * c, a]]) / c
    return mat_a, mat_b


LONGITUDE = parse_word("abAB", ("a", "b", "x"))


def sl2_images(mats: Sequence[np.ndarray]) -> GeneratorImages:
    """2x2 images whose inverses are their adjugates over their determinants."""
    def invert(gen: int) -> np.ndarray:
        (a, b), (c, d) = mats[gen]
        return np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    return GeneratorImages(mats, invert)


def _polish_triple(triple: TraceTriple, system: CompiledTraceSystem) -> np.ndarray:
    """A few extended-precision Newton steps on the trace equations."""
    z = np.array(triple.as_tuple(), dtype=EXT_COMPLEX)
    for _ in range(4):
        values, jac = system(z[None])
        z = z - linear_solve(jac[0], values[0])
    return z


def holonomy_from_triple(
    triple: TraceTriple,
    endo: EndoF2,
    system: CompiledTraceSystem,
    *,
    null_tol: float = 1e-9,
) -> GeneratorImages:
    """SL2 holonomy of one trace solution, built once in extended precision.

    The triple is polished on the trace equations and gives the fiber pair
    of ``_model_matrices``.  The meridian X satisfies
    X rho(g) X^-1 = +-rho(phi(g)) for g = a, b; the gluing relations fix
    the conjugation only up to sign in SL2, so all four sign patterns are
    tried, and exactly one intertwining space must be one-dimensional (the
    fiber representation is irreducible).  Those rank decisions run in
    double precision; the kernel vector is then sharpened by inverse
    iteration on the chosen system, X is scaled to determinant 1, and the
    lift with trace nearest -2 is returned with the fiber pair, as the
    images of a, b, x.  ``endo`` is the word's automorphism and ``system``
    its compiled ``trace_system``.
    """
    if abs(triple.trace_ab) < 1e-12:
        raise ValueError("trace of ab must be nonzero for the matrix model")
    mats = _model_matrices(*_polish_triple(triple, system))
    fiber = sl2_images(mats)
    targets = [word_product(image, fiber) for image in (endo.image_a, endo.image_b)]
    eye = np.eye(2, dtype=EXT_COMPLEX)
    found = []
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # Row-major vec: vec(XP - QX) = (I (x) P^T - Q (x) I) vec(X).
        stacked = np.vstack([np.kron(eye, mat.T) - np.kron(sign * target, eye)
                             for mat, target, sign in zip(mats, targets, signs)])
        basis = nullspace(stacked, tol=null_tol)
        if basis.shape[1] == 1:
            found.append((stacked, basis[:, 0]))
    if not found:
        raise ArithmeticError("no meridian intertwiner found; traces may be spurious")
    if len(found) > 1:
        raise ArithmeticError("meridian intertwiner is not unique across sign lifts")
    ((stacked, vec),) = found
    # The kernel direction dominates a solve with the normal matrix, so two
    # solve-and-normalize rounds from the double vector give it to extended
    # accuracy.
    normal = stacked.conj().T @ stacked
    shifted = normal + np.finfo(np.longdouble).eps * np.max(np.abs(normal)) * np.eye(4)
    vec = vec.astype(EXT_COMPLEX)
    for _ in range(2):
        vec = linear_solve(shifted, vec)
        vec = vec / np.sqrt(np.sum(np.abs(vec) ** 2))
    mat_x = vec.reshape(2, 2)
    det = mat_x[0, 0] * mat_x[1, 1] - mat_x[0, 1] * mat_x[1, 0]
    if abs(det) < 1e-12:
        raise ArithmeticError("meridian intertwiner is singular")
    mat_x = mat_x / np.sqrt(det)
    if abs(np.trace(-mat_x) + 2.0) < abs(np.trace(mat_x) + 2.0):
        mat_x = -mat_x
    return sl2_images([*mats, mat_x])


def holonomy_residuals(images: GeneratorImages, endo: EndoF2) -> dict[str, float]:
    """Diagnostics of the SL2 images: relation defects (up to sign),
    unimodularity, cusp traces.

    ``meridian_parabolic`` is |tr X - 2s| for the sign s nearer tr X, or
    1.0 when X - sI is zero relative to X: +-I is not parabolic.
    """
    out: dict[str, float] = {}
    mat_x = images[2]
    for name, gen, image in (("relation_a", 0, endo.image_a),
                             ("relation_b", 1, endo.image_b)):
        lhs = mat_x @ images[gen] @ images.inverse(2)
        rhs = word_product(image, images)
        defect = min(
            float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs + rhs)))
        )
        out[name] = defect
    for name, mat in zip(("det_a", "det_b", "det_x"), images.values()):
        out[name] = float(abs(complex(matrix_det(mat)) - 1.0))
    trace = np.trace(mat_x)
    sign = 1.0 if abs(trace - 2.0) <= abs(trace + 2.0) else -1.0
    scale = Tolerances().null * max(1.0, float(np.max(np.abs(mat_x))))
    central = float(np.max(np.abs(mat_x - sign * np.eye(2)))) <= scale
    out["meridian_parabolic"] = 1.0 if central else float(abs(trace - 2.0 * sign))
    longitude = word_product(LONGITUDE, images)
    out["longitude_trace"] = abs(complex(np.trace(longitude)) + 2.0)
    return out


# ---------------------------------------------------------------------------
# The tower: Kronecker squares followed by constant read-outs.
# ---------------------------------------------------------------------------

# Matrices are vectorized row-major, so vec(P X Q) = (P (x) Q^T) vec(X).

# Columns: vec of the Hermitian basis matrices sigma_x, sigma_y, sigma_z, I.
_HERMITIAN_VECS = np.array([[0, 1, 1, 0], [0, 1j, -1j, 0],
                            [1, 0, 0, -1], [1, 0, 0, 1]], dtype=complex).T

LORENTZ_FORM = np.diag([1.0, 1.0, 1.0, -1.0])


def psl2_to_lorentz(mat: np.ndarray) -> np.ndarray:
    """Image of a PSL2 element in SO(3,1) via the Hermitian action H -> M H M*.

    The action is M (x) conj(M) on vec(H).  Coordinates on Hermitian
    matrices: x1 = Re H[0,1], x2 = Im H[0,1], x3 = (H[0,0] - H[1,1])/2,
    x4 = (H[0,0] + H[1,1])/2, so that -det H = x1^2 + x2^2 + x3^2 - x4^2.
    """
    images = np.kron(mat, mat.conj()) @ _HERMITIAN_VECS
    scale = max(1.0, float(np.max(np.abs(mat))) ** 2)
    # vec(H*) lists conj(H) with H[0,1] and H[1,0] swapped
    herm_defect = float(np.max(np.abs(images - images[[0, 2, 1, 3]].conj())))
    if herm_defect > 1e-9 * scale:
        raise ArithmeticError("Hermitian action produced a non-Hermitian matrix")
    out = np.array([images[1].real, images[1].imag, (images[0] - images[3]).real / 2.0,
                    (images[0] + images[3]).real / 2.0])  # real longdouble stays
    defect = float(np.max(np.abs(out.T @ LORENTZ_FORM @ out - LORENTZ_FORM)))
    if defect > 1e-7 * scale**2:
        raise ArithmeticError("Lorentz image failed the J-orthogonality check")
    return out


def lorentz_holonomy(sl2: GeneratorImages) -> GeneratorImages:
    """The Lorentz images; each inverse is the image of the SL2 inverse."""
    return GeneratorImages({gen: psl2_to_lorentz(mat) for gen, mat in sl2.items()},
                           lambda gen: psl2_to_lorentz(sl2.inverse(gen)))


# The standard basis of traceless 4x4 matrices: the 12 off-diagonal units
# E_ij, then E_kk - E_k+1,k+1.  SL4_COORDS reads coordinates off a vec:
# the off-diagonal entries, then the partial sums d0, d0+d1, d0+d1+d2 of
# the diagonal.
_OFF_DIAGONAL = [4 * i + j for i in range(4) for j in range(4) if i != j]
SL4_VECS = np.zeros((16, 15))
SL4_VECS[_OFF_DIAGONAL + [0, 5, 10], range(15)] = 1.0
SL4_VECS[[5, 10, 15], range(12, 15)] = -1.0
SL4_BASIS = SL4_VECS.T.reshape(15, 4, 4)
SL4_COORDS = np.zeros((15, 16))
SL4_COORDS[range(12), _OFF_DIAGONAL] = 1.0
SL4_COORDS[12:, [0, 5, 10]] = np.tril(np.ones((3, 3)))


def sl4_coordinates(mat: np.ndarray, *, tol: float = 1e-8) -> np.ndarray:
    """Coordinates in ``SL4_BASIS`` of a traceless 4x4 matrix or a stack of them.

    Each matrix must be traceless relative to its own largest entry; a
    stack (k, 4, 4) gives coordinates (k, 15).
    """
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    if np.any(np.abs(np.trace(mat, axis1=-2, axis2=-1)) > tol * scale):
        raise ValueError("matrix is not traceless")
    return mat.reshape(*mat.shape[:-2], 16) @ SL4_COORDS.T


def _conjugation(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """X -> left X right on traceless 4x4 matrices, read in ``SL4_BASIS``.

    It is left (x) right^T on vec(X); every image of a basis matrix must be
    traceless.
    """
    conjugated = np.kron(left, right.T) @ SL4_VECS
    return sl4_coordinates(conjugated.T.reshape(15, 4, 4)).T


def adjoint_rep(lorentz: GeneratorImages) -> GeneratorImages:
    """Conjugation action of each generator on traceless 4x4 matrices (15-dim).

    X -> g X g^-1 with the kept inverse of each Lorentz image; its inverse
    is the same read-out of X -> g^-1 X g.
    """
    return GeneratorImages({gen: _conjugation(mat, lorentz.inverse(gen))
                            for gen, mat in lorentz.items()},
                           lambda gen: _conjugation(lorentz.inverse(gen), lorentz[gen]))


@dataclass(frozen=True)
class KillingSplit:
    """Orthogonal splitting of the traceless matrices under the trace form.

    ``skew`` spans the Lorentz Lie algebra (J-skew matrices, dimension 6)
    and ``complement`` its trace-form orthocomplement (dimension 9).
    Columns are coordinate vectors in the standard traceless basis and
    each block is orthonormal.
    """

    skew: np.ndarray
    complement: np.ndarray


def killing_split() -> KillingSplit:
    """The split from an explicit basis, in long double; ``KILLING_SPLIT`` holds it.

    With spatial indices i < j in 0..2 and the time index 3, the Lorentz
    Lie algebra has the orthonormal basis of rotations (E_ij - E_ji)/sqrt2
    and boosts (E_i3 + E_3i)/sqrt2.  Its complement takes (E_ij + E_ji)/sqrt2,
    (E_i3 - E_3i)/sqrt2 and the three diagonal coordinates.  Each pair
    (i, j) owns two off-diagonal coordinates, so both blocks are
    orthonormal, and tr(XY) = 0 for X in one block and Y in the other.
    """
    half = np.sqrt(np.longdouble(0.5))

    def column(i: int, j: int, sign: int) -> np.ndarray:
        mat = np.zeros((4, 4), dtype=np.longdouble)
        mat[i, j], mat[j, i] = half, sign * half
        return sl4_coordinates(mat)

    spatial, boosts = ((0, 1), (0, 2), (1, 2)), ((0, 3), (1, 3), (2, 3))
    skew = [column(i, j, -1) for i, j in spatial] + [column(i, j, 1) for i, j in boosts]
    complement = [column(i, j, 1) for i, j in spatial] + [column(i, j, -1) for i, j in boosts]
    complement += list(np.eye(len(SL4_BASIS), dtype=np.longdouble)[-3:])
    return KillingSplit(skew=np.array(skew).T, complement=np.array(complement).T)


KILLING_SPLIT = killing_split()


def restrict_block(images: Mapping[int, np.ndarray], block: np.ndarray) -> GeneratorImages:
    """Each image compressed to an invariant subspace of orthonormal columns (``compress``).

    Each inverse is the compressed inverse of the full image.
    """
    images = GeneratorImages.of(images)

    def restrict(mat: np.ndarray) -> np.ndarray:
        return compress(mat, block, "subspace is not invariant under the action")
    return GeneratorImages({gen: restrict(mat) for gen, mat in images.items()},
                           lambda gen: restrict(images.inverse(gen)))


def kronecker_rep(lorentz: GeneratorImages) -> GeneratorImages:
    """Tensor-square action g (x) g on 16 dimensions; its inverse is g^-1 (x) g^-1."""
    def invert(gen: int) -> np.ndarray:
        inverse = lorentz.inverse(gen)
        return np.kron(inverse, inverse)
    return GeneratorImages({gen: np.kron(mat, mat) for gen, mat in lorentz.items()}, invert)


def rep_residuals(
    images: Mapping[int, np.ndarray], endo: EndoF2
) -> dict[str, float]:
    """Relation defects for a linear representation of the bundle group."""
    images = GeneratorImages.of(images)
    out = {}
    for name, gen, image in (("relation_a", 0, endo.image_a),
                             ("relation_b", 1, endo.image_b)):
        lhs = images[2] @ images[gen] @ images.inverse(2)
        rhs = word_product(image, images)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        out[name] = float(np.max(np.abs(lhs - rhs))) / scale
    return out


def longitude_centralizer_dims(
    adjoint: Mapping[int, np.ndarray], *, null_tol: float = 1e-9
) -> tuple[int, int, int]:
    """Dimensions of the longitude's adjoint fixed space and its two halves.

    ``adjoint`` holds the sl4 images (``adjoint_rep`` of the Lorentz
    holonomy).  Computes ker(Ad rho(l) - I) on the traceless matrices at
    the actual longitude image (no normal-form conjugation), then the
    same kernel restricted to the Lorentz block and to its trace-form
    complement.  The restriction is legitimate because both blocks are
    invariant under the whole adjoint representation.  A parabolic
    longitude gives (5, 2, 3), with a singular-value gap of roughly
    fourteen orders of magnitude around the cutoff, so the default
    tolerance is not fragile.
    """
    tau = np.asarray(word_product(LONGITUDE, adjoint), dtype=complex)
    total = nullspace(tau - np.eye(tau.shape[0]), tol=null_tol).shape[1]
    dims = [total]
    for block in (KILLING_SPLIT.skew, KILLING_SPLIT.complement):
        compressed = block.conj().T @ tau @ block
        dims.append(
            nullspace(compressed - np.eye(block.shape[1]), tol=null_tol).shape[1]
        )
    return (dims[0], dims[1], dims[2])


def fixed_vectors_dim(
    images: dict[int, np.ndarray], *, null_tol: float = 1e-9
) -> int:
    """Dimension of the joint fixed space of the two fiber generator images.

    This is the zeroth cohomology of the fiber group with coefficients in
    the module the images act on; zero for the modules derived from an
    irreducible holonomy.
    """
    dim = images[0].shape[1]
    eye = np.eye(dim)
    stacked = np.vstack([
        np.asarray(images[0], dtype=complex) - eye,
        np.asarray(images[1], dtype=complex) - eye,
    ])
    return nullspace(stacked, tol=null_tol).shape[1]


# ---------------------------------------------------------------------------
# One-call pipeline per solution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomySolution:
    """Everything derived from one trace solution: images of a, b, x by index."""

    triple: TraceTriple
    sl2: GeneratorImages
    lorentz: GeneratorImages

    @cached_property
    def adjoint(self) -> GeneratorImages:
        """The sl4 images, built once; ``v`` and ``pso31`` restrict them."""
        return adjoint_rep(self.lorentz)

    def representation(self, kind: str) -> GeneratorImages:
        if kind == "sl4":
            return self.adjoint
        if kind == "v":
            return restrict_block(self.adjoint, KILLING_SPLIT.complement)
        if kind == "pso31":
            return restrict_block(self.adjoint, KILLING_SPLIT.skew)
        if kind == "gl16":
            return kronecker_rep(self.lorentz)
        raise ValueError(f"unknown representation kind: {kind!r}")


def build_solutions(
    spec: MonodromySpec,
    *,
    starts: int = 64,
    seed: int = 0,
    tolerances: Tolerances | None = None,
) -> list[HolonomySolution]:
    """Solve the trace equations and lift every solution through the tower.

    The word's automorphism and compiled trace system are built once and
    serve the solve and every lift.
    """
    tols = tolerances or Tolerances()
    endo = monodromy_endo(spec)
    system = CompiledTraceSystem(trace_system(spec))
    out = []
    for triple in solve_traces(system, starts=starts, seed=seed):
        sl2 = holonomy_from_triple(triple, endo, system, null_tol=tols.null)
        out.append(HolonomySolution(triple, sl2, lorentz_holonomy(sl2)))
    return out
