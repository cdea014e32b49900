"""Holonomy reconstruction for once-punctured torus bundles.

Pipeline: the holonomy's character by multiple shooting of the letter
maps, explicit 2x2 matrices for the fiber group, meridian recovery from
the gluing relations, and the derived linear representations (Lorentz
4x4, adjoint 15x15, restricted 9x9, Kronecker 16x16) that feed the
twisted Alexander machinery.

Each twist acts on characters (A, B, C) = (tr a, tr b, tr ab) by a
polynomial map, L by (C, B, BC - A) and R by (A, C, AC - B) (the
mapping-class action on Fricke coordinates; Goldman, Geom. Topol. 2003).
``solve_traces`` gives every letter of the word its own character chi_i,
with chi_(i+1) = g_i(chi_i) cyclically and the Markov relation
A^2 + B^2 + C^2 - ABC = 0 on every layer (parabolic peripheral
holonomy), and solves these 4n equations in 3n unknowns by Gauss-Newton
(multiple shooting; Bock and Plitt, IFAC 1984).  The entries that depend
only on the word are laid out once per solve (``_ShootingLayout``), and
each iteration assembles a start's Jacobian in a fixed number of array
operations, each entry by the floating-point operations of the letter
maps.  The four flat starts, every layer at the figure-eight holonomy or
one of its conjugate and mirror images, are the same for every rotation
of the word, and run one at a time, in order.  The layered triangulation
of a hyperbolic bundle is geometric (Gueritaud and Futer, Geom. Topol.
2006), and its tetrahedron under layer i has shape -B^2/C^2 for an L and
-C^2/A^2 for an R.  So the holonomy is the fixed point whose shapes all
lie in one open half-plane, kept with Im z > 0; min |Im z_i| is the
margin of that decision, and the first start that reaches such a point
ends the solve.  A leading '-' changes nothing: the elliptic involution
fixes every character.

The solution is lifted once, in extended precision: the polished triple
gives the fiber pair and both phi-images, the four sign patterns of the
gluing relations are tried on systems built from Kronecker blocks formed
once and decided by one stacked ``nullspace`` call, and the one
intertwining system with a one-dimensional kernel gives the meridian by
inverse iteration.

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

Every Kronecker product, in the lift and in the tower, goes through the
one broadcast helper ``_kron2``: the products np.kron forms, bit for bit,
without the argument handling that makes np.kron three times as slow on a
4x4 pair.  Every matrix product is an ``np.dot``; the ``numeric``
docstring says why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .numeric import (
    EXT_COMPLEX,
    GeneratorImages,
    Tolerances,
    compress,
    linear_solve,
    matrix_det,
    nullspace,
    word_product,
)
from .presentation import MonodromySpec, is_hyperbolic, monodromy_endo
from .words import EndoF2, parse_word

# Matrices downstream of the trace solution are built in extended precision
# (EXT_COMPLEX) so the characteristic-polynomial coefficients (up to ~10^6
# for the worked bundles) survive integer rounding at 1e-6.  LAPACK-backed
# steps (SVD kernels) stay in double; everything else preserves the dtype.

# ---------------------------------------------------------------------------
# The holonomy's character, by multiple shooting of the letter maps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceTriple:
    """The character (tr a, tr b, tr ab) of the base layer, and every layer's shape."""

    trace_a: complex
    trace_b: complex
    trace_ab: complex
    shapes: tuple[complex, ...] = ()

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.trace_a, self.trace_b, self.trace_ab)

    @property
    def shape_margin(self) -> float:
        """min |Im z_i|: how far the shapes keep from the real line (NaN without shapes)."""
        return min((abs(z.imag) for z in self.shapes), default=float("nan"))


def letter_map(letter: str, point, tangent):
    """One letter's map at point = (A, B, C), and its derivative applied to tangent.

    L maps (A, B, C) to (C, B, BC - A) and R maps it to (A, C, AC - B);
    tangent = (dA, dB, dC) goes to the same rows of the Jacobian times
    (dA, dB, dC).  The entries may be scalars or broadcasting arrays, so
    tangent = the rows of the identity gives the Jacobian's rows, and a
    Jacobian's rows give the chain rule.
    """
    (a, b, c), (da, db, dc) = point, tangent
    if letter == "L":
        return (c, b, b * c - a), (dc, db, c * db + b * dc - da)
    return (a, c, a * c - b), (da, dc, c * da + a * dc - db)


def _markov(a, b, c):
    """The Markov polynomial and its gradient (last axis)."""
    return a * a + b * b + c * c - a * b * c, np.stack([2 * a - b * c, 2 * b - a * c,
                                                        2 * c - a * b], axis=-1)


# Tables indexed by letter, 0 for R and 1 for L.  ``letter_map`` builds
# the image (first, second, p C - s) from the coordinates (first, second,
# p, s) of chi = (A, B, C) picked by _PICKS: R gives (A, C, AC - B) and L
# gives (C, B, BC - A).  The first two rows of the letter's derivative are
# the constant _FIXED_ROWS, and the third is C u + p v - w, with (u, v, w)
# from _THIRD_ROW: (e_0, e_2, e_1) for R and (e_1, e_2, e_0) for L.
# _markov's products (BC, AC, AB) multiply the coordinates _PRODUCT_PAIRS
# picks, the first three by the last three.
_PICKS = np.array([[0, 2, 0, 1], [2, 1, 1, 0]])
_FIXED_ROWS = np.eye(3)[[[0, 2], [2, 1]]]
_THIRD_ROW = np.eye(3)[[[0, 2, 1], [1, 2, 0]]]
_PRODUCT_PAIRS = np.array([1, 0, 0, 2, 2, 1])


class _ShootingLayout:
    """The parts of one word's shooting equations that do not depend on x.

    is_l (n,) marks the L layers.  ``picks`` holds the flat indices, in a
    start's (3n,) coordinates, of the four coordinates each layer's
    letter picks, ``after`` each layer's successor, and ``u``, ``v``,
    ``w`` (n, 3) the rows of each layer's third Jacobian row.
    ``template`` is the (4n, 3n) Jacobian with only the entries that
    depend on the word: the fixed rows of each letter's block and the -I
    closing blocks.  ``third_at`` and ``markov_at`` are the flat positions
    in it of every layer's third row and Markov row, within the layer's
    own columns.
    """

    def __init__(self, is_l: np.ndarray):
        n = len(is_l)
        layers, letter = np.arange(n), is_l.astype(np.intp)
        self.after = (layers + 1) % n
        self.picks = 3 * layers[:, None] + _PICKS[letter]
        self.u, self.v, self.w = _THIRD_ROW[letter].transpose(1, 0, 2)
        fixed = np.zeros((n, 3, n, 3))
        fixed[layers, :2, layers] = _FIXED_ROWS[letter]
        fixed[layers, :, self.after] -= np.eye(3)
        self.template = np.zeros((4 * n, 3 * n))
        self.template[:3 * n] = fixed.reshape(3 * n, 3 * n)
        columns = 3 * layers[:, None] + np.arange(3)
        self.third_at = ((3 * layers + 2)[:, None] * 3 * n + columns).ravel()
        self.markov_at = ((3 * n + layers)[:, None] * 3 * n + columns).ravel()


def _shooting_system(x: np.ndarray, layout: _ShootingLayout) -> tuple[np.ndarray, np.ndarray]:
    """Values (4n,) and Jacobian (4n, 3n) of the shooting equations at one start's layers.

    x (n, 3) holds the layers, and ``layout`` is the word's
    ``_ShootingLayout``; rows 3i .. 3i+2 are g_i(chi_i) - chi_(i+1 mod n)
    and row 3n + i is the Markov polynomial of chi_i.  The Jacobian is a
    copy of the layout's template.  The images, the third row of every
    letter's block and the Markov rows are computed for all layers at
    once, by the operations ``letter_map`` and ``_markov`` apply to one
    layer, and scattered in.
    """
    n = len(x)
    first, second, p, s = x.reshape(3 * n)[layout.picks].T
    c = x[:, 2]
    third = c[:, None] * layout.u + p[:, None] * layout.v - layout.w
    if n == 1:  # the closing block is the layer's own
        third = third - layout.v
    # _markov's terms: (BC, AC, AB), and A^2 + B^2 + C^2 - ABC
    pairs = x[:, _PRODUCT_PAIRS]
    products = pairs[:, :3] * pairs[:, 3:]
    squares = x * x
    values = np.empty(4 * n, dtype=x.dtype)
    np.subtract(squares[:, 0] + squares[:, 1] + squares[:, 2], products[:, 2] * c,
                out=values[3 * n:])
    defects = values[:3 * n].reshape(n, 3)
    following = x[layout.after]
    np.subtract(first, following[:, 0], out=defects[:, 0])
    np.subtract(second, following[:, 1], out=defects[:, 1])
    np.subtract(p * c - s, following[:, 2], out=defects[:, 2])
    jac = layout.template.astype(x.dtype)
    flat = jac.reshape(12 * n * n)
    flat[layout.third_at] = third.ravel()
    flat[layout.markov_at] = (2 * x - products).ravel()
    return values, jac


def layer_shapes(chi: np.ndarray, is_l: np.ndarray) -> np.ndarray:
    """Each layer's tetrahedron shape: -B^2/C^2 under an L, -C^2/A^2 under an R."""
    a, b, c = np.moveaxis(chi, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(is_l, -(b / c) ** 2, -(c / a) ** 2)


# Every layer of a start begins at the figure-eight holonomy (the solution
# of LR), its conjugate, its swap (B, A, C), which is the L <-> R mirror of
# the letter maps, or the swap's conjugate.
_FIGURE_EIGHT = np.array([1.5 - 0.75 ** 0.5 * 1j, 1.5 + 0.75 ** 0.5 * 1j, 1.5 - 0.75 ** 0.5 * 1j])
FLAT_STARTS = np.array([_FIGURE_EIGHT, _FIGURE_EIGHT.conj(),
                        _FIGURE_EIGHT[[1, 0, 2]], _FIGURE_EIGHT[[1, 0, 2]].conj()])

# Gauss-Newton iterations a start may take; the corpus words converge in
# 6 to 14, and random hyperbolic words of length 8 to 15 in at most 26.
_MAX_ITER = 50

# The shapes lie in one open half-plane when every |Im z_i| exceeds this,
# relative to max(1, |z_i|), with one sign.
_HALF_PLANE_TOL = 1e-9


# A diverging start overflows before its finiteness check stops it.
@np.errstate(over="ignore", invalid="ignore")
def solve_traces(letters: str) -> list[TraceTriple]:
    """The holonomy's character, from the first flat start that reaches it.

    The word's ``_ShootingLayout`` is built once.  The starts run one at a
    time, in the order of ``FLAT_STARTS``, each by Gauss-Newton on the
    normal equations of ``_shooting_system``, or by the least-squares step
    when its normal matrix is singular.  A start stops when max|F| is at
    most 1e-13 max(1, max|chi|)^2, or when F is no longer finite.  The
    first start that converges with its shapes in one open half-plane is
    the holonomy (Gueritaud and Futer: the layered triangulation is
    geometric), and the starts after it are never evaluated.  It is
    returned, conjugated if need be so that Im z > 0, as a list of one
    ``TraceTriple`` of its base layer (the layer the first letter acts
    on); the list shape is kept for the benchmark's ``_observe_triples``
    in ``perfbench/spans.py``, which counts it with ``len()``.  One
    start's Gauss-Newton run is the unit a continuation in the run
    lengths, for the long-run words no flat start reaches, is to repeat
    from its own layers.  Raises ArithmeticError, naming the best
    residual, when no start gets there.
    """
    is_l = np.array([letter == "L" for letter in letters])
    layout = _ShootingLayout(is_l)
    converged, best = 0, np.inf
    for x in np.repeat(FLAT_STARTS[:, None], len(letters), axis=1):
        done, residual = False, np.inf
        for _ in range(_MAX_ITER):
            values, jac = _shooting_system(x, layout)
            residual = np.abs(values).max()
            # a start far enough out overflows both sides of the bound
            if not np.isfinite(residual):
                residual = np.inf
                break
            done = residual <= 1e-13 * np.square(max(1.0, np.abs(x).max()))
            if done:
                break
            adjoint = jac.conj().T
            normal, rhs = np.dot(adjoint, jac), -np.dot(adjoint, values)
            try:
                step = np.linalg.solve(normal, rhs)
            except np.linalg.LinAlgError:  # the normal matrix is singular
                step = np.linalg.lstsq(jac, -values, rcond=None)[0]
            x = x + step.reshape(x.shape)
        best = min(best, residual)
        if not done:
            continue
        converged += 1
        shapes = layer_shapes(x, is_l)
        margin = shapes.imag / np.maximum(1.0, np.abs(shapes))
        if np.all(margin > _HALF_PLANE_TOL) or np.all(margin < -_HALF_PLANE_TOL):
            chi = x if margin[0] > 0 else x.conj()
            shapes = shapes if margin[0] > 0 else shapes.conj()
            return [TraceTriple(*map(complex, chi[0]), shapes=tuple(map(complex, shapes)))]
    raise ArithmeticError(
        f"no start reached a positively oriented fixed point of the letter maps "
        f"({converged} of {len(FLAT_STARTS)} converged, none with its shapes in one "
        f"half-plane; best residual {best:.3g})")


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


def _polish_triple(triple: TraceTriple, letters: str) -> np.ndarray:
    """Four extended-precision Gauss-Newton steps on (F_A, F_B, F_C, markov).

    F is the composed letter maps minus the identity, and its Jacobian
    comes from the letters' by the chain rule; the normal equations go
    through ``linear_solve``.  A holonomy on the curve 2C = AB, where the
    square system (F_A, F_B, markov) is singular (the rotation LRL), is
    regular here.
    """
    chi = np.array(triple.as_tuple(), dtype=EXT_COMPLEX)
    eye = np.eye(3, dtype=EXT_COMPLEX)
    for _ in range(4):
        image, rows = chi, eye
        for letter in letters:
            image, rows = letter_map(letter, image, rows)
        markov, gradient = _markov(*chi)
        full = np.vstack([np.array(rows) - eye, gradient])
        adjoint = full.conj().T
        chi = chi - linear_solve(np.dot(adjoint, full),
                                 np.dot(adjoint, np.append(np.array(image) - chi, markov)))
    return chi


def _kron2(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, over stacks of them: the products it forms, by broadcasting."""
    product = left[..., :, None, :, None] * right[..., None, :, None, :]
    rows, cols = left.shape[-2] * right.shape[-2], left.shape[-1] * right.shape[-1]
    return product.reshape(product.shape[:-4] + (rows, cols))


# The signs (index 0 for +1, 1 for -1) of a and b in the four gluing patterns.
_SIGN_PATTERNS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])


def holonomy_from_triple(
    triple: TraceTriple,
    endo: EndoF2,
    letters: str,
    *,
    null_tol: float = 1e-9,
) -> GeneratorImages:
    """SL2 holonomy of the character, built once in extended precision.

    The triple is polished on the composed letter maps and gives the fiber pair
    of ``_model_matrices``.  The meridian X satisfies
    X rho(g) X^-1 = +-rho(phi(g)) for g = a, b; the gluing relations fix
    the conjugation only up to sign in SL2, so all four sign patterns are
    tried, each on blocks I (x) rho(g)^T - (+-rho(phi(g))) (x) I taken from
    the Kronecker products formed once for both generators and both signs,
    and exactly one intertwining space must be one-dimensional (the
    fiber representation is irreducible).  Those rank decisions run in
    double precision, on the (4, 8, 4) stack of the four systems in one
    ``nullspace`` call; the kernel vector is then sharpened by inverse
    iteration on the chosen system, X is scaled to determinant 1, and the
    lift with trace nearest -2 is returned with the fiber pair, as the
    images of a, b, x.  ``endo`` is the word's automorphism and
    ``letters`` its L/R letters.
    """
    if abs(triple.trace_ab) < 1e-12:
        raise ValueError("trace of ab must be nonzero for the matrix model")
    polished = _polish_triple(triple, letters)
    if abs(polished[2]) < 1e-12:
        raise ArithmeticError("polished trace of ab vanishes; the matrix model needs it nonzero")
    mats = _model_matrices(*polished)
    fiber = sl2_images(mats)
    targets = np.array([word_product(image, fiber) for image in (endo.image_a, endo.image_b)])
    eye = np.eye(2, dtype=EXT_COMPLEX)
    # Row-major vec: vec(XP - QX) = (I (x) P^T - Q (x) I) vec(X) for
    # P = rho(g) and Q = +-rho(phi(g)), g = a, b; blocks[s, g] holds g's
    # block with the sign +1 (s = 0) or -1 (s = 1).
    blocks = (_kron2(eye, np.transpose(mats, (0, 2, 1)))
              - _kron2(np.multiply.outer([1, -1], targets), eye))
    systems = blocks[_SIGN_PATTERNS, (0, 1)].reshape(4, 8, 4)
    found = [(stacked, basis[:, 0])
             for stacked, basis in zip(systems, nullspace(systems, tol=null_tol))
             if basis.shape[1] == 1]
    if not found:
        raise ArithmeticError("no meridian intertwiner found; traces may be spurious")
    if len(found) > 1:
        raise ArithmeticError("meridian intertwiner is not unique across sign lifts")
    ((stacked, vec),) = found
    # The kernel direction dominates a solve with the normal matrix, so two
    # solve-and-normalize rounds from the double vector give it to extended
    # accuracy.
    normal = np.dot(stacked.conj().T, stacked)
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


def _relation_sides(images: Mapping[int, np.ndarray], endo: EndoF2):
    """(name, X g X^-1, image of phi(g)) for the fiber generators g = a, b."""
    images = GeneratorImages.of(images)
    for name, gen, image in (("relation_a", 0, endo.image_a),
                             ("relation_b", 1, endo.image_b)):
        conjugated = np.dot(np.dot(images[2], images[gen]), images.inverse(2))
        yield name, conjugated, word_product(image, images)


def holonomy_residuals(images: GeneratorImages, endo: EndoF2, *,
                       null_tol: float = 1e-9) -> dict[str, float]:
    """Diagnostics of the SL2 images: relation defects (up to sign),
    unimodularity, cusp traces.

    ``meridian_parabolic`` is |tr X - 2s| for the sign s nearer tr X, or
    1.0 when max|X - sI| is at most null_tol max(1, max|X|): +-I is not
    parabolic.
    """
    out: dict[str, float] = {}
    mat_x = images[2]
    for name, lhs, rhs in _relation_sides(images, endo):
        out[name] = min(
            float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs + rhs)))
        )
    for name, mat in zip(("det_a", "det_b", "det_x"), images.values()):
        out[name] = float(abs(complex(matrix_det(mat)) - 1.0))
    trace = np.trace(mat_x)
    sign = 1.0 if abs(trace - 2.0) <= abs(trace + 2.0) else -1.0
    scale = null_tol * max(1.0, float(np.max(np.abs(mat_x))))
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
    images = np.dot(_kron2(mat, mat.conj()), _HERMITIAN_VECS)
    scale = max(1.0, float(np.max(np.abs(mat))) ** 2)
    # vec(H*) lists conj(H) with H[0,1] and H[1,0] swapped
    herm_defect = float(np.max(np.abs(images - images[[0, 2, 1, 3]].conj())))
    if herm_defect > 1e-9 * scale:
        raise ArithmeticError("Hermitian action produced a non-Hermitian matrix")
    out = np.array([images[1].real, images[1].imag, (images[0] - images[3]).real / 2.0,
                    (images[0] + images[3]).real / 2.0])  # real longdouble stays
    defect = float(np.max(np.abs(np.dot(np.dot(out.T, LORENTZ_FORM), out) - LORENTZ_FORM)))
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
    return np.dot(mat.reshape(*mat.shape[:-2], 16), SL4_COORDS.T)


def _conjugation(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """X -> left X right on traceless 4x4 matrices, read in ``SL4_BASIS``.

    It is left (x) right^T on vec(X); every image of a basis matrix must be
    traceless.
    """
    conjugated = np.dot(_kron2(left, right.T), SL4_VECS)
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
        return _kron2(inverse, inverse)
    return GeneratorImages({gen: _kron2(mat, mat) for gen, mat in lorentz.items()}, invert)


def rep_residuals(
    images: Mapping[int, np.ndarray], endo: EndoF2
) -> dict[str, float]:
    """Relation defects for a linear representation of the bundle group."""
    out = {}
    for name, lhs, rhs in _relation_sides(images, endo):
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
        compressed = np.dot(np.dot(block.conj().T, tau), block)
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
# One-call pipeline for the holonomy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomySolution:
    """Everything derived from the holonomy's character: images of a, b, x by index."""

    triple: TraceTriple
    sl2: GeneratorImages
    lorentz: GeneratorImages

    @cached_property
    def adjoint(self) -> GeneratorImages:
        """The sl4 images, built once; ``v`` restricts them."""
        return adjoint_rep(self.lorentz)

    def representation(self, kind: str) -> GeneratorImages:
        if kind == "sl4":
            return self.adjoint
        if kind == "v":
            return restrict_block(self.adjoint, KILLING_SPLIT.complement)
        if kind == "gl16":
            return kronecker_rep(self.lorentz)
        raise ValueError(f"unknown representation kind: {kind!r}")


def build_solution(
    spec: MonodromySpec, *, tolerances: Tolerances | None = None
) -> HolonomySolution:
    """The holonomy of a hyperbolic monodromy, lifted through the tower.

    Raises ValueError for a non-hyperbolic word, and ArithmeticError when
    no flat start reaches the holonomy or its lift fails.
    """
    if not is_hyperbolic(spec):
        raise ValueError(
            f"monodromy {spec.text()!r} is not hyperbolic (|trace| <= 2)"
        )
    tols = tolerances or Tolerances()
    endo = monodromy_endo(spec)
    (triple,) = solve_traces(spec.letters)
    sl2 = holonomy_from_triple(triple, endo, spec.letters, null_tol=tols.null)
    return HolonomySolution(triple, sl2, lorentz_holonomy(sl2))
