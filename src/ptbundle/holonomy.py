"""Holonomy reconstruction for once-punctured torus bundles.

Pipeline: trace equations for the fiber generators, Newton solving over
the Markov surface, explicit 2x2 matrices for the fiber group, meridian
recovery from the gluing relations, and the derived linear
representations (Lorentz 4x4, adjoint 15x15, restricted 9x9, Kronecker
16x16) that feed the twisted Alexander machinery.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numeric import (
    EXT_COMPLEX,
    Tolerances,
    linear_solve,
    matrix_det,
    matrix_inverse,
    newton_multistart,
    nullspace,
    word_product,
)
from .words import EndoF2, Word, parse_word

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

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TracePoly | int") -> "TracePoly":
        if isinstance(other, int):
            other = TracePoly.constant(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0) + val
        return TracePoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TracePoly":
        return TracePoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "TracePoly | int") -> "TracePoly":
        if isinstance(other, int):
            other = TracePoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "TracePoly":
        return TracePoly.constant(other) + (-self)

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

    def __repr__(self) -> str:  # pragma: no cover
        if not self.terms:
            return "TracePoly(0)"
        names = "ABC"
        parts = []
        for key in sorted(self.terms):
            val = self.terms[key]
            mono = "".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(key)
                if e
            )
            parts.append(f"{val:+d}{mono}" if mono else f"{val:+d}")
        return "TracePoly(" + " ".join(parts) + ")"


MARKOV = (
    TracePoly.variable(0) * TracePoly.variable(0)
    + TracePoly.variable(1) * TracePoly.variable(1)
    + TracePoly.variable(2) * TracePoly.variable(2)
    - TracePoly.variable(0) * TracePoly.variable(1) * TracePoly.variable(2)
)


# ---------------------------------------------------------------------------
# Trace of an arbitrary word in the rank-2 free group.
# ---------------------------------------------------------------------------


def _invert_letters(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    return tuple((gen, -exp) for gen, exp in reversed(letters))


def _cyclic_reduce(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    lst = list(letters)
    while len(lst) >= 2 and lst[0][0] == lst[-1][0] and lst[0][1] == -lst[-1][1]:
        lst = lst[1:-1]
    return tuple(lst)

def _canonical_cyclic(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Canonical cyclic representative of a word, up to inversion.

    Trace is a conjugation-invariant class function with tr(g) = tr(g^-1),
    so this canonical form is a valid memoization key.  Between the word
    and its inverse, the one with fewer inverse letters wins; the
    recursion's termination argument needs canonicalization to never
    increase that count.  Ties go to the least rotation.
    """
    reduced = _cyclic_reduce(letters)
    if not reduced:
        return reduced
    candidates = []
    for base in (reduced, _invert_letters(reduced)):
        inverse_letters = sum(1 for _, exp in base if exp < 0)
        least = min(base[s:] + base[:s] for s in range(len(base)))
        candidates.append((inverse_letters, least))
    return min(candidates)[1]

_GEN_TRACE = {0: TracePoly.variable(0), 1: TracePoly.variable(1)}

_trace_cache: dict[tuple[tuple[int, int], ...], TracePoly] = {}


def trace_polynomial(word: Word) -> TracePoly:
    """Trace of ``word`` (in generators a, b only) as a TracePoly.

    Reduces via the SL2 identities tr(uv) = tr(u)tr(v) - tr(uv^-1) and
    tr(g^-1) = tr(g) until only the base words 1, a, b, ab remain.
    """
    for gen, _ in word.letters:
        if gen > 1:
            raise ValueError("trace polynomials are defined for fiber words only")
    return _trace_canonical(_canonical_cyclic(word.letters))


def _letters_word(letters: Iterable[tuple[int, int]]) -> Word:
    out = Word()
    for gen, exp in letters:
        out = out * Word(((gen, exp),))
    return out


def _trace_of(letters: tuple[tuple[int, int], ...]) -> TracePoly:
    return _trace_canonical(_canonical_cyclic(letters))


def _trace_canonical(can: tuple[tuple[int, int], ...]) -> TracePoly:
    cached = _trace_cache.get(can)
    if cached is not None:
        return cached
    result = _trace_uncached(can)
    _trace_cache[can] = result
    return result


def _trace_uncached(can: tuple[tuple[int, int], ...]) -> TracePoly:
    n = len(can)
    if n == 0:
        return TracePoly.constant(2)
    if n == 1:
        return _GEN_TRACE[can[0][0]]
    if n == 2:
        (g1, e1), (g2, e2) = can
        if g1 == g2:
            # Same generator twice: tr(g^2) = tr(g)^2 - 2.
            t = _GEN_TRACE[g1]
            return t * t - 2
        if e1 == e2:
            # ab or its inverse.
            return TracePoly.variable(2)
        # Mixed signs: tr(a b^-1) = tr(a)tr(b) - tr(ab).
        return _GEN_TRACE[g1] * _GEN_TRACE[g2] - TracePoly.variable(2)

    # Case 1: a repeated adjacent letter (cyclically).  Rotating it to the
    # end, tr(u g g) = tr(g) tr(u g) - tr(u).
    for i in range(n):
        j = (i + 1) % n
        if can[i] == can[j]:
            cut = (j + 1) % n
            rotated = can[cut:] + can[:cut]
            u_g = rotated[:-1]
            u = rotated[:-2]
            t_g = _GEN_TRACE[can[i][0]]
            return t_g * _trace_of(u_g) - _trace_of(u)

    # Case 2: an inverse letter.  Rotate it to the end:
    # tr(u g^-1) = tr(u) tr(g) - tr(u g).
    for i in range(n):
        if can[i][1] < 0:
            cut = (i + 1) % n
            rotated = can[cut:] + can[:cut]
            u = rotated[:-1]
            gen = can[i][0]
            u_g = (_letters_word(u) * Word(((gen, 1),))).letters
            return _trace_of(u) * _GEN_TRACE[gen] - _trace_of(u_g)

    # Case 3: all letters positive and strictly alternating.  Split off the
    # trailing two letters v: tr(u v) = tr(u) tr(v) - tr(u v^-1).
    v = can[-2:]
    u = can[:-2]
    u_v_inv = (_letters_word(u) * _letters_word(_invert_letters(v))).letters
    return _trace_of(u) * _trace_of(v) - _trace_of(u_v_inv)


def trace_system(endo: EndoF2) -> tuple[TracePoly, TracePoly, TracePoly]:
    """Fixed-point trace equations for a fiber automorphism.

    Returns (tr phi(a) - A, tr phi(b) - B, markov) where markov vanishes
    exactly when the peripheral holonomy is parabolic with trace -2.
    """
    eq_a = trace_polynomial(endo.image_a) - TracePoly.variable(0)
    eq_b = trace_polynomial(endo.image_b) - TracePoly.variable(1)
    return (eq_a, eq_b, MARKOV)


# ---------------------------------------------------------------------------
# Solving the trace equations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceTriple:
    """One solution (tr a, tr b, tr ab) of the trace equations."""

    trace_a: complex
    trace_b: complex
    trace_ab: complex

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


def solve_traces(
    endo: EndoF2,
    *,
    starts: int = 64,
    seed: int = 0,
    residual_tol: float = 1e-10,
    dedup_tol: float = 1e-6,
) -> list[TraceTriple]:
    """Solve the trace equations by deterministic multistart Newton.

    Returns irreducible solutions: real triples and triples with C ~ 0
    are dropped (they cannot give an irreducible SL2 representation with
    parabolic boundary), and complex-conjugate partners are collapsed to
    one representative.
    """
    eqs = trace_system(endo)
    grads = [[eq.partial(i) for i in range(3)] for eq in eqs]

    def fun(z: np.ndarray) -> np.ndarray:
        return np.array([eq.evaluate(z) for eq in eqs], dtype=complex)

    def jac(z: np.ndarray) -> np.ndarray:
        return np.array(
            [[g.evaluate(z) for g in row] for row in grads], dtype=complex
        )

    roots = newton_multistart(
        fun,
        jac,
        3,
        starts=starts,
        seed=seed,
        sampler=_markov_sampler,
        residual_tol=residual_tol,
        dedup_tol=dedup_tol,
    )

    kept: list[np.ndarray] = []
    for root in roots:
        if max(abs(root.imag)) < 1e-8:
            continue  # real solutions never give the discrete faithful one
        if abs(root[2]) < 1e-8:
            continue  # C = 0 breaks the explicit matrix model
        conj = root.conj()
        if any(np.max(np.abs(conj - prev)) < dedup_tol for prev in kept):
            continue
        kept.append(root)
    return [TraceTriple(*map(complex, root)) for root in kept]


# ---------------------------------------------------------------------------
# Explicit 2x2 matrices.
# ---------------------------------------------------------------------------


def _model_matrices(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Matrix pair with the given traces; dtype follows the scalars."""
    mat_a = np.array([[a * c - b, a / c], [a * c, b]]) / c
    mat_b = np.array([[b * c - a, -b / c], [-b * c, a]]) / c
    return mat_a, mat_b


def fiber_matrices(triple: TraceTriple) -> tuple[np.ndarray, np.ndarray]:
    """Maclachlan-Reid normal form for the free group on a, b.

    The pair has tr a = A, tr b = B, tr ab = C, and both matrices have
    determinant 1 exactly when the triple satisfies the Markov relation.
    """
    a, b, c = (complex(v) for v in triple.as_tuple())
    if abs(c) < 1e-12:
        raise ValueError("trace of ab must be nonzero for the matrix model")
    return _model_matrices(a, b, c)


def solve_meridian(
    mat_a: np.ndarray,
    mat_b: np.ndarray,
    endo: EndoF2,
    *,
    null_tol: float = 1e-9,
) -> np.ndarray:
    """Meridian matrix X with X rho(g) X^-1 = +-rho(phi(g)) for g = a, b.

    The gluing relations only determine the conjugation up to sign in
    SL2, so all four sign patterns are tried; the intertwining space must
    be one-dimensional (the fiber representation is irreducible).  X is
    scaled to determinant 1 and the lift with trace nearest -2 is
    returned.
    """
    mat_a = np.asarray(mat_a, dtype=complex)
    mat_b = np.asarray(mat_b, dtype=complex)
    target_a = word_product(endo.image_a, (mat_a, mat_b))
    target_b = word_product(endo.image_b, (mat_a, mat_b))
    eye = np.eye(2, dtype=complex)

    best = None
    for sign_a in (1, -1):
        for sign_b in (1, -1):
            # Row-major vec: vec(XP - QX) = (I (x) P^T - Q (x) I) vec(X).
            block_a = np.kron(eye, mat_a.T) - np.kron(sign_a * target_a, eye)
            block_b = np.kron(eye, mat_b.T) - np.kron(sign_b * target_b, eye)
            system = np.vstack([block_a, block_b])
            basis = nullspace(system, tol=null_tol)
            if basis.shape[1] == 1:
                if best is not None:
                    raise ArithmeticError(
                        "meridian intertwiner is not unique across sign lifts"
                    )
                best = basis[:, 0].reshape(2, 2)
    if best is None:
        raise ArithmeticError("no meridian intertwiner found; traces may be spurious")

    det = best[0, 0] * best[1, 1] - best[0, 1] * best[1, 0]
    if abs(det) < 1e-12:
        raise ArithmeticError("meridian intertwiner is singular")
    best = best / cmath.sqrt(det)
    if abs(np.trace(-best) + 2.0) < abs(np.trace(best) + 2.0):
        best = -best
    return best


@dataclass(frozen=True)
class Holonomy2:
    """SL2 data for one solution: fiber matrices, meridian, traces."""

    mat_a: np.ndarray
    mat_b: np.ndarray
    mat_x: np.ndarray
    triple: TraceTriple

    def generator_images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.mat_a, self.mat_b, self.mat_x)


LONGITUDE = parse_word("abAB", ("a", "b", "x"))


def _polish_triple(triple: TraceTriple, endo: EndoF2) -> tuple:
    """A few extended-precision Newton steps on the trace equations."""
    eqs = trace_system(endo)
    grads = [[eq.partial(i) for i in range(3)] for eq in eqs]
    z = np.array([EXT_COMPLEX(v) for v in triple.as_tuple()])
    for _ in range(4):
        vals = np.array([eq.evaluate(z) for eq in eqs])
        jac = np.array([[g.evaluate(z) for g in row] for row in grads])
        z = z - linear_solve(jac, vals)
    return tuple(z)


def _refine_meridian(
    mat_a: np.ndarray, mat_b: np.ndarray, endo: EndoF2, seed: np.ndarray
) -> np.ndarray:
    """Sharpen a double-precision meridian by inverse iteration.

    The meridian spans the kernel of the stacked intertwining system;
    rebuilt in extended precision that kernel direction dominates the
    solve, so two solve-and-normalize rounds starting from the seed give
    an extended-accuracy vector.  Sign pattern and lift follow the seed.
    """
    seed_ext = seed.astype(EXT_COMPLEX)
    seed_inv = matrix_inverse(seed_ext)
    target_a = word_product(endo.image_a, (mat_a, mat_b))
    target_b = word_product(endo.image_b, (mat_a, mat_b))
    eye = np.eye(2, dtype=EXT_COMPLEX)
    blocks = []
    for mat, target in ((mat_a, target_a), (mat_b, target_b)):
        conjugated = seed_ext @ mat @ seed_inv
        sign = 1 if np.max(np.abs(conjugated - target)) <= np.max(
            np.abs(conjugated + target)
        ) else -1
        blocks.append(np.kron(eye, mat.T) - np.kron(sign * target, eye))
    system = np.vstack(blocks)
    normal = system.conj().T @ system
    ridge = np.longdouble(1e-36) * np.max(np.abs(normal))
    shifted = normal + ridge * np.eye(4, dtype=EXT_COMPLEX)
    vec = seed_ext.reshape(-1)
    for _ in range(2):
        vec = linear_solve(shifted, vec)
        vec = vec / np.sqrt(np.sum(np.abs(vec) ** 2))
    residual = float(np.max(np.abs(system @ vec)))
    if residual > 1e-12:
        return seed_ext  # refinement failed; the double solution stands
    out = vec.reshape(2, 2)
    det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    out = out / np.sqrt(det)
    if np.max(np.abs(out - seed_ext)) > np.max(np.abs(out + seed_ext)):
        out = -out
    return out


def holonomy_from_triple(
    triple: TraceTriple,
    endo: EndoF2,
    *,
    null_tol: float = 1e-9,
) -> Holonomy2:
    seed_a, seed_b = fiber_matrices(triple)
    seed_x = solve_meridian(seed_a, seed_b, endo, null_tol=null_tol)
    a, b, c = _polish_triple(triple, endo)
    mat_a, mat_b = _model_matrices(a, b, c)
    mat_x = _refine_meridian(mat_a, mat_b, endo, seed_x)
    return Holonomy2(mat_a, mat_b, mat_x, triple)


def holonomy_residuals(rep: Holonomy2, endo: EndoF2) -> dict[str, float]:
    """Diagnostics: relation defects (up to sign), unimodularity, cusp traces."""
    out: dict[str, float] = {}
    x_inv = matrix_inverse(rep.mat_x)
    for name, gen_mat, image in (
        ("relation_a", rep.mat_a, endo.image_a),
        ("relation_b", rep.mat_b, endo.image_b),
    ):
        lhs = rep.mat_x @ gen_mat @ x_inv
        rhs = word_product(image, (rep.mat_a, rep.mat_b))
        defect = min(
            float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs + rhs)))
        )
        out[name] = defect
    for name, mat in (("det_a", rep.mat_a), ("det_b", rep.mat_b), ("det_x", rep.mat_x)):
        out[name] = float(abs(complex(matrix_det(mat)) - 1.0))
    out["meridian_parabolic"] = float(min(abs(np.trace(rep.mat_x) - 2.0),
                                          abs(np.trace(rep.mat_x) + 2.0)))
    longitude = word_product(LONGITUDE, rep.generator_images())
    out["longitude_trace"] = abs(complex(np.trace(longitude)) + 2.0)
    return out


# ---------------------------------------------------------------------------
# Lorentz model: PSL(2, C) acting on Hermitian matrices.
# ---------------------------------------------------------------------------

_HERMITIAN_BASIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[1, 0], [0, 1]], dtype=complex),
)

LORENTZ_FORM = np.diag([1.0, 1.0, 1.0, -1.0])


def psl2_to_lorentz(mat: np.ndarray, *, real_tol: float = 1e-9) -> np.ndarray:
    """Image of a PSL2 element in SO(3,1) via the Hermitian action H -> M H M*.

    Coordinates on Hermitian matrices: x1 = Re H[0,1], x2 = Im H[0,1],
    x3 = (H[0,0] - H[1,1])/2, x4 = (H[0,0] + H[1,1])/2, so that
    -det H = x1^2 + x2^2 + x3^2 - x4^2.
    """
    cols = []
    scale = max(1.0, float(np.max(np.abs(mat))) ** 2)
    for basis in _HERMITIAN_BASIS:
        image = mat @ basis @ mat.conj().T
        herm_defect = float(np.max(np.abs(image - image.conj().T)))
        if herm_defect > real_tol * scale:
            raise ArithmeticError("Hermitian action produced a non-Hermitian matrix")
        x1 = image[0, 1].real
        x2 = image[0, 1].imag
        x3 = (image[0, 0] - image[1, 1]).real / 2.0
        x4 = (image[0, 0] + image[1, 1]).real / 2.0
        cols.append([x1, x2, x3, x4])
    out = np.array(cols).T  # dtype follows the input (real longdouble stays)
    defect = float(np.max(np.abs(out.T @ LORENTZ_FORM @ out - LORENTZ_FORM)))
    if defect > 1e-7 * scale**2:
        raise ArithmeticError("Lorentz image failed the J-orthogonality check")
    return out


@dataclass(frozen=True)
class Holonomy4:
    """Real 4x4 Lorentz images of the three group generators."""

    mat_a: np.ndarray
    mat_b: np.ndarray
    mat_x: np.ndarray

    def generator_images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.mat_a, self.mat_b, self.mat_x)


def lorentz_holonomy(rep: Holonomy2) -> Holonomy4:
    return Holonomy4(
        psl2_to_lorentz(rep.mat_a),
        psl2_to_lorentz(rep.mat_b),
        psl2_to_lorentz(rep.mat_x),
    )


# ---------------------------------------------------------------------------
# Linear representations derived from the Lorentz holonomy.
# ---------------------------------------------------------------------------


def _traceless_basis() -> list[np.ndarray]:
    basis = []
    for i in range(4):
        for j in range(4):
            if i != j:
                mat = np.zeros((4, 4))
                mat[i, j] = 1.0
                basis.append(mat)
    for k in range(3):
        mat = np.zeros((4, 4))
        mat[k, k] = 1.0
        mat[k + 1, k + 1] = -1.0
        basis.append(mat)
    return basis


SL4_BASIS = _traceless_basis()


def sl4_coordinates(mat: np.ndarray, *, tol: float = 1e-8) -> np.ndarray:
    """Coordinates of a traceless 4x4 matrix in the standard basis.

    The 12 off-diagonal units are read off directly; the diagonal part
    d = (d0, d1, d2, d3) with sum 0 has coordinates given by the partial
    sums d0, d0+d1, d0+d1+d2 on the three diagonal difference matrices.
    """
    scale = max(1.0, float(np.max(np.abs(mat))))
    trace = float(abs(np.trace(mat)))
    if trace > tol * scale:
        raise ValueError("matrix is not traceless")
    coords = []
    for i in range(4):
        for j in range(4):
            if i != j:
                coords.append(mat[i, j])
    running = 0.0
    for k in range(3):
        running += mat[k, k]
        coords.append(running)
    return np.array(coords)


def adjoint_rep(rep: Holonomy4) -> dict[int, np.ndarray]:
    """Conjugation action of each generator on traceless 4x4 matrices (15-dim)."""
    images = {}
    for index, mat in enumerate(rep.generator_images()):
        inv = matrix_inverse(mat)
        cols = [sl4_coordinates(mat @ basis @ inv) for basis in SL4_BASIS]
        images[index] = np.array(cols).T
    return images


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
    """Compute the split from scratch; ``KILLING_SPLIT`` holds the result.

    The singular values at both rank decisions are at most 2e-16 or at
    least 1.53, so the default nullspace tolerance decides them safely.
    """
    dim = len(SL4_BASIS)
    # Matrix of the linear map X -> X^T J + J X in basis coordinates; its
    # kernel is the Lorentz Lie algebra.
    rows = []
    for basis in SL4_BASIS:
        image = basis.T @ LORENTZ_FORM + LORENTZ_FORM @ basis
        rows.append(image.reshape(-1))
    lie_map = np.array(rows).T  # 16 x 15, columns indexed by basis
    skew = nullspace(lie_map)
    if skew.shape[1] != 6:
        raise ArithmeticError("Lorentz Lie algebra has unexpected dimension")

    # Trace form B(X, Y) = tr(XY) as a Gram matrix on the basis.
    gram = np.zeros((dim, dim))
    for p, bp in enumerate(SL4_BASIS):
        for q, bq in enumerate(SL4_BASIS):
            gram[p, q] = np.trace(bp @ bq)
    complement = nullspace(skew.T @ gram)
    if complement.shape[1] != dim - 6:
        raise ArithmeticError("trace-form complement has unexpected dimension")
    overlap = float(np.max(np.abs(skew.T @ gram @ complement)))
    if overlap > 1e-8:
        raise ArithmeticError("splitting blocks are not trace-orthogonal")
    return KillingSplit(skew=skew, complement=complement)


KILLING_SPLIT = killing_split()


def restrict_block(
    images: dict[int, np.ndarray],
    block: np.ndarray,
    *,
    leak_tol: float = 1e-7,
) -> dict[int, np.ndarray]:
    """Compress each image to an invariant subspace given by orthonormal columns.

    Raises if the subspace leaks, i.e. the images do not actually
    preserve it to within ``leak_tol``.
    """
    out = {}
    for index, mat in images.items():
        carried = mat @ block
        compressed = block.conj().T @ carried
        residual = float(np.max(np.abs(carried - block @ compressed)))
        if residual > leak_tol * max(1.0, float(np.max(np.abs(mat)))):
            raise ArithmeticError("subspace is not invariant under the action")
        out[index] = compressed
    return out


def kronecker_rep(rep: Holonomy4) -> dict[int, np.ndarray]:
    """Tensor-square action g (x) g on 16 dimensions."""
    return {
        index: np.kron(mat, mat) for index, mat in enumerate(rep.generator_images())
    }


def rep_residuals(
    images: dict[int, np.ndarray], endo: EndoF2
) -> dict[str, float]:
    """Relation defects for a linear representation of the bundle group."""
    mats = [images[0], images[1], images[2]]
    x_inv = matrix_inverse(images[2])
    out = {}
    for name, gen, image in (("relation_a", 0, endo.image_a),
                             ("relation_b", 1, endo.image_b)):
        lhs = images[2] @ images[gen] @ x_inv
        rhs = word_product(image, mats)
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
    tau = np.asarray(
        word_product(LONGITUDE, (adjoint[0], adjoint[1], adjoint[2])), dtype=complex
    )
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
    """Everything derived from one trace solution."""

    triple: TraceTriple
    sl2: Holonomy2
    lorentz: Holonomy4

    def representation(self, kind: str) -> dict[int, np.ndarray]:
        if kind == "sl4":
            return adjoint_rep(self.lorentz)
        if kind == "v":
            return restrict_block(adjoint_rep(self.lorentz), KILLING_SPLIT.complement)
        if kind == "pso31":
            return restrict_block(adjoint_rep(self.lorentz), KILLING_SPLIT.skew)
        if kind == "gl16":
            return kronecker_rep(self.lorentz)
        raise ValueError(f"unknown representation kind: {kind!r}")


def build_solutions(
    endo: EndoF2,
    *,
    starts: int = 64,
    seed: int = 0,
    tolerances: Tolerances | None = None,
) -> list[HolonomySolution]:
    """Solve the trace equations and lift every solution through the tower."""
    tols = tolerances or Tolerances()
    out = []
    for triple in solve_traces(endo, starts=starts, seed=seed):
        sl2 = holonomy_from_triple(triple, endo, null_tol=tols.null)
        out.append(HolonomySolution(triple, sl2, lorentz_holonomy(sl2)))
    return out
