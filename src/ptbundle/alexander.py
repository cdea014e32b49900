"""Twisted Alexander polynomials by two independent routes.

Route one is the classical determinant construction: Fox derivatives of
the relators, a representation tensored with the abelianization
character, a removed column, and a determinant quotient.  Route two is
dynamical: the inverse monodromy acts on cocycles of the fiber group, and
the characteristic polynomial of that action (on all cocycles modulo
coboundaries, or restricted to the cocycles killing the longitude)
recovers the same invariant.  ``route_agreement`` compares a polynomial
from route one with an action from route two, both computed by the
caller.  The two routes share one Fox matrix, so their polynomials agree
for any images; what can fail is the coboundary step of route two, which
holds only when the images satisfy the bundle relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .numeric import (
    EXT_COMPLEX,
    LaurentPoly,
    PolyMatrix,
    Tolerances,
    char_poly,
    det_polymatrix,
    equal_up_to_unit,
    matrix_det,
    matrix_inverse,
    normalize_unit,
    nullspace,
    poly_div_exact,
    quotient_interpolate,
    word_product,
)
from .presentation import AbelianizationMap, Presentation, validate_abelianization
from .words import EndoF2, GroupRingElem, Word, fox_derivative, parse_word, ring_one_minus


def _common_dtype(matrices: Sequence[np.ndarray]):
    return np.result_type(complex, *(np.asarray(m).dtype for m in matrices))


def _ring_matrix(elem: GroupRingElem, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Linear extension of a representation to the group ring (no weights)."""
    dim = matrices[0].shape[0]
    out = np.zeros((dim, dim), dtype=_common_dtype(matrices))
    for word, coeff in elem.terms.items():
        out = out + coeff * word_product(word, matrices)
    return out


# ---------------------------------------------------------------------------
# Generic determinant route.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingRep:
    """A linear representation plus abelianization weights per generator."""

    matrices: tuple[np.ndarray, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.weights):
            raise ValueError("one weight per generator matrix is required")
        dim = self.matrices[0].shape[0]
        for mat in self.matrices:
            if mat.shape != (dim, dim):
                raise ValueError("generator matrices must be square, equal size")
            if abs(complex(matrix_det(mat))) < 1e-12:
                raise ValueError("generator matrices must be invertible")

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]


def phi_map(elem: GroupRingElem, rep: RingRep) -> PolyMatrix:
    """Image of a group-ring element under representation (x) character.

    Each word contributes coefficient times x^(weight) times its matrix
    product; contributions are grouped by exponent and laid out as a
    matrix of Laurent polynomials.
    """
    alpha = AbelianizationMap(rep.weights)
    dim = rep.dimension
    zero = np.zeros((dim, dim), dtype=_common_dtype(rep.matrices))
    buckets: dict[int, np.ndarray] = {}
    for word, coeff in elem.terms.items():
        weight = alpha.weight(word)
        term = coeff * word_product(word, rep.matrices)
        buckets[weight] = buckets.get(weight, zero) + term
    cells = []
    for i in range(dim):
        row = []
        for j in range(dim):
            terms = {w: block[i, j] for w, block in buckets.items() if block[i, j] != 0}
            row.append(LaurentPoly(terms))
        cells.append(row)
    return PolyMatrix(cells)


@dataclass(frozen=True)
class AlexanderMatrix:
    """Fox-derivative block grid: one row per relator, one column per generator."""

    blocks: tuple[tuple[PolyMatrix, ...], ...]
    block_size: int

    def without_generator(self, k: int) -> PolyMatrix:
        kept = [
            [cell for j, cell in enumerate(row) if j != k] for row in self.blocks
        ]
        return PolyMatrix.from_blocks(kept)


def alexander_matrix(pres: Presentation, rep: RingRep) -> AlexanderMatrix:
    blocks = tuple(
        tuple(
            phi_map(fox_derivative(rel, j), rep)
            for j in range(len(pres.generator_names))
        )
        for rel in pres.relators
    )
    return AlexanderMatrix(blocks=blocks, block_size=rep.dimension)


@dataclass(frozen=True)
class WadaInvariant:
    """Determinant-route value: numerator / denominator up to units.

    ``quotient`` is filled when the division is exact as polynomials;
    otherwise the invariant lives only as the fraction (that happens for
    the one-relator trefoil presentation with the trivial character) and
    callers compare by cross-multiplication.
    """

    numerator: LaurentPoly
    denominator: LaurentPoly
    column: int
    quotient: LaurentPoly | None

    def normalized_quotient(self, tol: float = 1e-9) -> LaurentPoly | None:
        if self.quotient is None:
            return None
        out = normalize_unit(self.quotient)
        _, coeffs = out.dense()
        lead = coeffs[-1]
        if abs(lead.imag) <= tol * abs(lead) and lead.real < 0:
            out = out * (-1.0)
        return out

    def cross_residual(self, other_num: LaurentPoly, other_den: LaurentPoly) -> float:
        """Max defect of numerator*other_den - other_num*denominator."""
        diff = self.numerator * other_den - other_num * self.denominator
        scale = max(
            1.0,
            (self.numerator * other_den).max_abs(),
            (other_num * self.denominator).max_abs(),
        )
        return diff.max_abs() / scale


def twisted_alexander(
    pres: Presentation,
    rep: RingRep,
    *,
    column: int | None = None,
    tolerances: Tolerances | None = None,
) -> WadaInvariant:
    """Determinant-route twisted Alexander invariant of a presentation.

    Removes the first generator column whose one-minus-generator image
    has a nonvanishing determinant (or the caller's choice), then forms
    det(minor) / det(image of 1 - generator).
    """
    tols = tolerances or Tolerances()
    alpha = AbelianizationMap(rep.weights)
    problem = validate_abelianization(pres, alpha)
    if problem:
        raise ValueError(problem)

    grid = alexander_matrix(pres, rep)
    count = len(pres.generator_names)
    candidates = [column] if column is not None else list(range(count))
    chosen = None
    denominator = None
    for k in candidates:
        den = det_polymatrix(phi_map(ring_one_minus(Word(((k, 1),))), rep), tol=tols.det)
        if den.max_abs() > tols.det:
            chosen = k
            denominator = den
            break
    if chosen is None:
        raise ArithmeticError("no generator gives a nonzero denominator")

    numerator = det_polymatrix(grid.without_generator(chosen), tol=tols.det)
    try:
        quotient = poly_div_exact(numerator, denominator, tol=tols.det)
    except ArithmeticError:
        quotient = None
    return WadaInvariant(
        numerator=numerator,
        denominator=denominator,
        column=chosen,
        quotient=quotient,
    )


# ---------------------------------------------------------------------------
# Bundle specialization of the determinant route.
# ---------------------------------------------------------------------------


RepImages = Mapping[int, np.ndarray]


def _fiber_fox_blocks(endo: EndoF2, rep: RepImages) -> list[list[np.ndarray]]:
    """Constant matrices of the fiber Fox derivatives of the two images."""
    fiber = (rep[0], rep[1])
    return [
        [_ring_matrix(fox_derivative(image, j), fiber) for j in range(2)]
        for image in (endo.image_a, endo.image_b)
    ]


def _is_real_rep(rep: RepImages) -> bool:
    return all(np.max(np.abs(np.asarray(m).imag)) < 1e-12 for m in rep.values())


def _pencil_quotient(p, q, r, s, rep: RepImages, tols: Tolerances) -> LaurentPoly:
    """det(P - tQ) / det(R - tS), a polynomial of degree dim R, by sampling.

    Realified when the representation is real.
    """
    p, q, r, s = (np.asarray(m).astype(EXT_COMPLEX) for m in (p, q, r, s))
    quotient = quotient_interpolate(
        lambda z: matrix_det(p - z * q),
        lambda z: matrix_det(r - z * s),
        r.shape[0],
        tol=tols.det,
    )
    if _is_real_rep(rep):
        quotient = quotient.realified(1e-6)
    return quotient


def bundle_twisted_alexander(
    endo: EndoF2,
    rep: RepImages,
    *,
    tolerances: Tolerances | None = None,
) -> LaurentPoly:
    """Twisted Alexander polynomial of a bundle, meridian column removed.

    The minor is the 2x2 block pencil (Fox blocks of the monodromy images
    minus t times the meridian image on the diagonal) and the denominator
    det(I - t rep(x)) has all roots at t = 1 because the meridian image
    is unipotent.  The quotient is therefore recovered by pointwise
    division on a circle away from 1 followed by interpolation; longhand
    coefficient division would amplify roundoff combinatorially.
    """
    mer = np.asarray(rep[2])
    return _pencil_quotient(
        np.block(_fiber_fox_blocks(endo, rep)), np.kron(np.eye(2), mer),
        np.eye(mer.shape[0]), mer,
        rep, tolerances or Tolerances(),
    )


# ---------------------------------------------------------------------------
# Monodromy action on cocycles.
# ---------------------------------------------------------------------------

_WORD_ABA = parse_word("abA", ("a", "b", "x"))
_WORD_COMMUTATOR = parse_word("abAB", ("a", "b", "x"))


def res_l_map(rep: RepImages) -> np.ndarray:
    """Restriction-to-longitude map on cocycle pairs, as an n x 2n matrix.

    A cocycle is determined by its values (X, Y) on the two fiber
    generators; its value on the longitude is
    (1 - aba^-1) X + (a - aba^-1b^-1) Y.
    """
    fiber = (rep[0], rep[1])
    dim = rep[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    left = eye - word_product(_WORD_ABA, fiber)
    right = np.asarray(rep[0], dtype=complex) - word_product(_WORD_COMMUTATOR, fiber)
    out = np.hstack([left, right])
    if _is_real_rep(rep):
        # real kernel bases keep the restricted action (and its
        # characteristic polynomial) real as well
        out = out.real
    return out


@dataclass(frozen=True)
class CocycleAction:
    """Inverse monodromy action on cocycle pairs and on the longitude kernel."""

    matrix: np.ndarray
    kernel_basis: np.ndarray
    restricted: np.ndarray


def monodromy_action(
    endo: EndoF2,
    rep: RepImages,
    *,
    tolerances: Tolerances | None = None,
) -> CocycleAction:
    """Action of the inverse monodromy on cocycle pairs.

    A cocycle is evaluated on the monodromy images of a and b and then
    multiplied by the inverse meridian, so only the Fox derivatives of
    those images are needed.  The matrix is the determinant route's
    pencil with the meridian factored out, which is why its quotient
    polynomial matches the Wada polynomial up to a unit.
    """
    tols = tolerances or Tolerances()
    prefactor = matrix_inverse(rep[2])
    fox = _fiber_fox_blocks(endo, rep)
    matrix = np.block([[prefactor @ cell for cell in row] for row in fox])
    if _is_real_rep(rep):
        matrix = matrix.real

    kernel = nullspace(res_l_map(rep), tol=tols.null)
    carried = matrix @ kernel
    restricted = kernel.conj().T @ carried
    leak = float(np.max(np.abs(carried - kernel @ restricted)))
    if leak > 1e-7 * max(1.0, float(np.max(np.abs(matrix)))):
        raise ArithmeticError(
            "monodromy action leaks out of the longitude-killing kernel"
        )
    return CocycleAction(matrix=matrix, kernel_basis=kernel, restricted=restricted)


def relative_char_poly(action: CocycleAction, *, tol: float = 1e-8) -> LaurentPoly:
    """Characteristic polynomial of the action on the longitude-killing kernel."""
    return char_poly(action.restricted, tol=tol)


def coboundary_defect(action: CocycleAction, rep: RepImages) -> float:
    """How far the action is from multiplying coboundaries by rep(x)^-1.

    Coboundaries embed the module via v -> ((1-a)v, (1-b)v); the action
    must carry this to the embedding of rep(x)^-1 v.  Returns the
    relative defect.
    """
    dim = rep[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    embed = np.vstack([eye - np.asarray(rep[0]), eye - np.asarray(rep[1])])
    diff = action.matrix @ embed - embed @ matrix_inverse(rep[2])
    return float(np.max(np.abs(diff))) / max(1.0, float(np.max(np.abs(embed))))


# ---------------------------------------------------------------------------
# Agreement of the two routes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteAgreement:
    """Determinant route vs cocycle-quotient route, compared up to units."""

    wada: LaurentPoly
    action_quotient: LaurentPoly
    coboundary_defect: float
    match: bool


def route_agreement(
    wada: LaurentPoly,
    action: CocycleAction,
    rep: RepImages,
    *,
    tolerances: Tolerances | None = None,
    match_tol: float = 1e-6,
) -> RouteAgreement:
    """Cross-check a determinant-route polynomial against a cocycle action.

    The second polynomial is det(A - t) / det(rep(x)^-1 - t): the
    characteristic polynomial of the action on all cocycle pairs divided
    by that of its restriction to the coboundaries.  Factoring rep(x) out
    of the determinant route's pencil shows the two agree up to a unit,
    with no reciprocal, whatever the images.  The division is the
    action on cohomology only if the action carries coboundaries by
    rep(x)^-1, which holds exactly when the images satisfy the bundle
    relations; so a match also needs `coboundary_defect` within
    `match_tol`.
    """
    tols = tolerances or Tolerances()
    dim = rep[2].shape[0]
    quotient = _pencil_quotient(
        action.matrix, np.eye(2 * dim), matrix_inverse(rep[2]), np.eye(dim), rep, tols
    )
    defect = coboundary_defect(action, rep)
    match = defect <= match_tol and equal_up_to_unit(wada, quotient, tol=match_tol)
    return RouteAgreement(
        wada=wada, action_quotient=quotient, coboundary_defect=defect, match=match
    )
