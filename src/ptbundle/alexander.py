"""Twisted Alexander polynomials by two independent routes.

Route one is the classical determinant construction: Fox derivatives of
the relators, a representation tensored with the abelianization
character, a removed column, and a determinant quotient.  The image of a
group-ring element is the map {weight w: matrix M_w} of sum_w x^w M_w,
the Fox minor is the block matrix of those maps, and the quotient of
the two determinants is interpolated pointwise, as in every other
quotient of the package.  Route two is
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
from typing import Mapping

import numpy as np

from .numeric import (
    GeneratorImages,
    LaurentPoly,
    Tolerances,
    char_poly,
    det_polymatrix,
    equal_up_to_unit,
    matrix_det,
    normalize_unit,
    nullspace,
    pencil_det,
    quotient_interpolate,
    word_product,
)
from .presentation import AbelianizationMap, Presentation, validate_abelianization
from .words import (EndoF2, GroupRingElem, Word, format_word, fox_derivative, parse_word,
                    ring_one_minus)


def _ring_matrix(elem: GroupRingElem, images: GeneratorImages) -> np.ndarray:
    """Linear extension of a representation to the group ring (no weights).

    The dtype is that of the images, so a real representation stays real.
    """
    dim = images[0].shape[0]
    out = np.zeros((dim, dim), dtype=np.result_type(*images.values()))
    for word, coeff in elem.terms.items():
        out = out + coeff * word_product(word, images)
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


def phi_map(elem: GroupRingElem, rep: RingRep) -> dict[int, np.ndarray]:
    """Image of a group-ring element under representation (x) character.

    Returns {w: M_w} for the polynomial matrix sum_w x^w M_w: each word
    adds coefficient times its matrix product to the matrix of its weight.
    """
    alpha = AbelianizationMap(rep.weights)
    out: dict[int, np.ndarray] = {}
    for word, coeff in elem.terms.items():
        weight = alpha.weight(word)
        out[weight] = out.get(weight, 0) + coeff * word_product(word, rep.matrices)
    return out


@dataclass(frozen=True)
class WadaInvariant:
    """Determinant-route value: numerator / denominator up to units.

    ``quotient`` is filled when the fraction is a polynomial; otherwise
    the invariant lives only as the fraction (that happens for the
    one-relator trefoil presentation with the trivial character) and
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

    Checks that the matrices satisfy every relator within the root
    tolerance, removes the first generator column whose
    one-minus-generator image has a nonvanishing determinant (or the
    caller's choice), then forms det(Fox minor) / det(image of
    1 - generator).  The quotient is interpolated pointwise from the two
    determinants, each shifted to minimum exponent 0, and is None when it
    is not a polynomial.
    """
    tols = tolerances or Tolerances()
    alpha = AbelianizationMap(rep.weights)
    problem = validate_abelianization(pres, alpha)
    if problem:
        raise ValueError(problem)
    eye = np.eye(rep.dimension)
    for i, rel in enumerate(pres.relators):
        image = word_product(rel, rep.matrices)
        defect = float(np.max(np.abs(image - eye))) / max(1.0, float(np.max(np.abs(image))))
        if not defect <= tols.root:
            raise ValueError(
                "representation does not satisfy relator %d (%s): relative defect "
                "%.3e exceeds the root tolerance %.3e"
                % (i, format_word(rel, pres.generator_names), defect, tols.root))

    count = pres.generator_count
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

    fox = [
        [phi_map(fox_derivative(rel, j), rep) for j in range(count) if j != chosen]
        for rel in pres.relators
    ]
    zero = np.zeros_like(eye)
    minor = {
        w: np.block([[cell.get(w, zero) for cell in row] for row in fox])
        for w in {w for row in fox for cell in row for w in cell}
    }
    # without relators the minor is 0 x 0, with determinant 1
    numerator = det_polymatrix(minor, tol=tols.det) if fox else LaurentPoly.one()
    num = numerator.shifted(-numerator.min_exp)
    den = denominator.shifted(-denominator.min_exp)
    quotient = None
    if num.span >= den.span:
        try:
            quotient = quotient_interpolate(num.evaluate, den.evaluate,
                                            num.span - den.span, tol=tols.det)
        except ArithmeticError:
            pass
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


def _fiber_fox_blocks(endo: EndoF2, rep: GeneratorImages) -> list[list[np.ndarray]]:
    """Constant matrices of the fiber Fox derivatives of the two images."""
    return [
        [_ring_matrix(fox_derivative(image, j), rep) for j in range(2)]
        for image in (endo.image_a, endo.image_b)
    ]


def _pencil_quotient(p, q, r, s, tols: Tolerances) -> LaurentPoly:
    """det(P - tQ) / det(R - tS), a polynomial of degree dim R, by sampling.

    Q and S must be invertible; None stands for the identity.  Each pencil
    is reduced to Hessenberg form once (``pencil_det``), so a radius that
    fails validation costs only the O(n^2)-per-point samples of the next.
    A singular Q or S raises an ArithmeticError naming the numerator or
    the denominator.  Real matrices (those of a real representation) give
    a real polynomial, which is sampled on half the circle and realified.
    """
    real = all(np.isrealobj(m) for m in (p, q, r, s) if m is not None)
    quotient = quotient_interpolate(
        pencil_det(p, q, name="numerator"),
        pencil_det(r, s, name="denominator"),
        np.shape(r)[0],
        tol=tols.det,
        real=real,
    )
    if real:
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
    coefficient division would amplify roundoff combinatorially.  Both
    determinants are sampled from the Fox pencil itself, P with
    Q = I2 (x) rep(x), not from the cocycle action, so that
    ``route_agreement`` compares two computations.
    """
    rep = GeneratorImages.of(rep)
    mer = np.asarray(rep[2])
    return _pencil_quotient(
        np.block(_fiber_fox_blocks(endo, rep)), np.kron(np.eye(2), mer),
        np.eye(mer.shape[0]), mer,
        tolerances or Tolerances(),
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
    rep = GeneratorImages.of(rep)
    dim = rep[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    left = eye - word_product(_WORD_ABA, rep)
    right = np.asarray(rep[0], dtype=complex) - word_product(_WORD_COMMUTATOR, rep)
    out = np.hstack([left, right])
    if all(np.isrealobj(m) for m in rep.values()):
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
    rep = GeneratorImages.of(rep)
    prefactor = rep.inverse(2)
    fox = _fiber_fox_blocks(endo, rep)
    matrix = np.block([[prefactor @ cell for cell in row] for row in fox])

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
    rep = GeneratorImages.of(rep)
    dim = rep[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    embed = np.vstack([eye - np.asarray(rep[0]), eye - np.asarray(rep[1])])
    diff = action.matrix @ embed - embed @ rep.inverse(2)
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
    rep = GeneratorImages.of(rep)
    quotient = _pencil_quotient(action.matrix, None, rep.inverse(2), None, tols)
    defect = coboundary_defect(action, rep)
    match = defect <= match_tol and equal_up_to_unit(wada, quotient, tol=match_tol)
    return RouteAgreement(
        wada=wada, action_quotient=quotient, coboundary_defect=defect, match=match
    )
