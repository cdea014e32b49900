"""Twisted Alexander polynomials: the determinant route and the cocycle action.

The generic route is the classical determinant construction: Fox
derivatives of the relators, a representation tensored with the
abelianization character, a removed column, and a determinant quotient.
The image of a group-ring element is the map {weight w: matrix M_w} of
sum_w x^w M_w, the Fox minor is the block matrix of those maps, and the
quotient of the two determinants is interpolated pointwise.  For a bundle
both routes are characteristic polynomials of A = (I2 (x) rep(x)^-1) P,
P the Fox blocks of the monodromy images (``fox_action``): on cocycles
modulo coboundaries, Z^1/B^1 (the Wada route), and on the cocycles
killing the longitude.  A acts on Z^1/B^1 only if the images satisfy
the bundle relations; ``coboundary_defect`` measures that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .numeric import (
    EXT_COMPLEX,
    GeneratorImages,
    LaurentPoly,
    Tolerances,
    char_poly,
    compress,
    det_polymatrix,
    keep_product,
    normalize_unit,
    nullspace,
    poly_quotient,
    quotient_interpolate,
    word_product,
)
from .presentation import LONGITUDE, AbelianizationMap, Presentation, validate_abelianization
from .words import (EndoF2, GroupRingElem, Word, format_word, fox_derivative, parse_word,
                    ring_one_minus)


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
            if nullspace(mat).shape[1]:
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


def fox_action(endo: EndoF2, rep: RepImages) -> np.ndarray:
    """The cocycle action A = (I2 (x) rep(x)^-1) P, P the Fox blocks of the images.

    One pass over each monodromy image with a running prefix product: a
    letter g adds the prefix to the g block in place, then multiplies it by
    rep(g); a letter g^-1 multiplies it by rep(g)^-1, then subtracts it.
    The prefix ends on the image's ``word_product``, which ``rep`` keeps.
    One product applies rep(x)^-1; a singular rep(x) raises an ArithmeticError.
    """
    rep = GeneratorImages.of(rep)
    try:
        prefactor = rep.inverse(2)
    except ArithmeticError:
        raise ArithmeticError("singular meridian image") from None
    n = rep[0].shape[0]
    eye = np.eye(n, dtype=np.result_type(*rep.values()))
    blocks = np.zeros((n, 2, 2, n), dtype=eye.dtype)  # [:, i, g]: P's block of image i, gen g
    for i, image in enumerate((endo.image_a, endo.image_b)):
        prefix = eye
        for gen, exp in image.letters:
            if exp > 0:
                blocks[:, i, gen] += prefix
                prefix = np.dot(prefix, rep[gen])
            else:
                prefix = np.dot(prefix, rep.inverse(gen))
                blocks[:, i, gen] -= prefix
        keep_product(rep, image, prefix)
    product = np.dot(prefactor, blocks.reshape(n, 4 * n)).reshape(n, 2, 2 * n)
    return product.transpose(1, 0, 2).reshape(2 * n, 2 * n)


def _coboundary_map(rep: GeneratorImages) -> np.ndarray:
    """E = [I - rep(a); I - rep(b)], kept on rep: its range is B^1, its kernel H^0."""
    eye = np.eye(rep[0].shape[0], dtype=np.result_type(*rep.values()))
    return rep.kept("coboundary_map", lambda: np.vstack([eye - rep[0], eye - rep[1]]))


def bundle_twisted_alexander(matrix: np.ndarray, rep: RepImages, *,
                             tolerances: Tolerances | None = None) -> LaurentPoly:
    """Twisted Alexander polynomial of a bundle from its ``fox_action`` matrix A.

    A acts on B^1 = (module)/H^0 by rep(x)^-1, so the Wada quotient
    det(A - t) / det(rep(x)^-1 - t), leading coefficient (-1)^n, is
    det(Abar - t) / det(rep(x)^-1 - t) on H^0, the vectors the fiber group
    fixes, for the map Abar induced on Z^1/B^1.
    Abar is read off the complement of B^1, refined to the extended
    precision of A.  Raises ArithmeticError when ``coboundary_defect``
    exceeds the root tolerance: the images then break the bundle relations.
    """
    tols = tolerances or Tolerances()
    rep = GeneratorImages.of(rep)
    if not (defect := coboundary_defect(matrix, rep)) <= tols.root:
        raise ArithmeticError(
            "the cocycle action does not preserve the coboundaries: relative "
            "defect %.3e exceeds the root tolerance %.3e" % (defect, tols.root))
    complement = nullspace(_coboundary_map(rep).conj().T, tol=tols.null, refine=True)
    _, coeffs = char_poly(np.dot(np.dot(complement.conj().T, matrix), complement)).dense()
    if complement.shape[1] > rep[0].shape[0]:  # dim Z^1/B^1 = n + dim H^0
        # the dividend in extended precision, the divisor as the double
        # complex coefficients LaurentPoly.dense() gives
        fixed = nullspace(_coboundary_map(rep), tol=tols.null, refine=True)
        _, divisor = char_poly(compress(rep.inverse(2), fixed,
                                        "the meridian moves the fixed vectors")).dense()
        coeffs = poly_quotient(np.array(coeffs[::-1], dtype=EXT_COMPLEX), divisor[::-1])[::-1]
    poly = LaurentPoly.from_coeffs(coeffs)
    return poly.realified(1e-6) if np.isrealobj(matrix) else poly


# ---------------------------------------------------------------------------
# Monodromy action on cocycles.
# ---------------------------------------------------------------------------

_WORD_ABA = parse_word("abA", ("a", "b", "x"))


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
    right = np.asarray(rep[0], dtype=complex) - word_product(LONGITUDE, rep)
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


def monodromy_action(matrix: np.ndarray, rep: RepImages, *,
                     tolerances: Tolerances | None = None) -> CocycleAction:
    """The ``fox_action`` matrix A with its restriction to the longitude kernel.

    A cocycle pair is evaluated on the monodromy images of a and b and
    multiplied by the inverse meridian; the kernel holds the cocycles
    killing the longitude.
    """
    tols = tolerances or Tolerances()
    kernel = nullspace(res_l_map(rep), tol=tols.null)
    restricted = compress(matrix, kernel,
                          "monodromy action leaks out of the longitude-killing kernel")
    return CocycleAction(matrix=matrix, kernel_basis=kernel, restricted=restricted)


def relative_char_poly(action: CocycleAction) -> LaurentPoly:
    """Characteristic polynomial of the action on the longitude-killing kernel."""
    return char_poly(action.restricted)


def coboundary_defect(action: CocycleAction | np.ndarray, rep: RepImages) -> float:
    """How far the action (or its matrix) is from carrying coboundaries by rep(x)^-1.

    Coboundaries embed the module via v -> ((1-a)v, (1-b)v); the action
    must carry this to the embedding of rep(x)^-1 v.  Returns the
    relative defect.
    """
    rep = GeneratorImages.of(rep)
    matrix = action.matrix if isinstance(action, CocycleAction) else action
    embed = _coboundary_map(rep)
    diff = np.dot(matrix, embed) - np.dot(embed, rep.inverse(2))
    return float(np.max(np.abs(diff))) / max(1.0, float(np.max(np.abs(embed))))
