"""Polynomial comparisons, word lists and dense constants that only the tests use.

The package compares polynomials by ``numeric.laurent_distance`` after
``numeric.normalize_unit``; the tests also compare up to an arbitrary
unit c x^k and cross-multiply fractions.  The package reads the standard
traceless basis of 4x4 matrices by indexing; the tests hold it as the
dense 0/+-1 matrices that indexing must match bit for bit.
"""

import itertools

import numpy as np

from ptbundle.numeric import LaurentPoly, laurent_distance
from ptbundle.presentation import is_hyperbolic, parse_monodromy


def laurent_allclose(p: LaurentPoly, q: LaurentPoly, tol: float = 1e-9) -> bool:
    """Coefficientwise comparison, relative to the larger max coefficient."""
    return laurent_distance(p, q) <= tol


def monic_normalize(p: LaurentPoly) -> LaurentPoly:
    """Shift min exponent to 0 and divide by the leading coefficient."""
    if p.is_zero():
        return p
    q = p.shifted(-p.min_exp)
    return q * (1.0 / q.coeff(q.max_exp))


def equal_up_to_unit(p: LaurentPoly, q: LaurentPoly, tol: float = 1e-8) -> bool:
    """Whether p = c x^k q for a scalar c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    pm, qm = monic_normalize(p), monic_normalize(q)
    return pm.span == qm.span and laurent_allclose(pm, qm, tol)


def cross_residual(invariant, other_num: LaurentPoly, other_den: LaurentPoly) -> float:
    """Max defect of numerator * other_den - other_num * denominator of a
    ``WadaInvariant``, relative to the larger of the two products."""
    mine = invariant.numerator * other_den
    theirs = other_num * invariant.denominator
    return (mine - theirs).max_abs() / max(1.0, mine.max_abs(), theirs.max_abs())


def necklace_words(length: int) -> list[str]:
    """One hyperbolic L/R word per rotation class: the least rotation, sorted."""
    words = {min(w[k:] + w[:k] for k in range(length))
             for w in map("".join, itertools.product("LR", repeat=length))}
    return sorted(w for w in words if is_hyperbolic(parse_monodromy(w)))


# The benchmark's corpus: the hyperbolic words of length 2 to 7 up to
# rotation, then six named words, two of them negated.
CORPUS = [w for n in range(2, 8) for w in necklace_words(n)] + [
    "L^4R^4", "LLRLRRLR", "L^8R", "L^12R", "-LLRR", "-RRL"]


# The standard basis of traceless 4x4 matrices as vecs (columns): the 12
# off-diagonal units E_ij, then E_kk - E_k+1,k+1; SL4_COORDS reads
# coordinates off a vec: the off-diagonal entries, then the partial sums
# d0, d0+d1, d0+d1+d2 of the diagonal.
_OFF_DIAGONAL = [4 * i + j for i in range(4) for j in range(4) if i != j]
SL4_VECS = np.zeros((16, 15))
SL4_VECS[_OFF_DIAGONAL + [0, 5, 10], range(15)] = 1.0
SL4_VECS[[5, 10, 15], range(12, 15)] = -1.0
SL4_BASIS = SL4_VECS.T.reshape(15, 4, 4)
SL4_COORDS = np.zeros((15, 16))
SL4_COORDS[range(12), _OFF_DIAGONAL] = 1.0
SL4_COORDS[12:, [0, 5, 10]] = np.tril(np.ones((3, 3)))
