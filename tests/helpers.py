"""Polynomial comparisons, word lists and dense constants that only the tests use.

The package compares polynomials by ``numeric.laurent_distance`` after
``numeric.normalize_unit``; the tests also compare up to an arbitrary
unit c x^k and cross-multiply fractions.  The package reads the standard
traceless basis of 4x4 matrices by indexing; the tests hold it as the
dense 0/+-1 matrices that indexing must match bit for bit.  The factored
display is read back into integers here, and its factor search is kept in
its first form, one ``np.poly`` per combination of root orbits.
"""

import itertools
import re

import numpy as np

from ptbundle.cli import _exact_int_division, _root_orbits
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


def expand(*factors):
    """Multiply integer coefficient lists (ascending powers) exactly."""
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                new[i + j] += x * y
        out = new
    return out


def parse_display(text: str, var: str = "t") -> list[int]:
    """The integer coefficients (ascending powers) of a factored display.

    Reads ``[-|c ](f)[^k] ...``, each f in ``format_int_poly``'s term
    syntax, or a bare integer constant; anything else raises ValueError.
    """
    if re.fullmatch(r"-?\d+", text):
        return [int(text)]
    head = re.match(r"(-(?=\()|-?\d+ (?=\())?", text)
    constant = head.group(1)
    factors = [[1 if constant is None else -1 if constant == "-" else int(constant)]]
    body = text[head.end():]
    piece = re.compile(r"\(([^()]+)\)(?:\^(\d+))?( |$)")
    at = 0
    while at < len(body):
        found = piece.match(body, at)
        if found is None:
            raise ValueError(f"unreadable display {text!r}")
        factors += [_parse_terms(found.group(1), var)] * int(found.group(2) or 1)
        at = found.end()
    if len(factors) == 1:
        raise ValueError(f"unreadable display {text!r}")
    return expand(*factors)


def _parse_terms(text: str, var: str) -> list[int]:
    """Coefficients of one ``format_int_poly`` body such as ``t^2 - 18t + 1``."""
    term = re.compile(rf"(-?)(\d*)(?:({re.escape(var)})(?:\^(\d+))?)?")
    coeffs: dict[int, int] = {}
    for token in text.replace(" - ", " -").replace(" + ", " ").split(" "):
        found = term.fullmatch(token)
        if found is None or not (found.group(2) or found.group(3)):
            raise ValueError(f"unreadable term {token!r} in {text!r}")
        sign, digits, power, exponent = found.groups()
        degree = int(exponent or 1) if power else 0
        coeffs[degree] = (-1 if sign else 1) * int(digits or 1)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def reference_candidate_factor(rest: list[int]):
    """The factor search with one ``np.poly`` per combination of root orbits."""
    orbits = _root_orbits(rest)
    degree_cap = min(6, len(rest) - 1)
    combos = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(len(orbits)), size):
            degree = sum(len(orbits[k]) for k in combo)
            if 1 <= degree <= degree_cap:
                combos.append((degree, combo))
    combos.sort()
    for _, combo in combos:
        cluster = [z for k in combo for z in orbits[k]]
        monic = np.poly(np.array(cluster, dtype=complex))
        coeffs = list(reversed([c.real for c in monic]))
        rounded = [round(c) for c in coeffs]
        if max(abs(c - r) for c, r in zip(coeffs, rounded)) > 1e-3:
            continue
        if _exact_int_division(rest, rounded) is not None:
            return rounded
    return None
