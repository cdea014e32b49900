"""The identities ``certify`` derives the sl4 and gl16 evidence from, on the full tower.

sl4 = so(3,1) + v as a Lorentz module, and R^4 (x) R^4 = so(3,1) + v + R.
The monodromy acts on the so(3,1) cohomology, the tangent space of the
character variety, by the Jacobian J of the composed letter maps
(``tangent_map``), and on the trivial summand's by the monodromy matrix,
whose characteristic polynomial is t^2 - tr t + 1.  So, with
q = det(J - t)/(t - 1) and qbar, char(Jbar) its coefficientwise
conjugates, the Wada polynomials of the three labels satisfy

    Wada(sl4) = (t - 1)^2 q qbar Wada(v),
    (t - 1) Wada(gl16) = char(J) char(Jbar) Wada(v) (t^2 - tr t + 1),

up to a unit.  Here each Wada polynomial is built from its own label's
cocycle action, on every corpus word, the two negated ones included.
"""

import numpy as np
import pytest

from helpers import CORPUS
from ptbundle.alexander import bundle_twisted_alexander, fox_action
from ptbundle.holonomy import build_solution, tangent_map
from ptbundle.numeric import LaurentPoly, char_poly, laurent_distance, normalize_unit
from ptbundle.presentation import monodromy_endo, monodromy_trace, parse_monodromy

T_MINUS_1 = LaurentPoly({0: -1.0, 1: 1.0})

# About ten times the largest difference measured on the corpus (x86-64,
# 80-bit long double): 3.6e-9 for sl4 and 4.6e-9 for gl16, both on LLLRLLR.
BOUND = {"sl4": 4e-8, "gl16": 5e-8}


def conjugate(poly):
    return LaurentPoly({e: c.conjugate() for e, c in poly.coeffs.items()})


def split_differences(word):
    """The relative difference of each identity's two sides, after ``normalize_unit``."""
    spec = parse_monodromy(word)
    endo, sol = monodromy_endo(spec), build_solution(spec)
    wada = {}
    for label in ("sl4", "v", "gl16"):
        rep = sol.representation(label)
        wada[label] = bundle_twisted_alexander(fox_action(endo, rep), rep)
    char = char_poly(tangent_map(spec.letters, sol.sl2))
    _, coeffs = char.dense()
    quotient, remainder = np.polydiv(coeffs[::-1], [1.0, -1.0])
    # J has the eigenvalue 1: the remainder is at most 1.9e-16 relative
    assert abs(remainder[-1]) <= 1e-12 * max(map(abs, coeffs)), word
    q = LaurentPoly.from_coeffs(quotient[::-1])
    trivial = LaurentPoly.from_coeffs([1.0, -monodromy_trace(spec), 1.0])
    sides = {
        "sl4": (wada["sl4"], T_MINUS_1 * T_MINUS_1 * q * conjugate(q) * wada["v"]),
        "gl16": (T_MINUS_1 * wada["gl16"], char * conjugate(char) * wada["v"] * trivial),
    }
    return {label: laurent_distance(normalize_unit(left), normalize_unit(right))
            for label, (left, right) in sides.items()}


@pytest.mark.parametrize("word", CORPUS)
def test_split_identities(word):
    differences = split_differences(word)
    assert all(differences[label] <= BOUND[label] for label in BOUND), differences


if __name__ == "__main__":
    for word in CORPUS:
        print(word, split_differences(word))
