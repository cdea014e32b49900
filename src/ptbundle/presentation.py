"""Monodromy specifications and group presentations of punctured-torus bundles.

A once-punctured torus bundle is specified by a word over the two Dehn
twists {L, R} with an optional leading '-' (the elliptic involution).  The
induced 2x2 integer matrix is the product of

    L = [[1, 0], [1, 1]]^T-convention below,  R = [[1, 1], [0, 1]],

taken left to right, negated when the '-' flag is set; the bundle is
hyperbolic exactly when |trace| > 2.

The fundamental group of the bundle with fiber the once-punctured torus
<a, b> and monodromy phi is

    < a, b, x | phi(a) x a^-1 x^-1,  phi(b) x b^-1 x^-1 >

with abelianization-to-Z weights (0, 0, 1): a and b die, x maps to t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .words import EndoF2, Word, endo_from_lr, generator, parse_word

# matrices of the elementary twists acting on H_1(fiber); row convention is
# chosen so that the matrix of a composition is the product of the letter
# matrices in reading order.
L_MATRIX = ((1, 0), (1, 1))
R_MATRIX = ((1, 1), (0, 1))

# The longitude, the commutator [a, b] = a b a^-1 b^-1 around the puncture.
LONGITUDE = parse_word("abAB", ("a", "b", "x"))


@dataclass(frozen=True)
class MonodromySpec:
    """A monodromy word over {L, R} plus the negation flag."""

    letters: str
    negate: bool = False

    def __post_init__(self):
        if any(ch not in "LR" for ch in self.letters):
            raise ValueError("monodromy letters must be over {L, R}, got %r" % (self.letters,))
        if not self.letters:
            raise ValueError("empty monodromy word")

    def text(self) -> str:
        return ("-" if self.negate else "") + self.letters


def parse_monodromy(text: str) -> MonodromySpec:
    """Parse monodromy syntax: 'LLRR', 'L^2R^2', '-RRL'.

    A power is ASCII digits; one whose word cannot be spelled out is a
    ValueError that names the word, like every other input error.
    """
    s = text.strip()
    negate = False
    if s.startswith("-"):
        negate = True
        s = s[1:]
    letters = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in "LR":
            raise ValueError("bad monodromy token %r in %r" % (ch, text))
        i += 1
        power = "1"
        if i < len(s) and s[i] == "^":
            i += 1
            j = i
            while j < len(s) and s[j] in "0123456789":
                j += 1
            if j == i:
                raise ValueError("malformed power in monodromy %r" % (text,))
            power = s[i:j]
            i = j
        letters.append((ch, power))
    try:
        word = "".join(ch * int(power) for ch, power in letters)
    except (ValueError, OverflowError, MemoryError):
        raise ValueError("monodromy %r is too long to spell out" % (text,)) from None
    if not word:
        raise ValueError("monodromy %r contains no twists" % (text,))
    return MonodromySpec(word, negate)


def monodromy_matrix(spec: MonodromySpec) -> np.ndarray:
    """Product of the twist matrices, negated when the flag is set (exact ints)."""
    m = np.eye(2, dtype=object)
    table = {"L": np.array(L_MATRIX, dtype=object), "R": np.array(R_MATRIX, dtype=object)}
    for ch in spec.letters:
        m = m @ table[ch]
    if spec.negate:
        m = -m
    return m


def monodromy_trace(spec: MonodromySpec) -> int:
    m = monodromy_matrix(spec)
    return int(m[0, 0] + m[1, 1])


def is_hyperbolic(spec: MonodromySpec) -> bool:
    return abs(monodromy_trace(spec)) > 2


def monodromy_endo(spec: MonodromySpec) -> EndoF2:
    return endo_from_lr(spec.letters, spec.negate)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with generator_count - 1 relators (deficiency one)."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        n = len(self.generator_names)
        if len(self.relators) != n - 1:
            raise ValueError(
                "expected %d relators for %d generators, got %d"
                % (n - 1, n, len(self.relators))
            )
        for r in self.relators:
            if r.max_generator() >= n:
                raise ValueError("relator uses generator index beyond the alphabet")

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)


@dataclass(frozen=True)
class AbelianizationMap:
    """Weights of the surjection onto Z; a word maps to t**weight."""

    exponents: tuple[int, ...]

    def weight(self, w: Word) -> int:
        return sum(e * self.exponents[g] for g, e in w)


def validate_abelianization(pres: Presentation, alpha: AbelianizationMap) -> Optional[str]:
    """None when alpha kills every relator and is onto Z; else a description."""
    if len(alpha.exponents) != pres.generator_count:
        return "abelianization has %d weights for %d generators" % (
            len(alpha.exponents),
            pres.generator_count,
        )
    for i, r in enumerate(pres.relators):
        wgt = alpha.weight(r)
        if wgt != 0:
            return "relator %d has nonzero abelianized weight %d" % (i, wgt)
    g = int(np.gcd.reduce([abs(e) for e in alpha.exponents])) if any(alpha.exponents) else 0
    if g != 1:
        return "weights %r do not generate Z (gcd %d)" % (alpha.exponents, g)
    return None


def bundle_presentation(spec: MonodromySpec) -> tuple[Presentation, EndoF2, AbelianizationMap]:
    """Presentation of the bundle group, the monodromy automorphism, and alpha."""
    phi = monodromy_endo(spec)
    x = generator(2)
    relators = (
        phi.image_a * x * generator(0, -1) * x.inverse(),
        phi.image_b * x * generator(1, -1) * x.inverse(),
    )
    pres = Presentation(("a", "b", "x"), relators)
    alpha = AbelianizationMap((0, 0, 1))
    err = validate_abelianization(pres, alpha)
    if err is not None:  # would indicate a broken construction, not bad input
        raise AssertionError("bundle presentation failed validation: %s" % err)
    return pres, phi, alpha


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------


def _matrix_from_json(entry, name) -> np.ndarray:
    try:
        rows = [[complex(cell[0], cell[1]) for cell in row] for row in entry]
    except (TypeError, IndexError):
        raise ValueError("representation matrix for %r must use [re, im] cells" % (name,))
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("representation matrix for %r is not square" % (name,))
    return m


def load_presentation(path: str):
    """Read a presentation JSON file.

    Expected fields: "generators" (list of distinct single lowercase
    letters), "relators" (list of words, uppercase letters are inverses),
    "abelianization" (integer weights), and optionally "representation"
    (map generator -> matrix with [re, im] cells).  Returns (Presentation,
    AbelianizationMap, matrices or None) where matrices is a list aligned
    with the generator order.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("presentation file must hold a JSON object, got %s"
                         % type(data).__name__)
    try:
        names = data["generators"]
        relator_texts = data["relators"]
        weights = data["abelianization"]
    except KeyError as exc:
        raise ValueError("presentation file missing field %s" % (exc,))
    if not (isinstance(names, list)
            and all(isinstance(n, str) and len(n) == 1 and n.isalpha() and n.islower()
                    for n in names)
            and len(set(names)) == len(names)):
        raise ValueError("generators must be a list of distinct single lowercase "
                         "letters, got %r" % (names,))
    if not (isinstance(relator_texts, list)
            and all(isinstance(t, str) for t in relator_texts)):
        raise ValueError("relators must be a list of strings, got %r" % (relator_texts,))
    if not isinstance(weights, list) or any(
            isinstance(e, bool) or not isinstance(e, int) for e in weights):
        raise ValueError("abelianization weights must be a list of integers, got %r"
                         % (weights,))
    relators = tuple(parse_word(t, names) for t in relator_texts)
    pres = Presentation(tuple(names), relators)
    alpha = AbelianizationMap(tuple(weights))
    err = validate_abelianization(pres, alpha)
    if err is not None:
        raise ValueError("invalid presentation file: %s" % err)
    matrices = None
    if "representation" in data and data["representation"] is not None:
        rep = data["representation"]
        mats = []
        dim = None
        for name in names:
            if name not in rep:
                raise ValueError("representation missing generator %r" % (name,))
            m = _matrix_from_json(rep[name], name)
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("representation matrices have mixed dimensions")
            mats.append(m)
        matrices = mats
    return pres, alpha, matrices
