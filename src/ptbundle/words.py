"""Free-group words, the integral group ring, Fox calculus, and rank-2 automorphisms.

Everything here is exact integer combinatorics; no floats.  A word is a
freely reduced string of letters (generator index, exponent +-1), a group
ring element is a finite integer combination of words, and the Fox
derivative d/da_j maps words to ring elements by the Leibniz rule

    d(a_i)/da_j   = delta_ij
    d(a_i^-1)/da_j = -delta_ij * a_i^-1
    d(uv)/da_j    = d(u)/da_j + u * d(v)/da_j .

Generator indices are small ints; by convention the once-punctured torus
modules downstream use a = 0, b = 1, x = 2.  All classes are immutable and
hashable so they can serve as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


def _reduce_letters(raw: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence with a stack pass."""
    stack: list[Letter] = []
    for gen, exp in raw:
        if exp not in (1, -1):
            raise ValueError("letters must carry exponent +1 or -1, got %r" % (exp,))
        if gen < 0:
            raise ValueError("generator indices must be >= 0")
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word:
    """A freely reduced word in a free group, stored as ((gen, exp), ...)."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = (), _reduced: bool = False):
        lst = tuple(letters)
        if not _reduced:
            lst = _reduce_letters(lst)
        object.__setattr__(self, "letters", lst)
        object.__setattr__(self, "_hash", hash(lst))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (Word, (self.letters, True))

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return "Word(%r)" % (format_word(self),)

    # -- group operations ----------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # concatenation only needs reduction at the seam
        left = list(self.letters)
        right = list(other.letters)
        while left and right and left[-1][0] == right[0][0] and left[-1][1] == -right[0][1]:
            left.pop()
            right.pop(0)
        return Word(tuple(left) + tuple(right), _reduced=True)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)), _reduced=True)

    def max_generator(self) -> int:
        """Largest generator index appearing, or -1 for the identity."""
        return max((g for g, _ in self.letters), default=-1)


IDENTITY = Word()


def generator(index: int, exp: int = 1) -> Word:
    """The single-letter word a_index^exp (exp any nonzero integer)."""
    if exp == 0:
        return Word()
    sign = 1 if exp > 0 else -1
    return Word(((index, sign),) * abs(exp), _reduced=True)


# ---------------------------------------------------------------------------
# text syntax: lowercase letter = generator, uppercase = inverse, ^k = power,
# whitespace ignored.  The generator alphabet is supplied by the caller so the
# same parser serves both the two-generator and the three-generator contexts.
# ---------------------------------------------------------------------------


def parse_word(text: str, generators: Sequence[str] = ("a", "b", "x")) -> Word:
    """Parse word syntax like "abAB", "a^2 B" or "x a^-1 x^-1"."""
    index = {}
    for i, name in enumerate(generators):
        if len(name) != 1 or not name.isalpha() or not name.islower():
            raise ValueError("generator names must be single lowercase letters, got %r" % (name,))
        index[name] = i
    letters: list[Letter] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "1":
            # "1" is accepted as the empty word so formatted output reads back
            i += 1
            continue
        if ch == "^":
            if not letters:
                raise ValueError("power with no preceding letter in %r" % (text,))
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i or not text[i:j].lstrip("+-"):
                raise ValueError("malformed exponent in %r" % (text,))
            k = int(text[i:j])
            gen, exp = letters.pop()
            if k != 0:
                letters.extend(((gen, exp if k > 0 else -exp),) * abs(k))
            i = j
            continue
        low = ch.lower()
        if low not in index:
            raise ValueError("unknown letter %r in word %r" % (ch, text))
        letters.append((index[low], 1 if ch.islower() else -1))
        i += 1
    return Word(letters)


def format_word(w: Word, generators: Sequence[str] = ("a", "b", "x")) -> str:
    """Inverse of parse_word; runs of a letter print as a^k / A^k."""
    if not w:
        return "1"
    out = []
    run_letter: Optional[Letter] = None
    run = 0

    def flush():
        if run_letter is None:
            return
        g, e = run_letter
        name = generators[g] if g < len(generators) else "g%d" % g
        sym = name if e > 0 else name.upper()
        out.append(sym if run == 1 else "%s^%d" % (sym, run))

    for letter in w:
        if letter == run_letter:
            run += 1
        else:
            flush()
            run_letter = letter
            run = 1
    flush()
    return "".join(out)


# ---------------------------------------------------------------------------
# integral group ring
# ---------------------------------------------------------------------------


class GroupRingElem:
    """Finite integer combination of free-group words (the ring Z[F])."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Word, int]] = None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if c != 0:
                    clean[w] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElem is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElem":
        return cls({IDENTITY: 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElem":
        return cls({w: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElem) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElem(out)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElem":
        if isinstance(other, int):
            return GroupRingElem({w: c * other for w, c in self.terms.items()})
        if isinstance(other, Word):
            return GroupRingElem({w * other: c for w, c in self.terms.items()})
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElem(out)

    def __rmul__(self, other) -> "GroupRingElem":
        if isinstance(other, int):
            return self * other
        if isinstance(other, Word):
            return GroupRingElem({other * w: c for w, c in self.terms.items()})
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElem(0)"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), format_word(t[0]))):
            bits.append("%+d*%s" % (c, format_word(w)))
        return "GroupRingElem(%s)" % " ".join(bits)


def ring_one_minus(w: Word) -> GroupRingElem:
    """The element 1 - w, ubiquitous in Alexander-matrix denominators."""
    return GroupRingElem({IDENTITY: 1}) - GroupRingElem.from_word(w)


def fox_derivative(w: Word, gen: int) -> GroupRingElem:
    """Fox free derivative d(w)/d(a_gen) as a group ring element.

    Single left-to-right pass: each occurrence of a_gen at position k
    contributes prefix_k, each occurrence of a_gen^-1 contributes
    -prefix_k * a_gen^-1, where prefix_k is the subword before position k.
    """
    terms: dict[Word, int] = {}
    prefix = IDENTITY
    for g, e in w:
        if g == gen:
            if e > 0:
                terms[prefix] = terms.get(prefix, 0) + 1
            else:
                key = prefix * generator(gen, -1)
                terms[key] = terms.get(key, 0) - 1
        prefix = prefix * Word(((g, e),), _reduced=True)
    return GroupRingElem(terms)


# ---------------------------------------------------------------------------
# automorphisms of the rank-2 free group <a, b>
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoF2:
    """Endomorphism of F2 given by images of a and b (indices 0 and 1)."""

    image_a: Word
    image_b: Word

    def apply(self, w: Word) -> Word:
        """The image of w, its letters' images joined and then reduced once."""
        letters = []
        for g, e in w:
            if g == 0:
                img = self.image_a
            elif g == 1:
                img = self.image_b
            else:
                raise ValueError("EndoF2 acts on words in generators 0 and 1 only")
            letters.extend(img.letters if e > 0 else img.inverse().letters)
        return Word(letters)


def compose(outer: EndoF2, inner: EndoF2) -> EndoF2:
    """compose(f, g) = f after g, so compose(f, g).apply(w) == f.apply(g.apply(w))."""
    return EndoF2(outer.apply(inner.image_a), outer.apply(inner.image_b))


def _w(text: str) -> Word:
    return parse_word(text, ("a", "b"))


# Elementary mapping classes of the once-punctured torus.  ELL negates the
# induced map on homology (the elliptic involution).
IDENTITY_ENDO = EndoF2(_w("a"), _w("b"))
L_TWIST = EndoF2(_w("ab"), _w("b"))
R_TWIST = EndoF2(_w("a"), _w("ba"))
ELL_INVOLUTION = EndoF2(_w("A"), _w("B"))


def endo_from_lr(letters: str, negate: bool = False) -> EndoF2:
    """Automorphism for a word over {L, R}, leftmost letter outermost.

    With negate=True the elliptic involution is applied outermost, matching
    the convention that a leading '-' on the monodromy word multiplies the
    induced 2x2 matrix by -I.

    It is ``compose`` down the word, by concatenation: endo after L_TWIST
    maps a to endo(a) endo(b), and endo after R_TWIST maps b to
    endo(b) endo(a).  Both images stay positive words, so nothing cancels,
    and the involution inverts each letter in place.
    """
    image_a, image_b = ((0, 1),), ((1, 1),)
    for ch in letters:
        if ch == "L":
            image_a = image_a + image_b
        elif ch == "R":
            image_b = image_b + image_a
        else:
            raise ValueError("monodromy letters must be 'L' or 'R', got %r" % (ch,))
    if negate:
        image_a, image_b = (tuple((g, -e) for g, e in image) for image in (image_a, image_b))
    return EndoF2(Word(image_a, _reduced=True), Word(image_b, _reduced=True))
