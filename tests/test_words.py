"""Word algebra, Fox calculus, and F2 automorphism tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ptbundle.words import (
    ELL_INVOLUTION,
    GroupRingElem,
    IDENTITY,
    IDENTITY_ENDO,
    L_TWIST,
    R_TWIST,
    Word,
    compose,
    endo_from_lr,
    format_word,
    fox_derivative,
    generator,
    parse_word,
    ring_one_minus,
)


def w2(text):
    return parse_word(text, ("a", "b"))


def w3(text):
    return parse_word(text, ("a", "b", "x"))


# ---------------------------------------------------------------------------
# words and parsing
# ---------------------------------------------------------------------------


def test_free_reduction():
    assert w2("aA") == IDENTITY
    assert w2("abBA") == IDENTITY
    assert w2("abBa") == w2("a^2")
    assert len(w2("abab")) == 4


def test_parse_powers():
    assert w2("a^3") == Word([(0, 1)] * 3)
    assert w2("a^-2") == Word([(0, -1)] * 2)
    assert w2("A^2") == w2("a^-2")
    assert w2("a^0 b") == w2("b")
    assert w2(" a  b^2 ") == w2("ab^2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        w2("ac")
    with pytest.raises(ValueError):
        w2("^2")
    with pytest.raises(ValueError):
        w2("a^")


def test_format_roundtrip():
    for text in ["1", "a", "aB", "a^2bA^3", "abAB", "x", "xaX"]:
        w = w3(text)
        assert w3(format_word(w)) == w


def test_multiplication_and_inverse():
    u, v = w2("ab"), w2("Ba")
    assert u * v == w2("a^2")
    assert (u * v).inverse() == w2("A^2")
    assert u * u.inverse() == IDENTITY
    assert generator(0, -3) == w2("A^3")


word_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from([1, -1])),
    max_size=14,
).map(Word)


@given(word_strategy)
def test_inverse_involution(w):
    assert w.inverse().inverse() == w


@given(word_strategy, word_strategy)
@settings(max_examples=100)
def test_product_inverse_antihomomorphism(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()


# ---------------------------------------------------------------------------
# group ring
# ---------------------------------------------------------------------------


def test_ring_arithmetic():
    one = GroupRingElem.one()
    a = GroupRingElem.from_word(w2("a"))
    assert one + a - a == one
    assert (one + a) * (one - a) == one - a * a
    assert -(one - a) == a - one
    assert not (a - a)


def test_ring_word_action():
    e = GroupRingElem.from_word(w2("b")) + GroupRingElem.one()
    shifted = w2("a") * e
    assert shifted == GroupRingElem.from_word(w2("ab")) + GroupRingElem.from_word(w2("a"))


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------


def test_fox_generators():
    assert fox_derivative(w2("a"), 0) == GroupRingElem.one()
    assert fox_derivative(w2("a"), 1) == GroupRingElem.zero()
    assert fox_derivative(w2("A"), 0) == GroupRingElem.from_word(w2("A"), -1)


def test_fox_commutator():
    # d/da (a b a^-1 b^-1) = 1 - a b a^-1ad, d/db = a - a b a^-1 b^-1
    comm = w2("abAB")
    da = fox_derivative(comm, 0)
    db = fox_derivative(comm, 1)
    assert da == GroupRingElem.one() - GroupRingElem.from_word(w2("abA"))
    assert db == GroupRingElem.from_word(w2("a")) - GroupRingElem.from_word(w2("abAB"))


def test_fox_trefoil_relator():
    # r = a^2 b^-3 in <a, b>
    r = w2("a^2 b^-3")
    da = fox_derivative(r, 0)
    db = fox_derivative(r, 1)
    assert da == GroupRingElem.one() + GroupRingElem.from_word(w2("a"))
    expected = (
        GroupRingElem.from_word(w2("a^2B"), -1)
        + GroupRingElem.from_word(w2("a^2B^2"), -1)
        + GroupRingElem.from_word(w2("a^2B^3"), -1)
    )
    assert db == expected


def test_fox_monodromy_images():
    # phi = L^2 R^2 sends a -> ab^2, b -> bab^2ab^2
    phi = endo_from_lr("LLRR")
    assert phi.image_a == w2("ab^2")
    assert phi.image_b == w2("bab^2ab^2")
    gr = GroupRingElem.from_word
    assert fox_derivative(phi.image_a, 0) == GroupRingElem.one()
    assert fox_derivative(phi.image_a, 1) == gr(w2("a")) + gr(w2("ab"))
    assert fox_derivative(phi.image_b, 0) == gr(w2("b")) + gr(w2("bab^2"))
    assert fox_derivative(phi.image_b, 1) == (
        GroupRingElem.one() + gr(w2("ba")) + gr(w2("bab")) + gr(w2("bab^2a")) + gr(w2("bab^2ab"))
    )


def _random_word(rng, max_len=12, rank=2):
    n = rng.randrange(max_len + 1)
    return Word([(rng.randrange(rank), rng.choice([1, -1])) for _ in range(n)])


def test_fox_fundamental_identity_200_words():
    # 1 - w = sum_j (dw/da_j) (1 - a_j)
    rng = random.Random(20230817)
    for _ in range(200):
        w = _random_word(rng, max_len=12, rank=3)
        total = GroupRingElem.zero()
        for j in range(3):
            total = total + fox_derivative(w, j) * ring_one_minus(generator(j))
        assert total == ring_one_minus(w)


def test_fox_product_rule_200_pairs():
    rng = random.Random(511)
    for _ in range(200):
        u = _random_word(rng, max_len=10, rank=3)
        v = _random_word(rng, max_len=10, rank=3)
        for j in range(3):
            lhs = fox_derivative(u * v, j)
            rhs = fox_derivative(u, j) + u * fox_derivative(v, j)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_elementary_twists():
    assert L_TWIST.image_a == w2("ab")
    assert L_TWIST.image_b == w2("b")
    assert R_TWIST.image_a == w2("a")
    assert R_TWIST.image_b == w2("ba")
    assert ELL_INVOLUTION.image_a == w2("A")


def test_compose_order():
    # compose(L, L)(a) = L(L(a)) = L(ab) = ab^2
    ll = compose(L_TWIST, L_TWIST)
    assert ll.image_a == w2("ab^2")
    assert ll.image_b == w2("b")


def test_endo_from_lr_matches_manual_composition():
    phi = endo_from_lr("LLRR")
    manual = compose(compose(compose(L_TWIST, L_TWIST), R_TWIST), R_TWIST)
    assert phi.image_a == manual.image_a and phi.image_b == manual.image_b
    rrl = endo_from_lr("RRL")
    assert rrl.image_a == w2("aba^2")
    assert rrl.image_b == w2("ba^2")


def test_endo_from_lr_equals_the_compose_chain_on_random_words():
    # the images built by concatenation are the reduced words compose
    # gives, letter by letter, with the involution outermost when negated
    rng = random.Random(11)
    table = {"L": L_TWIST, "R": R_TWIST}
    for _ in range(40):
        letters = "".join(rng.choice("LR") for _ in range(rng.randrange(1, 13)))
        chain = IDENTITY_ENDO
        for ch in letters:
            chain = compose(chain, table[ch])
        for negate, want in ((False, chain), (True, compose(ELL_INVOLUTION, chain))):
            got = endo_from_lr(letters, negate=negate)
            assert (got.image_a, got.image_b) == (want.image_a, want.image_b), (letters, negate)
            assert all(Word(image.letters) == image for image in (got.image_a, got.image_b))


def test_endo_from_lr_rejects_other_letters():
    with pytest.raises(ValueError, match="'X'"):
        endo_from_lr("LXR")


def test_negate_endo():
    phi = endo_from_lr("RRL", negate=True)
    plain = endo_from_lr("RRL")
    # the involution inverts letters in place, it does not reverse the word
    assert phi.image_a == ELL_INVOLUTION.apply(plain.image_a)
    assert phi.image_b == ELL_INVOLUTION.apply(plain.image_b)


def test_apply_is_the_product_of_the_images():
    # apply joins the letters' images and reduces once, which gives the
    # images multiplied seam by seam, inverse letters included
    rng = random.Random(5)
    phi = endo_from_lr("LRRLRLLR", negate=True)
    for _ in range(50):
        w = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(12))])
        product = IDENTITY
        for g, e in w:
            image = (phi.image_a, phi.image_b)[g]
            product = product * (image if e > 0 else image.inverse())
        assert phi.apply(w) == product


def test_commutator_preserved_by_lr_words():
    # every positive L/R word fixes the boundary word aba^-1b^-1 exactly
    ell = w2("abAB")
    for spec in ["L", "R", "LLRR", "RRL", "RLRLL"]:
        phi = endo_from_lr(spec)
        assert phi.apply(ell) == ell


def test_identity_endo():
    assert IDENTITY_ENDO.apply(w2("abAB")) == w2("abAB")
