"""Monodromy parsing, matrices, and bundle presentation tests."""

import json

import numpy as np
import pytest

from ptbundle.presentation import (
    AbelianizationMap,
    MonodromySpec,
    Presentation,
    bundle_presentation,
    is_hyperbolic,
    load_presentation,
    monodromy_matrix,
    monodromy_trace,
    parse_monodromy,
    validate_abelianization,
)
from ptbundle.words import parse_word


def test_parse_monodromy_forms():
    assert parse_monodromy("LLRR") == MonodromySpec("LLRR", False)
    assert parse_monodromy("L^2R^2") == MonodromySpec("LLRR", False)
    assert parse_monodromy("-RRL") == MonodromySpec("RRL", True)
    assert parse_monodromy(" L^3 ") == MonodromySpec("LLL", False)


def test_parse_monodromy_rejects():
    for bad in ["", "-", "LQ", "L^", "L^x", "xyz", "L^²R", "L^٣R", "L^1000000000000000R"]:
        with pytest.raises(ValueError):
            parse_monodromy(bad)


def test_monodromy_matrices():
    m = monodromy_matrix(MonodromySpec("LLRR"))
    assert m.tolist() == [[1, 2], [2, 5]]
    assert monodromy_trace(MonodromySpec("LLRR")) == 6
    r2l = monodromy_matrix(MonodromySpec("RRL"))
    assert monodromy_trace(MonodromySpec("RRL")) == 4
    assert int(round(float(np.linalg.det(r2l.astype(float))))) == 1
    neg = monodromy_matrix(MonodromySpec("LLRR", negate=True))
    assert neg.tolist() == [[-1, -2], [-2, -5]]


def test_hyperbolicity():
    assert is_hyperbolic(MonodromySpec("LLRR"))
    assert is_hyperbolic(MonodromySpec("RRL"))
    assert not is_hyperbolic(MonodromySpec("L"))       # trace 2, reducible
    assert not is_hyperbolic(MonodromySpec("LLL"))     # parabolic
    assert is_hyperbolic(MonodromySpec("LR", negate=True))  # trace -3


def test_bundle_presentation_llrr():
    pres, phi, alpha = bundle_presentation(MonodromySpec("LLRR"))
    assert pres.generator_names == ("a", "b", "x")
    assert phi.image_a == parse_word("ab^2", ("a", "b"))
    assert phi.image_b == parse_word("bab^2ab^2", ("a", "b"))
    expect_r1 = parse_word("ab^2 x A X", ("a", "b", "x"))
    expect_r2 = parse_word("bab^2ab^2 x B X", ("a", "b", "x"))
    assert pres.relators == (expect_r1, expect_r2)
    assert alpha.exponents == (0, 0, 1)
    assert validate_abelianization(pres, alpha) is None


def test_bundle_presentation_rrl():
    pres, phi, _ = bundle_presentation(MonodromySpec("RRL"))
    assert phi.image_a == parse_word("aba^2", ("a", "b"))
    assert phi.image_b == parse_word("ba^2", ("a", "b"))
    assert len(pres.relators) == 2


def test_presentation_relator_count_enforced():
    with pytest.raises(ValueError):
        Presentation(("a", "b"), ())
    with pytest.raises(ValueError):
        # relator mentions generator index 2, alphabet only has two letters
        Presentation(("a", "b"), (parse_word("ax", ("a", "b", "x")),))


def test_abelianization_violations():
    pres = Presentation(("a", "b"), (parse_word("ab", ("a", "b")),))
    # relator weight 1 under (1, 0)
    msg = validate_abelianization(pres, AbelianizationMap((1, 0)))
    assert msg is not None and "weight" in msg
    pres2 = Presentation(("a", "b"), (parse_word("abAB", ("a", "b")),))
    msg2 = validate_abelianization(pres2, AbelianizationMap((2, 2)))
    assert msg2 is not None and "gcd" in msg2
    assert validate_abelianization(pres2, AbelianizationMap((1, 1))) is None


def test_load_presentation_roundtrip(tmp_path):
    data = {
        "generators": ["a", "b"],
        "relators": ["a^2B^3"],
        "abelianization": [3, 2],
        "representation": {
            "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.25], [-1.0, 0.0]]],
            "b": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        },
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    pres, alpha, mats = load_presentation(str(path))
    assert pres.generator_names == ("a", "b")
    assert pres.relators[0] == parse_word("a^2B^3", ("a", "b"))
    assert alpha.exponents == (3, 2)
    assert mats is not None and len(mats) == 2
    assert mats[0][1, 0] == pytest.approx(0.5 + 0.25j)


def test_load_presentation_rejects_bad_weights(tmp_path):
    path = tmp_path / "bad.json"
    cases = [
        ([2, 2], "abelianized weight"),
        ([3.9, 2], "integers"),
        ([True, 2], "integers"),
        ("32", "integers"),
    ]
    for weights, problem in cases:
        data = {"generators": ["a", "b"], "relators": ["a^2B^3"], "abelianization": weights}
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=problem):
            load_presentation(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_presentation(str(path))
