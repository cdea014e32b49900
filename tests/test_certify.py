"""Tests for the rigidity certifier and its report plumbing."""

import copy
import dataclasses
import json

import numpy as np
import pytest

import ptbundle.alexander
import ptbundle.certify
import ptbundle.holonomy
import ptbundle.numeric
from ptbundle.certify import (
    ALL_REPS,
    INCONCLUSIVE,
    RIGID,
    CertificateEvidence,
    RigidityReport,
    certify,
    cross_checks,
    evidence_from_poly,
    report_json,
    report_jsonable,
    report_text,
)
from ptbundle.holonomy import (
    HolonomySolution,
    TraceTriple,
    build_solution,
    holonomy_from_triple,
    letter_map,
    lorentz_holonomy,
)
from ptbundle.numeric import LaurentPoly, Tolerances, laurent_distance, root_multiplicity
from ptbundle.presentation import monodromy_endo, parse_monodromy


def fixed_point_defect(letters, point):
    """max |g(chi) - chi| for the composed letter maps g of a word."""
    image = tuple(point)
    for letter in letters:
        image, _ = letter_map(letter, image, np.eye(3))
    return float(np.max(np.abs(np.array(image) - point)))


def int_poly(coeffs):
    return LaurentPoly({i: complex(c) for i, c in enumerate(coeffs) if c})


def product(*polys):
    out = LaurentPoly.one()
    for p in polys:
        out = out * p
    return out


T_MINUS_1 = int_poly([-1, 1])


@pytest.fixture(scope="module")
def llrr_report():
    return certify("LLRR")


@pytest.fixture(scope="module")
def rrl_report():
    return certify("RRL")


class TestVerdicts:
    def test_llrr_is_rigid(self, llrr_report):
        assert llrr_report.verdict == RIGID

    def test_rrl_is_rigid(self, rrl_report):
        assert rrl_report.verdict == RIGID

    @pytest.mark.parametrize("label,mult", [("sl4", 5), ("v", 3), ("gl16", 4)])
    def test_multiplicities_on_both_bundles(
        self, llrr_report, rrl_report, label, mult
    ):
        for report in (llrr_report, rrl_report):
            assert report.evidence[label].multiplicity == mult
            assert report.evidence[label].fired
            assert report.evidence[label].decisive

    def test_some_solution_has_all_three_certificates(
        self, llrr_report, rrl_report
    ):
        for report in (llrr_report, rrl_report):
            assert set(report.certificates) == {
                "sl4-multiplicity-5", "v-multiplicity-3", "gl16-multiplicity-4"}

    def test_verdict_vocabulary(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert report.verdict in (RIGID, INCONCLUSIVE)

    def test_geometric_candidates_flagged(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert report.geometric_candidate

    def test_non_hyperbolic_rejected(self):
        # a single twist has trace 2, so no hyperbolic structure exists
        with pytest.raises(ValueError, match="hyperbolic"):
            certify("L")

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            certify("LLRR", reps=("sl4", "bogus"))


class TestEvidence:
    def test_integer_polynomials_recovered(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for ev in report.evidence.values():
                assert ev.integer_coeffs is not None

    def test_reproducible_from_stored_polynomial(self, rrl_report):
        for ev in rrl_report.evidence.values():
            mult, deflated = root_multiplicity(
                ev.polynomial, 1.0, tol=ev.tolerance
            )
            assert mult == ev.multiplicity
            assert complex(deflated.evaluate(1.0)) == pytest.approx(
                ev.deflated_at_one, abs=1e-6
            )

    def test_orientation_reversed_gl16_polynomial_rounds(self):
        # -LLRR: the gl16 coefficients lie within 3.1e-8 of integers (2.0e-6,
        # above the rounding tolerance, when every sample was a stacked LU);
        # the verdict is still inconclusive, from the failed action routes
        report = certify("-LLRR")
        ev = report.evidence["gl16"]
        coeffs = ev.integer_coeffs
        assert coeffs == [1, 80, -3656, 29168, 121756, -692144, 1675784, -3023504, 3785030,
                          -3023504, 1675784, -692144, 121756, 29168, -3656, 80, 1]
        assert coeffs == coeffs[::-1] and ev.multiplicity == 4
        _, values = ev.polynomial.dense()
        assert max(abs(c - k) for c, k in zip(values, coeffs)) < 1e-7
        assert report.verdict == INCONCLUSIVE

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CertificateEvidence(
                label="sl4",
                source="action",
                polynomial=T_MINUS_1,
                integer_coeffs=None,
                multiplicity=-1,
                deflated_at_one=1.0,
                tolerance=1e-6,
                expected_multiplicity=5,
            )

    def test_exact_multiplicity_required(self):
        # multiplicity six does not fire a multiplicity-five certificate
        poly = product(*(T_MINUS_1,) * 6, int_poly([1, -3, 1]))
        ev = evidence_from_poly("sl4", poly)
        assert ev.multiplicity == 6
        assert not ev.fired
        assert not ev.decisive

    def test_margin_required_beyond_firing(self):
        # multiplicity exactly five, but the deflated value at 1 sits
        # inside the ten-tolerances margin, so it must not be decisive
        poly = product(*(T_MINUS_1,) * 5, int_poly([-0.999995, 1]))
        ev = evidence_from_poly("sl4", poly)
        assert ev.multiplicity == 5
        assert ev.fired
        assert abs(ev.deflated_at_one) == pytest.approx(5e-6, rel=1e-3)
        assert not ev.decisive


class TestCrossChecks:
    def test_all_checks_pass(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert report.cross_checked
            assert report.cross_checks
            for name, check in report.cross_checks.items():
                assert check.ok, name

    def test_multiplicity_step(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            values = report.cross_checks["multiplicity_step"].values
            assert values == {"m_sl4": 5, "m_gl16": 4}

    def test_torsion_ratio_values(self, llrr_report, rrl_report):
        for report, expected in ((llrr_report, 4.0), (rrl_report, 2.0)):
            values = report.cross_checks["torsion"].values
            assert values["expected"] == expected
            assert values["ratio_at_one"] == pytest.approx(expected, rel=1e-9)

    def test_longitude_centralizer_split(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            values = report.cross_checks["longitude_centralizer"].values
            assert values == {"sl4": 5, "lorentz": 2, "complement": 3}

    def test_no_fixed_vectors(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert report.cross_checks["fixed_vectors"].values == {"dimension": 0}

    def test_route_match_flag(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert report.route_match is True
            differences = report.cross_checks["routes"].values
            assert set(differences) == {"sl4", "v", "gl16"}
            assert max(differences.values()) <= 1e-9

    def test_failed_check_downgrades_verdict(self):
        # fabricate evidence whose multiplicities break the step relation
        ev_sl = evidence_from_poly(
            "sl4", product(*(T_MINUS_1,) * 5, int_poly([1, -3, 1]))
        )
        ev_gl = evidence_from_poly(
            "gl16", product(*(T_MINUS_1,) * 5, int_poly([1, -5, 1]))
        )
        report = RigidityReport(
            spec=parse_monodromy("LLRR"),
            tolerances=Tolerances(),
            reps=("sl4", "gl16"),
            traces=(1j, 1j, 1j),
            geometric_candidate=False,
            residuals={},
            evidence={"sl4": ev_sl, "gl16": ev_gl},
            failures=[],
            verdict=RIGID,
        )
        out = cross_checks(report)
        assert not out.cross_checks["multiplicity_step"].ok
        assert out.verdict == INCONCLUSIVE

    def test_each_object_built_once_per_label(self, monkeypatch):
        counts = {}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            HolonomySolution, "representation",
            counted("representation", HolonomySolution.representation),
        )
        for name in ("bundle_twisted_alexander", "fox_action", "monodromy_action"):
            wrapper = counted(name, getattr(ptbundle.alexander, name))
            monkeypatch.setattr(ptbundle.alexander, name, wrapper)
            monkeypatch.setattr(ptbundle.certify, name, wrapper)
        certify("RRL")
        # one cocycle action matrix per label serves both routes
        assert counts == {
            "representation": 3,
            "bundle_twisted_alexander": 3,
            "fox_action": 3,
            "monodromy_action": 3,
        }

    def test_cross_checks_reuse_kept_action_matrices(self, monkeypatch):
        report = copy.deepcopy(certify("RRL"))
        kept = report.cross_checks["routes"].values
        report.cross_checks, report.route_match = {}, None

        def rebuilt(endo, rep):
            raise AssertionError("cocycle action matrix built again")

        monkeypatch.setattr(ptbundle.alexander, "fox_action", rebuilt)
        monkeypatch.setattr(ptbundle.certify, "fox_action", rebuilt)
        out = cross_checks(report)
        assert out.verdict == RIGID
        assert out.route_match is True
        assert out.cross_checks["routes"].values == kept
        assert set(kept) == set(ALL_REPS)

    def test_no_matrix_inverted_twice(self, monkeypatch):
        # the sl4 images are built once per solution, and every inverse is
        # read off the layer below: no image is inverted by elimination
        inverted = []
        adjoints = []
        original_inverse = ptbundle.numeric.matrix_inverse
        original_adjoint = ptbundle.holonomy.adjoint_rep

        def recording_inverse(mat):
            inverted.append(mat.shape)
            return original_inverse(mat)

        def recording_adjoint(rep):
            adjoints.append(rep)
            return original_adjoint(rep)

        monkeypatch.setattr(ptbundle.numeric, "matrix_inverse", recording_inverse)
        monkeypatch.setattr(ptbundle.holonomy, "adjoint_rep", recording_adjoint)
        certify("LLRR")
        assert len(adjoints) == 1
        assert inverted == []

    def test_real_representations_sample_half_the_circle(self, monkeypatch):
        # the sl4, v and gl16 images are real, so every characteristic
        # polynomial, on Z^1/B^1, on the longitude-killing kernel or on the
        # fixed vectors H^0, is sampled on half the circle
        counts = []
        original = ptbundle.numeric.interpolate_on_circle

        def recording(value_at, count, **kwargs):
            def counted(z):
                counts.append((count, len(z)))
                return value_at(z)
            return original(counted, count, **kwargs)

        monkeypatch.setattr(ptbundle.numeric, "interpolate_on_circle", recording)
        report = certify("RRL")
        assert report.verdict == RIGID
        # once for the certificates and once for the routes
        # check: the sl4 and v polynomials (degrees 15 and 9, one route each
        # time) and the gl16 polynomial of degree 17 (on Z^1/B^1, then on the
        # kernel); the gl16 one on H^0 (degree 1; sl4 and v have no H^0) is
        # computed once and shared by both
        assert len(counts) == 7
        assert {count for count, _ in counts} == {16, 10, 18, 2}
        assert all(points == count // 2 + 3 for count, points in counts)

    def test_relation_defect_downgrades_verdict(self):
        broken = certify("RRL", reps=("sl4", "v"))
        intact = copy.deepcopy(broken)
        broken.residuals["relations_v"] = 1e-3
        broken, intact = cross_checks(broken), cross_checks(intact)
        # both labels' polynomials agree; v's relation residual fails it
        differences = broken.cross_checks["routes"].values
        assert set(differences) == {"sl4", "v"} and max(differences.values()) <= 1e-9
        assert broken.route_match is False
        assert broken.certificates and broken.verdict == INCONCLUSIVE
        assert intact.route_match is True and intact.verdict == RIGID

    def test_perturbed_images_fail_routes_check(self, monkeypatch):
        original = HolonomySolution.representation

        def perturbed(self, label):
            images = dict(original(self, label))
            if label == "sl4":
                scale = np.eye(15) + 3e-7 * np.diag(np.arange(15) % 3 - 1.0)
                images[0] = images[0] @ scale
            return images

        # the action route still builds, but the coboundaries are not
        # invariant, so the Z^1/B^1 route refuses and no difference is recorded
        monkeypatch.setattr(HolonomySolution, "representation", perturbed)
        report = certify("RRL")
        assert report.residuals["relations_sl4"] > Tolerances().root
        (refused,) = [f for f in report.failures if f.startswith("routes[")]
        assert refused.startswith("routes[sl4]: the cocycle action does not preserve "
                                  "the coboundaries: relative defect")
        assert report.cross_checks["routes"].values["sl4"] is None
        assert report.verdict == INCONCLUSIVE

    def test_singular_pencil_is_a_label_failure(self, monkeypatch):
        original = HolonomySolution.representation

        def singular_meridian(self, label):
            images = dict(original(self, label))
            if label == "gl16":
                images[2] = images[2].copy()
                images[2][:, 0] = 0
            return images

        monkeypatch.setattr(HolonomySolution, "representation", singular_meridian)
        # the relation residuals would stop at the singular meridian first
        monkeypatch.setattr(ptbundle.certify, "rep_residuals",
                            lambda images, endo: {"relation_a": 0.0})
        report = certify("RRL")
        assert "gl16: singular meridian image" in report.failures
        # the other labels still complete
        assert set(report.evidence) == {"sl4", "v"}
        assert set(report.certificates) == {"sl4-multiplicity-5", "v-multiplicity-3"}

    def test_tightened_tolerances_never_promote(self):
        tight = Tolerances(det=1e-9, root=1e-7, null=1e-10)
        for word in ("LLRR", "RRL"):
            base = certify(word)
            tightened = certify(word, tolerances=tight)
            promoted = base.verdict == INCONCLUSIVE and tightened.verdict == RIGID
            assert not promoted
            # on these bundles the margins are huge, so in fact
            # nothing changes at all
            assert tightened.verdict == base.verdict


class TestOrbitCollapse:
    """A sign image of the holonomy has the holonomy's certificate data."""

    @staticmethod
    def certificate_data(sol, spec):
        report = ptbundle.certify._solution_report(spec, sol, ALL_REPS, Tolerances())
        return {label: (ev.multiplicity, ev.integer_coeffs)
                for label, ev in report.evidence.items()}

    @pytest.mark.parametrize("word,roots", [("RRL", 1), ("LLRR", 3)])
    def test_sign_images_share_certificate_data(self, word, roots):
        spec = parse_monodromy(word)
        endo = monodromy_endo(spec)
        kept = build_solution(spec)
        expected = self.certificate_data(kept, spec)
        assert set(expected) == set(ALL_REPS)
        assert all(ints is not None for _, ints in expected.values())
        lifted = 0
        for signs in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            triple = TraceTriple(*(s * t for s, t in zip(signs, kept.triple.as_tuple())))
            # only the sign images that the letter maps fix are characters of the bundle
            if fixed_point_defect(spec.letters, triple.as_tuple()) > 1e-9:
                continue
            assert self.certificate_data(self.lift(triple, endo, spec.letters), spec) == expected
            lifted += 1
        assert lifted == roots

    @staticmethod
    def lift(triple, endo, letters):
        sl2 = holonomy_from_triple(triple, endo, letters)
        return HolonomySolution(triple, sl2, lorentz_holonomy(sl2))

    def test_every_image_of_every_character_rounds(self):
        # Every sign and conjugate image of a holonomy that the letter maps
        # fix lifts, and rounds to the same integer polynomials: rounding
        # must not depend on which image is lifted.
        for word, images in (("RRL", 4), ("LLRR", 8)):
            spec = parse_monodromy(word)
            endo = monodromy_endo(spec)
            kept = build_solution(spec)
            found = []
            for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                signed = np.array(signs) * np.array(kept.triple.as_tuple())
                for image in signed, signed.conj():
                    if fixed_point_defect(spec.letters, image) > 1e-9:
                        continue
                    lifted = self.lift(TraceTriple(*image), endo, spec.letters)
                    data = self.certificate_data(lifted, spec)
                    found.append({label: coeffs for label, (_, coeffs) in data.items()})
            assert len(found) == images, word
            for ints in found:
                assert set(ints) == set(ALL_REPS)
                assert None not in ints.values()
                assert ints == found[0]

    def test_every_image_of_the_holonomy_agrees(self):
        # All eight sign and conjugate images of the holonomy of L^4R^4 are
        # fixed by the letter maps.  Its polynomials are not integral, and
        # each image must give the same multiplicities and, to rounding,
        # the same polynomials.
        spec = parse_monodromy("L^4R^4")
        endo = monodromy_endo(spec)
        kept = build_solution(spec)
        found = []
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            signed = np.array(signs) * np.array(kept.triple.as_tuple())
            for image in signed, signed.conj():
                assert fixed_point_defect(spec.letters, image) <= 1e-9
                lifted = self.lift(TraceTriple(*image), endo, spec.letters)
                report = ptbundle.certify._solution_report(spec, lifted, ALL_REPS, Tolerances())
                found.append(report.evidence)
        for evidence in found:
            assert set(evidence) == set(ALL_REPS)
            for label, ev in evidence.items():
                assert ev.multiplicity == found[0][label].multiplicity
                assert laurent_distance(ev.polynomial, found[0][label].polynomial) < 1e-9


class TestOptions:
    def test_representation_subset(self):
        report = certify("RRL", reps=("v",))
        assert set(report.evidence) == {"v"}
        assert "multiplicity_step" not in report.cross_checks
        assert "torsion" not in report.cross_checks
        assert report.verdict == RIGID

    def test_representation_order_is_canonical(self):
        report = certify("RRL", reps=("gl16", "sl4"))
        assert report.reps == ("sl4", "gl16")

    def test_solution_filter(self):
        # the solve keeps the holonomy alone, with every shape in the upper
        # half-plane; the report lists it as its one solution, index 0
        report = certify("LLLLR", reps=("sl4",))
        assert report.solutions == (report,)
        assert [sol["index"] for sol in report_jsonable(report)["solutions"]] == [0]
        assert all(z.imag > 0 for z in report.solution.triple.shapes)
        assert report.shape_margin > 0
        assert report.verdict == RIGID

    def test_spec_object_accepted(self):
        report = certify(parse_monodromy("RRL"), reps=("v",))
        assert report.spec.text() == "RRL"
        assert report.cross_checked


class TestSerialization:
    def test_json_deterministic_across_runs(self):
        first = report_json(certify("RRL", reps=("sl4",)))
        second = report_json(certify("RRL", reps=("sl4",)))
        assert first == second

    def test_json_round_trips(self, rrl_report):
        text = report_json(rrl_report)
        again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_jsonable_shape(self, rrl_report):
        data = report_jsonable(rrl_report)
        assert data["monodromy"] == "RRL"
        assert data["trace"] == 4
        assert data["verdict"] == RIGID
        sol = data["solutions"][0]
        assert len(sol["traces"]) == 3
        assert all(len(pair) == 2 for pair in sol["traces"])
        ev = sol["evidence"]["gl16"]
        assert ev["multiplicity"] == 4
        assert ev["integer_polynomial"][0] == 1
        assert len(ev["polynomial"]) == 17
        assert ev["decisive"] is True

    def test_text_rendering(self, rrl_report):
        text = report_text(rrl_report)
        assert "overall verdict: rigid-rel-cusp" in text
        assert "multiplicity 5 at t=1" in text
        assert "gl16" in text
        assert "check torsion: ok" in text

    def test_text_custom_polynomial_display(self, rrl_report):
        text = report_text(rrl_report, poly_display=lambda ev: f"<{ev.label}>")
        assert "<sl4>" in text
        assert "<gl16>" in text
