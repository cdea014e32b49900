"""Tests for the rigidity certifier and its report plumbing."""

import dataclasses
import json

import numpy as np
import pytest

import ptbundle.alexander
import ptbundle.certify
from ptbundle.certify import (
    INCONCLUSIVE,
    RIGID,
    CertificateEvidence,
    RigidityReport,
    SolutionReport,
    certify,
    cross_checks,
    evidence_from_poly,
    report_json,
    report_jsonable,
    report_text,
)
from ptbundle.holonomy import HolonomySolution
from ptbundle.numeric import LaurentPoly, Tolerances, root_multiplicity
from ptbundle.presentation import parse_monodromy


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
            for sol in report.solutions:
                assert sol.evidence[label].multiplicity == mult
                assert sol.evidence[label].fired
                assert sol.evidence[label].decisive

    def test_some_solution_has_all_three_certificates(
        self, llrr_report, rrl_report
    ):
        for report in (llrr_report, rrl_report):
            assert any(
                set(sol.certificates)
                == {"sl4-multiplicity-5", "v-multiplicity-3", "gl16-multiplicity-4"}
                for sol in report.solutions
            )

    def test_verdict_vocabulary(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for sol in report.solutions:
                assert sol.verdict in (RIGID, INCONCLUSIVE)

    def test_geometric_candidates_flagged(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            assert any(sol.geometric_candidate for sol in report.solutions)

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
            for sol in report.solutions:
                for ev in sol.evidence.values():
                    assert ev.integer_coeffs is not None

    def test_reproducible_from_stored_polynomial(self, rrl_report):
        for sol in rrl_report.solutions:
            for ev in sol.evidence.values():
                mult, deflated = root_multiplicity(
                    ev.polynomial, 1.0, tol=ev.tolerance
                )
                assert mult == ev.multiplicity
                assert complex(deflated.evaluate(1.0)) == pytest.approx(
                    ev.deflated_at_one, abs=1e-6
                )

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
            for sol in report.solutions:
                assert sol.cross_checks
                for name, check in sol.cross_checks.items():
                    assert check.ok, name

    def test_multiplicity_step(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for sol in report.solutions:
                values = sol.cross_checks["multiplicity_step"].values
                assert values == {"m_sl4": 5, "m_gl16": 4}

    def test_torsion_ratio_values(self, llrr_report, rrl_report):
        for report, expected in ((llrr_report, 4.0), (rrl_report, 2.0)):
            for sol in report.solutions:
                values = sol.cross_checks["torsion"].values
                assert values["expected"] == expected
                assert values["ratio_at_one"] == pytest.approx(expected, rel=1e-9)

    def test_longitude_centralizer_split(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for sol in report.solutions:
                values = sol.cross_checks["longitude_centralizer"].values
                assert values == {"sl4": 5, "lorentz": 2, "complement": 3}

    def test_no_fixed_vectors(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for sol in report.solutions:
                assert sol.cross_checks["fixed_vectors"].values == {"dimension": 0}

    def test_route_match_flag(self, llrr_report, rrl_report):
        for report in (llrr_report, rrl_report):
            for sol in report.solutions:
                assert sol.route_match is True
                assert sol.cross_checks["routes"].values == {
                    "sl4": True, "v": True, "gl16": True
                }

    def test_failed_check_downgrades_verdict(self):
        # fabricate evidence whose multiplicities break the step relation
        ev_sl = evidence_from_poly(
            "sl4", product(*(T_MINUS_1,) * 5, int_poly([1, -3, 1]))
        )
        ev_gl = evidence_from_poly(
            "gl16", product(*(T_MINUS_1,) * 5, int_poly([1, -5, 1]))
        )
        sol = SolutionReport(
            index=0,
            traces=(1j, 1j, 1j),
            geometric_candidate=False,
            residuals={},
            evidence={"sl4": ev_sl, "gl16": ev_gl},
            failures=[],
            verdict=RIGID,
        )
        report = RigidityReport(
            spec=parse_monodromy("LLRR"),
            seed=0,
            starts=64,
            tolerances=Tolerances(),
            reps=("sl4", "gl16"),
            solutions=[sol],
        )
        out = cross_checks(report)
        assert not out.solutions[0].cross_checks["multiplicity_step"].ok
        assert out.solutions[0].verdict == INCONCLUSIVE
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
        for name in ("bundle_twisted_alexander", "monodromy_action"):
            wrapper = counted(name, getattr(ptbundle.alexander, name))
            monkeypatch.setattr(ptbundle.alexander, name, wrapper)
            monkeypatch.setattr(ptbundle.certify, name, wrapper)
        report = certify("RRL")
        per_solution = 3 * len(report.solutions)
        assert counts == {
            "representation": per_solution,
            "bundle_twisted_alexander": per_solution,
            "monodromy_action": per_solution,
        }

    def test_relation_defect_downgrades_verdict(self):
        report = certify("RRL", reps=("sl4", "v"), with_cross_checks=False)
        report.solutions[0].residuals["relations_v"] = 1e-3
        out = cross_checks(report)
        broken, intact = out.solutions[0], out.solutions[1]
        assert broken.cross_checks["routes"].values == {"sl4": True, "v": False}
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

        # small enough that both routes can still be built on the images
        monkeypatch.setattr(HolonomySolution, "representation", perturbed)
        sol = certify("RRL", solution_index=0).solutions[0]
        assert sol.residuals["relations_sl4"] > Tolerances().root
        assert not any(f.startswith("routes[") for f in sol.failures)
        assert sol.cross_checks["routes"].values["sl4"] is False
        assert sol.verdict == INCONCLUSIVE

    def test_tightened_tolerances_never_promote(self):
        tight = Tolerances(det=1e-9, root=1e-7, null=1e-10)
        for word in ("LLRR", "RRL"):
            base = certify(word)
            tightened = certify(word, tolerances=tight)
            for before, after in zip(base.solutions, tightened.solutions):
                promoted = before.verdict == INCONCLUSIVE and after.verdict == RIGID
                assert not promoted
                # on these bundles the margins are huge, so in fact
                # nothing changes at all
                assert after.verdict == before.verdict


class TestOptions:
    def test_representation_subset(self):
        report = certify("RRL", reps=("v",))
        sol = report.solutions[0]
        assert set(sol.evidence) == {"v"}
        assert "multiplicity_step" not in sol.cross_checks
        assert "torsion" not in sol.cross_checks
        assert sol.verdict == RIGID

    def test_representation_order_is_canonical(self):
        report = certify("RRL", reps=("gl16", "sl4"), with_cross_checks=False)
        assert report.reps == ("sl4", "gl16")

    def test_solution_filter(self):
        report = certify("LLRR", solution_index=2, reps=("sl4",))
        assert [sol.index for sol in report.solutions] == [2]
        assert report.verdict == RIGID

    def test_solution_filter_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            certify("LLRR", solution_index=9, reps=("sl4",))

    def test_spec_object_accepted(self):
        report = certify(
            parse_monodromy("RRL"), reps=("v",), with_cross_checks=False
        )
        assert report.spec.text() == "RRL"
        assert not report.cross_checked


class TestSerialization:
    def test_json_deterministic_across_runs(self):
        first = report_json(certify("RRL", seed=7, reps=("sl4",)))
        second = report_json(certify("RRL", seed=7, reps=("sl4",)))
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
