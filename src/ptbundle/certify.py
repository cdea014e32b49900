"""Conservative rigidity certificates from root multiplicities at t = 1.

The certifier runs the whole tower once, on the holonomy's character,
which the shape test of the trace solve proves to be the holonomy:
derived linear representations, twisted Alexander polynomials, and the
multiplicity of the root t = 1.  A word is declared
rigid-rel-cusp only when one of the three certificates fires with a
clear margin, and a battery of cross-checks can only downgrade that
verdict, never upgrade it.  The certifier never claims non-rigidity:
the multiplicity conditions are sufficient, not necessary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .alexander import (
    CocycleAction,
    bundle_twisted_alexander,
    fixed_char_poly,
    fox_action,
    monodromy_action,
    relative_char_poly,
)
from .holonomy import (
    HolonomySolution,
    build_solution,
    fixed_vectors_dim,
    holonomy_residuals,
    longitude_centralizer_dims,
    rep_residuals,
)
from .numeric import (
    LaurentPoly,
    Tolerances,
    integer_round,
    laurent_distance,
    normalize_unit,
    root_multiplicity,
)
from .presentation import (
    MonodromySpec,
    monodromy_endo,
    monodromy_trace,
    parse_monodromy,
)

RIGID = "rigid-rel-cusp"
INCONCLUSIVE = "inconclusive"

ALL_REPS = ("sl4", "v", "gl16")

# Which polynomial backs each certificate and the exact multiplicity of
# the root t = 1 it requires.  "action" is the characteristic polynomial
# of the monodromy action on cocycle pairs killing the longitude;
# "wada" is the twisted Alexander polynomial, from the action on Z^1/B^1.
CERTIFICATE_SOURCES = {
    "sl4": ("action", 5),
    "v": ("action", 3),
    "gl16": ("wada", 4),
}

# A certificate is decisive only when the deflated polynomial evaluated
# at 1 clears the root tolerance by this factor.
MARGIN_FACTOR = 10.0


@dataclass(frozen=True)
class CertificateEvidence:
    """Root-1 data for one representation's polynomial.

    The raw multiplicity is exposed so a reader can apply their own
    threshold; `fired` requires the exact expected multiplicity, not a
    lower bound, and `decisive` additionally requires the margin.
    """

    label: str
    source: str
    polynomial: LaurentPoly
    integer_coeffs: Optional[list[int]]
    multiplicity: int
    deflated_at_one: complex
    tolerance: float
    expected_multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 0:
            raise ValueError("root multiplicity cannot be negative")

    @property
    def name(self) -> str:
        return f"{self.label}-multiplicity-{self.expected_multiplicity}"

    @property
    def fired(self) -> bool:
        return self.multiplicity == self.expected_multiplicity

    @property
    def decisive(self) -> bool:
        return self.fired and abs(self.deflated_at_one) > MARGIN_FACTOR * self.tolerance


def integer_coeffs(poly: LaurentPoly, *, tol: float = 1e-6) -> Optional[list[int]]:
    """Integer coefficients of poly, or of its unit normalization, or None."""
    ints = integer_round(poly, tol=tol)
    if ints is None:
        ints = integer_round(normalize_unit(poly), tol=tol)
    return ints


def evidence_from_poly(
    label: str, poly: LaurentPoly, *, tol: float = 1e-6
) -> CertificateEvidence:
    """Package a computed polynomial as certificate evidence."""
    source, expected = CERTIFICATE_SOURCES[label]
    mult, deflated = root_multiplicity(poly, 1.0, tol=tol)
    return CertificateEvidence(
        label=label,
        source=source,
        polynomial=poly,
        integer_coeffs=integer_coeffs(poly, tol=tol),
        multiplicity=mult,
        deflated_at_one=complex(deflated.evaluate(1.0)),
        tolerance=tol,
        expected_multiplicity=expected,
    )


def action_evidence(
    label: str, matrix: np.ndarray, images, tols: Tolerances
) -> tuple[CocycleAction, CertificateEvidence]:
    """The cocycle action of one ``fox_action`` matrix and its certificate evidence."""
    action = monodromy_action(matrix, images, tolerances=tols)
    poly = relative_char_poly(action, tol=tols.det)
    return action, evidence_from_poly(label, poly, tol=tols.root)


@dataclass(frozen=True)
class CrossCheck:
    """Outcome of one structural consistency check."""

    ok: bool
    values: dict


@dataclass
class RigidityReport:
    """Everything the certifier established for one monodromy, on its holonomy."""

    spec: MonodromySpec
    tolerances: Tolerances
    reps: tuple[str, ...]
    traces: tuple[complex, complex, complex]
    geometric_candidate: bool
    residuals: dict[str, float]
    evidence: dict[str, CertificateEvidence]
    failures: list[str]
    # set from the certificates; the cross-checks may only downgrade it
    verdict: str
    shape_margin: float = math.nan
    route_match: Optional[bool] = None
    cross_checks: dict[str, CrossCheck] = field(default_factory=dict)
    cross_checked: bool = False
    solution: Optional[HolonomySolution] = field(default=None, repr=False)
    images: dict[str, Mapping[int, np.ndarray]] = field(default_factory=dict, repr=False)
    # each label's cocycle action matrix (``fox_action``), read by both routes
    actions: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def representation(self, label: str) -> Mapping[int, np.ndarray]:
        """The label's images, built on first use and then reused."""
        if label not in self.images:
            self.images[label] = self.solution.representation(label)
        return self.images[label]

    @property
    def certificates(self) -> list[str]:
        return [ev.name for ev in self.evidence.values() if ev.decisive]

    @property
    def solutions(self) -> tuple[RigidityReport]:
        """The report itself, as a sequence of one.

        Its only reader is the benchmark's ``_observe_certify`` in
        ``perfbench/spans.py``, which iterates it.
        """
        return (self,)


def validated_reps(reps: Sequence[str]) -> tuple[str, ...]:
    """The known labels among reps, in canonical order; ValueError otherwise."""
    chosen = []
    for label in reps:
        if label not in ALL_REPS:
            raise ValueError(f"unknown representation label: {label!r}")
        if label not in chosen:
            chosen.append(label)
    if not chosen:
        raise ValueError("no representations selected")
    # canonical order keeps reports deterministic under shuffled flags
    return tuple(label for label in ALL_REPS if label in chosen)


def _solution_report(
    spec: MonodromySpec, sol: HolonomySolution, reps: tuple[str, ...], tols: Tolerances
) -> RigidityReport:
    """The certificate pass on a lifted solution, before the cross-checks."""
    endo = monodromy_endo(spec)
    failures: list[str] = []
    residuals: dict[str, float] = {}
    try:
        residuals.update(holonomy_residuals(sol.sl2, endo, null_tol=tols.null))
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
        failures.append(f"residuals: {err}")

    evidence: dict[str, CertificateEvidence] = {}
    images: dict[str, Mapping[int, np.ndarray]] = {}
    actions: dict[str, np.ndarray] = {}
    for label in reps:
        try:
            images[label] = rep = sol.representation(label)
            # the relation residuals read the products fox_action keeps
            actions[label] = matrix = fox_action(endo, rep)
            residuals[f"relations_{label}"] = max(rep_residuals(rep, endo).values())
            if CERTIFICATE_SOURCES[label][0] == "action":
                _, evidence[label] = action_evidence(label, matrix, rep, tols)
            else:
                wada = bundle_twisted_alexander(matrix, rep, tolerances=tols)
                evidence[label] = evidence_from_poly(label, wada, tol=tols.root)
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
            failures.append(f"{label}: {err}")

    geometric = (
        residuals.get("meridian_parabolic", math.inf) <= tols.root
        and residuals.get("longitude_trace", math.inf) <= tols.root
    )
    decisive = any(ev.decisive for ev in evidence.values())
    return RigidityReport(
        spec=spec,
        tolerances=tols,
        reps=reps,
        traces=sol.triple.as_tuple(),
        geometric_candidate=geometric,
        residuals=residuals,
        evidence=evidence,
        failures=failures,
        verdict=RIGID if decisive else INCONCLUSIVE,
        shape_margin=sol.triple.shape_margin,
        solution=sol,
        images=images,
        actions=actions,
    )


def certify(
    spec: MonodromySpec | str,
    *,
    tolerances: Optional[Tolerances] = None,
    reps: Sequence[str] = ALL_REPS,
) -> RigidityReport:
    """Run the full certification pipeline for a monodromy word.

    The trace solve and the lift run in `build_solution`: when no start
    reaches the holonomy, or its lift finds no meridian intertwiner or no
    unique one, the ArithmeticError ends the call and the command line
    exits 3.  After the lift, an ArithmeticError, ValueError or
    LinAlgError in the residuals, in one representation's images or
    certificate, or in one of the cross-checks is recorded in the
    report's `failures`, and the other representations still complete.
    The structural consistency checks then run and may downgrade the
    verdict.  Input errors raise ValueError, as in `validated_reps` and
    `build_solution`.
    """
    if isinstance(spec, str):
        spec = parse_monodromy(spec)
    tols = tolerances or Tolerances()
    chosen = validated_reps(reps)
    sol = build_solution(spec, tolerances=tols)
    return cross_checks(_solution_report(spec, sol, chosen, tols))


# ---------------------------------------------------------------------------
# Structural cross-checks.
# ---------------------------------------------------------------------------


def _check_multiplicity_step(report: RigidityReport) -> Optional[CrossCheck]:
    if "sl4" not in report.evidence or "gl16" not in report.evidence:
        return None
    m_sl = report.evidence["sl4"].multiplicity
    m_gl = report.evidence["gl16"].multiplicity
    return CrossCheck(
        ok=(m_gl == m_sl - 1), values={"m_sl4": m_sl, "m_gl16": m_gl}
    )


def _check_torsion(report: RigidityReport, trace: int) -> Optional[CrossCheck]:
    if "sl4" not in report.evidence or "gl16" not in report.evidence:
        return None
    denom = report.evidence["sl4"].deflated_at_one
    if abs(denom) == 0.0:
        return CrossCheck(ok=False, values={"ratio_at_one": math.inf})
    ratio = abs(report.evidence["gl16"].deflated_at_one / denom)
    expected = float(abs(trace - 2))
    ok = abs(ratio - expected) <= 1e-6 * max(1.0, expected)
    return CrossCheck(ok=ok, values={"ratio_at_one": ratio, "expected": expected})


def _check_adjoint(adjoint, tols: Tolerances) -> dict[str, CrossCheck]:
    """The longitude centralizer and fixed-vector checks on the sl4 images."""
    dims = longitude_centralizer_dims(adjoint, null_tol=tols.null)
    dim = fixed_vectors_dim(adjoint, null_tol=tols.null)
    return {
        "longitude_centralizer": CrossCheck(
            ok=(dims == (5, 2, 3)),
            values={"sl4": dims[0], "lorentz": dims[1], "complement": dims[2]},
        ),
        "fixed_vectors": CrossCheck(ok=(dim == 0), values={"dimension": dim}),
    }


def _check_routes(
    report: RigidityReport, tols: Tolerances
) -> tuple[CrossCheck, list[str]]:
    """Whether each label's action has one characteristic polynomial by both routes.

    From the kept action matrix, the route the certificate did not use is
    built, and the polynomial on the longitude-killing kernel is compared
    with the one on Z^1/B^1, the Wada polynomial times ``fixed_char_poly``.
    Each label records their relative difference after ``normalize_unit``
    (None when a route fails); it and the relation residual must be within
    the root tolerance.
    """
    differences, failures = {}, []
    for label, ev in report.evidence.items():
        differences[label] = None
        try:
            images, matrix = report.images[label], report.actions[label]
            if ev.source == "action":
                kernel = ev.polynomial
                wada = bundle_twisted_alexander(matrix, images, tolerances=tols)
            else:
                action = monodromy_action(matrix, images, tolerances=tols)
                kernel, wada = relative_char_poly(action, tol=tols.det), ev.polynomial
            # the modules are self-dual and a fixed dual vector kills every value
            # on the longitude, so the kernel has dimension >= n + dim H^0
            if kernel.span > wada.span:
                wada = wada * fixed_char_poly(images, tolerances=tols)
            differences[label] = laurent_distance(normalize_unit(kernel), normalize_unit(wada))
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
            failures.append(f"routes[{label}]: {err}")
    ok = all(d is not None and d <= tols.root and report.residuals[f"relations_{label}"] <= tols.root
             for label, d in differences.items())
    return CrossCheck(ok=ok, values=differences), failures


def cross_checks(report: RigidityReport) -> RigidityReport:
    """Fill in the structural consistency checks, downgrading on failure.

    The checks are: the multiplicity of 1 drops by exactly one from the
    15-dimensional polynomial to the 16-dimensional one; the leftover
    factor evaluated at 1 has absolute value |tr(monodromy) - 2|; for
    every representation with evidence, both routes give one polynomial
    and the images satisfy the bundle relations within the root tolerance
    (the "routes" check); the longitude's adjoint centralizer
    is 5-dimensional and splits 2 + 3 across the two invariant blocks;
    and the fiber group fixes no nonzero adjoint vector.  A check that
    cannot run for lack of inputs is skipped, not failed.  The checks
    reuse the images, cocycle action matrices and residuals of the
    certificate pass, building the sl4 images only when sl4 is not among
    the report's representations; no action matrix is built here.
    """
    checks: dict[str, CrossCheck] = {}
    step = _check_multiplicity_step(report)
    if step is not None:
        checks["multiplicity_step"] = step
    torsion = _check_torsion(report, monodromy_trace(report.spec))
    if torsion is not None:
        checks["torsion"] = torsion
    if report.solution is not None:
        try:
            adjoint = report.representation("sl4")
            checks.update(_check_adjoint(adjoint, report.tolerances))
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
            report.failures.append(f"centralizer: {err}")
            checks["longitude_centralizer"] = CrossCheck(ok=False, values={})
        routes, route_failures = _check_routes(report, report.tolerances)
        report.failures.extend(route_failures)
        if routes.values:
            checks["routes"] = routes
            report.route_match = routes.ok
    report.cross_checks = checks
    if any(not check.ok for check in checks.values()):
        report.verdict = INCONCLUSIVE
    report.cross_checked = True
    return report


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _poly_jsonable(poly: LaurentPoly) -> list[list[float]]:
    """Coefficient pairs indexed from exponent 0 (unit-shifted if needed)."""
    if poly.is_zero():
        return []
    shifted = poly if poly.min_exp == 0 else poly.shifted(-poly.min_exp)
    _, coeffs = shifted.dense()
    return [_pair(c) for c in coeffs]


def _evidence_jsonable(ev: CertificateEvidence) -> dict:
    return {
        "certificate": ev.name,
        "source": ev.source,
        "polynomial": _poly_jsonable(ev.polynomial),
        "integer_polynomial": ev.integer_coeffs,
        "multiplicity": ev.multiplicity,
        "expected_multiplicity": ev.expected_multiplicity,
        "deflated_at_one": _pair(ev.deflated_at_one),
        "tolerance": ev.tolerance,
        "fired": ev.fired,
        "decisive": ev.decisive,
    }


def _check_jsonable(check: CrossCheck) -> dict:
    values = {}
    for key, value in check.values.items():
        if value is None or isinstance(value, (bool, int, str)):
            values[key] = value
        else:
            values[key] = float(value)
    return {"ok": check.ok, "values": values}


def report_jsonable(report: RigidityReport) -> dict:
    """Plain-data view of a report, suitable for json.dumps."""
    return {
        "monodromy": report.spec.text(),
        "trace": monodromy_trace(report.spec),
        "tolerances": {
            "det": report.tolerances.det,
            "root": report.tolerances.root,
            "null": report.tolerances.null,
        },
        "representations": list(report.reps),
        "cross_checked": report.cross_checked,
        "verdict": report.verdict,
        # one entry: the holonomy's, in the list shape the output has always had
        "solutions": [{
            "index": 0,
            "traces": [_pair(t) for t in report.traces],
            "shape_margin": report.shape_margin,
            "geometric_candidate": report.geometric_candidate,
            "residuals": {k: float(v) for k, v in sorted(report.residuals.items())},
            "evidence": {
                label: _evidence_jsonable(ev)
                for label, ev in report.evidence.items()
            },
            "route_match": report.route_match,
            "cross_checks": {
                name: _check_jsonable(check)
                for name, check in report.cross_checks.items()
            },
            "certificates": report.certificates,
            "failures": report.failures,
            "verdict": report.verdict,
        }],
    }


def report_json(report: RigidityReport) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report_jsonable(report), indent=2, sort_keys=True) + "\n"


def _default_poly_display(ev: CertificateEvidence) -> str:
    if ev.integer_coeffs is not None:
        return "coefficients (exponent 0 up): " + str(ev.integer_coeffs)
    _, coeffs = ev.polynomial.dense()
    shown = ", ".join(f"{c:.6g}" for c in coeffs)
    return "coefficients (exponent 0 up): [" + shown + "]"


def _format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def report_text(
    report: RigidityReport,
    poly_display: Optional[Callable[[CertificateEvidence], str]] = None,
) -> str:
    """Human-readable rendering of a report.

    `poly_display` lets a caller swap in a fancier polynomial printer
    (the command-line front end shows factored forms); the default
    prints coefficient lists.
    """
    show = poly_display or _default_poly_display
    lines = [
        f"monodromy {report.spec.text()}   trace {monodromy_trace(report.spec)}",
        f"tolerances det={report.tolerances.det:g} root={report.tolerances.root:g} "
        f"null={report.tolerances.null:g}",
        f"overall verdict: {report.verdict}",
    ]
    tag = "  (geometric candidate)" if report.geometric_candidate else ""
    lines.append("")
    lines.append(f"solution 0  shape_margin={report.shape_margin:.6g}{tag}")
    names = ("tr(a)", "tr(b)", "tr(ab)")
    traced = ", ".join(
        f"{name}={_format_complex(t)}" for name, t in zip(names, report.traces)
    )
    lines.append(f"  traces: {traced}")
    if report.residuals:
        worst = max(report.residuals.values())
        lines.append(f"  worst residual: {worst:.3g}")
    for label, ev in report.evidence.items():
        status = "decisive" if ev.decisive else (
            "fired (no margin)" if ev.fired else "did not fire"
        )
        lines.append(
            f"  {label} ({ev.source}): multiplicity {ev.multiplicity} at t=1 "
            f"(expected {ev.expected_multiplicity}), "
            f"deflated(1) = {abs(ev.deflated_at_one):.10g}, {status}"
        )
        lines.append(f"    {show(ev)}")
    for name, check in report.cross_checks.items():
        state = "ok" if check.ok else "FAILED"
        detail = ", ".join(f"{k}={v}" for k, v in check.values.items())
        lines.append(f"  check {name}: {state} ({detail})")
    for failure in report.failures:
        lines.append(f"  failure: {failure}")
    if report.certificates:
        lines.append("  certificates: " + ", ".join(report.certificates))
    lines.append(f"  verdict: {report.verdict}")
    return "\n".join(lines) + "\n"
