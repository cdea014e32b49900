"""Conservative rigidity certificates from root multiplicities at t = 1.

The certifier runs the whole tower for every surviving trace solution:
holonomy, derived linear representations, twisted Alexander polynomials,
and the multiplicity of the root t = 1.  A solution is declared
rigid-rel-cusp only when one of the three certificates fires with a
clear margin, and a battery of cross-checks can only downgrade that
verdict, never upgrade it.  The certifier never claims non-rigidity:
the multiplicity conditions are sufficient, not necessary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .alexander import (
    CocycleAction,
    bundle_twisted_alexander,
    monodromy_action,
    relative_char_poly,
)
from .holonomy import (
    HolonomySolution,
    build_solutions,
    fixed_vectors_dim,
    holonomy_residuals,
    longitude_centralizer_dims,
    rep_residuals,
)
from .numeric import (
    LaurentPoly,
    Tolerances,
    integer_round,
    normalize_unit,
    root_multiplicity,
)
from .presentation import (
    MonodromySpec,
    is_hyperbolic,
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
# "wada" is the determinant-route twisted Alexander polynomial.
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
    label: str, endo, images, tols: Tolerances
) -> tuple[CocycleAction, CertificateEvidence]:
    """The cocycle action of one representation and its certificate evidence."""
    action = monodromy_action(endo, images, tolerances=tols)
    poly = relative_char_poly(action, tol=tols.det)
    return action, evidence_from_poly(label, poly, tol=tols.root)


@dataclass(frozen=True)
class CrossCheck:
    """Outcome of one structural consistency check."""

    ok: bool
    values: dict


@dataclass
class SolutionReport:
    """Everything the certifier established for one trace solution."""

    index: int
    traces: tuple[complex, complex, complex]
    geometric_candidate: bool
    residuals: dict[str, float]
    evidence: dict[str, CertificateEvidence]
    failures: list[str]
    verdict: str
    route_match: Optional[bool] = None
    cross_checks: dict[str, CrossCheck] = field(default_factory=dict)
    solution: Optional[HolonomySolution] = field(default=None, repr=False)
    images: dict[str, dict[int, np.ndarray]] = field(default_factory=dict, repr=False)

    def representation(self, label: str) -> dict[int, np.ndarray]:
        """The label's images, built on first use and then reused."""
        if label not in self.images:
            self.images[label] = self.solution.representation(label)
        return self.images[label]

    @property
    def certificates(self) -> list[str]:
        return [ev.name for ev in self.evidence.values() if ev.decisive]


@dataclass
class RigidityReport:
    """Certification results for one monodromy, all solutions."""

    spec: MonodromySpec
    seed: int
    starts: int
    tolerances: Tolerances
    reps: tuple[str, ...]
    solutions: list[SolutionReport]
    cross_checked: bool = False

    @property
    def verdict(self) -> str:
        if any(sol.verdict == RIGID for sol in self.solutions):
            return RIGID
        return INCONCLUSIVE


def _validated_reps(reps: Sequence[str]) -> tuple[str, ...]:
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
    index: int,
    sol: HolonomySolution,
    endo,
    reps: tuple[str, ...],
    tols: Tolerances,
) -> SolutionReport:
    failures: list[str] = []
    residuals: dict[str, float] = {}
    try:
        residuals.update(holonomy_residuals(sol.sl2, endo))
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
        failures.append(f"residuals: {err}")

    evidence: dict[str, CertificateEvidence] = {}
    images: dict[str, dict[int, np.ndarray]] = {}
    for label in reps:
        try:
            images[label] = rep = sol.representation(label)
            residuals[f"relations_{label}"] = max(rep_residuals(rep, endo).values())
            if CERTIFICATE_SOURCES[label][0] == "action":
                _, evidence[label] = action_evidence(label, endo, rep, tols)
            else:
                wada = bundle_twisted_alexander(endo, rep, tolerances=tols)
                evidence[label] = evidence_from_poly(label, wada, tol=tols.root)
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
            failures.append(f"{label}: {err}")

    geometric = (
        residuals.get("meridian_parabolic", math.inf) <= tols.root
        and residuals.get("longitude_trace", math.inf) <= tols.root
    )
    decisive = any(ev.decisive for ev in evidence.values())
    return SolutionReport(
        index=index,
        traces=sol.triple.as_tuple(),
        geometric_candidate=geometric,
        residuals=residuals,
        evidence=evidence,
        failures=failures,
        verdict=RIGID if decisive else INCONCLUSIVE,
        solution=sol,
        images=images,
    )


def select_solutions(
    spec: MonodromySpec,
    *,
    seed: int = 0,
    starts: int = 64,
    tolerances: Optional[Tolerances] = None,
    solution_index: Optional[int] = None,
) -> list[tuple[int, HolonomySolution]]:
    """Indexed trace solutions of a hyperbolic monodromy, lifted through the tower.

    Returns every (index, solution) pair, or only the one at
    `solution_index`.  Raises ValueError for a non-hyperbolic word or an
    index out of range, and ArithmeticError when no solution is found.
    """
    if not is_hyperbolic(spec):
        raise ValueError(
            f"monodromy {spec.text()!r} is not hyperbolic (|trace| <= 2)"
        )
    solutions = build_solutions(
        monodromy_endo(spec), starts=starts, seed=seed, tolerances=tolerances
    )
    if solution_index is not None:
        if not 0 <= solution_index < len(solutions):
            raise ValueError(
                f"solution index {solution_index} out of range "
                f"(found {len(solutions)} solutions)"
            )
        return [(solution_index, solutions[solution_index])]
    if not solutions:
        raise ArithmeticError("no trace solutions found; try more --starts")
    return list(enumerate(solutions))


def certify(
    spec: MonodromySpec | str,
    *,
    seed: int = 0,
    starts: int = 64,
    tolerances: Optional[Tolerances] = None,
    reps: Sequence[str] = ALL_REPS,
    solution_index: Optional[int] = None,
    with_cross_checks: bool = True,
) -> RigidityReport:
    """Run the full certification pipeline for a monodromy word.

    Each trace solution is processed independently; a failure inside one
    solution is recorded on that solution and the others still complete.
    With `with_cross_checks` (the default) the structural consistency
    checks run as well and may downgrade per-solution verdicts.  Input
    errors and an empty solution set raise as in `select_solutions`.
    """
    if isinstance(spec, str):
        spec = parse_monodromy(spec)
    tols = tolerances or Tolerances()
    chosen = _validated_reps(reps)
    picked = select_solutions(
        spec, seed=seed, starts=starts, tolerances=tols,
        solution_index=solution_index,
    )
    endo = monodromy_endo(spec)
    report = RigidityReport(
        spec=spec,
        seed=seed,
        starts=starts,
        tolerances=tols,
        reps=chosen,
        solutions=[
            _solution_report(index, sol, endo, chosen, tols)
            for index, sol in picked
        ],
    )
    if with_cross_checks:
        report = cross_checks(report)
    return report


# ---------------------------------------------------------------------------
# Structural cross-checks.
# ---------------------------------------------------------------------------


def _check_multiplicity_step(sol: SolutionReport) -> Optional[CrossCheck]:
    if "sl4" not in sol.evidence or "gl16" not in sol.evidence:
        return None
    m_sl = sol.evidence["sl4"].multiplicity
    m_gl = sol.evidence["gl16"].multiplicity
    return CrossCheck(
        ok=(m_gl == m_sl - 1), values={"m_sl4": m_sl, "m_gl16": m_gl}
    )


def _check_torsion(sol: SolutionReport, trace: int) -> Optional[CrossCheck]:
    if "sl4" not in sol.evidence or "gl16" not in sol.evidence:
        return None
    denom = sol.evidence["sl4"].deflated_at_one
    if abs(denom) == 0.0:
        return CrossCheck(ok=False, values={"ratio_at_one": math.inf})
    ratio = abs(sol.evidence["gl16"].deflated_at_one / denom)
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
    sol: SolutionReport, endo, tols: Tolerances
) -> tuple[CrossCheck, list[str]]:
    """Whether both polynomial routes hold on each label's images.

    The routes share one Fox matrix, so their polynomials agree for any
    images; they are the bundle's invariant only if the images satisfy
    the bundle relations.  So the check builds the route the label's
    certificate did not use, which fails if it cannot be built, and
    compares the label's relation residual with the root tolerance.
    """
    matches = {}
    failures = []
    for label in sol.evidence:
        try:
            images = sol.representation(label)
            if CERTIFICATE_SOURCES[label][0] == "action":
                bundle_twisted_alexander(endo, images, tolerances=tols)
            else:
                monodromy_action(endo, images, tolerances=tols)
            matches[label] = sol.residuals[f"relations_{label}"] <= tols.root
        except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
            failures.append(f"routes[{label}]: {err}")
            matches[label] = False
    ok = bool(matches) and all(matches.values())
    return CrossCheck(ok=ok, values=matches), failures


def cross_checks(report: RigidityReport) -> RigidityReport:
    """Fill in the structural consistency checks, downgrading on failure.

    The checks are: the multiplicity of 1 drops by exactly one from the
    15-dimensional polynomial to the 16-dimensional one; the leftover
    factor evaluated at 1 has absolute value |tr(monodromy) - 2|; for
    every representation with evidence, both polynomial routes can be
    built and the images satisfy the bundle relations within the root
    tolerance (the "routes" check); the longitude's adjoint centralizer
    is 5-dimensional and splits 2 + 3 across the two invariant blocks;
    and the fiber group fixes no nonzero adjoint vector.  A check that
    cannot run for lack of inputs is skipped, not failed.  The checks
    reuse the images and residuals of the certificate pass, building
    the sl4 images only when sl4 is not among the report's
    representations.
    """
    endo = monodromy_endo(report.spec)
    trace = monodromy_trace(report.spec)
    for sol in report.solutions:
        checks: dict[str, CrossCheck] = {}
        step = _check_multiplicity_step(sol)
        if step is not None:
            checks["multiplicity_step"] = step
        torsion = _check_torsion(sol, trace)
        if torsion is not None:
            checks["torsion"] = torsion
        if sol.solution is not None:
            try:
                adjoint = sol.representation("sl4")
                checks.update(_check_adjoint(adjoint, report.tolerances))
            except (ArithmeticError, ValueError, np.linalg.LinAlgError) as err:
                sol.failures.append(f"centralizer: {err}")
                checks["longitude_centralizer"] = CrossCheck(ok=False, values={})
            routes, route_failures = _check_routes(sol, endo, report.tolerances)
            sol.failures.extend(route_failures)
            if routes.values:
                checks["routes"] = routes
                sol.route_match = routes.ok
        sol.cross_checks = checks
        if any(not check.ok for check in checks.values()):
            sol.verdict = INCONCLUSIVE
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
        if isinstance(value, (bool, int, str)):
            values[key] = value
        else:
            values[key] = float(value)
    return {"ok": check.ok, "values": values}


def report_jsonable(report: RigidityReport) -> dict:
    """Plain-data view of a report, suitable for json.dumps."""
    return {
        "monodromy": report.spec.text(),
        "trace": monodromy_trace(report.spec),
        "seed": report.seed,
        "starts": report.starts,
        "tolerances": {
            "det": report.tolerances.det,
            "root": report.tolerances.root,
            "null": report.tolerances.null,
        },
        "representations": list(report.reps),
        "cross_checked": report.cross_checked,
        "verdict": report.verdict,
        "solutions": [
            {
                "index": sol.index,
                "traces": [_pair(t) for t in sol.traces],
                "geometric_candidate": sol.geometric_candidate,
                "residuals": {k: float(v) for k, v in sorted(sol.residuals.items())},
                "evidence": {
                    label: _evidence_jsonable(ev)
                    for label, ev in sol.evidence.items()
                },
                "route_match": sol.route_match,
                "cross_checks": {
                    name: _check_jsonable(check)
                    for name, check in sol.cross_checks.items()
                },
                "certificates": sol.certificates,
                "failures": sol.failures,
                "verdict": sol.verdict,
            }
            for sol in report.solutions
        ],
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
        f"seed {report.seed}   starts {report.starts}   tolerances "
        f"det={report.tolerances.det:g} root={report.tolerances.root:g} "
        f"null={report.tolerances.null:g}",
        f"overall verdict: {report.verdict}",
    ]
    for sol in report.solutions:
        tag = "  (geometric candidate)" if sol.geometric_candidate else ""
        lines.append("")
        lines.append(f"solution {sol.index}{tag}")
        names = ("tr(a)", "tr(b)", "tr(ab)")
        traced = ", ".join(
            f"{name}={_format_complex(t)}" for name, t in zip(names, sol.traces)
        )
        lines.append(f"  traces: {traced}")
        if sol.residuals:
            worst = max(sol.residuals.values())
            lines.append(f"  worst residual: {worst:.3g}")
        for label, ev in sol.evidence.items():
            status = "decisive" if ev.decisive else (
                "fired (no margin)" if ev.fired else "did not fire"
            )
            lines.append(
                f"  {label} ({ev.source}): multiplicity {ev.multiplicity} at t=1 "
                f"(expected {ev.expected_multiplicity}), "
                f"deflated(1) = {abs(ev.deflated_at_one):.10g}, {status}"
            )
            lines.append(f"    {show(ev)}")
        for name, check in sol.cross_checks.items():
            state = "ok" if check.ok else "FAILED"
            detail = ", ".join(f"{k}={v}" for k, v in check.values.items())
            lines.append(f"  check {name}: {state} ({detail})")
        for failure in sol.failures:
            lines.append(f"  failure: {failure}")
        if sol.certificates:
            lines.append("  certificates: " + ", ".join(sol.certificates))
        lines.append(f"  verdict: {sol.verdict}")
    return "\n".join(lines) + "\n"
