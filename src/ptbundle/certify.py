"""Conservative rigidity certificates from root multiplicities at t = 1.

The certifier runs on the holonomy's character, which the shape test of
the trace solve proves to be the holonomy.  It builds one cocycle action,
that of ``v``, and reads v's certificate off its polynomial on the
longitude-killing cocycles.  The ``sl4`` and ``gl16`` polynomials are v's
times the factors of the splittings sl4 = so(3,1) + v and
R^4 (x) R^4 = so(3,1) + v + R, where the monodromy acts on the so(3,1)
cohomology by the tangent map J (``split_evidence``).  A word is declared
rigid-rel-cusp only when one of the three certificates fires with a clear
margin, and the cross-checks can only downgrade that verdict, never
upgrade it.  The certifier never claims non-rigidity: the multiplicity
conditions are sufficient, not necessary.
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
    tangent_map,
)
from .numeric import (
    GeneratorImages,
    LaurentPoly,
    Tolerances,
    char_poly,
    integer_round,
    laurent_distance,
    normalize_unit,
    root_multiplicity,
)
from .presentation import (
    MonodromySpec,
    monodromy_trace,
    parse_monodromy,
)

RIGID = "rigid-rel-cusp"
INCONCLUSIVE = "inconclusive"

ALL_REPS = ("sl4", "v", "gl16")

# The exact multiplicity of the root t = 1 each certificate requires.
EXPECTED_MULTIPLICITIES = {"sl4": 5, "v": 3, "gl16": 4}

# A certificate is decisive only when the deflated polynomial evaluated
# at 1 clears the root tolerance by this factor.
MARGIN_FACTOR = 10.0


@dataclass(frozen=True)
class CertificateEvidence:
    """Root-1 data for one representation's polynomial.

    The raw multiplicity is exposed so a reader can apply their own
    threshold; `fired` requires the exact expected multiplicity, not a
    lower bound, and `decisive` additionally requires the margin.
    ``source`` is "action" for a cocycle action's polynomial and "split"
    for one derived from v's.
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


def int_product(*factors: Sequence[int]) -> list[int]:
    """The exact product of integer coefficient lists (exponent 0 first).

    The loop is generic: on complex coefficients it gives the floating-point
    product.
    """
    out = [1]
    for factor in factors:
        product = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        out = product
    return out


def evidence_from_poly(
    label: str, poly: LaurentPoly, *, tol: float = 1e-6
) -> CertificateEvidence:
    """Package a cocycle action's polynomial as certificate evidence."""
    mult, deflated = root_multiplicity(poly, 1.0, tol=tol)
    return CertificateEvidence(
        label=label,
        source="action",
        polynomial=poly,
        integer_coeffs=integer_coeffs(poly, tol=tol),
        multiplicity=mult,
        deflated_at_one=complex(deflated.evaluate(1.0)),
        tolerance=tol,
        expected_multiplicity=EXPECTED_MULTIPLICITIES[label],
    )


def action_evidence(
    label: str, matrix: np.ndarray, images, tols: Tolerances
) -> tuple[CocycleAction, CertificateEvidence]:
    """The cocycle action of one ``fox_action`` matrix and its certificate evidence."""
    action = monodromy_action(matrix, images, tolerances=tols)
    poly = relative_char_poly(action)
    return action, evidence_from_poly(label, poly, tol=tols.root)


def split_evidence(spec: MonodromySpec, sol: HolonomySolution,
                   v: CertificateEvidence) -> dict[str, CertificateEvidence]:
    """The sl4 and gl16 evidence, from v's and the tangent map J (``tangent_map``).

    With q = det(J - t)/(t - 1) and tr the monodromy's trace, v's polynomial
    times the factor (t - 1)^2 q qbar is sl4's, and times
    (1 - t) q qbar (t^2 - tr t + 1) it is gl16's.  The multiplicity is v's
    plus the factor's at 1 and the deflated value at 1 v's times the
    factor's; the integer coefficients are the exact product of v's, q qbar's
    and the integer factors', None unless v and q qbar both round.  Raises
    ArithmeticError when det(J - t) does not vanish at 1.
    """
    tol = v.tolerance
    char = char_poly(tangent_map(spec.letters, sol.sl2))
    count, q = root_multiplicity(char, 1.0, tol=tol)
    if not count:
        raise ArithmeticError("det(J - t) of the tangent map does not vanish at t = 1 "
                              "(|det(J - 1)| = %.3e)" % abs(complex(char.evaluate(1.0))))
    _, coeffs = q.dense()
    for _ in range(count - 1):  # q keeps every root at 1 but the one divided out
        coeffs = np.convolve(coeffs, [-1.0, 1.0])
    norm = LaurentPoly.from_coeffs(np.convolve(coeffs, np.conj(coeffs)).real)  # q qbar
    norm_ints = integer_round(norm, tol=tol)
    out = {}
    for label, exact in (("sl4", [1, -2, 1]),
                         ("gl16", int_product([1, -1], [1, -monodromy_trace(spec), 1]))):
        factor = LaurentPoly.from_coeffs(exact) * norm
        mult, deflated = root_multiplicity(factor, 1.0, tol=tol)
        out[label] = CertificateEvidence(
            label=label,
            source="split",
            polynomial=factor * v.polynomial,
            integer_coeffs=None if norm_ints is None or v.integer_coeffs is None
            else int_product(exact, norm_ints, v.integer_coeffs),
            multiplicity=v.multiplicity + mult,
            deflated_at_one=v.deflated_at_one * complex(deflated.evaluate(1.0)),
            tolerance=tol,
            expected_multiplicity=EXPECTED_MULTIPLICITIES[label],
        )
    return out


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
    # v's images, cocycle action matrix and evidence, which the routes
    # check reads, kept also when v is not among reps; None when v failed
    v: Optional[tuple[GeneratorImages, np.ndarray, CertificateEvidence]] = field(
        default=None, repr=False)

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


_FAILURES = (ArithmeticError, ValueError, np.linalg.LinAlgError)


def _solution_report(
    spec: MonodromySpec, sol: HolonomySolution, reps: tuple[str, ...], tols: Tolerances
) -> RigidityReport:
    """The certificate pass on a lifted solution, before the cross-checks.

    v's images, cocycle action, relation residual and evidence are built
    whatever reps holds, and the other labels derive from v's evidence.
    """
    endo = sol.endo
    failures: list[str] = []
    residuals: dict[str, float] = {}
    try:
        residuals.update(holonomy_residuals(sol.sl2, endo, null_tol=tols.null))
    except _FAILURES as err:
        failures.append(f"residuals: {err}")

    kept, found = None, {}
    try:
        images = sol.representation("v")
        # the relation residuals read the products fox_action keeps
        matrix = fox_action(endo, images)
        residuals["relations_v"] = max(rep_residuals(images, endo).values())
        found["v"] = action_evidence("v", matrix, images, tols)[1]
        kept = (images, matrix, found["v"])
    except _FAILURES as err:
        failures.append(f"v: {err}")
    derived = [label for label in reps if label != "v"]
    try:
        if derived and kept is None:
            raise ArithmeticError("derived from v, which has no evidence")
        if derived:
            found.update(split_evidence(spec, sol, found["v"]))
    except _FAILURES as err:
        failures.extend(f"{label}: {err}" for label in derived)
    evidence = {label: found[label] for label in reps if label in found}

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
        v=kept,
    )


def certify(
    spec: MonodromySpec | str,
    *,
    tolerances: Optional[Tolerances] = None,
    reps: Sequence[str] = ALL_REPS,
) -> RigidityReport:
    """Run the full certification pipeline for a monodromy word.

    The trace solve and the lift run in `build_solution`: when no start
    reaches the holonomy, or its lift finds no meridian intertwiner, the
    ArithmeticError ends the call and the command line exits 3.  After
    the lift, an ArithmeticError, ValueError or LinAlgError in the
    residuals, in v's images, cocycle action or certificate, in the
    tangent map's factors, or in one of the cross-checks is recorded in
    the report's `failures`: a failure of v is recorded for v and for
    each label derived from it, and the report still completes.  The structural consistency checks then run and may
    downgrade the verdict.  Input errors raise ValueError, as in
    `validated_reps` and `build_solution`.
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


def cross_checks(report: RigidityReport) -> RigidityReport:
    """Fill in the structural consistency checks, downgrading on failure.

    The checks are: the longitude's adjoint centralizer is 5-dimensional
    and splits 2 + 3 across the two invariant blocks; the fiber group
    fixes no nonzero adjoint vector; and, when v has evidence, v's action
    has one polynomial by both routes and v's images satisfy the bundle
    relations within the root tolerance (the "routes" check).  That check
    builds the Wada polynomial on Z^1/B^1 from v's kept action matrix and
    records its relative difference from v's evidence, on the
    longitude-killing kernel, after ``normalize_unit`` (None when the Wada
    route fails); v has no fixed vectors when the fixed_vectors check
    passes, so both have degree 9.  A check that cannot run for lack of
    inputs is skipped, not failed, and no action matrix is built here.
    The sl4 and gl16 evidence has no run-time check: it is v's times a
    factor, and ``tests/test_split.py`` tests the identities behind the
    factors on the full tower.
    """
    checks: dict[str, CrossCheck] = {}
    tols = report.tolerances
    if report.solution is not None:
        try:
            adjoint = report.solution.adjoint
            dims = longitude_centralizer_dims(adjoint, null_tol=tols.null)
            checks["longitude_centralizer"] = CrossCheck(
                ok=(dims == (5, 2, 3)),
                values={"sl4": dims[0], "lorentz": dims[1], "complement": dims[2]})
            dim = fixed_vectors_dim(adjoint, null_tol=tols.null)
            checks["fixed_vectors"] = CrossCheck(ok=(dim == 0), values={"dimension": dim})
        except _FAILURES as err:
            report.failures.append(f"centralizer: {err}")
            checks["longitude_centralizer"] = CrossCheck(ok=False, values={})
    if report.v is not None:
        images, matrix, ev = report.v
        difference = None
        try:
            wada = bundle_twisted_alexander(matrix, images, tolerances=tols)
            difference = laurent_distance(normalize_unit(ev.polynomial), normalize_unit(wada))
        except _FAILURES as err:
            report.failures.append(f"routes[v]: {err}")
        report.route_match = (difference is not None and difference <= tols.root
                              and report.residuals["relations_v"] <= tols.root)
        checks["routes"] = CrossCheck(ok=report.route_match, values={"v": difference})
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
    return json.dumps(report_jsonable(report), indent=2, sort_keys=True, check_circular=False) + "\n"


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
        f"tolerances root={report.tolerances.root:g} null={report.tolerances.null:g}",
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
