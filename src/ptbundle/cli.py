"""Command-line front end for the certification pipeline.

Subcommands expose the pipeline stages separately: trace solving,
holonomy reconstruction, the monodromy action with its characteristic
polynomials, the generic twisted Alexander engine for presentation
files, and the one-shot certifier.  The parser is built once, at import,
and shared by every call: a one-shot command pays for every subcommand's
parser, about half a millisecond more than building only its own, and a
process that calls ``run`` again pays nothing more.  Nothing is random,
so identical invocations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .alexander import RingRep, fox_action, twisted_alexander
from .certify import (
    ALL_REPS,
    INCONCLUSIVE,
    CertificateEvidence,
    _pair,
    action_evidence,
    certify,
    int_product,
    integer_coeffs,
    report_json,
    report_text,
    validated_reps,
)
from .holonomy import build_solution, holonomy_residuals, solve_holonomy
from .numeric import LaurentPoly, Tolerances, char_poly, integer_round
from .presentation import (
    load_presentation,
    monodromy_trace,
    parse_monodromy,
)


# ---------------------------------------------------------------------------
# Factored display of integer polynomials.
# ---------------------------------------------------------------------------


def deflate_at_one(coeffs: Sequence[int], factor: Sequence[int] = (-1, 1)) -> tuple[int, list[int]]:
    """Exact integer division by factor, t - 1 by default, for as long as it stays exact."""
    count, rest = 0, list(coeffs)
    while (quotient := _exact_int_division(rest, factor)) is not None:
        count, rest = count + 1, quotient
    return count, rest


def _exact_int_division(num: Sequence[int], den: Sequence[int]) -> Optional[list[int]]:
    """num / den over the integers for monic den, or None if not exact."""
    deg = len(num) - len(den)
    if deg < 0 or den[-1] != 1:
        return None
    work = list(num)
    quot = [0] * (deg + 1)
    top = len(den) - 1
    for k in range(deg, -1, -1):
        c = work[k + top]
        quot[k] = c
        if c:
            for j, d in enumerate(den):
                work[k + j] -= c * d
    if any(work):
        return None
    return quot


def _root_orbits(rest: Sequence[int], tol: float = 1e-6) -> list[list[complex]]:
    """Cluster the roots into sets closed under conjugation and reciprocal.

    Each orbit is a minimal root set that a real palindromic-ish integer
    factor could have; duplicated roots are left in separate orbits so
    that repeated factors come out as powers rather than as squares.
    """
    roots = [complex(z) for z in np.roots(list(reversed(rest)))]
    used: set[int] = set()
    orbits: list[list[complex]] = []
    for i, z in enumerate(roots):
        if i in used:
            continue
        used.add(i)
        cluster = [z]
        queue = [z]
        while queue:
            w = queue.pop()
            targets = []
            if w != 0:
                targets = [w.conjugate(), 1 / w, 1 / w.conjugate()]
            for target in targets:
                near = tol * max(1.0, abs(target))
                if any(abs(target - c) <= near for c in cluster):
                    continue
                best, best_dist = None, near
                for j, y in enumerate(roots):
                    if j in used:
                        continue
                    if abs(y - target) <= best_dist:
                        best, best_dist = j, abs(y - target)
                if best is None:
                    continue
                used.add(best)
                cluster.append(roots[best])
                queue.append(roots[best])
        cluster.sort(key=lambda c: (round(c.real, 9), round(c.imag, 9)))
        orbits.append(cluster)
    orbits.sort(key=lambda c: (len(c), round(c[0].real, 9), round(c[0].imag, 9)))
    return orbits


def _candidate_factor(rest: list[int]) -> Optional[list[int]]:
    """Smallest integer factor suggested by root clustering, if any divides.

    Each orbit's monic polynomial is formed once for this root pass; a
    combination of orbits is tried as the product of their polynomials.
    """
    orbits = _root_orbits(rest)
    polys = [int_product(*([-z, 1] for z in orbit)) for orbit in orbits]
    degree_cap = min(6, len(rest) - 1)
    combos = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(len(orbits)), size):
            degree = sum(len(orbits[k]) for k in combo)
            if 1 <= degree <= degree_cap:
                combos.append((degree, combo))
    combos.sort()
    for _, combo in combos:
        coeffs = [c.real for c in int_product(*(polys[k] for k in combo))]
        rounded = [round(c) for c in coeffs]
        if max(abs(c - r) for c, r in zip(coeffs, rounded)) > 1e-3:
            continue
        if _exact_int_division(rest, rounded) is not None:
            return rounded
    return None


def format_int_poly(coeffs: Sequence[int], var: str = "t") -> str:
    """Render an integer coefficient list (exponent 0 first) as a polynomial."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms) if terms else "0"


def factored_display(coeffs: Sequence[int], var: str = "t") -> Optional[str]:
    """Factored rendering over the integers, or None when matching fails.

    Divides out (t - 1) exactly, then peels integer factors of degree at
    most six suggested by root clusters.  The roots are solved again after
    every peeled factor, since double roots of the larger product are
    poorly conditioned; within one root pass each orbit's polynomial is
    formed once and candidates are products of them.  The assembled
    factorization is re-multiplied over the integers and must reproduce
    the input exactly, so a wrong guess can only fall back, never mislead.
    """
    ints = list(coeffs)
    if not ints or ints[-1] == 0:
        return None
    unit = 1
    if ints[-1] < 0:
        unit = -1
        ints = [-c for c in ints]
    ones, rest = deflate_at_one(ints)
    factors: list[tuple[tuple[int, ...], int]] = []
    if ones:
        factors.append(((-1, 1), ones))
    while len(rest) > 1:
        candidate = _candidate_factor(rest)
        if candidate is None:
            return None
        power, rest = deflate_at_one(rest, candidate)
        factors.append((tuple(candidate), power))
    constant = rest[0]

    check = int_product([unit * constant], *(factor for factor, power in factors
                                              for _ in range(power)))
    if check != list(coeffs):
        return None
    if not factors:
        return str(unit * constant)

    pieces = []
    if unit * constant == -1:
        pieces.append("-")
    elif unit * constant != 1:
        pieces.append(str(unit * constant))
    for factor, power in factors:
        body = f"({format_int_poly(list(factor), var)})"
        pieces.append(body if power == 1 else f"{body}^{power}")
    return " ".join(pieces).replace("- (", "-(").strip()


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliConfig:
    """Parsed command line: one input source plus shared knobs."""

    command: str
    monodromy: Optional[str]
    input_path: Optional[str]
    tolerances: Tolerances
    reps: tuple[str, ...]
    fmt: str
    output: Optional[str]

    def __post_init__(self):
        if (self.monodromy is None) == (self.input_path is None):
            raise ValueError("exactly one input source is required")
        for name in ("det", "root", "null"):
            value = getattr(self.tolerances, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"tolerance --tol-{name} must be positive and finite, "
                    f"got {value}"
                )
        if self.output == "":
            raise ValueError("--output must name a file, got an empty path")


_TOLERANCE_HELP = {
    "det": "determinant / interpolation tolerance",
    "root": "root multiplicity and integer rounding tolerance",
    "null": "nullspace rank cutoff",
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh command-line parser with every subcommand.

    ``run`` parses with the one built at import, ``_PARSER``; argparse
    reads a parser without writing to it, so every call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="ptbundle",
        description="Holonomy, twisted Alexander polynomials, and rigidity "
        "certificates for hyperbolic once-punctured torus bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, helptext: str, tolerances: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        # only the flags the handler reads; the rest keep their defaults
        p.set_defaults(tol_det=Tolerances().det, tol_root=Tolerances().root,
                       tol_null=Tolerances().null)
        for tol in tolerances.split():
            p.add_argument(f"--tol-{tol}", type=float, help=_TOLERANCE_HELP[tol])
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt", help="output format")
        p.add_argument("--output", default=None,
                       help="write output to this path instead of stdout")
        return p

    for name, helptext, tolerances, with_reps in (
        ("certify", "full pipeline and rigidity report", "root null", True),
        ("holonomy", "traces and 2x2 / 4x4 holonomy matrices", "null", False),
        ("trace-solve", "the holonomy's traces and shapes only", "", False),
        ("action", "monodromy action on cocycles and its characteristic "
         "polynomials", "root null", True),
    ):
        p = command(name, helptext, tolerances)
        p.add_argument("monodromy", help="monodromy word, e.g. LLRR or -R^2L")
        if with_reps:
            p.add_argument("--reps", default=",".join(ALL_REPS),
                           help="comma-separated subset of sl4,v,gl16")

    alexander = command("alexander", "generic twisted Alexander invariant "
                        "from a presentation file", "det root")
    alexander.add_argument("file", help="presentation JSON path")
    return parser


_PARSER = build_parser()


def _config(args: argparse.Namespace) -> CliConfig:
    reps = getattr(args, "reps", None)
    tokens = ALL_REPS if reps is None else [tok.strip() for tok in reps.split(",") if tok.strip()]
    return CliConfig(
        command=args.command,
        monodromy=getattr(args, "monodromy", None),
        input_path=getattr(args, "file", None),
        tolerances=Tolerances(det=args.tol_det, root=args.tol_root,
                              null=args.tol_null),
        reps=validated_reps(tokens),
        fmt=args.fmt,
        output=args.output,
    )


# ---------------------------------------------------------------------------
# Shared serialization helpers.
# ---------------------------------------------------------------------------


def _cmatrix(mat: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(c) for c in row] for row in np.asarray(mat, dtype=complex)]


def _rmatrix(mat: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(mat, dtype=float)]


def _poly_data(poly: LaurentPoly) -> dict:
    if poly.is_zero():
        return {"min_exp": 0, "coefficients": []}
    lo, coeffs = poly.dense()
    return {"min_exp": lo, "coefficients": [_pair(c) for c in coeffs]}


def _dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True, check_circular=False) + "\n"


def _format_matrix_text(mat: np.ndarray, indent: str = "    ") -> list[str]:
    mat = np.asarray(mat)
    lines = []
    for row in mat:
        cells = []
        for value in row:
            z = complex(value)
            if abs(z.imag) < 1e-14:
                cells.append(f"{z.real: .10g}")
            else:
                cells.append(f"{z.real: .10g}{z.imag:+.10g}j")
        lines.append(indent + "[" + ", ".join(cells) + "]")
    return lines


def _poly_text(poly: LaurentPoly, var: str, ints: Optional[list[int]]) -> str:
    """Factored form of poly's integer coefficients ints, else poly's coefficient list."""
    if ints is not None:
        factored = factored_display(ints, var=var)
        if factored is not None:
            return factored
        return f"coefficients (exponent {poly.min_exp} up): {ints}"
    _, coeffs = poly.dense()
    shown = ", ".join(f"{c:.6g}" for c in coeffs)
    return f"coefficients (exponent {poly.min_exp} up): [{shown}]"


def _evidence_text(ev: CertificateEvidence) -> str:
    """The evidence's polynomial, from the integer coefficients its JSON reports."""
    return _poly_text(ev.polynomial, "t", ev.integer_coeffs)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (exit code, output text).
# ---------------------------------------------------------------------------


def _cmd_certify(config: CliConfig) -> tuple[int, str]:
    report = certify(parse_monodromy(config.monodromy), reps=config.reps,
                     tolerances=config.tolerances)
    if config.fmt == "json":
        text = report_json(report)
    else:
        text = report_text(report, poly_display=_evidence_text)
    return (0 if report.verdict != INCONCLUSIVE else 4), text


def _header(spec) -> dict:
    """Fields every per-monodromy JSON output starts with."""
    return {"monodromy": spec.text(), "trace": monodromy_trace(spec)}


def _solution_data(triple) -> dict:
    """The fields every per-monodromy JSON solution starts with."""
    return {"index": 0, "traces": [_pair(t) for t in triple.as_tuple()],
            "shape_margin": triple.shape_margin}


def _traces_line(triple) -> str:
    a, b, c = triple.as_tuple()
    return (f"solution 0: tr(a)={a:.12g}  tr(b)={b:.12g}  tr(ab)={c:.12g}"
            f"  shape_margin={triple.shape_margin:.6g}")


def _cmd_trace_solve(config: CliConfig) -> tuple[int, str]:
    spec = parse_monodromy(config.monodromy)
    triple = solve_holonomy(spec)
    if config.fmt == "json":
        return 0, _dumps({**_header(spec), "solutions": [_solution_data(triple)]})
    return 0, f"monodromy {spec.text()}   trace {monodromy_trace(spec)}\n{_traces_line(triple)}\n"


def _cmd_holonomy(config: CliConfig) -> tuple[int, str]:
    spec = parse_monodromy(config.monodromy)
    sol = build_solution(spec, tolerances=config.tolerances)
    res = {k: float(v) for k, v in sorted(holonomy_residuals(
        sol.sl2, sol.endo, null_tol=config.tolerances.null).items())}
    if config.fmt == "json":
        return 0, _dumps({**_header(spec), "solutions": [{
            **_solution_data(sol.triple),
            "residuals": res,
            "sl2": {name: _cmatrix(mat) for name, mat in zip("abx", sol.sl2.values())},
            "so31": {name: _rmatrix(mat) for name, mat in zip("abx", sol.lorentz.values())},
        }]})
    lines = [f"monodromy {spec.text()}   trace {monodromy_trace(spec)}", "",
             _traces_line(sol.triple), f"  worst residual: {max(res.values()):.3g}"]
    for group, images in (("sl2", sol.sl2.values()), ("so31", sol.lorentz.values())):
        for name, mat in zip("abx", images):
            lines.append(f"  {group} {name}:")
            lines.extend(_format_matrix_text(mat))
    return 0, "\n".join(lines) + "\n"


def _action_data(action, evidence: CertificateEvidence) -> dict:
    full = char_poly(action.matrix)
    return {
        "dimension": action.matrix.shape[0] // 2,
        "kernel_dimension": int(action.kernel_basis.shape[1]),
        "action_matrix": _cmatrix(action.matrix),
        "action_char_poly": _poly_data(full),
        "relative_char_poly": _poly_data(evidence.polynomial),
        "relative_char_poly_integer": evidence.integer_coeffs,
        "multiplicity_at_one": evidence.multiplicity,
        "deflated_at_one": _pair(evidence.deflated_at_one),
    }


def _cmd_action(config: CliConfig) -> tuple[int, str]:
    spec = parse_monodromy(config.monodromy)
    sol = build_solution(spec, tolerances=config.tolerances)
    tols = config.tolerances
    per_rep = {}
    for label in config.reps:
        images = sol.representation(label)
        per_rep[label] = action_evidence(label, fox_action(sol.endo, images), images, tols)
    if config.fmt == "json":
        return 0, _dumps({**_header(spec), "direction": "inverse", "solutions": [{
            **_solution_data(sol.triple),
            "representations": {
                label: _action_data(action, evidence)
                for label, (action, evidence) in per_rep.items()
            },
        }]})
    lines = [f"monodromy {spec.text()}   trace {monodromy_trace(spec)}   "
             f"direction inverse", "", "solution 0"]
    for label, (action, evidence) in per_rep.items():
        size = action.matrix.shape[0]
        lines.append(
            f"  {label}: action matrix {size}x{size} on cocycle "
            f"pairs, kernel dimension {action.kernel_basis.shape[1]}"
        )
        lines.append(
            f"    relative characteristic polynomial "
            f"(multiplicity {evidence.multiplicity} at t=1):"
        )
        lines.append("      " + _evidence_text(evidence))
    return 0, "\n".join(lines) + "\n"


def _cmd_alexander(config: CliConfig) -> tuple[int, str]:
    pres, alpha, matrices = load_presentation(config.input_path)
    if matrices is None:
        raise ValueError(
            f"presentation file {config.input_path!r} has no "
            "representation matrices"
        )
    rep = RingRep(tuple(matrices), alpha.exponents)
    invariant = twisted_alexander(pres, rep, tolerances=config.tolerances)
    normalized = invariant.normalized_quotient()
    ints = None
    if normalized is not None:
        ints = integer_round(normalized, tol=config.tolerances.root)
    if config.fmt == "json":
        data = {
            "file": config.input_path,
            "generators": list(pres.generator_names),
            "weights": list(alpha.exponents),
            "dimension": rep.dimension,
            "column": invariant.column,
            "numerator": _poly_data(invariant.numerator),
            "denominator": _poly_data(invariant.denominator),
            "quotient": None if invariant.quotient is None
            else _poly_data(invariant.quotient),
            "normalized_quotient": None if normalized is None
            else _poly_data(normalized),
            "integer_quotient": ints,
        }
        return 0, _dumps(data)
    lines = [
        f"presentation {config.input_path}: generators "
        f"{', '.join(pres.generator_names)}; weights {list(alpha.exponents)}; "
        f"representation dimension {rep.dimension}",
        f"removed generator column {invariant.column} "
        f"({pres.generator_names[invariant.column]})",
    ]

    def show(poly: LaurentPoly) -> str:
        return _poly_text(poly, "x", integer_coeffs(poly, tol=config.tolerances.root))

    if invariant.quotient is not None:
        lines.append("invariant (normalized quotient, up to units):")
        lines.append("  " + show(normalized))
    else:
        lines.append("division is not exact; the invariant is the fraction")
        lines.append("  numerator:   " + show(invariant.numerator))
        lines.append("  denominator: " + show(invariant.denominator))
    return 0, "\n".join(lines) + "\n"


# A negated monodromy word such as -RRL looks like an option to argparse.
# The only single-dash option is the lowercase -h, so a token that spells
# a negated word can safely be moved behind "--", where argparse reads it
# as the positional monodromy argument.
_NEGATED_WORD = re.compile(r"-(?:[LR](?:\^\d+)?)+")


def _route_negated_words(argv: Sequence[str]) -> list[str]:
    head, tail = list(argv), []
    if "--" in head:
        cut = head.index("--")
        head, tail = head[:cut], head[cut + 1:]
    words = [tok for tok in head if _NEGATED_WORD.fullmatch(tok)]
    if not words:
        return list(argv)
    rest = [tok for tok in head if not _NEGATED_WORD.fullmatch(tok)]
    return rest + ["--"] + words + tail


_HANDLERS = {
    "certify": _cmd_certify,
    "trace-solve": _cmd_trace_solve,
    "holonomy": _cmd_holonomy,
    "action": _cmd_action,
    "alexander": _cmd_alexander,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point returning the process exit status.

    Every call parses with the parser built once at import.  0 success,
    2 input error, 3 numerical failure, 4 when the certifier ran and its
    verdict is inconclusive.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, extra = _PARSER.parse_known_args(_route_negated_words(argv))
        if extra:
            # argparse gives an unknown flag's value to the positional
            # argument and reports the positional, so name the flags alone
            flags = [tok for tok in extra if tok.startswith("-")]
            _PARSER.error("unrecognized arguments: " + " ".join(flags or extra))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = _config(args)
        code, text = _HANDLERS[config.command](config)
        if config.output:
            with open(config.output, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    if not config.output:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
