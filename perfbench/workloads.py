"""Workload definitions and output checks for the ptbundle benchmark.

A workload is a list of calls.  Each call is one argv for
``ptbundle.cli.run`` plus a checker that inspects the exit code and the
captured output of that call.  Monodromy words always follow ``--``, so
that a negated word such as ``-RRL`` reaches the parser as a positional
argument instead of an option.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Callable, Optional

RIGID = "rigid-rel-cusp"

PINNED_WORDS = ("LR", "LLR", "RRL", "LRR", "LLRR", "LLLLR")

# Words named in the project roadmap that fall outside the length 2-7
# enumeration: longer words and the two negated ones.
EXTRA_CORPUS_WORDS = ("L^4R^4", "LLRLRRLR", "L^8R", "L^12R", "-LLRR", "-RRL")

PRESENTATION_FILES = (
    "presentations/trefoil_heusener.json",
    "presentations/trefoil_trivial.json",
)

# Exit statuses documented by ptbundle.cli.run.
EXIT_OK, EXIT_NUMERIC, EXIT_INCONCLUSIVE = 0, 3, 4

# Certificate multiplicities at t = 1 of the geometric solution.
CERTIFICATE_MULTIPLICITIES = {"sl4": 5, "v": 3, "gl16": 4}


# ---------------------------------------------------------------------------
# Pinned integer polynomials (exponent 0 first).  A private copy of the
# targets frozen in the acceptance tests, stored factored.
# ---------------------------------------------------------------------------


def expand(*factors: list[int]) -> list[int]:
    """Multiply integer coefficient lists (ascending powers) exactly."""
    out = [1]
    for factor in factors:
        new = [0] * (len(out) + len(factor) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                new[i + j] += x * y
        out = new
    return out


_T_MINUS_1 = [-1, 1]

PINNED_POLYNOMIALS = {
    ("LLRR", "sl4"): expand(
        [-1], *[_T_MINUS_1] * 5, [1, -18, 1], [1, -18, 1],
        [1, -114, -17, -316, -17, -114, 1],
    ),
    ("RRL", "sl4"): expand(
        [-1], *[_T_MINUS_1] * 5, [1, -18, 90, -18, 1],
        [1, -38, 15, -84, 15, -38, 1],
    ),
    ("RRL", "gl16"): expand(
        *[_T_MINUS_1] * 4, [1, -4, 1], [1, -18, 90, -18, 1],
        [1, -38, 15, -84, 15, -38, 1],
    ),
}

# The trefoil with the Heusener representation has quotient x^3 - 1.
HEUSENER_QUOTIENT = [-1, 0, 0, 1]


# ---------------------------------------------------------------------------
# The corpus of monodromy words.
# ---------------------------------------------------------------------------


def necklace_words(length: int) -> list[str]:
    """One L/R word per cyclic rotation class: the least rotation, sorted."""
    seen = set()
    for letters in itertools.product("LR", repeat=length):
        word = "".join(letters)
        seen.add(min(word[i:] + word[:i] for i in range(length)))
    return sorted(seen)


def hyperbolic_words(length: int) -> list[str]:
    """Hyperbolic necklace words of one length, as ptbundle decides it."""
    from ptbundle.presentation import is_hyperbolic, parse_monodromy

    return [w for w in necklace_words(length)
            if is_hyperbolic(parse_monodromy(w))]


def corpus_words() -> list[str]:
    """Hyperbolic words of length 2-7 up to rotation, then the extras."""
    words = [w for n in range(2, 8) for w in hyperbolic_words(n)]
    return words + list(EXTRA_CORPUS_WORDS)


# ---------------------------------------------------------------------------
# Calls and their checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """What the checker concluded about one call's output."""

    problems: tuple[str, ...] = ()
    # True when the call reports a rigidity certificate; None when the
    # call kind says nothing about certification.
    certified: Optional[bool] = None


Checker = Callable[[int, str, str], Verdict]


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Checker
    # Representations the command pushes every solution through.
    reps: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def expand_powers(word: str) -> str:
    """Spell out powers: 'L^4R^4' becomes 'LLLLRRRR'."""
    return re.sub(r"([LR])\^(\d+)", lambda m: m.group(1) * int(m.group(2)),
                  word)


def _json_or_problem(stdout: str) -> tuple[Optional[dict], tuple[str, ...]]:
    try:
        return json.loads(stdout), ()
    except json.JSONDecodeError as err:
        return None, (f"output is not JSON: {err}",)


def _abort_problems(stdout: str, stderr: str) -> tuple[str, ...]:
    """An exit-3 abort prints nothing and names the failure on stderr."""
    problems = []
    if stdout:
        problems.append("exit 3 with output on stdout")
    if "numerical failure:" not in stderr:
        problems.append("exit 3 without a 'numerical failure:' message")
    return tuple(problems)


def _matches_pinned(ints: Optional[list[int]], target: list[int]) -> bool:
    return ints is not None and ints in (target, [-c for c in target])


def check_certify_report(word: str, data: dict, *, pinned: bool) -> list[str]:
    """Structural checks on a certify JSON report; pinned adds the targets."""
    problems = []
    if data.get("monodromy") != expand_powers(word):
        problems.append(f"report names {data.get('monodromy')!r}, not {word!r}")
    solutions = data.get("solutions") or []
    if not solutions:
        problems.append("report has no solutions")
    rigid_seen = any(sol.get("verdict") == RIGID for sol in solutions)
    if (data.get("verdict") == RIGID) != rigid_seen:
        problems.append("overall verdict disagrees with the solutions")
    if not pinned:
        return problems
    if data.get("verdict") != RIGID:
        problems.append(f"{word}: verdict {data.get('verdict')!r}, "
                        f"expected {RIGID!r}")
    geometric = [
        sol for sol in solutions
        if sol.get("geometric_candidate") and sol.get("verdict") == RIGID
        and all(sol.get("evidence", {}).get(label, {}).get("multiplicity") == m
                for label, m in CERTIFICATE_MULTIPLICITIES.items())
    ]
    if not geometric:
        problems.append(f"{word}: no rigid geometric solution with "
                        "multiplicities (5, 3, 4)")
    for (pinned_word, label), target in PINNED_POLYNOMIALS.items():
        if pinned_word != word:
            continue
        for sol in solutions:
            ints = sol.get("evidence", {}).get(label, {}).get(
                "integer_polynomial")
            if not _matches_pinned(ints, target):
                problems.append(f"{word}: solution {sol.get('index')} {label} "
                                "polynomial differs from the pinned one")
    return problems


def certify_checker(word: str, *, pinned: bool) -> Checker:
    def check(code: int, stdout: str, stderr: str) -> Verdict:
        if code == EXIT_NUMERIC and not pinned:
            return Verdict(_abort_problems(stdout, stderr), certified=False)
        if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
            return Verdict((f"{word}: exit {code}",), certified=False)
        data, problems = _json_or_problem(stdout)
        if data is None:
            return Verdict(problems, certified=False)
        found = check_certify_report(word, data, pinned=pinned)
        expected_code = EXIT_OK if data.get("verdict") == RIGID else EXIT_INCONCLUSIVE
        if code != expected_code:
            found.append(f"{word}: exit {code} for verdict {data.get('verdict')!r}")
        return Verdict(tuple(found), certified=data.get("verdict") == RIGID)
    return check


def _exit_zero_nonempty(label: str, code: int, stdout: str) -> list[str]:
    problems = []
    if code != EXIT_OK:
        problems.append(f"{label}: exit {code}")
    if not stdout:
        problems.append(f"{label}: empty output")
    return problems


def trace_solve_checker(word: str) -> Checker:
    def check(code: int, stdout: str, stderr: str) -> Verdict:
        problems = _exit_zero_nonempty(f"trace-solve {word}", code, stdout)
        if not problems:
            data, bad = _json_or_problem(stdout)
            problems.extend(bad)
            if data is not None and not data.get("solutions"):
                problems.append(f"trace-solve {word}: no solutions")
        return Verdict(tuple(problems))
    return check


def holonomy_checker(word: str) -> Checker:
    def check(code: int, stdout: str, stderr: str) -> Verdict:
        problems = _exit_zero_nonempty(f"holonomy {word}", code, stdout)
        if not problems and "so31 x:" not in stdout:
            problems.append(f"holonomy {word}: no Lorentz matrices in output")
        return Verdict(tuple(problems))
    return check


_ACTION_SOLUTION = re.compile(r"^solution \d+$", re.MULTILINE)
_ACTION_REP = re.compile(
    r"^  (\w+): action matrix .*\n    relative characteristic polynomial "
    r"\(multiplicity (\d+) at t=1\):", re.MULTILINE)


def action_multiplicities(stdout: str) -> list[dict[str, int]]:
    """Per solution, the multiplicity at t = 1 the action text reports."""
    blocks = _ACTION_SOLUTION.split(stdout)[1:]
    return [{label: int(m) for label, m in _ACTION_REP.findall(block)}
            for block in blocks]


def action_checker(word: str) -> Checker:
    def check(code: int, stdout: str, stderr: str) -> Verdict:
        problems = _exit_zero_nonempty(f"action {word}", code, stdout)
        per_solution = action_multiplicities(stdout) if not problems else []
        if not problems and not per_solution:
            problems.append(f"action {word}: no solutions in output")
        # The cocycle-route analogue of a certificate: some solution shows
        # the sl4 and v multiplicities that certify requires.
        certified = any(
            sol.get("sl4") == CERTIFICATE_MULTIPLICITIES["sl4"]
            and sol.get("v") == CERTIFICATE_MULTIPLICITIES["v"]
            for sol in per_solution
        )
        return Verdict(tuple(problems), certified=certified)
    return check


def alexander_checker(path: str) -> Checker:
    def check(code: int, stdout: str, stderr: str) -> Verdict:
        problems = _exit_zero_nonempty(f"alexander {path}", code, stdout)
        if problems:
            return Verdict(tuple(problems))
        data, bad = _json_or_problem(stdout)
        if data is None:
            return Verdict(bad)
        problems = []
        if path.endswith("trefoil_heusener.json"):
            if not _matches_pinned(data.get("integer_quotient"),
                                   HEUSENER_QUOTIENT):
                problems.append("trefoil_heusener: quotient is not x^3 - 1")
        elif path.endswith("trefoil_trivial.json"):
            if data.get("quotient") is not None or not data.get("numerator") \
                    or not data.get("denominator"):
                problems.append("trefoil_trivial: not reported as a fraction")
        return Verdict(tuple(problems))
    return check


def _certify_call(word: str, *, pinned: bool) -> Call:
    return Call(("certify", "--format", "json", "--", word),
                certify_checker(word, pinned=pinned), reps=3)


def pinned_calls() -> list[Call]:
    return [_certify_call(w, pinned=True) for w in PINNED_WORDS]


def corpus_calls() -> list[Call]:
    return [_certify_call(w, pinned=False) for w in corpus_words()]


def stages_calls() -> list[Call]:
    calls = []
    for word in PINNED_WORDS:
        calls.append(Call(("trace-solve", "--format", "json", "--", word),
                          trace_solve_checker(word)))
        calls.append(Call(("holonomy", "--", word), holonomy_checker(word)))
        calls.append(Call(("action", "--", word), action_checker(word), reps=3))
    for path in PRESENTATION_FILES:
        calls.append(Call(("alexander", "--format", "json", path),
                          alexander_checker(path)))
    return calls


WORKLOADS: dict[str, Callable[[], list[Call]]] = {
    "pinned": pinned_calls,
    "corpus": corpus_calls,
    "stages": stages_calls,
}
