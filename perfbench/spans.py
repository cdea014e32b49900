"""Span tracing of ptbundle's public functions, installed from outside.

The tracer wraps named functions in every ptbundle module namespace that
holds them: ``certify`` imports ``build_solutions`` and friends by name,
``route_agreement`` reaches ``bundle_twisted_alexander`` through the
``alexander`` globals, and ``representation`` is a method, so patching a
single module attribute would miss most calls.  Spans are kept in memory
as parallel lists; self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional, Sequence

# (span name, module, attribute path).  Several attributes may share one
# span name; cli.render covers every output formatter.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("holonomy.solve_traces", "ptbundle.holonomy", "solve_traces"),
    ("holonomy.holonomy_from_triple", "ptbundle.holonomy", "holonomy_from_triple"),
    ("holonomy.lorentz_holonomy", "ptbundle.holonomy", "lorentz_holonomy"),
    ("holonomy.representation", "ptbundle.holonomy",
     "HolonomySolution.representation"),
    ("holonomy.longitude_centralizer_dims", "ptbundle.holonomy",
     "longitude_centralizer_dims"),
    ("holonomy.fixed_vectors_dim", "ptbundle.holonomy", "fixed_vectors_dim"),
    ("alexander.monodromy_action", "ptbundle.alexander", "monodromy_action"),
    ("alexander.relative_char_poly", "ptbundle.alexander", "relative_char_poly"),
    ("alexander.bundle_twisted_alexander", "ptbundle.alexander",
     "bundle_twisted_alexander"),
    ("alexander.route_agreement", "ptbundle.alexander", "route_agreement"),
    ("alexander.twisted_alexander", "ptbundle.alexander", "twisted_alexander"),
    ("numeric.newton_multistart", "ptbundle.numeric", "newton_multistart"),
    ("numeric.matrix_det", "ptbundle.numeric", "matrix_det"),
    ("numeric.quotient_interpolate", "ptbundle.numeric", "quotient_interpolate"),
    ("numeric.char_poly", "ptbundle.numeric", "char_poly"),
    ("numeric.nullspace", "ptbundle.numeric", "nullspace"),
    ("certify.certify", "ptbundle.certify", "certify"),
    ("certify.cross_checks", "ptbundle.certify", "cross_checks"),
    ("certify.evidence_from_poly", "ptbundle.certify", "evidence_from_poly"),
    ("cli.run", "ptbundle.cli", "run"),
    ("cli.render", "ptbundle.certify", "report_json"),
    ("cli.render", "ptbundle.certify", "report_text"),
    ("cli.render", "ptbundle.cli", "_dumps"),
    ("cli.render", "ptbundle.cli", "_format_matrix_text"),
    ("cli.render", "ptbundle.cli", "_poly_text"),
    ("cli.factored_display", "ptbundle.cli", "factored_display"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Spans whose exceptions are reported as a `failed` count.
FAILING_SPANS = (
    "holonomy.holonomy_from_triple",
    "alexander.monodromy_action",
    "numeric.quotient_interpolate",
)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval before the union.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters for wrapped calls on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.failed.append(False)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = True
                raise
            finally:
                self.ends[index] = clock()
                self._stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and failed."""
        own = self_times(self.starts, self.ends, self.parents)
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
                  for name in SPAN_NAMES}
        for name, start, end, mine, failed in zip(
                self.names, self.starts, self.ends, own, self.failed):
            entry = totals.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += mine
            entry["failed"] += int(failed)
        return totals


# ---------------------------------------------------------------------------
# Counters gathered from arguments and results.
# ---------------------------------------------------------------------------


def _observe_triples(counters, args, kwargs, result):
    counters["holonomy.solve_traces.triples"] += len(result)


def _observe_lift(counters, args, kwargs, result):
    counters["holonomy.holonomy_from_triple.ok"] += 1


def _observe_newton(counters, args, kwargs, result):
    # newton_multistart(fun, jac, dim, starts=64, ...)
    starts = kwargs.get("starts", args[3] if len(args) > 3 else 64)
    counters["numeric.newton_multistart.starts"] += starts
    counters["numeric.newton_multistart.roots"] += len(result)


def _observe_det(counters, args, kwargs, result):
    n = args[0].shape[0]
    counters["numeric.matrix_det.flops_computed"] += 2.0 * n ** 3 / 3.0


def _observe_routes(counters, args, kwargs, result):
    counters["alexander.route_agreement.mismatches"] += int(not result.match)


def _observe_certify(counters, args, kwargs, result):
    for sol in result.solutions:
        counters["certify.solutions"] += 1
        counters["certify.verdict_rigid"] += int(sol.verdict == "rigid-rel-cusp")
        counters["certify.verdict_inconclusive"] += int(
            sol.verdict == "inconclusive")
        counters["certify.solution_failures"] += len(sol.failures)
        counters["certify.checks_failed"] += sum(
            not check.ok for check in sol.cross_checks.values())


OBSERVERS = {
    "holonomy.solve_traces": _observe_triples,
    "holonomy.holonomy_from_triple": _observe_lift,
    "numeric.newton_multistart": _observe_newton,
    "numeric.matrix_det": _observe_det,
    "alexander.route_agreement": _observe_routes,
    "certify.certify": _observe_certify,
}


def _resolve(module, path: str):
    """(owner, attribute) for 'name' or 'Class.name' inside a module."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target wherever ptbundle looks it up; return the undo.

    A module-level function is replaced in every loaded ptbundle module
    whose globals hold that same object; a method is replaced on its
    class.  Targets that no longer exist are skipped and listed in
    ``tracer.missing``, so their spans read zero instead of breaking the
    run.
    """
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "ptbundle" or name.startswith("ptbundle.")]
    patched: list[tuple[object, str, Callable]] = []
    tracer.missing = []
    for span, module_name, path in TARGETS:
        module = sys.modules.get(module_name)
        owner, attr = _resolve(module, path) if module else (None, path)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(span, original, OBSERVERS.get(span))
        if owner is not module:
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore() -> None:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)

    return restore


def layer_metrics(tracer: Tracer, *, solution_reps: int) -> dict[str, float]:
    """Per-layer metric values from one traced pass.

    ``solution_reps`` is the sum over calls of solutions times
    representations, the base of both ``calls_per_input`` ratios.
    """
    totals = tracer.span_totals()
    counters = tracer.counters
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = totals[name]
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.total_s"] = entry["total_s"]
        out[f"{name}.self_s"] = entry["self_s"]
        if name in FAILING_SPANS:
            out[f"{name}.failed"] = entry["failed"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lifts = totals["holonomy.holonomy_from_triple"]["calls"]
    out["holonomy.solve_traces.triples"] = counters["holonomy.solve_traces.triples"]
    out["holonomy.lift_ok_ratio"] = ratio(
        counters["holonomy.holonomy_from_triple.ok"], lifts)
    out["cli.run.solution_reps"] = solution_reps
    out["holonomy.representation.calls_per_input"] = ratio(
        totals["holonomy.representation"]["calls"], solution_reps)
    out["alexander.bundle_twisted_alexander.calls_per_input"] = ratio(
        totals["alexander.bundle_twisted_alexander"]["calls"], solution_reps)
    out["alexander.route_agreement.mismatches"] = counters[
        "alexander.route_agreement.mismatches"]
    starts = counters["numeric.newton_multistart.starts"]
    out["numeric.newton_multistart.starts"] = starts
    out["numeric.newton_multistart.roots_per_start"] = ratio(
        counters["numeric.newton_multistart.roots"], starts)
    out["numeric.matrix_det.flops_computed"] = counters[
        "numeric.matrix_det.flops_computed"]
    for key in ("solutions", "verdict_rigid", "verdict_inconclusive",
                "solution_failures", "checks_failed"):
        out[f"certify.{key}"] = counters[f"certify.{key}"]
    return out
