"""Benchmark of the ptbundle command line, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each ``ptbundle.cli.run(argv)`` call
starts when the previous one returns.  A run is a whole number of passes
over the workload's calls, each pass in an order drawn from ``--seed``,
as many passes as fit in ``--seconds`` and at least one, so every run
sees each call equally often.  Module-level caches are emptied before
every call, because a user of the ``ptbundle`` command starts a fresh
process each time.  The program's own ``--seed`` stays at its default,
so outputs can be checked against pinned values and against earlier
runs.

Every time reported with ``--trace 0`` is scaled to a reference host
speed by a calibration kernel timed between calls (see
``REFERENCE_CALIBRATION_S``).  Latency percentiles are Harrell-Davis
estimates over every call of the run.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run makes one untraced
pass, then one traced pass, and reports the per-layer metrics in
measured (unscaled) seconds.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"
SETUP_SAMPLES = 11

# A fresh interpreter that imports the command-line module and builds its
# parser, then prints the wall clock.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ptbundle.cli\n"
    "ptbundle.cli.build_parser()\n"
    "print(repr(time.time()))\n"
)


class CheckoutError(Exception):
    """The directory does not hold a ptbundle source tree to measure."""


def check_checkout() -> None:
    needed = [SRC / "ptbundle" / "cli.py", ROOT / "presentations",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise CheckoutError("not a ptbundle checkout; missing " + ", ".join(missing))


def source_digest() -> str:
    """Hash of the program's sources and input files: the code version."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "presentations").glob("*"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reset_module_caches() -> None:
    """Empty module-level caches, as a fresh ``ptbundle`` process has them."""
    for name, module in list(sys.modules.items()):
        if not (name == "ptbundle" or name.startswith("ptbundle.")):
            continue
        for key, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and "cache" in key.lower():
                value.clear()


def output_hash(code: int, stdout: str, stderr: str) -> str:
    """Hash of what a call printed: exit code, report and its own messages.

    Interpreter warnings on stderr are left out: they print once per
    process, not once per call.
    """
    messages = [line for line in stderr.splitlines()
                if line.startswith(("error:", "numerical failure:"))]
    digest = hashlib.sha256(f"{code}\n".encode())
    digest.update(stdout.encode())
    digest.update("\n".join(messages).encode())
    return digest.hexdigest()


class OutputLedger:
    """Output hashes per call, shared by every run of one code version."""

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = {}
        if path.exists():
            self.known = json.loads(path.read_text())
        self.fresh: dict[str, str] = {}

    def check(self, key: str, value: str) -> list[str]:
        earlier = self.known.get(key, self.fresh.get(key))
        if earlier is None:
            self.fresh[key] = value
            return []
        if earlier != value:
            return [f"{key}: output differs from an earlier call"]
        return []

    def save(self) -> None:
        if not self.fresh:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        merged = {**self.known, **self.fresh}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# The calibration kernel: a fixed mix of extended-precision elimination
# steps on small numpy arrays and plain Python arithmetic, the two kinds
# of work ptbundle spends its time on.  It is timed between consecutive
# calls, and each time the benchmark reports is scaled by
# REFERENCE_CALIBRATION_S over the mean of the kernel times just before
# and just after it.  On a shared host the speed available to one process
# drifts by tens of percent within minutes; the scaling keeps that drift
# out of the program's figures.
REFERENCE_CALIBRATION_S = 0.03  # about its time on an idle 2-core x86-64 VM
_CALIBRATION_MATRIX = None


def _elimination_det(a):
    a = np.array(a, copy=True)
    det = a.dtype.type(1)
    for k in range(a.shape[0] - 1):
        p = int(np.argmax(np.abs(a[k:, k]))) + k
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
            det = -det
        det = det * a[k, k]
        factors = a[k + 1:, k:k + 1] / a[k, k]
        a[k + 1:, k + 1:] = a[k + 1:, k + 1:] - factors * a[k, k + 1:]
    return det * a[-1, -1]


def calibration_sample() -> float:
    """Seconds the calibration kernel takes right now."""
    global _CALIBRATION_MATRIX
    if _CALIBRATION_MATRIX is None:
        rng = np.random.default_rng(0)
        _CALIBRATION_MATRIX = (rng.standard_normal((24, 24)) + 1j
                               * rng.standard_normal((24, 24))).astype(np.clongdouble)
    start = time.perf_counter()
    for _ in range(36):
        _elimination_det(_CALIBRATION_MATRIX)
    total = 0
    for k in range(180_000):
        total += k * k
    return time.perf_counter() - start


class ScaledTimer:
    """Times work and scales it by the calibration samples around it."""

    def __init__(self):
        self.last = calibration_sample()

    def scaled(self, raw_s: float) -> float:
        after = calibration_sample()
        scale = REFERENCE_CALIBRATION_S / ((self.last + after) / 2.0)
        self.last = after
        return raw_s * scale


def measure_setup() -> float:
    """Median time from process start until ptbundle.cli is ready."""
    def once() -> float:
        start = time.time()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=ROOT,
        )
        return float(done.stdout.strip().splitlines()[-1]) - start

    once()  # the first import may write bytecode caches; not timed
    timer = ScaledTimer()
    return statistics.median(timer.scaled(once()) for _ in range(SETUP_SAMPLES))


@dataclass
class Tally:
    """Outcome counts and latencies over the calls of a run."""

    raw: list[float] = field(default_factory=list)  # measured seconds
    latencies: list[float] = field(default_factory=list)  # scaled seconds
    completed: int = 0
    failed: int = 0
    certify_seen: int = 0
    certified: int = 0
    exit_codes: dict[int, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(cli, calls, order, ledger, tally, timer, tracer=None) -> int:
    """Make each call once in the given order; return solutions x reps."""
    solution_reps = 0
    for index in order:
        call = calls[index]
        reset_module_caches()
        lifted_before = tracer.counters["holonomy.holonomy_from_triple.ok"] \
            if tracer else 0
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(call.argv))
        except Exception as exc:  # a crash is an outcome to count, not fatal
            code, crash = -1, f"{call.key}: uncaught {type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        tally.raw.append(raw)
        tally.latencies.append(timer.scaled(raw))
        tally.exit_codes[code] = tally.exit_codes.get(code, 0) + 1

        problems = [crash] if crash else []
        if not crash:
            verdict = call.check(code, out.getvalue(), err.getvalue())
            problems.extend(verdict.problems)
            problems.extend(ledger.check(
                call.key, output_hash(code, out.getvalue(), err.getvalue())))
            if verdict.certified is not None:
                tally.certify_seen += 1
                tally.certified += int(verdict.certified)
        if problems:
            tally.failed += 1
            tally.problems.extend(problems)
        elif code in (0, 4):  # a report, certified or inconclusive
            tally.completed += 1
        if tracer is not None and code in (0, 4):
            lifted = tracer.counters["holonomy.holonomy_from_triple.ok"]
            solution_reps += int(lifted - lifted_before) * call.reps
    return solution_reps


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics; far less sensitive to
    the noise of single samples than the one or two order statistics a
    plain percentile reads.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # The Beta(a, b) distribution function at k/n, by the trapezoid rule.
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid) - log_beta)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)
                          * (grid[1] - grid[0])))
    at_k = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid, [1.0])),
                     np.concatenate(([0.0], cdf, [cdf[-1]])))
    weights = np.diff(at_k)
    return float(weights @ x / weights.sum())


def pass_order(count: int, seed: int, number: int) -> list[int]:
    order = list(range(count))
    random.Random(f"{seed}:{number}").shuffle(order)
    return order


def end_to_end(cli, calls, seed, seconds, ledger) -> tuple[Tally, dict]:
    tally = Tally()
    timer = ScaledTimer()
    start = time.perf_counter()
    passes = 0
    # Whole passes only, as many as fit in the time given (at least one).
    while True:
        run_pass(cli, calls, pass_order(len(calls), seed, passes), ledger,
                 tally, timer)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    busy = sum(tally.latencies)
    values = {
        "ops_per_s": tally.completed / busy,
        "op_p50_s": harrell_davis(tally.latencies, 0.5),
        "op_p90_s": harrell_davis(tally.latencies, 0.9),
        "ok_frac": tally.completed / tally.attempted,
        "certified_frac": tally.certified / max(tally.certify_seen, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"passes {passes}, calls {tally.attempted}, "
          f"call time {sum(tally.raw):.3f} s measured, {busy:.3f} s scaled, "
          f"exit codes {dict(sorted(tally.exit_codes.items()))}")
    return tally, values


def per_layer(cli, calls, seed, ledger) -> tuple[Tally, dict]:
    """One pass in which every call runs both untraced and traced.

    Pairing the two runs of each call keeps drift of the host's speed out
    of the overhead figure; which of the two goes first alternates, since
    a call repeated at once runs a little faster the second time.
    """
    import spans

    tracer = spans.Tracer()
    timer = ScaledTimer()
    tally = Tally()
    traced_at: list[int] = []

    def run_traced(index: int) -> int:
        traced_at.append(len(tally.raw))
        restore = spans.install(tracer)
        try:
            return run_pass(cli, calls, [index], ledger, tally, timer, tracer)
        finally:
            restore()

    solution_reps = 0
    for pair, index in enumerate(pass_order(len(calls), seed, 0)):
        if pair % 2:
            solution_reps += run_traced(index)
        run_pass(cli, calls, [index], ledger, tally, timer)
        if not pair % 2:
            solution_reps += run_traced(index)
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))

    untraced_at = sorted(set(range(len(tally.raw))) - set(traced_at))

    def total(series: list[float], positions: list[int]) -> float:
        return sum(series[i] for i in positions)

    untraced_raw, traced_raw = total(tally.raw, untraced_at), total(tally.raw, traced_at)
    values = spans.layer_metrics(tracer, solution_reps=solution_reps)
    named_self = sum(values[f"{name}.self_s"] for name in spans.SPAN_NAMES)
    values["trace.untraced_call_s"] = untraced_raw
    values["trace.traced_call_s"] = traced_raw
    values["trace.overhead_frac"] = (total(tally.latencies, traced_at)
                                     / total(tally.latencies, untraced_at) - 1.0)
    values["trace.self_coverage"] = named_self / traced_raw
    print(f"calls per pass {len(calls)}, call time untraced {untraced_raw:.3f} s, "
          f"traced {traced_raw:.3f} s, exit codes "
          f"{dict(sorted(tally.exit_codes.items()))}")
    return tally, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_checkout()
    except CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    setup = measure_setup() if not args.trace else None
    import ptbundle.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ptbundle from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    calls = workloads.WORKLOADS[args.workload]()
    ledger = OutputLedger(STATE_DIR / f"outputs-{source_digest()}.json")
    if args.trace:
        tally, values = per_layer(cli, calls, args.seed, ledger)
    else:
        tally, values = end_to_end(cli, calls, args.seed, args.seconds, ledger)
        values = {"setup_s": setup, **values}
    ledger.save()

    # Names and units come from BENCHMARK.json, which must list exactly
    # the metrics this mode reports.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        print("perfbench: metrics differ from BENCHMARK.json: "
              + ", ".join(sorted(set(units) ^ set(values))), file=sys.stderr)
        return 2

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:58s} {value:14.6g} {units[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
