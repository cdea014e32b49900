"""Tests of the benchmark's own logic.

Run from the repository root with:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestCorpus:
    def test_hyperbolic_words_per_length(self):
        counts = [len(workloads.hyperbolic_words(n)) for n in range(2, 8)]
        assert counts == [1, 2, 4, 6, 12, 18]
        assert sum(counts) == 43

    def test_words_are_least_rotations(self):
        for word in workloads.hyperbolic_words(6):
            rotations = [word[i:] + word[:i] for i in range(len(word))]
            assert word == min(rotations)

    def test_corpus_adds_the_named_words(self):
        words = workloads.corpus_words()
        assert len(words) == 49
        assert len(set(words)) == 49
        assert words[-6:] == list(workloads.EXTRA_CORPUS_WORDS)
        assert set(workloads.PINNED_WORDS) - {"RRL"} <= set(words)


class TestSelfTimes:
    def test_hand_built_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child
        # c [2, 3]; d [20, 21] is a second root without children.
        starts = [0.0, 1.0, 2.0, 5.0, 20.0]
        ends = [10.0, 4.0, 3.0, 9.0, 21.0]
        parents = [-1, 0, 1, 0, -1]
        assert spans.self_times(starts, ends, parents) == pytest.approx(
            [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_overlapping_children_counted_once(self):
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 5.0, 12.0]
        parents = [-1, 0, 0]
        assert spans.self_times(starts, ends, parents)[0] == pytest.approx(1.0)

    def test_tracer_attributes_nested_calls(self):
        tracer = spans.Tracer()

        def leaf():
            return 1

        traced_leaf = tracer.wrap("leaf", leaf)

        def parent():
            return traced_leaf() + traced_leaf()

        assert tracer.wrap("parent", parent)() == 2
        assert tracer.names == ["parent", "leaf", "leaf"]
        assert tracer.parents == [-1, 0, 0]
        own = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
        total = tracer.ends[0] - tracer.starts[0]
        assert own[0] == pytest.approx(
            total - sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2)))

    def test_failed_spans_are_counted(self):
        tracer = spans.Tracer()

        def boom():
            raise ArithmeticError("no")

        with pytest.raises(ArithmeticError):
            tracer.wrap("numeric.quotient_interpolate", boom)()
        totals = tracer.span_totals()
        assert totals["numeric.quotient_interpolate"]["failed"] == 1


@pytest.fixture(scope="module")
def rrl_report():
    from ptbundle import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["certify", "--format", "json", "--", "RRL"])
    assert code == 0
    return out.getvalue()


class TestCorrectnessChecks:
    def test_pinned_report_passes(self, rrl_report):
        check = workloads.certify_checker("RRL", pinned=True)
        verdict = check(0, rrl_report, "")
        assert verdict.problems == ()
        assert verdict.certified is True

    def test_tampered_polynomial_is_rejected(self, rrl_report):
        data = json.loads(rrl_report)
        tampered = copy.deepcopy(data)
        poly = tampered["solutions"][0]["evidence"]["gl16"]["integer_polynomial"]
        poly[3] += 1
        check = workloads.certify_checker("RRL", pinned=True)
        verdict = check(0, json.dumps(tampered), "")
        assert any("gl16 polynomial differs" in p for p in verdict.problems)

    def test_wrong_multiplicity_is_rejected(self, rrl_report):
        data = json.loads(rrl_report)
        for sol in data["solutions"]:
            sol["evidence"]["v"]["multiplicity"] = 2
        verdict = workloads.certify_checker("RRL", pinned=True)(
            0, json.dumps(data), "")
        assert any("multiplicities" in p for p in verdict.problems)

    def test_abort_counts_only_outside_pinned(self):
        err = "numerical failure: no meridian intertwiner found\n"
        assert workloads.certify_checker("LLLR", pinned=False)(
            3, "", err).problems == ()
        assert workloads.certify_checker("LLRR", pinned=True)(
            3, "", err).problems

    def test_heusener_quotient(self):
        check = workloads.alexander_checker(workloads.PRESENTATION_FILES[0])
        good = json.dumps({"integer_quotient": [1, 0, 0, -1]})
        bad = json.dumps({"integer_quotient": [1, 0, -1]})
        assert check(0, good, "").problems == ()
        assert check(0, bad, "").problems

    def test_action_multiplicities_parse(self):
        text = textwrap.dedent("""\
            monodromy LR   trace 3   direction inverse

            solution 0
              sl4: action matrix 30x30 on cocycle pairs, kernel dimension 15
                relative characteristic polynomial (multiplicity 5 at t=1):
                  -(t - 1)^5
              v: action matrix 18x18 on cocycle pairs, kernel dimension 9
                relative characteristic polynomial (multiplicity 3 at t=1):
                  (t - 1)^3
            """)
        assert workloads.action_multiplicities(text) == [{"sl4": 5, "v": 3}]
        assert workloads.action_checker("LR")(0, text, "").certified is True

    def test_output_hash_ignores_warnings(self):
        base = bench.output_hash(3, "", "numerical failure: x\n")
        noisy = bench.output_hash(
            3, "", "a.py:1: RuntimeWarning: overflow\nnumerical failure: x\n")
        assert base == noisy
        assert base != bench.output_hash(3, "", "numerical failure: y\n")

    def test_ledger_flags_changed_output(self, tmp_path):
        path = tmp_path / "outputs.json"
        first = bench.OutputLedger(path)
        assert first.check("certify -- LR", "aa") == []
        first.save()
        second = bench.OutputLedger(path)
        assert second.check("certify -- LR", "aa") == []
        assert second.check("certify -- LR", "bb")


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(spans.layer_metrics(spans.Tracer(), solution_reps=0))
    names |= {"trace.untraced_call_s", "trace.traced_call_s",
              "trace.overhead_frac", "trace.self_coverage"}
    assert {m["name"] for m in declared["per_layer"]} == names


def test_harrell_davis_quantiles():
    samples = [float(k) for k in range(1, 102)]
    assert bench.harrell_davis(samples, 0.5) == pytest.approx(51.0, rel=1e-3)
    assert bench.harrell_davis(samples, 0.9) == pytest.approx(91.0, rel=0.01)
    assert bench.harrell_davis([2.0], 0.9) == 2.0


def test_wrappers_reach_names_imported_elsewhere():
    script = textwrap.dedent("""\
        import contextlib, io, json, sys
        sys.path[:0] = [sys.argv[1], sys.argv[2]]
        import ptbundle.cli as cli
        import spans
        tracer = spans.Tracer()
        original = cli.certify
        restore = spans.install(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["certify", "--format", "json", "--", "LR"])
        restore()
        names = tracer.names
        parent_of = {i: names[p] for i, p in enumerate(tracer.parents) if p >= 0}
        print(json.dumps({
            "missing": tracer.missing,
            "restored": cli.certify is original,
            "roots": [n for n, p in zip(names, tracer.parents) if p < 0],
            "wada_parents": sorted({parent_of[i] for i, n in enumerate(names)
                                    if n == "alexander.bundle_twisted_alexander"}),
            "representation": names.count("holonomy.representation"),
            "certify": names.count("certify.certify"),
        }))
        """)
    done = subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    found = json.loads(done.stdout.strip().splitlines()[-1])
    assert found["missing"] == []
    assert found["restored"]
    assert found["roots"] == ["cli.run"]
    # certify's own calls and route_agreement's calls through alexander's
    # globals both reach the wrapper.
    assert found["wada_parents"] == ["alexander.route_agreement", "certify.certify"]
    assert found["representation"] == 6
    assert found["certify"] == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
