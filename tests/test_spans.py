"""The benchmark's span tracer still reads the shapes it counts.

``perfbench/spans.py`` wraps package functions from outside and counts
from their results: ``len()`` of the list ``solve_traces`` returns, and
the entries of a report's ``solutions``.  This test loads that file as it
is and traces one certify call through the command line.
"""

import importlib.util
from pathlib import Path

import ptbundle.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_certify_counts_one_holonomy(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = ptbundle.cli.run(["certify", "--format", "json", "--", "LR"])
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    assert tracer.counters["holonomy.solve_traces.triples"] == 1
    assert tracer.counters["certify.solutions"] == 1
