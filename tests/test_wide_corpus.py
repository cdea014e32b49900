"""Coverage past the benchmark corpus: every word ends in a report or a named failure.

The wide corpus is seeded and fixed, so a word never moves between runs:
30 words each of lengths 8, 10, 12, 15 and 20, then 10 of length 30,
drawn in that order from ``random.Random(7)``, uniform in {L, R}, with
both letters present and no run of 15 or more equal letters; their
negations; and L^kR for k = 15, 20 and 30.  The test runs
``certify --format json`` on the first five words of each group but the
two of length 30, and asserts what must hold for every word: exit 0, 3
or 4, never a traceback, ``numerical failure:`` on every exit 3, and a
reason in every exit-4 report.  A word of length 20 costs about 60 ms and
one of length 30 about 3 s (x86-64), so the words of length 30 run only
when this file runs as a script, which prints the table of exit codes of
every group and, given a path, writes ``{word: exit code}`` there as JSON,
so that the runs of two checkouts can be diffed word by word:

    PYTHONPATH=src python tests/test_wide_corpus.py [codes.json]
"""

import contextlib
import io
import json
import random
import sys
import time

import pytest

from ptbundle.cli import run

LENGTHS = ((8, 30), (10, 30), (12, 30), (15, 30), (20, 30), (30, 10))

# The groups the test leaves to the script, for their cost.
UNSAMPLED = ("random, length 30", "random, length 30, negated")


def wide_corpus() -> dict[str, list[str]]:
    """The word groups, by name, in the order they are drawn."""
    rng = random.Random(7)
    groups = {}
    for length, count in LENGTHS:
        words = []
        while len(words) < count:
            word = "".join(rng.choice("LR") for _ in range(length))
            if "L" in word and "R" in word and "L" * 15 not in word and "R" * 15 not in word:
                words.append(word)
        groups[f"random, length {length}"] = words
    for length, _ in LENGTHS:
        groups[f"random, length {length}, negated"] = [
            "-" + word for word in groups[f"random, length {length}"]]
    groups["L^kR, k = 15, 20, 30"] = ["L^15R", "L^20R", "L^30R"]
    return groups


def certify_call(word: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``certify --format json -- word``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["certify", "--format", "json", "--", word])
    return code, out.getvalue(), err.getvalue()


def problems(word: str, code: int, stdout: str, stderr: str) -> list[str]:
    """What breaks the exit-code contract in one call's outcome."""
    found = []
    if code not in (0, 3, 4):
        found.append(f"{word}: exit {code}")
    if "Traceback" in stderr:
        found.append(f"{word}: traceback on stderr")
    if code == 3 and not stderr.startswith("numerical failure: "):
        found.append(f"{word}: exit 3 without a named numerical failure")
    if code == 4:
        (sol,) = json.loads(stdout)["solutions"]
        failed = any(not check["ok"] for check in sol["cross_checks"].values())
        if not (sol["failures"] or failed or not sol["certificates"]):
            found.append(f"{word}: exit 4 without a failure, failed check or missing certificate")
    return found


@pytest.mark.parametrize("words", [pytest.param(words[:5], id=name)
                                   for name, words in wide_corpus().items()
                                   if name not in UNSAMPLED])
def test_every_word_ends_in_a_report_or_a_named_failure(words):
    found = []
    for word in words:
        found += problems(word, *certify_call(word))
    assert found == []


if __name__ == "__main__":
    by_word = {}
    print("| words | exit 0 | exit 3 | exit 4 | ms per word |")
    print("|---|---|---|---|---|")
    for name, words in wide_corpus().items():
        codes, start = [], time.perf_counter()
        for word in words:
            code, stdout, stderr = certify_call(word)
            codes.append(code)
            by_word[word] = code
            for problem in problems(word, code, stdout, stderr):
                print("   ", problem)
        ms = 1000 * (time.perf_counter() - start) / len(words)
        print(f"| {name} | {codes.count(0)} | {codes.count(3)} | {codes.count(4)} | {ms:.0f} |")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as out:
            json.dump(by_word, out, indent=1)
            out.write("\n")
