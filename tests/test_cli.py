"""Tests for the command-line front end and the factored display."""

import json
from pathlib import Path

import numpy as np
import pytest

import ptbundle.certify
import ptbundle.cli
from ptbundle import holonomy
from ptbundle.cli import (
    CliConfig,
    deflate_at_one,
    factored_display,
    format_int_poly,
    run,
)
from ptbundle.numeric import Tolerances, char_poly

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"

SL4_LLRR = "-(t - 1)^5 (t^2 - 18t + 1)^2 " \
    "(t^6 - 114t^5 - 17t^4 - 316t^3 - 17t^2 - 114t + 1)"
GL16_RRL = "(t - 1)^4 (t^2 - 4t + 1) (t^4 - 18t^3 + 90t^2 - 18t + 1) " \
    "(t^6 - 38t^5 + 15t^4 - 84t^3 + 15t^2 - 38t + 1)"


def expand(factored_ints):
    out = [1]
    for factor, power in factored_ints:
        for _ in range(power):
            new = [0] * (len(out) + len(factor) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(factor):
                    new[i + j] += a * b
            out = new
    return out


class TestFactoredDisplay:
    def test_deflate_counts_exact_roots(self):
        assert deflate_at_one([1, -2, 1]) == (2, [1])
        assert deflate_at_one([1, -4, 1]) == (0, [1, -4, 1])
        assert deflate_at_one([-1, 1]) == (1, [1])

    def test_format_basics(self):
        assert format_int_poly([1, -18, 1]) == "t^2 - 18t + 1"
        assert format_int_poly([-1, 0, 0, 1], var="x") == "x^3 - 1"
        assert format_int_poly([0]) == "0"
        assert format_int_poly([5, 1]) == "t + 5"

    def test_llrr_adjoint_form(self):
        coeffs = expand([
            ((-1, 1), 5),
            ((1, -18, 1), 2),
            ((1, -114, -17, -316, -17, -114, 1), 1),
        ])
        coeffs = [-c for c in coeffs]
        assert factored_display(coeffs) == SL4_LLRR

    def test_rrl_kronecker_form(self):
        coeffs = expand([
            ((-1, 1), 4),
            ((1, -4, 1), 1),
            ((1, -18, 90, -18, 1), 1),
            ((1, -38, 15, -84, 15, -38, 1), 1),
        ])
        assert factored_display(coeffs) == GL16_RRL

    def test_cube_root_of_unity(self):
        assert factored_display([-1, 0, 0, 1], var="x") == "(x - 1) (x^2 + x + 1)"

    def test_repeated_linear_factor_groups_as_power(self):
        assert factored_display([1, 2, 1]) == "(t + 1)^2"

    def test_constant_polynomial(self):
        assert [factored_display([c]) for c in (1, -1, 3)] == ["1", "-1", "3"]

    def test_unmatched_polynomial_falls_back(self):
        # no factor of degree <= 6 divides this one
        assert factored_display([2, 0, 0, 0, 0, 0, 0, 0, 1]) is None

    def test_reassembly_is_verified(self):
        # a corrupted list must never produce a pretty-printed lie
        coeffs = expand([((-1, 1), 5), ((1, -18, 1), 2)])
        coeffs[3] += 1
        out = factored_display(coeffs)
        if out is not None:
            assert "(t - 1)^5" not in out or "353" in out


class TestConfig:
    def _base(self, **overrides):
        fields = dict(
            command="certify",
            monodromy="LLRR",
            input_path=None,
            tolerances=Tolerances(),
            reps=("sl4",),
            fmt="text",
            output=None,
        )
        fields.update(overrides)
        return CliConfig(**fields)

    def test_valid_config(self):
        assert self._base().monodromy == "LLRR"

    def test_two_input_sources_rejected(self):
        with pytest.raises(ValueError, match="input source"):
            self._base(input_path="x.json")

    def test_no_input_source_rejected(self):
        with pytest.raises(ValueError, match="input source"):
            self._base(monodromy=None)

    def test_nonpositive_tolerance_rejected(self):
        for value in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol-root"):
                self._base(tolerances=Tolerances(root=value))


class TestExitCodes:
    def test_bad_monodromy_token_names_it(self, capsys):
        assert run(["certify", "LRQ"]) == 2
        assert "'Q'" in capsys.readouterr().err

    def test_non_hyperbolic_is_input_error(self, capsys):
        assert run(["trace-solve", "L"]) == 2
        assert "hyperbolic" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert run(["alexander", "no-such-file.json"]) == 2
        assert "no-such-file.json" in capsys.readouterr().err

    def test_bad_reps_token_named(self, capsys):
        assert run(["certify", "LLRR", "--reps", "sl4,what"]) == 2
        assert "'what'" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["certify", "LLRR", "--frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["alexander", "--seed", "3", "presentations/trefoil_heusener.json"],
        ["alexander", "--starts", "5", "presentations/trefoil_heusener.json"],
        ["alexander", "--solution", "0", "presentations/trefoil_heusener.json"],
        ["alexander", "--tol-null", "1e-5", "presentations/trefoil_heusener.json"],
        ["trace-solve", "--tol-det", "1e-3", "RRL"],
        ["trace-solve", "--tol-root", "1e-3", "RRL"],
        ["holonomy", "--tol-det", "1e-3", "RRL"],
        ["holonomy", "--tol-root", "1e-3", "RRL"],
    ])
    def test_flag_the_subcommand_ignores_is_unknown(self, argv, capsys):
        assert run(argv) == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["alexander", "--seed", "3", "presentations/trefoil_heusener.json"], "--seed"),
        (["trace-solve", "--tol-det", "1e-8", "--", "LR"], "--tol-det"),
        # the trace solve has no random starts to seed, count or pick from
        (["certify", "--seed", "3", "RRL"], "--seed"),
        (["trace-solve", "--starts", "5", "RRL"], "--starts"),
        (["holonomy", "--solution", "0", "RRL"], "--solution"),
    ])
    def test_unknown_flag_is_named_without_its_value(self, argv, flag, capsys):
        # argparse takes the flag's value for the positional argument
        assert run(argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"error: unrecognized arguments: {flag}")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_nonfinite_tolerance_flags_exit_two(self, capsys):
        for flag, value in (("--tol-det", "nan"), ("--tol-null", "inf")):
            assert run(["certify", flag, value, "--", "RRL"]) == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--format", "json"]])
    def test_no_solutions_is_numerical_failure(self, extra, capsys):
        # all four flat starts of L^15R converge to characters whose shapes
        # do not lie in one half-plane
        assert run(["trace-solve", *extra, "L^15R"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: no start reached a positively oriented "
                              "fixed point of the letter maps (4 of 4 converged")
        assert "best residual" in err

    def test_stalled_starts_report_no_converged_start(self, monkeypatch, capsys):
        # when no start converges within the iteration cap, the word exits 3
        # with the cause on stderr and nothing on stdout
        monkeypatch.setattr(holonomy, "_MAX_ITER", 2)
        assert run(["certify", "--format", "json", "--", "LRLRLR"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: no start reached a positively oriented "
                              "fixed point of the letter maps (0 of 4 converged")

    def test_corpus_words_that_certify_exit_zero(self, capsys):
        for word in ("LR", "LLR", "LRR", "LLRR", "LLLLR", "LRRRR", "LLRRLR", "LLLRRLR"):
            assert run(["certify", "--", word]) == 0, word
        capsys.readouterr()

    def test_trivial_character_aborts_no_word(self, capsys):
        # Many starts of these words' trace systems fall into the trivial
        # character (0, 0, 0), whose lift has no unique meridian
        # intertwiner; a root kept there would abort the whole word.
        for word in ("LLLLRR", "LLRLLR", "LLRRRR", "LRLRLR", "LRRLRR", "LLLLRLR", "LLLRLRR",
                     "LLRLLRR", "LLRLRLR", "LLRLRRR", "LLRRLRR", "LRLRLRR", "LLRLRRLR"):
            assert run(["certify", "--", word]) in (0, 3, 4), word
            assert "not unique across sign lifts" not in capsys.readouterr().err, word

    def test_all_inconclusive_exits_four(self, capsys):
        # a root tolerance below the double-precision storage noise makes
        # the multiplicity counter stop immediately, so nothing fires
        code = run(["certify", "RRL", "--reps", "sl4", "--tol-root", "1e-16",
                    "--format", "json"])
        assert code == 4
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "inconclusive"
        for sol in data["solutions"]:
            assert sol["evidence"]["sl4"]["multiplicity"] != 5


class TestSubcommands:
    def test_certify_text(self, capsys):
        assert run(["certify", "RRL"]) == 0
        out = capsys.readouterr().out
        assert "overall verdict: rigid-rel-cusp" in out
        assert GL16_RRL in out
        assert "certificates: sl4-multiplicity-5, v-multiplicity-3, " \
            "gl16-multiplicity-4" in out

    def test_certify_json(self, capsys):
        assert run(["certify", "RRL", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["monodromy"] == "RRL"
        assert data["verdict"] == "rigid-rel-cusp"
        assert len(data["solutions"]) == 1

    def test_trace_solve_json(self, capsys):
        assert run(["trace-solve", "LLRR", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace"] == 6
        assert len(data["solutions"]) == 1
        assert data["solutions"][0]["shape_margin"] == pytest.approx(0.5)
        for sol in data["solutions"]:
            assert len(sol["traces"]) == 3

    def test_holonomy_shapes(self, capsys):
        assert run(["holonomy", "RRL", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        sol = data["solutions"][0]
        assert len(sol["sl2"]["a"]) == 2
        assert len(sol["so31"]["x"]) == 4
        assert sol["residuals"]["relation_a"] < 1e-10

    def test_tol_null_reaches_the_central_meridian_decision(self, monkeypatch):
        seen = []
        original = holonomy.holonomy_residuals

        def record(images, endo, *, null_tol):
            seen.append(null_tol)
            return original(images, endo, null_tol=null_tol)

        monkeypatch.setattr(ptbundle.cli, "holonomy_residuals", record)
        monkeypatch.setattr(ptbundle.certify, "holonomy_residuals", record)
        for command in ("holonomy", "certify"):
            assert run([command, "--tol-null", "1e-10", "--", "LLRR"]) == 0
        assert seen == [1e-10, 1e-10]

    def test_action_json_structure(self, capsys):
        assert run(["action", "RRL", "--reps", "sl4,v", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        reps = data["solutions"][0]["representations"]
        assert set(reps) == {"sl4", "v"}
        assert reps["sl4"]["kernel_dimension"] == 15
        assert reps["v"]["kernel_dimension"] == 9
        assert len(reps["sl4"]["action_matrix"]) == 30
        assert reps["sl4"]["multiplicity_at_one"] == 5
        assert reps["v"]["relative_char_poly_integer"] == [
            1, -41, 132, -244, 350, -350, 244, -132, 41, -1
        ]

    def test_action_char_poly_of_real_action_is_real(self, capsys):
        # The cocycle action of a real representation is real float128;
        # its characteristic polynomial keeps that precision and comes out
        # with exactly real coefficients.  The printed action matrix cast
        # to complex128 gives the same real parts.
        assert run(["action", "--format", "json", "--", "RRL"]) == 0
        data = json.loads(capsys.readouterr().out)
        for rep in data["solutions"][0]["representations"].values():
            coeffs = rep["action_char_poly"]["coefficients"]
            assert all(im == 0.0 for _, im in coeffs)
            matrix = np.array([[re + 1j * im for re, im in row]
                               for row in rep["action_matrix"]])
            _, cast = char_poly(matrix).dense()
            scale = max(abs(c) for c in cast)
            assert len(cast) == len(coeffs)
            assert max(abs(re - c.real) for (re, _), c in zip(coeffs, cast)) <= 1e-9 * scale

    def test_action_text_shows_factored_poly(self, capsys):
        assert run(["action", "RRL", "--reps", "gl16"]) == 0
        out = capsys.readouterr().out
        assert "kernel dimension 17" in out
        assert "multiplicity 5 at t=1" in out

    def test_alexander_heusener_file(self, capsys):
        assert run(["alexander", str(PRESENTATIONS / "trefoil_heusener.json"),
                    "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["integer_quotient"] == [-1, 0, 0, 1]
        assert data["dimension"] == 3

    def test_alexander_trivial_file_reports_fraction(self, capsys):
        assert run(["alexander",
                    str(PRESENTATIONS / "trefoil_trivial.json")]) == 0
        out = capsys.readouterr().out
        assert "not exact" in out
        assert "(x^2 + x + 1) (x^2 - x + 1)" in out

    def test_alexander_constant_numerator(self, tmp_path, capsys):
        # no relators: the Fox minor is 0 x 0, so the numerator is 1
        path = tmp_path / "free.json"
        path.write_text(json.dumps({
            "generators": ["a"],
            "relators": [],
            "abelianization": [1],
            "representation": {"a": [[[2, 0]]]},
        }))
        assert run(["alexander", str(path)]) == 0
        assert "  numerator:   1\n" in capsys.readouterr().out

    def test_alexander_without_representation(self, tmp_path, capsys):
        path = tmp_path / "norep.json"
        path.write_text(json.dumps({
            "generators": ["a", "b"],
            "relators": ["aaBBB"],
            "abelianization": [3, 2],
        }))
        assert run(["alexander", str(path)]) == 2
        assert "representation" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "JSON object"),
        ('{"generators": ["a", "b"], "relators": ["aaBBB"], '
         '"abelianization": [3.9, 2]}', "integers"),
        ('{"generators": ["a", "b"], "relators": ["aaBBB"], '
         '"abelianization": [3, 2], '
         '"representation": {"a": [[[1, 0]]], "b": [[[2, 0]]]}}',
         "relator 0 (a^2B^3): relative defect 8.750e-01"),
        ('{"generators": 5, "relators": [], "abelianization": [1]}', "generators"),
        ('{"generators": ["a", 7], "relators": ["aB"], "abelianization": [1, 1]}',
         "generators"),
        ('{"generators": ["a", "a"], "relators": ["aA"], "abelianization": [1, 1], '
         '"representation": {"a": [[[2, 0]]]}}', "generators"),
        ('{"generators": ["ab"], "relators": [], "abelianization": [1], '
         '"representation": {"ab": [[[2, 0]]]}}', "generators"),
        ('{"generators": ["a", "b"], "relators": [5], "abelianization": [1, 1]}',
         "relators"),
        ('{"generators": ["a", "b"], "relators": "aaBBB", "abelianization": [3, 2]}',
         "relators"),
    ])
    def test_alexander_malformed_file(self, tmp_path, capsys, text, problem):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["alexander", str(path)]) == 2
        assert problem in capsys.readouterr().err

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert run(["trace-solve", "RRL", "--format", "json",
                    "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["monodromy"] == "RRL"


    def test_solution_filter(self, capsys):
        # the solve keeps the holonomy alone: the JSON solutions list and
        # the bare "solution N" lines of the action text hold index 0 only
        assert run(["trace-solve", "LLLLR", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [sol["index"] for sol in data["solutions"]] == [0]
        assert run(["action", "LLLLR", "--reps", "sl4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("solution")] == ["solution 0"]
        # every monodromy subcommand keeps the envelope the benchmark parses:
        # one JSON solution with index 0, one text line starting "solution 0"
        for command in ("certify", "trace-solve", "holonomy", "action"):
            assert run([command, "RRL", "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert [sol["index"] for sol in data["solutions"]] == [0]
            assert run([command, "RRL"]) == 0
            lines = capsys.readouterr().out.splitlines()
            (line,) = [line for line in lines if line.startswith("solution")]
            assert line.startswith("solution 0"), command

    def test_solution_filter_out_of_range(self, capsys):
        # no subcommand picks a solution: --solution is an unknown flag
        # for every index, in range or not, and nothing reaches stdout
        for command in ("certify", "trace-solve", "holonomy", "action"):
            for index in ("0", "99"):
                assert run([command, "LLRR", "--solution", index]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.splitlines()[-1].endswith("unrecognized arguments: --solution")

class TestNegatedWords:
    @pytest.mark.parametrize("command", ["certify", "trace-solve"])
    def test_leading_minus_parses_as_word(self, command, capsys):
        codes, outputs = [], []
        for argv in ([command, "-RRL"], [command, "--", "-RRL"]):
            codes.append(run(argv))
            outputs.append(capsys.readouterr().out)
        assert codes[0] == codes[1] != 2
        assert outputs[0] == outputs[1]
        assert "monodromy -RRL" in outputs[0]


class TestDeterminism:
    def test_identical_flags_identical_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert run(["certify", "RRL", "--format", "json",
                        "--output", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name", ["trefoil_heusener", "trefoil_trivial"])
    def test_alexander_json_repeats_byte_identical(self, tmp_path, name):
        targets = [tmp_path / "a.json", tmp_path / "b.json"]
        for target in targets:
            assert run(["alexander", str(PRESENTATIONS / f"{name}.json"),
                        "--format", "json", "--output", str(target)]) == 0
        assert targets[0].read_bytes() == targets[1].read_bytes()
