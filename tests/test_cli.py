"""Tests for the command-line front end and the factored display."""

import json
from pathlib import Path

import pytest

from ptbundle.cli import (
    CliConfig,
    deflate_at_one,
    factored_display,
    format_int_poly,
    run,
)
from ptbundle.numeric import Tolerances

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
            seed=0,
            starts=64,
            reps=("sl4",),
            solution=None,
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

    def test_nonpositive_starts_rejected(self):
        for value in (0, -3):
            with pytest.raises(ValueError, match="--starts"):
                self._base(starts=value)


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

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_nonfinite_tolerance_flags_exit_two(self, capsys):
        for flag, value in (("--tol-det", "nan"), ("--tol-null", "inf"),
                            ("--starts", "0"), ("--seed", "-1")):
            assert run(["certify", flag, value, "--", "RRL"]) == 2
            assert flag in capsys.readouterr().err

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
        assert run(["certify", "RRL", "--solution", "0"]) == 0
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
        assert len(data["solutions"]) == 2

    def test_trace_solve_json(self, capsys):
        assert run(["trace-solve", "LLRR", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace"] == 6
        assert len(data["solutions"]) == 4
        for sol in data["solutions"]:
            assert len(sol["traces"]) == 3

    def test_holonomy_shapes(self, capsys):
        assert run(["holonomy", "RRL", "--solution", "0",
                    "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        sol = data["solutions"][0]
        assert len(sol["sl2"]["a"]) == 2
        assert len(sol["so31"]["x"]) == 4
        assert sol["residuals"]["relation_a"] < 1e-10

    def test_action_json_structure(self, capsys):
        assert run(["action", "RRL", "--reps", "sl4,v", "--solution", "0",
                    "--format", "json"]) == 0
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

    def test_action_text_shows_factored_poly(self, capsys):
        assert run(["action", "RRL", "--reps", "gl16", "--solution", "0"]) == 0
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

    def test_alexander_without_representation(self, tmp_path, capsys):
        path = tmp_path / "norep.json"
        path.write_text(json.dumps({
            "generators": ["a", "b"],
            "relators": ["aaBBB"],
            "abelianization": [3, 2],
        }))
        assert run(["alexander", str(path)]) == 2
        assert "representation" in capsys.readouterr().err

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert run(["trace-solve", "RRL", "--format", "json",
                    "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["monodromy"] == "RRL"

    def test_solution_filter(self, capsys):
        assert run(["trace-solve", "LLRR", "--solution", "3",
                    "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [sol["index"] for sol in data["solutions"]] == [3]

    def test_solution_filter_out_of_range(self, capsys):
        assert run(["trace-solve", "LLRR", "--solution", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


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
            assert run(["certify", "RRL", "--seed", "3", "--format", "json",
                        "--output", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()
