import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gnumsd import cli, protocols, verify
from gnumsd.cli import main, parse_angle
from gnumsd.codes import GnuParams
from gnumsd.engine import InputEnsemble
from gnumsd.oracle import build_rho_n, project_and_decode


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/8", 3 * math.pi / 8),
            ("-7pi/8", -7 * math.pi / 8),
            ("2*pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
            ("1.5708", 1.5708),
            ("0", 0.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("onepi")

    @pytest.mark.parametrize("text", ["pi/0", "3pi/0.0", "-pi/0"])
    def test_rejects_zero_divisor(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)

    @pytest.mark.parametrize(
        "argv, flag",
        [("distill --v pi/0", "--v"), ("magic-curve --grid-step pi/0", "--grid-step")],
    )
    def test_zero_divisor_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"argument {flag}: zero divisor in angle 'pi/0'\n")


class TestNegativeValues:
    """A negative value may follow its flag after a space or an '='."""

    @pytest.mark.parametrize(
        "flags",
        [["--theta", "-pi/4"], ["--theta=-pi/4"], ["--theta", "-7pi/8"], ["--th", "-PI/4"]],
    )
    def test_negative_angle_exits_0(self, flags, capsys):
        assert main(["distill", "--v", "0.3", *flags]) == 0
        theta = -7 * math.pi / 8 if "-7pi/8" in flags else -math.pi / 4
        assert json.loads(capsys.readouterr().out)["theta"] == float(format(theta, ".12g"))

    @pytest.mark.parametrize("flags", [["--v", "-1e-13"], ["--v=-1e-13"]])
    def test_negative_rounding_of_v_exits_0(self, flags, capsys):
        assert main(["distill", *flags]) == 0
        v = json.loads(capsys.readouterr().out)["v"]
        assert v == 0.0 and math.copysign(1.0, v) == 1.0

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1e-3", "v must lie in [0, pi/2], got -0.001"),
            ("-inf", "ensemble parameters must be finite"),
        ],
    )
    def test_negative_value_out_of_range_exits_2(self, value, message, capsys):
        assert main(["distill", "--v", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gnumsd: invalid input: {message}\n"

    def test_console_argv(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gnumsd.cli", "distill", "--v", "0.3", "--theta", "-pi/4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["theta"] == float(format(-math.pi / 4, ".12g"))


DATA = Path(__file__).parent / "data"


def reference_args(command):
    """(reference name, flags), one per line of tests/data/<command>.args."""
    lines = (DATA / f"{command}.args").read_text().splitlines()
    return [tuple(line.split(" ", 1)) for line in lines]


LARGE_DISTILL = reference_args("distill")
SOLVES = reference_args("solve")


class TestDistill:
    def test_hand_point_record(self, capsys):
        code = main(
            "distill --g 1 --n 1 --u 2 --v 0.785398163397448 --theta 0 --eps 0 --format json".split()
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ps"] == pytest.approx(0.75, abs=1e-10)
        assert record["a"] == pytest.approx(0.25, abs=1e-10)
        assert record["b"] == pytest.approx(0.5, abs=1e-10)
        assert record["c_re"] == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-10)
        assert record["rho01_im"] == -record["rho10_im"]

    def test_negative_zero_inputs_echo_positive_zeros(self, capsys):
        assert main("distill --v -0 --eps -0".split()) == 0
        out = capsys.readouterr().out
        assert out == (
            '{\n  "g": 1,\n  "n": 1,\n  "u": 2.0,\n  "v": 0.0,\n  "theta": 0.0,\n'
            '  "eps": 0.0,\n  "a": 1.0,\n  "b": 0.0,\n  "c_re": 0.0,\n  "c_im": 0.0,\n'
            '  "ps": 1.0,\n  "rho00": 1.0,\n  "rho11": 0.0,\n  "rho01_re": 0.0,\n'
            '  "rho01_im": 0.0,\n  "rho10_re": 0.0,\n  "rho10_im": -0.0,\n  "m2": 0.0\n}\n'
        )
        record = json.loads(out)
        assert math.copysign(1.0, record["v"]) == math.copysign(1.0, record["eps"]) == 1.0

    def test_codeword_point(self, capsys):
        assert main("distill --v 0 --theta 0 --eps 0".split()) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ps"] == 1.0
        assert record["m2"] == 0.0

    def test_u5_matches_dense_oracle(self, capsys):
        assert main("distill --g 1 --n 1 --u 5 --v 0.4 --theta pi/8 --eps 0.05".split()) == 0
        record = json.loads(capsys.readouterr().out)
        ens = InputEnsemble(0.4, math.pi / 8, 0.05)
        dense = project_and_decode(build_rho_n(ens, 5), GnuParams(1, 1, 5))
        assert record["a"] == pytest.approx(dense.w00, abs=1e-10)
        assert record["b"] == pytest.approx(dense.w11, abs=1e-10)
        assert record["c_im"] == pytest.approx(dense.w01.imag, abs=1e-10)

    def test_validation_failure_exits_2(self, capsys):
        assert main("distill --v 2.0 --theta 0 --eps 0".split()) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "distill --u inf --v 0.1",
            "solve --u inf --target XT",
            "threshold --protocol gnu --target XT --u inf",
            "magic-curve --u inf",
        ],
    )
    def test_non_finite_code_exits_2(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnumsd: invalid input: u must be finite, got inf\n"

    @pytest.mark.parametrize("flag", ["g", "n"])
    def test_code_too_large_for_a_float_exits_2(self, flag, capsys):
        # A 401-digit integer, which argparse's int accepts and a float cannot hold.
        argv = "distill --g 1 --n 1 --u 1 --v 0.1 --theta 0 --eps 0".split()
        argv[argv.index(f"--{flag}") + 1] = "1" + "0" * 400
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gnumsd: invalid input: {flag} is too large for a float\n"

    def test_huge_code_echoes_a_short_n(self, capsys):
        # N = g*n*u rounds to a 301-digit integer; the message gives it in short form.
        assert main("threshold --target T --u 1e300".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnumsd: invalid input: N = g*n*u = 1e+300 exceeds the cap of 60\n"

    def test_numeric_domain_failure_exits_3(self, capsys):
        assert main("distill --v 0 --theta 0 --eps 1".split()) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--target custom", "--target custom requires --custom-state c0re,c0im,c1re,c1im"),
            ("--target T --custom-state 1,0,0,0", "--custom-state applies to --target custom only"),
        ],
        ids=["custom-without-state", "state-without-custom"],
    )
    def test_target_flags_are_read_before_projecting(self, flags, message, capsys):
        # At a zero-weight point a bad target flag is still a usage error, not a refusal.
        assert main(f"distill --g 1 --n 1 --u 12 --v pi/2 {flags}".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gnumsd: invalid input: {message}\n"

    def test_target_distance_included(self, capsys):
        assert main("distill --v 0 --theta 0 --eps 0 --target T".split()) == 0
        record = json.loads(capsys.readouterr().out)
        assert "trace_distance_to_target" in record

    @pytest.mark.parametrize("name, args", LARGE_DISTILL, ids=[name for name, _ in LARGE_DISTILL])
    def test_large_one_point_codes_match_the_reference_bytes(self, name, args, capsys):
        # The one-point kernel on g*n up to 60, at eps near 0 and 1, and on a
        # point whose coherence cancels to 1e-32, where a last-bit change in
        # the kernel shows: stdout, zero signs included, equals the committed
        # reference byte for byte.
        assert main(["distill", *args.split()]) == 0
        assert capsys.readouterr().out == (DATA / f"{name}.out").read_text()

    def test_csv_format_single_row(self, capsys):
        assert main("distill --v 0 --theta 0 --eps 0 --format csv".split()) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("g,n,u,v,theta,eps,a,b,")


class TestFigure:
    def test_unknown_id_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main("figure --id nope".split())
        assert excinfo.value.code == 2

    def test_dataset_written_atomically_and_deterministically(self, tmp_path):
        out1 = tmp_path / "fig4_a.csv"
        out2 = tmp_path / "fig4_b.csv"
        assert main(["figure", "--id", "4", "--grid-step", "0.01", "--out", str(out1)]) == 0
        assert main(["figure", "--id", "4", "--grid-step", "0.01", "--out", str(out2)]) == 0
        first = out1.read_bytes()
        assert first == out2.read_bytes()
        assert first.startswith(b"eps,E_T,E_H\n")
        assert b"\r" not in first
        assert len(first.decode().strip().split("\n")) == 52
        assert not list(tmp_path.glob(".gnumsd-*"))

    @pytest.mark.parametrize(
        "argv",
        [
            "figure --id 2b --grid-step 0",
            "figure --id 4 --grid-step -0.1",
            "magic-curve --grid-step 0",
            # Steps too small to grid are refused before any point is counted.
            "magic-curve --grid-step 5e-324",
            "figure --id 1c --grid-step 1e-310",
            "magic-curve --grid-step 1e-300",
        ],
    )
    def test_bad_grid_step_exits_2(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gnumsd: invalid input: grid step" in captured.err

    def test_step_that_does_not_divide_the_range_stays_inside_it(self, capsys):
        assert main("figure --id 4 --grid-step 0.3".split()) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.3"]

    def test_magic_dataset_columns(self, tmp_path):
        out = tmp_path / "fig1c.csv"
        assert main(["figure", "--id", "1c", "--grid-step", "pi/50", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v,M2_u2,M2_u3,M2_u4"
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]

    def test_error_dataset_columns(self, tmp_path):
        out = tmp_path / "fig2b.csv"
        assert main(["figure", "--id", "2b", "--grid-step", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,E_u2,E_u3,E_u4,E_bk"
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == 0.5

    def test_composition_dataset_columns(self, tmp_path):
        out = tmp_path / "fig3b.csv"
        assert main(["figure", "--id", "3b", "--grid-step", "0.02", "--out", str(out)]) == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == "eps,E_combined_T,E_combined_H,E_bk_T,E_bk_H"


class TestThresholdCommand:
    def test_bk_t(self, capsys):
        assert main("threshold --protocol bk --target T".split()) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["curve"] == "bk-T"
        assert abs(record["threshold"] - 0.1727) < 1e-3
        assert record["certified_at_half"] is False

    def test_gnu_certified(self, capsys):
        assert main("threshold --protocol gnu --target XT --g 1 --n 1 --u 2".split()) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["threshold"] == 0.5
        assert record["certified_at_half"] is True

    @pytest.mark.parametrize(
        "protocol, target", [("bk", "XT"), ("combined", "XH")], ids=["bk-XT", "combined-XH"]
    )
    def test_reference_round_requires_plain_target(self, protocol, target, capsys):
        assert main(["threshold", "--protocol", protocol, "--target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: reference rounds exist for targets T and H, got '{target}'\n"
        )

    @pytest.mark.parametrize(
        "flags, ignored",
        [
            ("--protocol bk --target T --g 3 --u 7", "--g, --u"),
            ("--protocol combined --target H --u 4", "--u"),
            ("--protocol bk --target H --n 1", "--n"),
            ("--protocol combined --target T --g 1 --n 1 --u 2", "--g, --n, --u"),
        ],
        ids=["bk-g-u", "combined-u", "bk-n", "combined-defaults-spelt-out"],
    )
    def test_reference_round_refuses_code_flags(self, flags, ignored, capsys):
        protocol = flags.split()[1]
        assert main(["threshold", *flags.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: --protocol {protocol} has fixed codes and ignores "
            f"{ignored}; the code flags apply to --protocol gnu only\n"
        )

    @pytest.mark.parametrize(
        "protocol, target, curve, threshold",
        [("bk", "T", "bk-T", "0.172673168182"), ("combined", "H", "combined-H", "0.198412227631")],
        ids=["bk-T", "combined-H"],
    )
    def test_reference_round_without_code_flags(self, protocol, target, curve, threshold, capsys):
        assert main(["threshold", "--protocol", protocol, "--target", target]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "{\n"
            f'  "curve": "{curve}",\n'
            f'  "threshold": {threshold},\n'
            '  "kind": "fixed_point",\n'
            '  "certified_at_half": false,\n'
            '  "bracket_width": 7.6293945328e-09,\n'
            '  "evaluations": 517\n'
            "}\n"
        )


class TestSolveCommand:
    def test_repetition_code_table(self, capsys):
        assert main("solve --g 2 --n 1 --u 1 --target H --format csv".split()) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "v,theta,residual,input_magic"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        v_exact = math.atan(1 / math.sqrt(1 + math.sqrt(2)))
        assert any(abs(r[0] - v_exact) < 1e-6 and abs(r[1]) < 1e-6 for r in rows)

    def test_custom_target(self, capsys):
        argv = "solve --g 1 --n 1 --u 2 --target custom --custom-state 1,0,0,0".split()
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["solutions"][0]["v"] == pytest.approx(0.0, abs=1e-9)

    def test_custom_target_requires_state(self, capsys):
        assert main("solve --g 1 --n 1 --u 2 --target custom".split()) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            "distill --v 0.3 --target T --custom-state 1,0,0,0",
            "distill --v 0.3 --custom-state 1,0,0,0",
            "solve --target XT --custom-state 1,0,0,0",
        ],
    )
    def test_custom_state_needs_the_custom_target(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnumsd: invalid input: --custom-state applies to --target custom only\n"
        )

    @pytest.mark.parametrize("name, args", SOLVES, ids=[name for name, _ in SOLVES])
    def test_solutions_match_the_reference_bytes(self, name, args, capsys):
        # Each confirmed root's residual and input magic, as csv and json:
        # stdout equals the committed reference byte for byte, so a
        # last-bit change in the eps = 0 point or the audit shows.
        assert main(["solve", *args.split()]) == 0
        assert capsys.readouterr().out == (DATA / f"{name}.out").read_text()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, tol, capsys):
        assert main(["solve", "--target", "XT", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: tol must be a finite number of at least 1e-10, got {tol}\n"
        )


class TestMagicCurveCommand:
    def test_csv_shape(self, capsys):
        assert main("magic-curve --g 1 --n 1 --u 2 --theta pi/4 --grid-step pi/100".split()) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "v,M2"
        assert len(lines) == 52

    def test_step_that_does_not_divide_the_range_stays_inside_it(self, capsys):
        argv = "magic-curve --g 1 --n 1 --u 2 --theta pi/4 --grid-step 1".split()
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines] == ["v", "0", "1"]


class TestComposeCommand:
    def test_record_fields(self, capsys):
        assert main("compose --eps 0.1 --target T".split()) == 0
        record = json.loads(capsys.readouterr().out)
        assert 0 < record["error_total"] < record["eps"]
        assert 0 < record["error_stage_a"] < record["eps"]

    def test_negative_zero_eps_echoes_the_eps_evaluated(self, capsys):
        assert main("compose --eps -0 --target T".split()) == 0
        out = capsys.readouterr().out
        assert out == (
            '{\n  "target": "T",\n  "eps": 0.0,\n  "error_stage_a": 9.71445146547e-17,\n'
            '  "error_total": 4.71852836375e-32\n}\n'
        )
        assert math.copysign(1.0, json.loads(out)["eps"]) == 1.0

    @pytest.mark.parametrize(
        "eps, message",
        [("1.5", "eps must lie in [0, 1], got 1.5"), ("nan", "ensemble parameters must be finite")],
    )
    def test_bad_eps_message(self, eps, message, capsys):
        assert main(["compose", "--eps", eps, "--target", "T"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gnumsd: invalid input: {message}\n"

    @pytest.mark.parametrize("eps", ["0.9", "1.0"])
    def test_refuses_a_bk_h_total_above_one(self, eps, capsys):
        # bk_h_error exceeds 1 for inputs above ~0.86859, which stage A
        # passes at eps ~0.86654: the record would hold an error above 1.
        stage_a, total = protocols.compose_errors(float(eps), "H")
        assert total > 1.0
        assert main(["compose", "--eps", eps, "--target", "H"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: the bk-H round maps the stage-A error {stage_a!r} "
            f"to {total!r}, outside [0, 1]\n"
        )

    def test_h_below_the_refusal_keeps_its_record(self, capsys):
        assert main("compose --eps 0.3 --target H".split()) == 0
        assert capsys.readouterr().out == (
            '{\n  "target": "H",\n  "eps": 0.3,\n  "error_stage_a": 0.259151088362,\n'
            '  "error_total": 0.460578558353\n}\n'
        )

    def test_stage_a_evaluated_once(self, capsys, monkeypatch):
        calls = []
        real = protocols.max_error
        monkeypatch.setattr(
            protocols, "max_error", lambda *args: calls.append(args) or real(*args)
        )
        assert main("compose --eps 0.05 --target H --format csv".split()) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestVerifyCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "oracle-equivalence: PASS" in out
        assert "circuit-equivalence: PASS" in out
        assert "closed-form-reconciliation: PASS" in out


class TestSingleOutputPath:
    """`main` renders each command's result and writes it with one `_emit` call."""

    @pytest.fixture
    def emits(self, monkeypatch):
        calls = []
        real = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda text, out: calls.append(out) or real(text, out))
        return calls

    def run_twice(self, argv, status, emits, tmp_path, capsys):
        """stdout of argv, after checking that --out FILE gets the same bytes."""
        assert main(argv) == status
        stdout = capsys.readouterr().out
        out = tmp_path / "result"
        assert main([*argv, "--out", str(out)]) == status
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()
        assert emits == [None, str(out)]
        return stdout

    @pytest.mark.parametrize(
        "argv",
        [
            "compose --eps 0.1 --target T",
            "distill --v 0.3 --eps 0.1 --format csv",
            "figure --id 4 --grid-step 0.05",
            "solve --g 1 --n 1 --u 2 --target custom --custom-state 1,0,0,0",
            "solve --g 1 --n 1 --u 2 --target custom --custom-state 1,0,0,0 --format csv",
            "verify",
        ],
        ids=["json-record", "one-row-csv", "table", "solve-json", "solve-csv", "verify-report"],
    )
    def test_out_file_gets_the_stdout_bytes(self, argv, emits, tmp_path, capsys):
        assert self.run_twice(argv.split(), 0, emits, tmp_path, capsys)

    def test_failing_verify_writes_its_report_and_exits_1(
        self, monkeypatch, emits, tmp_path, capsys
    ):
        report = (
            "oracle-equivalence: FAIL (max deviation 1.000e+00)\n"
            "verification: FAILURES detected"
        )
        monkeypatch.setattr(verify, "run_verification", lambda: (False, report))
        assert self.run_twice(["verify"], 1, emits, tmp_path, capsys) == report + "\n"

    def test_refusal_writes_nothing(self, emits, capsys):
        assert main("distill --v 0 --theta 0 --eps 1".split()) == 3
        assert capsys.readouterr().out == ""
        assert emits == []


class TestUnwritableOut:
    """An --out path that cannot be written exits 2 and leaves no temporary file."""

    @pytest.mark.parametrize("argv", [["distill", "--v", "0.3"], ["verify"]])
    def test_missing_directory_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: cannot write {out}: No such file or directory\n"
        )
        assert list(tmp_path.rglob(".gnumsd-*.tmp")) == []

    def test_directory_target_removes_the_temporary_file(self, tmp_path, capsys):
        # The temporary file is written beside the target; os.replace then fails.
        out = tmp_path / "dir"
        out.mkdir()
        assert main(["distill", "--v", "0.3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gnumsd: invalid input: cannot write {out}: Is a directory\n"
        )
        assert list(tmp_path.rglob(".gnumsd-*.tmp")) == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gnumsd.cli", "distill", "--v", "0", "--theta", "0", "--eps", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ps"] == 1.0

    def test_import_leaves_the_verification_modules_unloaded(self):
        # Only `verify` needs them, and it imports them when it runs.
        script = (
            "import sys, gnumsd.cli\n"
            "print('gnumsd.engine' in sys.modules, sorted(m for m in sys.modules if m in "
            "('gnumsd.oracle', 'gnumsd.closed_forms', 'gnumsd.verify')))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True []\n"
