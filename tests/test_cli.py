import json

import pytest

from mvlab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolyVerify:
    def test_quadratic_satisfies(self, capsys):
        code, out, _ = run(capsys, "poly-verify", "--coeffs", "1,2,3", "--lambda", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfies"] is True
        assert payload["residual"] == "0"

    def test_cubic_residual(self, capsys):
        code, out, _ = run(capsys, "poly-verify", "--coeffs", "0,0,0,1", "--lambda", "1/2")
        assert code == 1
        payload = json.loads(out)
        assert payload["satisfies"] is False
        assert payload["residual"] == "(1/4)*(b-a)^3"

    def test_rational_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "poly-verify", "--coeffs", "1/2,-1/3", "--lambda", "9/10"
        )
        assert code == 0


class TestAbscissa:
    def test_exponential(self, capsys):
        code, out, _ = run(capsys, "abscissa", "--fn", "exp(x)", "--a", "0", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["abscissas"][0] == pytest.approx(0.5413249, abs=1e-6)
        assert payload["lambdas"][0] == pytest.approx(0.4586751, abs=1e-6)

    def test_degenerate_affine(self, capsys):
        code, out, _ = run(capsys, "abscissa", "--fn", "2*x+5", "--a", "0", "--b", "1")
        assert code == 0
        assert json.loads(out)["degenerate"] is True

    def test_domain_error_is_exit_3(self, capsys):
        code, _, err = run(capsys, "abscissa", "--fn", "log(x)", "--a", "-1", "--b", "1")
        assert code == 3
        assert "numeric failure" in err


class TestSweep:
    def test_csv_header_and_trailer(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--fn", "exp(x)", "--x0", "0",
            "--hmin", "0.001", "--hmax", "0.1", "--steps", "6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,c,lambda,abs_dev,status"
        assert len(lines) == 8  # header + 6 rows + fit trailer
        assert lines[-1].startswith("# fit: ")
        fit = json.loads(lines[-1].removeprefix("# fit: "))
        assert fit["fitted_order"] == pytest.approx(2.0, abs=0.1)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--fn", "x^2", "--x0", "0",
            "--hmin", "0.001", "--hmax", "0.1", "--steps", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fit"]["fitted_order"] is None
        assert all(row["lambda"] == 0.5 for row in payload["rows"])


class TestCheckers:
    def test_check_midpoint_quadratic(self, capsys):
        code, out, _ = run(
            capsys, "check-midpoint", "--fn", "1+3*x-2*x^2",
            "--a", "-2", "--b", "2", "--trials", "50", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_check_weighted_cubic_violated(self, capsys):
        code, out, _ = run(
            capsys, "check-weighted", "--fn", "x^3", "--lambda", "0.5",
            "--a", "-2", "--b", "2", "--trials", "50", "--seed", "7",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["counterexamples"]

    def test_check_interval(self, capsys):
        code, out, _ = run(
            capsys, "check-interval", "--fn", "x^2", "--lambda", "1/2",
            "--a", "-2", "--b", "2", "--trials", "40", "--seed", "5",
        )
        assert code == 0

    def test_ball_check_violation(self, capsys):
        code, out, _ = run(
            capsys, "ball-check", "--fn", "x^2-y^2", "--dim", "2",
            "--lambda", "0.3", "--v", "1,0", "--trials", "4",
            "--samples", "20000", "--seed", "42",
        )
        assert code == 1
        assert json.loads(out)["counterexamples"]

    def test_sphere_check_holds(self, capsys):
        code, out, _ = run(
            capsys, "sphere-check", "--fn", "x", "--dim", "2",
            "--lambda", "0.3", "--v", "0,1", "--trials", "3",
            "--samples", "10000", "--seed", "42",
        )
        assert code == 0

    def test_laplacian_at_point(self, capsys):
        code, out, _ = run(
            capsys, "laplacian", "--fn", "x^2+y^2", "--dim", "2", "--at", "0.3,0.4"
        )
        assert code == 0
        assert json.loads(out)["laplacian"] == 4.0

    def test_laplacian_checker(self, capsys):
        code, out, _ = run(
            capsys, "laplacian", "--fn", "x^2-y^2", "--dim", "2",
            "--points", "50", "--seed", "3",
        )
        assert code == 0

    def test_laplacian_array_exponent(self, capsys):
        # the x pass keeps y a plain array, so x^y has an array exponent
        code, out, _ = run(
            capsys, "laplacian", "--fn", "x^y", "--dim", "2", "--points", "3",
            "--box", "1,2",
        )
        assert code == 1
        assert json.loads(out)["trials"] == 3

    def test_vderiv_at_point(self, capsys):
        code, out, _ = run(
            capsys, "vderiv", "--fn", "x+y", "--dim", "2", "--v", "0,1",
            "--at", "1,1",
        )
        assert code == 0
        assert json.loads(out)["directional_derivative"] == 1.0

    def test_vderiv_checker_violated(self, capsys):
        code, _, _ = run(
            capsys, "vderiv", "--fn", "x+y", "--dim", "2", "--v", "0,1",
            "--points", "20", "--seed", "3",
        )
        assert code == 1


    @pytest.mark.parametrize("argv", [
        ("laplacian", "--fn", "exp(700*x)", "--dim", "1", "--at", "1.9"),
        ("vderiv", "--fn", "exp(700*x)-exp(700*x)", "--dim", "1", "--v", "1",
         "--at", "1.9"),
        ("laplacian", "--fn", "exp(700*x)-exp(700*x)+y", "--dim", "2",
         "--points", "5", "--box", "1.5,2"),
        ("vderiv", "--fn", "exp(700*x)-exp(700*x)", "--dim", "2", "--v", "1,0",
         "--points", "5", "--box", "1.5,2"),
        ("ball-check", "--fn", "exp(700*x)-exp(700*x)", "--dim", "2",
         "--lambda", "0.5", "--trials", "3", "--samples", "10000",
         "--box", "0.9,1.0", "--seed", "1"),
        # f' overflows on every trial: all residuals were NaN and "holds" was true
        ("check-interval", "--fn", "exp(709*x)", "--lambda", "1/2", "--a", "0.992",
         "--b", "1.0", "--trials", "5"),
        ("check-midpoint", "--fn", "exp(709*x)", "--a", "0.992", "--b", "1.0",
         "--trials", "5"),
        # the squared deviations overflow: stderr was printed as Infinity
        ("ball-check", "--fn", "1e200*x^2", "--dim", "2", "--lambda", "1/2",
         "--trials", "3", "--samples", "10000", "--box=-1,1"),
        # f' is inf on the top of the scan grid; the bisection used to go on
        ("abscissa", "--fn", "exp(709*x)", "--a", "0", "--b", "1"),
        # each pass is finite, their sum overflows: was printed as Infinity
        ("laplacian", "--fn", "0.5e308*x^2 + 0.5e308*y^2", "--dim", "2", "--at", "0,0"),
    ])
    def test_overflow_is_numeric_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "non-finite" in err


class TestLambdaFamily:
    def test_k2(self, capsys):
        code, out, _ = run(capsys, "lambda-family", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == pytest.approx(0.5773503, abs=1e-7)
        assert payload["lambda_left_weight"] == pytest.approx(0.4226497, abs=1e-7)
        assert payload["residual_check"] <= 1e-12

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lambda-family", "--k", "40")
        assert code == 2


class TestParseAndBuiltins:
    def test_parse_canonical(self, capsys):
        code, out, _ = run(capsys, "parse", "--fn", "x^2 + 3*x")
        assert code == 0
        assert json.loads(out)["canonical"] == "((x1^2)+(3*x1))"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--fn", "sin(x")
        assert code == 2
        assert "unclosed parenthesis" in err

    def test_lex_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "parse", "--fn", "x $ y")
        assert code == 2

    def test_builtins_listing(self, capsys):
        code, out, _ = run(capsys, "builtins")
        assert code == 0
        assert "harmonic2d_2" in json.loads(out)["builtins"]

    def test_builtins_expression(self, capsys):
        code, out, _ = run(capsys, "builtins", "--name", "harmonic2d_2", "--dim", "2")
        assert code == 0
        assert json.loads(out)["expression"] == "((x1^2)-(x2^2))"


class TestCliContract:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exit_2(self, capsys):
        assert run(capsys, "abscissa", "--fn", "x^2")[0] == 2

    def test_hex_seed_equals_decimal(self, capsys):
        _, out_hex, _ = run(
            capsys, "check-weighted", "--fn", "sin(x)", "--lambda", "0.5",
            "--a", "-1", "--b", "1", "--trials", "20", "--seed", "0x2A",
        )
        _, out_dec, _ = run(
            capsys, "check-weighted", "--fn", "sin(x)", "--lambda", "0.5",
            "--a", "-1", "--b", "1", "--trials", "20", "--seed", "42",
        )
        assert out_hex == out_dec

    def test_replay_byte_identical(self, capsys):
        argv = [
            "ball-check", "--fn", "x", "--dim", "2", "--lambda", "0.3",
            "--v", "0,1", "--trials", "3", "--samples", "10000", "--seed", "9",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.json"
        code, out, _ = run(
            capsys, "parse", "--fn", "x+1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["canonical"] == "(x1+1)"

    @pytest.mark.parametrize(
        "command,identity",
        [
            ("check-weighted", "f'(lambda*a + (1-lambda)*b)"),
            ("check-midpoint", "f'((a+b)/2)"),
            ("check-interval", "f'(x+(1-2*lambda)*h)"),
            ("ball-check", "g(x + (1-2*lambda)*h*v)"),
            ("sphere-check", "g(x + (1-2*lambda)*h*v)"),
            ("abscissa", "f'(c) = (f(b)-f(a))/(b-a)"),
            ("poly-verify", "(b-a) * p'(lambda*a + (1-lambda)*b)"),
            ("lambda-family", "(k+1)^(-1/k)"),
        ],
    )
    def test_help_names_identity(self, capsys, command, identity):
        top = run(capsys, "--help")[1]
        assert command in top
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert identity in " ".join(out.split())
