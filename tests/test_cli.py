import json
import math
import sys
from fractions import Fraction

import pytest

from mvlab import cli, exactpoly


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


class TestDetachedNegativeLists:
    """A detached list value that starts with a minus sign reads as the
    attached one; argparse alone rejects `--box -1,1` with "expected one
    argument" (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ("poly-verify", "--coeffs", "-1,2,3", "--lambda", "1/2"),
        ("vderiv", "--fn", "x+y", "--dim", "2", "--v", "-1,0", "--at", "1,1"),
        ("ball-check", "--fn", "x", "--dim", "2", "--lambda", "1/2", "--trials", "3",
         "--samples", "10000", "--box", "-1,1"),
        ("laplacian", "--fn", "x^2*y", "--dim", "2", "--at", "-1.5,2"),
        ("poly-verify", "--coef", "-1,2,3", "--lambda", "1/2"),
    ], ids=lambda argv: next(w for w, v in zip(argv, argv[1:]) if w[:2] == "--" and v[0] == "-"))
    def test_detached_equals_attached(self, capsys, argv):
        i = next(i for i, w in enumerate(argv) if w.startswith("--") and argv[i + 1][0] == "-")
        attached = argv[:i] + (f"{argv[i]}={argv[i + 1]}",) + argv[i + 2:]
        want = run(capsys, *attached)
        assert want[0] in (0, 1) and want[1]
        assert run(capsys, *argv) == want

    def test_other_words_untouched(self):
        argv = ["abscissa", "--a", "-2", "--b", "-1", "--box", "-h", "--v", "--at", "-h",
                "--at=-1,1", "-2,2", "--", "-1,2"]
        assert cli._attach_negative_lists(argv) == argv


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

    def test_overflowing_secant_row_reads_failed(self, capsys):
        # f(1) - f(-1) = 2e308 overflows; the row read "ok" at lambda = 1/2
        code, out, _ = run(
            capsys, "sweep", "--fn", "1e308*x+x^2", "--x0", "0",
            "--hmin", "0.5", "--hmax", "1", "--steps", "4",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:-1]
        assert [r.split(",")[-1] for r in rows] == ["ok", "ok", "ok", "failed"]
        assert rows[-1].startswith("1.0,")

    def test_indistinct_h_values_are_usage_error(self, capsys):
        # three of the four h values were the same float; a fitted order was printed
        code, out, err = run(
            capsys, "sweep", "--fn", "exp(x)", "--x0", "0",
            "--hmin", "1", "--hmax", "1.0000000000000002", "--steps", "4",
        )
        assert (code, out) == (2, "")
        assert "not strictly increasing" in err


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

    @pytest.mark.parametrize("argv", [
        ("vderiv", "--fn", "y", "--dim", "2", "--v", "nan,1", "--at", "1,1"),
        ("laplacian", "--fn", "y", "--dim", "2", "--at", "nan,1"),
        ("abscissa", "--fn", "x^2", "--a", "0", "--b", "1", "--tol", "inf"),
        ("laplacian", "--fn", "x", "--dim", "2", "--box=-inf,1", "--points", "3"),
        ("check-interval", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.5",
         "--tol", "nan"),
        ("check-weighted", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.5",
         "--tol", "-1"),
        ("sweep", "--fn", "exp(x)", "--x0", "0", "--hmin", "1e-3", "--hmax", "1e400"),
        ("ball-check", "--fn", "x", "--dim", "2", "--lambda", "1/2", "--hmax", "nan"),
    ])
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        # each used to print NaN/Infinity, leak a RuntimeWarning or misreport
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: argument --" in err

    def test_finite_tolerance_is_used(self, capsys):
        code, out, _ = run(capsys, "abscissa", "--fn", "x^3", "--a", "0", "--b", "1",
                           "--tol", "1e-10")
        assert code == 0
        assert json.loads(out)["tol"] == 1e-10

    @pytest.mark.parametrize("argv", [
        ("poly-verify", "--coeffs", "1,2", "--lambda", "1/0"),
        ("poly-verify", "--coeffs", "1/0,2", "--lambda", "1/2"),
        ("check-weighted", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "1/0"),
    ])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        # Fraction("1/0") raised an uncaught ZeroDivisionError (exit 1)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "zero denominator in '1/0'" in err

    @pytest.mark.parametrize("argv", [
        ("check-weighted", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "1e400"),
        ("check-interval", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "1e400"),
        ("ball-check", "--fn", "x", "--dim", "2", "--lambda", "1e400"),
        ("sphere-check", "--fn", "x", "--dim", "2", "--lambda=-1e400"),
    ])
    def test_huge_lambda_is_usage_error(self, capsys, argv):
        # float(Fraction("1e400")) raised an uncaught OverflowError (exit 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "lambda must lie in (0, 1)" in err

    def test_non_finite_payload_is_numeric_failure(self, capsys, monkeypatch, tmp_path):
        # the encoder refuses NaN/Infinity, whatever handler produced them
        monkeypatch.setattr(cli.calculus, "laplacian", lambda g, at: math.nan)
        argv = ("laplacian", "--fn", "x", "--dim", "1", "--at", "0")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "non-finite" in err
        target = tmp_path / "out.json"
        assert run(capsys, *argv, "--out", str(target))[0] == 3
        assert not target.exists()


# 0 where the interpreter prints integers of any length
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="str(int) has no digit limit here")
class TestDigitLimit:
    # 1/Q with Q = 10^k + 1: the degree-64 residual's denominators reach
    # Q^63, more than 63*k digits, while Q itself is printable
    LAMBDA = f"1/{10 ** (_DIGIT_LIMIT // 50) + 1}"
    MONOMIAL_64 = "--coeffs=" + "0," * 64 + "1"

    def test_unprintable_residual_is_numeric_failure(self, capsys):
        # the verdict was decided, then printing it exited 2 with Python's advice
        code, out, err = run(capsys, "poly-verify", self.MONOMIAL_64, f"--lambda={self.LAMBDA}")
        assert (code, out) == (3, "")
        assert err.startswith("mvlab: numeric failure: ")
        assert f"more than {_DIGIT_LIMIT} digits" in err

    def test_library_raises_digit_limit_error(self):
        p = exactpoly.poly_from_coeffs([0] * 64 + [1])
        verdict = exactpoly.classify(p, Fraction(self.LAMBDA))
        assert not verdict.satisfies
        with pytest.raises(exactpoly.DigitLimitError, match=f"more than {_DIGIT_LIMIT} digits"):
            str(verdict.residual)

    def test_univariate_polynomial_raises_digit_limit_error(self):
        # a coefficient past the limit, as the bivariate residual refuses one
        p = exactpoly.poly_from_coeffs([f"1e{_DIGIT_LIMIT + 1}", 1])
        with pytest.raises(exactpoly.DigitLimitError, match=f"more than {_DIGIT_LIMIT} digits"):
            str(p)

    @pytest.mark.parametrize("argv", [
        ("poly-verify", f"--coeffs=1e{_DIGIT_LIMIT + 1}", "--lambda=1/2"),
        ("poly-verify", "--coeffs=1,2", f"--lambda=1e-{_DIGIT_LIMIT + 1}"),
        ("check-weighted", "--fn", "x", "--a", "0", "--b", "1",
         f"--lambda=1e-{_DIGIT_LIMIT + 1}"),
    ])
    def test_unprintable_literal_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"has more than {_DIGIT_LIMIT} digits, the limit for printing" in err
        assert "set_int_max_str_digits" not in err

    def test_limit_is_not_raised(self, capsys):
        run(capsys, "poly-verify", self.MONOMIAL_64, f"--lambda={self.LAMBDA}")
        assert sys.get_int_max_str_digits() == _DIGIT_LIMIT


class TestSecondOrderOnly:
    """f, f' and f'' are finite here but f''' overflows; no command needs
    more than two derivatives, so each gives its answer."""

    def test_laplacian_at_point(self, capsys):
        code, out, _ = run(capsys, "laplacian", "--fn", "exp(10*x)", "--dim", "1",
                           "--at", "70.5")
        assert code == 0
        assert json.loads(out)["laplacian"] == 100 * math.exp(705)
        assert '"laplacian": 1.5052538330631942e+308' in out

    def test_abscissa(self, capsys):
        # exp(100 x) on [6.9, 7]: c = 7 + ln((1 - e^-10)/10)/100
        code, out, _ = run(capsys, "abscissa", "--fn", "exp(100*x)", "--a", "6.9",
                           "--b", "7.0")
        assert code == 0
        (c,) = json.loads(out)["abscissas"]
        want = 7 + math.log((1 - math.exp(-10)) / 10) / 100
        assert abs(c - want) <= 1e-12 * want

    @pytest.mark.parametrize("command,width", [
        ("check-weighted", lambda case: case["b"] - case["a"]),
        ("check-interval", lambda case: 2 * case["h"]),
    ])
    def test_midpoint_checkers(self, capsys, command, width):
        # f'(midpoint) / slope = u / sinh(u) with u = 50 (b - a); the slope
        # is ~1e305, so the residual |slope - f'| / (1 + |slope|) is 1 - u/sinh(u)
        code, out, _ = run(capsys, command, "--fn", "exp(100*x)", "--a", "6.9",
                           "--b", "7.0", "--lambda", "1/2", "--trials", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert len(payload["counterexamples"]) == 3
        for case in payload["counterexamples"]:
            u = 50 * width(case)
            assert case["residual"] == pytest.approx(1 - u / math.sinh(u), rel=1e-9)


class TestReadOnlyWhatIsPrinted:
    """On [7, 7.04], f <= e^704 ~ 5.5e305 and f' stay finite but f'' =
    1e4 e^704 overflows; a command that prints no f'' gives its answer."""

    def test_abscissa(self, capsys):
        code, out, _ = run(capsys, "abscissa", "--fn", "exp(100*x)", "--a", "7.0",
                           "--b", "7.04")
        assert code == 0
        (c,) = json.loads(out)["abscissas"]
        want = 7 + math.log((math.exp(4) - 1) / 4) / 100
        assert abs(c - want) <= 1e-12 * want

    @pytest.mark.parametrize("command,width", [
        ("check-weighted", lambda case: case["b"] - case["a"]),
        ("check-interval", lambda case: 2 * case["h"]),
    ])
    def test_midpoint_checkers(self, capsys, command, width):
        code, out, _ = run(capsys, command, "--fn", "exp(100*x)", "--a", "7.0",
                           "--b", "7.04", "--lambda", "1/2", "--trials", "3")
        assert code == 1
        for case in json.loads(out)["counterexamples"]:
            u = 50 * width(case)
            assert case["residual"] == pytest.approx(1 - u / math.sinh(u), rel=1e-9)

    def test_directional_derivative(self, capsys):
        code, out, _ = run(capsys, "vderiv", "--fn", "exp(100*x)+y", "--dim", "2",
                           "--v", "1,0", "--at", "7.03,0")
        assert code == 0
        got = json.loads(out)["directional_derivative"]
        assert got == pytest.approx(100 * math.exp(703), rel=1e-13)

    def test_laplacian_still_fails(self, capsys):
        # the Laplacian is f'' itself
        code, out, err = run(capsys, "laplacian", "--fn", "exp(100*x)", "--dim", "1",
                             "--at", "7.04")
        assert (code, out) == (3, "")
        assert "non-finite Laplacian" in err

    @pytest.mark.parametrize("argv", [
        ("check-interval", "--fn", "x + 1e200*1e200", "--a", "0", "--b", "1",
         "--lambda", "1/2"),
        ("abscissa", "--fn", "x + 1e200*1e200", "--a", "0", "--b", "1"),
        ("vderiv", "--fn", "x + 1e200*1e200", "--dim", "1", "--v", "1", "--at", "0"),
    ])
    def test_infinite_value_with_finite_derivative_fails(self, capsys, argv):
        # f' = 1 everywhere, but the value every jet carries is inf
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "non-finite value" in err

    def test_infinite_sine_argument_is_numeric_failure(self, capsys):
        # used to exit 2 with a bare "math domain error"
        code, out, err = run(capsys, "abscissa", "--fn", "sin(1e300*x)", "--a", "1e9",
                             "--b", "2e9")
        assert (code, out) == (3, "")
        assert "numeric failure" in err


_CHECKS = {  # subcommand -> argv that passes every input rule
    "check-weighted": ["--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "1/2",
                       "--trials", "2"],
    "check-interval": ["--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "1/2",
                       "--trials", "2"],
    "ball-check": ["--fn", "x", "--dim", "2", "--lambda", "1/2", "--trials", "1",
                   "--samples", "10000"],
    "sphere-check": ["--fn", "x", "--dim", "2", "--lambda", "1/2", "--trials", "1",
                     "--samples", "10000"],
    "poly-verify": ["--coeffs", "1,2", "--lambda", "1/2"],
    "laplacian": ["--fn", "x", "--dim", "1", "--points", "3"],
    "vderiv": ["--fn", "x", "--dim", "1", "--v", "1", "--points", "3"],
    "builtins": ["--name", "radial_sq", "--dim", "2"],
    "abscissa": ["--fn", "x^3", "--a", "0", "--b", "1"],
    "sweep": ["--fn", "exp(x)", "--x0", "0", "--hmin", "0.001", "--hmax", "0.1"],
}


def _rule_cases():
    # (subcommand, flag, bad value, the rule's one message)
    def case(rule, command, flag, value, message):
        return pytest.param(command, flag, value, message, id=f"{rule}-{command}{flag}={value}")

    for command in ("check-weighted", "check-interval", "ball-check", "sphere-check",
                    "poly-verify"):
        for lam in ("0", "1", "-1/2", "1e400"):
            yield case("lambda", command, "--lambda", lam, "lambda must lie in (0, 1)")
    for command in ("check-weighted", "check-interval", "ball-check", "sphere-check"):
        # rationals in (0, 1) that round to the float 0.0 or 1.0
        for lam in ("1e-400", "0.99999999999999999"):
            yield case("lambda", command, "--lambda", lam, "lambda must lie in (0, 1)")
    for command in ("ball-check", "sphere-check", "laplacian", "vderiv", "builtins"):
        for dim in ("0", "11"):
            yield case("dimension", command, "--dim", dim, f"dimension must be 1..10, got {dim}")
    yield case("sphere", "sphere-check", "--dim", "1", "a sphere needs dimension >= 2")
    for command in ("check-weighted", "check-interval", "ball-check", "sphere-check"):
        yield case("count", command, "--trials", "0", "need trials >= 1")
        yield case("bound", command, "--trials", "10001", "must be at most 10000")
    for command in ("laplacian", "vderiv"):
        yield case("count", command, "--points", "0", "need points >= 1")
        yield case("bound", command, "--points", "100001", "must be at most 100000")
    for command in ("abscissa", "sweep"):
        yield case("bound", command, "--grid", "1000001", "must be at most 1000000")
    yield case("bound", "sweep", "--steps", "1001", "must be at most 1000")
    yield case("ratio", "sweep", "--hmax", "1e306", "h_max / h_min overflows")
    for command in ("ball-check", "sphere-check"):
        yield case("bound", command, "--samples", "1000001", "must be at most 1000000")
    # an unparsable value names the form it expected, not a private function
    for flag, form in (("--seed", "an integer (decimal or 0x-hex)"), ("--a", "a number"),
                       ("--trials", "an integer"),
                       ("--lambda", "a rational such as 0.25 or 1/4")):
        yield case("form", "check-weighted", flag, "abc", f"expected {form}, got 'abc'")
    yield case("form", "ball-check", "--samples", "abc", "expected an integer, got 'abc'")
    yield case("form", "poly-verify", "--coeffs", "1,abc",
               "expected a rational such as 0.25 or 1/4, got 'abc'")
    for command in ("check-weighted", "check-interval", "ball-check", "sphere-check",
                    "laplacian", "vderiv"):
        for seed in ("18446744073709551616", "-1"):
            yield case("seed", command, "--seed", seed, "seed must fit in 64 bits")
    for command in ("ball-check", "sphere-check"):
        yield case("direction", command, "--v", "1,0,0", "v has dimension 3, need 2")
        yield case("radius", command, "--hmin", "0", "invalid radius range (0.0, 1.0)")
        yield case("radius", command, "--hmax", "0.1", "invalid radius range (0.2, 0.1)")
    for command in ("laplacian", "vderiv"):
        yield case("point", command, "--at", "1,2", "--at needs 1 coordinates")
    for name, message in (("harmonic2d_7", "harmonic2d_k supports k in 0..6, got 7"),
                          ("coordinate_3", "coordinate_3 needs dimension >= 3"),
                          ("vconst_harmonic", "vconst_harmonic needs dimension >= 3"),
                          ("coordinate_0", "coordinate_i supports i in 1..10, got 0"),
                          ("coordinate_11", "coordinate_i supports i in 1..10, got 11"),
                          ("coordinate_-1", "unknown builtin field 'coordinate_-1'"),
                          ("coordinate_+1", "unknown builtin field 'coordinate_+1'"),
                          ("harmonic2d_+2", "unknown builtin field 'harmonic2d_+2'")):
        yield case("builtin", "builtins", "--name", name, message)


class TestOverflowingPowers:
    """1000^200 overflows: a jet pass at one point and an array pass over
    points give the same numeric failure, not a Python OverflowError."""

    @pytest.mark.parametrize("command,args", [
        ("laplacian", ()),
        ("vderiv", ("--v", "1,0")),
    ])
    def test_point_fails_as_the_array_pass_does(self, capsys, command, args):
        argv = (command, "--fn", "x^200 + y", "--dim", "2", *args)
        at_point = run(capsys, *argv, "--at", "1000,1")
        assert at_point == (3, "", "mvlab: numeric failure: non-finite value in "
                                   "'((x1^200)+x2)'\n")
        assert run(capsys, *argv, "--points", "3", "--box", "999,1001") == at_point


class TestInputRules:
    @pytest.mark.parametrize("command,flag,value,message", list(_rule_cases()))
    def test_rule_is_usage_error(self, capsys, command, flag, value, message):
        # the bad value comes last and wins; the form --flag=value lets it be negative
        code, out, err = run(capsys, command, *_CHECKS[command], f"{flag}={value}")
        assert (code, out) == (2, ""), err
        assert err.count(message) == 1, err

    @pytest.mark.parametrize("command", sorted(_CHECKS))
    def test_base_argv_passes(self, capsys, command):
        # so each failure above comes from the one bad value
        assert run(capsys, command, *_CHECKS[command])[0] in (0, 1)


class TestOneParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_wrappers_installed_later_see_calls(self, capsys, monkeypatch):
        run(capsys, "parse", "--fn", "x")  # the parser exists before the wrappers
        calls = []
        for name in ("check_weighted_property", "check_ball_mvp"):
            def wrapper(*args, _real=getattr(cli.mvp, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli.mvp, name, wrapper)
        assert run(capsys, "check-weighted", *_CHECKS["check-weighted"])[0] == 0
        assert run(capsys, "ball-check", *_CHECKS["ball-check"])[0] in (0, 1)
        assert calls == ["check_weighted_property", "check_ball_mvp"]

    def test_calls_share_no_state(self, capsys, tmp_path):
        target = tmp_path / "parse.json"
        assert run(capsys, "parse", "--fn", "x+1", "--out", str(target)) == (0, "", "")
        code, out, _ = run(capsys, "parse", "--fn", "x+1")
        assert code == 0
        assert json.loads(out) == json.loads(target.read_text())
        interval = ["--fn", "x^2", "--a", "0", "--b", "1", "--trials", "2"]
        out = run(capsys, "check-weighted", *interval, "--lambda", "1/4")[1]
        assert json.loads(out)["property"] == "weighted-mean-value(lambda=0.25)"
        out = run(capsys, "check-midpoint", *interval)[1]
        assert json.loads(out)["property"] == "weighted-mean-value(lambda=0.5)"


class TestInputRanges:
    @pytest.mark.parametrize("argv", [
        ("laplacian", "--fn", "x", "--dim", "0", "--points", "3"),
        ("laplacian", "--fn", "x", "--dim", "11", "--points", "3"),
        ("vderiv", "--fn", "x", "--dim", "11", "--v", "1", "--points", "3"),
    ])
    def test_dimension_out_of_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"dimension must be 1..10, got {argv[4]}" in err

    @pytest.mark.parametrize("argv,box", [
        (("ball-check", "--fn", "x", "--dim", "2", "--lambda", "1/2", "--trials", "1",
          "--samples", "10000", "--box", "1,2,3"), "[1.0, 2.0, 3.0]"),
        (("laplacian", "--fn", "x", "--dim", "2", "--box", "1"), "[1.0]"),
    ])
    def test_box_needs_pairs(self, capsys, argv, box):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"box {box} must give each coordinate a (lo, hi) range" in err

    @pytest.mark.parametrize("argv", [
        ("check-midpoint", "--fn", "x"),
        ("check-interval", "--fn", "x", "--lambda", "1/3"),
        ("abscissa", "--fn", "x"),
    ])
    def test_interval_width_overflows(self, capsys, argv):
        # both endpoints are finite, but b - a is inf
        code, out, err = run(capsys, *argv, "--a=-1e308", "--b", "1e308")
        assert (code, out) == (2, "")
        assert err.count("interval [-1e+308, 1e+308] is too wide: b - a overflows") == 1

    def test_threads_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "ball-check", "--fn", "x", "--dim", "2",
                             "--lambda", "1/2", "--threads", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --threads 2" in err


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


# refused before any walker runs (nesting past expr.MAX_DEPTH, a usage
# error) or at one point as over an array (a varying power at a
# non-positive base, a numeric failure); the golden table replays them
# through the console script too, outside pytest's deeper stack
REFUSED = [
    (["parse", "--fn", "(" * 250 + "x" + ")" * 250], 2,
     "mvlab: error: expression deeper than 100 levels (at offset 100)\n"),
    (["check-midpoint", "--fn", "+".join(["x"] * 1000), "--a", "0", "--b", "1"], 2,
     "mvlab: error: expression deeper than 100 levels (at offset 199)\n"),
    (["parse", "--fn=" + "-" * 1200 + "x"], 2,
     "mvlab: error: expression deeper than 100 levels (at offset 1100)\n"),
    (["laplacian", "--fn", "x^(y-y+2)", "--dim", "2", "--at=-1,0.5"], 3,
     "mvlab: numeric failure: power with varying exponent needs a positive base"
     " in '(x1^((x2-x2)+2))'\n"),
    (["vderiv", "--fn", "x^(x-x+2)", "--dim", "1", "--v", "1", "--at=-1"], 3,
     "mvlab: numeric failure: power with varying exponent needs a positive base"
     " in '(x1^((x1-x1)+2))'\n"),
]


@pytest.mark.parametrize("argv,code,stderr", REFUSED, ids=[
    "deep parentheses", "long sum", "many signs", "laplacian at a point", "vderiv at a point"])
def test_refused_with_its_message(capsys, argv, code, stderr):
    assert run(capsys, *argv) == (code, "", stderr)


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

    def test_out_flag_keeps_violation_exit(self, capsys, tmp_path):
        target = tmp_path / "verdict.json"
        code, out, _ = run(
            capsys, "check-weighted", "--fn", "x^3", "--lambda", "0.5",
            "--a", "-2", "--b", "2", "--trials", "20", "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert json.loads(target.read_text())["holds"] is False

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
