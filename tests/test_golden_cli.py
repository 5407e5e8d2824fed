"""Byte-for-byte CLI regression against committed outputs.

`golden_cli.json` maps each argv (shell-quoted) to [exit code, stdout]:
the acceptance suite's `_CLI_COMMANDS`, one ball and one sphere check
whose sample count spans 17 Monte Carlo evaluation blocks, so their bits
depend on the block size and the left-to-right moment merge, one
`poly-verify` whose residual is no power of (b-a) (mixed signs over three
total degrees print the general form, its term order and its "+ -"
folding) and one of the zero polynomial, three sweeps that split their
grid scans into blocks differently, five commands whose intermediate
overflows are never read (CI replays the table with RuntimeWarnings as
errors), and six commands whose batched pass fails and is halved down to
its first failure, and
`test_cli.REFUSED`: three expressions nested too deep to parse and two
varying powers at one non-positive base.
After an intended output change, regenerate with
`PYTHONPATH=src python tests/test_golden_cli.py` and explain every
difference in CHANGES.md.
"""

import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import mvlab
from test_acceptance import _CLI_COMMANDS, _run_cli
from test_cli import REFUSED

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

_MANY_BLOCKS = str((1 << 19) + 777)  # just over 16 evaluation blocks of 32,768 points

MULTI_BLOCK = [
    [command, "--fn", fn, "--dim", "3", "--lambda", "0.5", "--trials", "2",
     "--samples", _MANY_BLOCKS, "--seed", "13"]
    for command, fn in (("ball-check", "x^2 - y^2 + z"), ("sphere-check", "x*y*z"))
]

GENERAL_RESIDUAL = [["poly-verify", "--coeffs", "1,-2,3,0,5/7,-1/3", "--lambda", "2/7"]]

# the zero polynomial: no degree, and polynomial and residual print "0"
ZERO_POLYNOMIAL = [["poly-verify", "--coeffs", "0", "--lambda", "1/2"]]

# sweeps scan a block of up to 31 grids of 1025 points per pass: 40 steps
# span two blocks, the log(x) sweep's last interval fails, and a 40,000-cell
# grid puts one interval in each block
SWEEP_BLOCKS = [
    ["sweep", "--fn", "exp(x)", "--x0", "0.3", "--hmin", "1e-3", "--hmax", "0.1",
     "--steps", "40"],
    ["sweep", "--fn", "log(x)", "--x0", "0.05", "--hmin", "1e-3", "--hmax", "0.05",
     "--steps", "12", "--format", "json"],
    ["sweep", "--fn", "sin(x)", "--x0", "1", "--hmin", "1e-3", "--hmax", "0.5",
     "--steps", "6", "--grid", "40000"],
]
# f' - slope overflows in the scan, only its sign is read; the allowance
# tol*(1 + |g|) passes the largest double, the Laplacian is 0; a bracket's
# lo + hi passes the largest double, its midpoint 0.5*lo + 0.5*hi does not;
# the flat test's allowance tol*(1 + |slope|) is inf, so every finite f' -
# slope reads flat (one abscissa, and every interval of a sweep)
QUIET_OVERFLOWS = [
    ["abscissa", "--fn", "1.7e308*sin(x)", "--a", "0", "--b", "4"],
    ["laplacian", "--fn", "1e300*x", "--dim", "1", "--tol", "1e10", "--points", "3"],
    ["abscissa", "--fn", "sin(x)", "--a=1e308", "--b=1.7e308", "--grid", "4"],
    ["abscissa", "--fn", "1e300*x^2", "--a", "0", "--b", "1", "--tol", "1e10"],
    ["sweep", "--fn", "1e300*x^3", "--x0", "0.5", "--hmin", "0.01", "--hmax", "0.1",
     "--steps", "4", "--tol", "1e9"],
]
# a failing pass is halved down to what fails: the 5,031st of 10,000
# weighted trials, the 1,238th interval trial, the last grid of a 400-step
# sweep (its block's scan), a bisection midpoint at abs' kink, and secant
# slopes whose f(b) - f(a) overflows (one interval; rows 2-6 of a scan block)
FAILING_PASSES = [
    ["check-weighted", "--fn", "log(x + 0.9999)", "--lambda", "1/2", "--a", "-1", "--b", "1",
     "--trials", "10000", "--seed", "0"],
    ["check-interval", "--fn", "sqrt(x)", "--lambda", "1/3", "--a=-0.01", "--b", "3",
     "--trials", "5000", "--seed", "9"],
    ["sweep", "--fn", "sqrt(x)", "--x0", "0.05", "--hmin", "1e-3", "--hmax", "0.05",
     "--steps", "400", "--format", "json"],
    ["abscissa", "--fn", "abs(x) + x^3", "--a=-0.9990234375", "--b", "0.9990234375",
     "--grid", "1023"],
    ["abscissa", "--fn", "1.7e308*sin(x)", "--a=-1.5707963", "--b=1.5707963"],
    ["sweep", "--fn", "1.7e308*sin(x)", "--x0", "0", "--hmin", "0.5", "--hmax", "1.5",
     "--steps", "6"],
]
# their stderr, as the trial-by-trial and interval-by-interval replays
# printed it: the golden table holds exit code and stdout only
FAILING_STDERR = [
    "mvlab: numeric failure: log of a non-positive argument in 'log((x1+0.9999))'\n",
    "mvlab: numeric failure: sqrt of a non-positive argument (derivative undefined at 0)"
    " in 'sqrt(x1)'\n",
    "",
    "mvlab: numeric failure: abs is not differentiable at 0 in 'abs(x1)'\n",
    "mvlab: numeric failure: non-finite secant slope in '(1.7e+308*sin(x1))'\n",
    "",
]
GOLDEN_ARGVS = (_CLI_COMMANDS + MULTI_BLOCK + GENERAL_RESIDUAL + ZERO_POLYNOMIAL + SWEEP_BLOCKS
                + QUIET_OVERFLOWS + FAILING_PASSES + [argv for argv, _, _ in REFUSED])


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=shlex.join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(_run_cli(argv)) == golden[shlex.join(argv)]


@pytest.mark.parametrize("argv", QUIET_OVERFLOWS, ids=shlex.join)
def test_unread_overflow_prints_nothing(argv):
    # a fresh interpreter shows every RuntimeWarning on stderr
    src = str(pathlib.Path(mvlab.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "mvlab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (0, "")


@pytest.mark.parametrize("argv,stderr", zip(FAILING_PASSES, FAILING_STDERR),
                         ids=[shlex.join(argv) for argv in FAILING_PASSES])
def test_failing_pass_reports_its_first_failure(argv, stderr):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _run_cli(argv)
    assert err.getvalue() == stderr


if __name__ == "__main__":
    table = {shlex.join(argv): _run_cli(argv) for argv in GOLDEN_ARGVS}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
