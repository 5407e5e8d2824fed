"""Byte-for-byte CLI regression against committed outputs.

`golden_cli.json` maps each argv (shell-quoted) to [exit code, stdout]:
the acceptance suite's `_CLI_COMMANDS`, one ball and one sphere check
whose sample count spans 17 Monte Carlo evaluation blocks, so their bits
depend on the block size and the left-to-right moment merge, one
`poly-verify` whose residual is no power of (b-a) (mixed signs over three
total degrees print the general form, its term order and its "+ -"
folding), and three sweeps that split their grid scans into blocks
differently.
After an intended output change, regenerate with
`PYTHONPATH=src python tests/test_golden_cli.py` and explain every
difference in CHANGES.md.
"""

import json
import pathlib
import shlex

import pytest

from test_acceptance import _CLI_COMMANDS, _run_cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

_MANY_BLOCKS = str((1 << 19) + 777)  # just over 16 evaluation blocks of 32,768 points

MULTI_BLOCK = [
    [command, "--fn", fn, "--dim", "3", "--lambda", "0.5", "--trials", "2",
     "--samples", _MANY_BLOCKS, "--seed", "13"]
    for command, fn in (("ball-check", "x^2 - y^2 + z"), ("sphere-check", "x*y*z"))
]

GENERAL_RESIDUAL = [["poly-verify", "--coeffs", "1,-2,3,0,5/7,-1/3", "--lambda", "2/7"]]

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
GOLDEN_ARGVS = _CLI_COMMANDS + MULTI_BLOCK + GENERAL_RESIDUAL + SWEEP_BLOCKS


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=shlex.join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(_run_cli(argv)) == golden[shlex.join(argv)]


if __name__ == "__main__":
    table = {shlex.join(argv): _run_cli(argv) for argv in GOLDEN_ARGVS}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
