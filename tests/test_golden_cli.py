"""Byte-for-byte CLI regression against committed outputs.

`golden_cli.json` maps each argv (shell-quoted) to [exit code, stdout]:
the acceptance suite's `_CLI_COMMANDS` plus ball/sphere checks whose
sample count spans two chunks, at 1, 2 and 3 threads.  The thread count
must not change a byte.  After an intended output change, regenerate with
`PYTHONPATH=src python tests/test_golden_cli.py` and explain every
difference in CHANGES.md.
"""

import json
import pathlib
import shlex

import pytest

from test_acceptance import _CLI_COMMANDS, _run_cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

_TWO_CHUNKS = str((1 << 19) + 777)  # just over one sampling chunk

MULTI_CHUNK = [
    [command, "--fn", fn, "--dim", "3", "--lambda", "0.5", "--trials", "2",
     "--samples", _TWO_CHUNKS, "--seed", "13", "--threads", threads]
    for command, fn in (("ball-check", "x^2 - y^2 + z"), ("sphere-check", "x*y*z"))
    for threads in ("1", "2", "3")
]


@pytest.mark.parametrize("argv", _CLI_COMMANDS + MULTI_CHUNK, ids=shlex.join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(_run_cli(argv)) == golden[shlex.join(argv)]


if __name__ == "__main__":
    table = {shlex.join(argv): _run_cli(argv) for argv in _CLI_COMMANDS + MULTI_CHUNK}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
