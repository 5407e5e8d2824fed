"""Every function the benchmark tracer wraps still exists.

`perfbench/tracing.py` swaps each (layer, owner, name, count) of its
`_WRAPPED` table for a timing wrapper and reads the original with
`owner.__dict__[name]`, so a deleted or renamed function fails only a
traced benchmark run, with a KeyError.  This reads the table, without
installing a wrapper, and checks each name.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "layer,owner,name", [row[:3] for row in tracing._WRAPPED],
    ids=[f"{row[0]}.{row[2]}" for row in tracing._WRAPPED],
)
def test_wrapped_name_is_in_its_owner(layer, owner, name):
    assert name in owner.__dict__, f"{layer}: {owner.__name__}.{name} is gone"
    assert callable(owner.__dict__[name])
