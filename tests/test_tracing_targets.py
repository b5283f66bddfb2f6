"""The benchmark's tracer wraps program functions by module attribute
name; a rename or a dropped import in the program must fail here, not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module._TARGETS]


@pytest.mark.parametrize("mod_name,attr", _targets())
def test_every_traced_name_resolves(mod_name, attr):
    module = importlib.import_module("xxz_deficit." + mod_name)
    assert callable(getattr(module, attr, None)), f"xxz_deficit.{mod_name}.{attr}"
