"""The benchmark's tracer rebinds library names in place, so every name
it wraps must still exist where the library looks it up; otherwise a
refactor breaks only the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_binding_exists():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for owner, attr, _ in wrapped:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
