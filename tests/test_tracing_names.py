"""The benchmark's tracer wraps dsmfuse functions by name; they must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("path", wrapped_names())
def test_traced_name_resolves(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"dsmfuse.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
