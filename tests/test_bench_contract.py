"""Every function the benchmark's tracer wraps must exist in the program:
a missing one turns traced benchmark runs into ``correct: false``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _, _ in spans.WRAPPED]


@pytest.mark.parametrize("module,name", wrapped_functions())
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
