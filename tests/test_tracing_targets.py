"""The benchmark tracer patches package functions by (module, attribute)
name; a rename must fail here, not silently drop a per-layer figure."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
