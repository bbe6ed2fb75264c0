"""The benchmark tracer's targets still name code in the package.

``bench/tracing.py`` records a target it cannot find as missing instead of
failing, so a renamed or deleted function would silently zero a per-layer
metric.  The module is loaded by path and nothing is installed.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr_path", _targets())
def test_target_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = inspect.getattr_static(owner, part)
    inspect.getattr_static(owner, parts[-1])
