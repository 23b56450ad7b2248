"""Every layer that perfbench's tracer wraps exists in the package.

The tracer lists a missing layer as absent and runs on, so a refactor
that drops or renames a wrapped function would otherwise show only as a
missing metric in the benchmark's smoke test. The targets are resolved
with ``inspect.getattr_static``; no wrapper is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module_name, attr", _targets())
def test_target_resolves_to_a_function(module_name, attr):
    owner = importlib.import_module(f"itect.{module_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = inspect.getattr_static(owner, part)
    raw = inspect.getattr_static(owner, leaf)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw)
