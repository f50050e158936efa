"""Every function the benchmark's tracer wraps exists under its name.

``e2ebench/tracer.py`` replaces module attributes by name and reports a
missing one only as ``trace.missing_hooks`` in a traced benchmark run.
Loading its target table here makes a rename fail the tests instead.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"
_tracer = runpy.run_path(str(TRACER))
PACKAGE, TARGETS = _tracer["PACKAGE"], _tracer["TARGETS"]


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, module, attr, _ in TARGETS]
)
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        # The tracer wraps a method on the class that defines it.
        assert name in vars(owner), f"{module}.{attr}"
    assert callable(getattr(owner, name, None)), f"{module}.{attr}"
