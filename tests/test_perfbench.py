"""The traced benchmark run wraps schedgraph functions by module and name.

A renamed function would make its per-layer metric read as absent, so every
name the tracer wraps must still resolve to a callable.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANS + tracing.COUNTS
    assert names
    missing = [f"{module}.{attr}" for module, attr, _ in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
