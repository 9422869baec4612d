"""The traced benchmark run wraps schedgraph functions by module and name.

A renamed function would make its per-layer metric read as absent, so every
name the tracer wraps must still resolve to a callable. A function that
`generate` stops calling through its module would read 0 without a warning,
so a traced analysis must reach the seams of the sweep, expansion and
merging.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import schedgraph.graph
from schedgraph import ME, SE, PolicyKind, parse_instance
from support import PRECAUTIOUS_IDLE

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_tracing()
    names = tracing.SPANS + tracing.COUNTS
    assert names
    missing = [f"{module}.{attr}" for module, attr, _ in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_generate_calls_the_traced_seams():
    instance = parse_instance(PRECAUTIOUS_IDLE.read_text(encoding="utf-8"))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.op = 1  # count the analyses, not set-up
        successors = 0
        for kind in PolicyKind:
            for mode in (ME, SE):
                graph, _ = schedgraph.graph.generate(instance, kind, mode)
                successors += graph.vertices_created - 1
    finally:
        tracer.uninstall()
    _, calls = tracer.summary(setup=False)
    assert tracer.absent == []
    assert calls["graph.expand"] == successors == 95
    for name in ("graph.expansion_windows", "graph.merge_phase", "policy.critical_context"):
        assert calls[name] > 0, name
    assert tracer.counts["graph.probes"] > 0
