"""The traced benchmark run wraps schedgraph functions by module and name.

A renamed function would make its per-layer metric read as absent, so every
name the tracer wraps must still resolve to a callable. A function that
`generate` stops calling through its module would read 0 without a warning,
so a traced analysis must reach the seams of the sweep, expansion and
merging. The traced shape metrics read `graph.vertices` and `graph.arcs`,
which must hold every level that generation recorded.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import schedgraph.graph
from schedgraph import ME, SE, AnalysisStuck, PolicyKind, parse_instance
from support import ANOMALY, EDF_JITTER, PRECAUTIOUS_IDLE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # `dataclass` looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load("tracing")
    names = tracing.SPANS + tracing.COUNTS
    assert names
    missing = [f"{module}.{attr}" for module, attr, _ in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_generate_calls_the_traced_seams():
    instance = parse_instance(PRECAUTIOUS_IDLE.read_text(encoding="utf-8"))
    tracer = load("tracing").Tracer()
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
    for name in ("graph.merge_phase", "policy.critical_context"):
        assert calls[name] > 0, name
    # one sweep per expanded vertex, one counted probe per probed time
    assert calls["graph.expansion_windows"] == 72
    assert tracer.counts["graph.probes"] == 120


@pytest.mark.parametrize("path", [ANOMALY, EDF_JITTER, PRECAUTIOUS_IDLE], ids=lambda p: p.stem)
def test_graph_reads_hold_every_recorded_level(path):
    instance = parse_instance(path.read_text(encoding="utf-8"))
    families = load("families")
    for kind in PolicyKind:
        for mode in (ME, SE):
            try:
                graph, result = schedgraph.graph.generate(instance, kind, mode)
            except AnalysisStuck:
                continue
            assert len(graph.vertices) == sum(vertices for vertices, _ in result.levels)
            assert len(graph.arcs) == sum(arcs for _, arcs in result.levels)
            if path == PRECAUTIOUS_IDLE and kind in (PolicyKind.CW, PolicyKind.CP) and mode == ME:
                assert families.reeligible_arcs(graph) > 0, kind
