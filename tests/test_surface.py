"""The package's public surface is pinned: adding or dropping a name is a reviewed change."""

from __future__ import annotations

import schedgraph

PUBLIC = {
    "ME", "SE", "AnalysisStuck", "generate", "export_dot",
    "Task", "InstanceError", "ExecutionScenario", "make_instance", "parse_instance",
    "parse_scenario", "write_instance",
    "GenSpec", "GenerationError", "generate_instance",
    "simulate", "enumerate_scenarios", "scenario_count", "ScenarioCapExceeded",
    "PolicyKind", "parse_policy",
}


def test_all_is_the_pinned_surface():
    assert len(schedgraph.__all__) == len(PUBLIC) == 21
    assert set(schedgraph.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in schedgraph.__all__ if getattr(schedgraph, name, None) is None] == []


def test_star_import_yields_only_the_surface():
    namespace: dict = {}
    exec("from schedgraph import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
