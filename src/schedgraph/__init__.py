"""Exact schedulability analysis for non-preemptive periodic tasks.

`generate` builds a schedule graph that abstracts every execution scenario
of a task set under a scheduling policy and verifies deadlines along the
way; `enumerate_scenarios` cross checks it against an exhaustive simulator
on small instances. This module exports what the command line and the
benchmark use. Engine internals, such as the eligibility sweep and the
priority keys, live in `schedgraph.graph`, `schedgraph.policy` and
`schedgraph.oracle`.
"""

from .generator import GenSpec, GenerationError, generate_instance
from .graph import ME, SE, AnalysisStuck, export_dot, generate
from .model import (ExecutionScenario, InstanceError, Task, make_instance, parse_instance,
                    parse_scenario, write_instance)
from .oracle import ScenarioCapExceeded, enumerate_scenarios, scenario_count, simulate
from .policy import PolicyKind, parse_policy

__all__ = [
    "ME", "SE", "AnalysisStuck", "generate", "export_dot",
    "Task", "InstanceError", "ExecutionScenario", "make_instance", "parse_instance",
    "parse_scenario", "write_instance",
    "GenSpec", "GenerationError", "generate_instance",
    "simulate", "enumerate_scenarios", "scenario_count", "ScenarioCapExceeded",
    "PolicyKind", "parse_policy",
]

__version__ = "0.1.0"
