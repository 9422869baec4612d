"""Exact schedulability analysis for non-preemptive periodic tasks.

Builds a schedule graph that abstracts every execution scenario of a task
set under a scheduling policy, verifies deadlines along the way, and cross
checks against an exhaustive brute-force simulator on small instances.
"""

from .generator import GenSpec, GenerationError, RatioReport, generate_instance, measure_ratios
from .graph import (ME, SE, AnalysisResult, AnalysisStuck, Arc, DeadlineMiss,
                    EligibilityContext, ScheduleGraph, Vertex, applicable_jobs,
                    certainly_eligible, expand, expansion_windows, export_dot,
                    generate, make_context, merge_phase, next_nodes,
                    possibly_eligible)
from .model import (ExecutionScenario, InstanceError, Job, ProblemInstance, Task,
                    expand_jobs, hyperperiod, instance_to_json, make_instance,
                    parse_instance, parse_scenario, utilization, validate_scenario,
                    write_instance)
from .oracle import (OracleReport, ScenarioCapExceeded, SimulationTrace,
                     enumerate_scenarios, scenario_count, simulate)
from .policy import (CriticalContext, PolicyKind, critical_context, parse_policy,
                     pi_higher, pi_key, pick)

__version__ = "0.1.0"
