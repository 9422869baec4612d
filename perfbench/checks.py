"""Checks of analysis results against computations made apart from the graph.

Every checker returns a list of problems; an empty list means the result
passed. `selftest` feeds each checker corrupted copies of a result it has
accepted and reports any corruption that goes unnoticed.
"""

from __future__ import annotations

import copy
import random

from schedgraph import ExecutionScenario


def scenarios(instance, rng: random.Random, count: int) -> list[ExecutionScenario]:
    """All-worst-case, all-best-case and `count` seeded random scenarios."""
    jobs = instance.jobs
    out = [ExecutionScenario.worst_case(instance),
           ExecutionScenario({j.key: j.r_min for j in jobs}, {j.key: j.c_min for j in jobs})]
    for _ in range(count):
        out.append(ExecutionScenario({j.key: rng.randint(j.r_min, j.r_max) for j in jobs},
                                     {j.key: rng.randint(j.c_min, j.c_max) for j in jobs}))
    return out


def check_verdict(instance, result) -> list[str]:
    """Schedulable exactly when every recorded lft_max meets its job's deadline."""
    problems = []
    late = [key for key, (_, hi) in result.bounds.items() if hi > instance.job(key).deadline]
    if result.schedulable == bool(late):
        problems.append(f"verdict {result.schedulable} but {len(late)} bounds past the deadline")
    if result.bounds_complete and set(result.bounds) != {j.key for j in instance.jobs}:
        problems.append("complete bounds do not cover every job")
    if result.schedulable and not result.bounds_complete:
        problems.append("schedulable verdict with incomplete bounds")
    if result.witness is not None and result.witness.lft <= result.witness.deadline:
        problems.append("witness meets its deadline")
    return problems


def check_traces(result, traces) -> tuple[list[str], set]:
    """Simulated finishes lie within complete bounds; schedulable means no simulated miss.

    Also returns the (job key, side) pairs some simulated finish attained,
    which the self-test uses to pick a bound whose narrowing must show.
    """
    problems: list[str] = []
    tight: set = set()
    for n, trace in enumerate(traces):
        if result.schedulable and trace.misses:
            problems.append(f"scenario {n}: schedulable verdict but {trace.misses[0][0].label} misses")
        if not result.bounds_complete:
            continue
        for job, _, finish in trace.dispatches:
            lo, hi = result.bounds[job.key]
            if not lo <= finish <= hi:
                problems.append(f"scenario {n}: {job.label} finishes at {finish} outside [{lo}, {hi}]")
            if finish == lo:
                tight.add((job.key, 0))
            if finish == hi:
                tight.add((job.key, 1))
    return problems, tight


def check_oracle(result, mode: str, report) -> list[str]:
    """`me` agrees with the exhaustive oracle exactly; `se` is never more optimistic."""
    if mode == "se":
        if result.schedulable and not report.schedulable:
            return ["se finds schedulable what the oracle does not"]
        return []
    if result.schedulable != report.schedulable:
        return [f"verdict {result.schedulable}, oracle {report.schedulable}"]
    if not result.schedulable:
        return []
    extremes = {key: (report.finish_min[key], report.finish_max[key]) for key in report.finish_min}
    if result.bounds != extremes:
        wrong = sorted(k for k in set(result.bounds) | set(extremes)
                       if result.bounds.get(k) != extremes.get(k))
        return [f"finish bounds differ from the oracle's extremes for {wrong[:3]}"]
    return []


def check_cli(code: int, payload: dict | None, result, stuck: bool) -> list[str]:
    """Exit code and JSON of `schedgraph analyze --format json` agree with the library."""
    if stuck:
        return [] if code == 3 else [f"exit code {code}, library stuck (3)"]
    expected_code = 0 if result.schedulable else 1
    if code != expected_code:
        return [f"exit code {code}, library says {expected_code}"]
    if payload is None:
        return ["no JSON output"]
    expected = result.to_json_dict()
    problems = [f"JSON {key} differs from the library" for key in
                ("schedulable", "bounds", "bounds_complete", "witness")
                if payload.get(key) != expected.get(key)]
    if payload.get("stats", {}).get("levels") != expected["stats"]["levels"]:
        problems.append("JSON level stats differ from the library")
    return problems


def selftest(sample: dict) -> list[str]:
    """Corrupt accepted results and return every corruption a checker missed.

    `sample` holds what the first round kept: an analysis result with the
    instance and the traces or oracle report it passed against, and one CLI
    exit code with its JSON and library result.
    """
    missed = []
    instance, result = sample["instance"], sample["result"]

    def narrowed():
        bad = copy.deepcopy(result)
        if "report" in sample:
            key = min(bad.bounds)
            side = 1
        else:
            key, side = min(sample["tight"])
        lo, hi = bad.bounds[key]
        bad.bounds[key] = (lo + 1, hi) if side == 0 else (lo, hi - 1)
        return bad

    def flipped():
        bad = copy.deepcopy(result)
        bad.schedulable = not bad.schedulable
        return bad

    for label, bad in (("narrowed finish bound", narrowed()), ("flipped verdict", flipped())):
        problems = check_verdict(instance, bad)
        if "report" in sample:
            problems += check_oracle(bad, "me", sample["report"])
        else:
            problems += check_traces(bad, sample["traces"])[0]
        if not problems:
            missed.append(label)
    code, payload, cli_result = sample["cli"]
    bad_payload = copy.deepcopy(payload)
    bad_payload["bounds"][0]["lft_max"] += 1
    if not check_cli(code, bad_payload, cli_result, False):
        missed.append("CLI JSON with a widened bound")
    if not check_cli(1 - code, payload, cli_result, False):
        missed.append("CLI exit code flipped")
    return missed
