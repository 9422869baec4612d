"""Shared helpers: instance samplers, naive reference sweeps, invariant checks.

The naive sweeps probe every integer time point and serve as the independent
reference for the boundary-time sweep inside the engine; the me sweep's
exploration bound is computed here too, apart from the engine's stop rule.
"""

from __future__ import annotations

import random
from pathlib import Path

from schedgraph import (AnalysisStuck, PolicyKind, Task, certainly_eligible,
                        make_instance, possibly_eligible, scenario_count)

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
ANOMALY = INSTANCE_DIR / "anomaly.txt"
EDF_JITTER = INSTANCE_DIR / "edf_jitter.txt"
PRECAUTIOUS_IDLE = INSTANCE_DIR / "precautious_idle.txt"

ALL_POLICIES = list(PolicyKind)
PERIOD_CHOICES = (4, 5, 8, 10, 20, 40)  # all divide 40, so H <= 40


def sample_instance(rng: random.Random, max_scenarios: int = 20000, max_jobs: int = 30):
    """Random small instance with bounded scenario count and hyperperiod <= 40.

    Alternates between a deep profile (short periods, many jobs, little
    jitter) and a wide profile (long periods, heavy jitter and variation).
    Deadlines are drawn loose often enough that a healthy share of instances
    is schedulable, so both verdicts and the finish-bound comparison get
    exercised.
    """
    while True:
        wide = rng.random() < 0.5
        periods = (8, 10, 20, 40) if wide else PERIOD_CHOICES
        spans = (0, 1, 1, 2, 2) if wide else (0, 0, 0, 1)
        n = rng.choice((1, 2, 2, 3, 3, 3))
        tasks = []
        for i in range(n):
            period = rng.choice(periods)
            c_max = rng.randint(1, max(1, period // 3))
            c_min = max(1, c_max - rng.choice(spans))
            r_span = rng.choice(spans)
            r_min = rng.randint(0, max(0, period - r_span - 1))
            r_max = r_min + r_span
            if rng.random() < 0.7:
                d_lo = min(period, r_max + c_max)  # usually satisfiable
            else:
                d_lo = max(1, c_max)               # sometimes tight
            deadline = rng.randint(d_lo, max(d_lo, period + rng.choice((0, 0, 0, 4))))
            tasks.append(Task(i + 1, period, r_min, r_max, c_min, c_max,
                              deadline, rng.choice((0, 0, 1, 2))))
        instance = make_instance(tasks)
        if len(instance.jobs) > max_jobs:
            continue
        if scenario_count(instance) > max_scenarios:
            continue
        return instance


def mask(instance, keys) -> int:
    """Finished-set bitmask of the jobs with the given (task, index) keys."""
    out = 0
    for key in keys:
        out |= 1 << instance.job(key).pos
    return out


def eligible_at(ctx, t, exclude=frozenset()):
    ce = certainly_eligible(ctx, t, exclude)
    head = [] if ce is None else [ce]
    return head + possibly_eligible(ctx, t, exclude)


def exploration_bound(ctx) -> int:
    """Smallest t >= lft at which a certainly eligible job exists.

    A certainly eligible job can only appear when some applicable job
    becomes certainly released, so it suffices to probe lft and the r_max
    values above it. If none of them works, no later time can either.
    """
    candidates = sorted({ctx.lft} | {j.r_max for j in ctx.applicable if j.r_max > ctx.lft})
    for t in candidates:
        if certainly_eligible(ctx, t) is not None:
            return t
    raise AnalysisStuck(f"no certainly eligible job exists at or after t={ctx.lft}")


def naive_windows_me(ctx):
    """Per-integer-time sweep over the exploration interval."""
    lo = ctx.eft
    hi = exploration_bound(ctx)
    open_runs: dict = {}
    out = []
    for t in range(lo, hi + 2):
        eligible = [] if t > hi else eligible_at(ctx, t)
        live = set(eligible)
        for job in [j for j in open_runs if j not in live]:
            out.append((job, open_runs.pop(job), t - 1))
        for job in eligible:
            if job not in open_runs:
                open_runs[job] = t
    assert not open_runs
    return out


def naive_windows_se(ctx):
    """Per-integer-time sweep with single-eligibility consumption semantics."""
    lo, lft = ctx.eft, ctx.lft
    cap = max([lft] + [j.r_max for j in ctx.applicable])
    if ctx.crit is not None:
        cap = max([cap] + [ctx.crit.time - j.c_max + 1 for j in ctx.applicable
                           if j.pos != ctx.crit.job.pos])
    consumed: set = set()  # positions
    open_runs: dict = {}
    out = []
    bound = None
    for t in range(lo, cap + 1):
        eligible = eligible_at(ctx, t, frozenset(consumed))
        live = set(eligible)
        for job in [j for j in open_runs if j not in live]:
            out.append((job, open_runs.pop(job), t - 1))
            consumed.add(job.pos)
        for job in eligible:
            if job not in open_runs and job.pos not in consumed:
                open_runs[job] = t
        if t >= lft and certainly_eligible(ctx, t, frozenset(consumed)) is not None:
            bound = t
            break
    if bound is None:
        raise AnalysisStuck("naive single-eligibility sweep found no dispatch time")
    for job, est in open_runs.items():
        out.append((job, est, bound))
    return out


def check_graph(graph, result=None) -> None:
    """Structural invariants of a generated graph; raises AssertionError."""
    merged_levels = len(graph.levels)
    if result is not None and not result.bounds_complete:
        merged_levels -= 1  # the aborting level is recorded pre-merge
    seen = set()
    for level, ids in enumerate(graph.levels):
        by_mask: dict[int, list[tuple[int, int]]] = {}
        for vid in ids:
            vertex = graph.vertices[vid]
            assert vid not in seen
            seen.add(vid)
            assert vertex.level == level
            assert bin(vertex.finished).count("1") == level
            assert vertex.eft <= vertex.lft
            by_mask.setdefault(vertex.finished, []).append(vertex.interval)
        if level < merged_levels:
            for intervals in by_mask.values():
                intervals.sort()
                for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                    assert lo > hi, "same finished set with overlapping intervals"
    assert seen == set(graph.vertices)
    assert graph.levels[0] == [graph.root]
    root = graph.vertices[graph.root]
    assert root.interval == (0, 0) and root.finished == 0

    pairs = set()
    per_label = {}
    for arc in graph.arcs.values():
        src = graph.vertices[arc.src]
        dst = graph.vertices[arc.dst]
        job = graph.job_of_arc(arc)
        pos = arc.job_pos
        assert job.pos == pos
        assert (arc.src, arc.dst) not in pairs, "multigraph"
        pairs.add((arc.src, arc.dst))
        assert not src.finished >> pos & 1
        assert dst.finished == src.finished | 1 << pos
        assert dst.level == src.level + 1
        assert arc.est <= arc.lst
        assert dst.eft <= arc.est + job.c_min
        assert arc.lst + job.c_max <= dst.lft
        assert arc.id in src.out_arcs and arc.id in dst.in_arcs
        if graph.kind.work_conserving:
            key = (arc.src, arc.job_pos)
            assert key not in per_label, "work-conserving job dispatched twice from one vertex"
            per_label[key] = arc
            assert arc.est == max(src.eft, job.r_min)
    for vertex in graph.vertices.values():
        for aid in vertex.in_arcs:
            assert graph.arcs[aid].dst == vertex.id
        for aid in vertex.out_arcs:
            assert graph.arcs[aid].src == vertex.id


def check_trace(instance, kind, release, trace) -> None:
    """Trace invariants: disjoint dispatches, per-task order, no forbidden idling."""
    last_end = 0
    for job, start, finish in trace.dispatches:
        assert start >= last_end, "overlapping dispatches"
        assert finish > start
        assert release[job.key] <= start, "job started before its release"
        last_end = finish
    per_task: dict[int, int] = {}
    for job, _, _ in trace.dispatches:
        assert per_task.get(job.task_id, 0) == job.index - 1, "task order violated"
        per_task[job.task_id] = job.index
    if kind.work_conserving:
        finished_at: dict = {}
        for job, _, finish in trace.dispatches:
            finished_at[job.key] = finish
        for a, b in trace.idle:
            for job in instance.jobs:
                started = any(j.key == job.key and s < b for j, s, _ in trace.dispatches)
                assert started or release[job.key] >= b, (
                    f"{job.label} released at {release[job.key]} during idle [{a},{b})"
                )
