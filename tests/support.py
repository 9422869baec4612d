"""Shared helpers: instance samplers, reference implementations, invariant checks.

The naive sweeps probe every integer time point and serve as the independent
reference for the boundary-time sweep inside the engine; the me sweep's
exploration bound is computed here too, apart from the engine's stop rule.
They decide eligibility by the pointwise reference functions below, which
are written from the definition (release bounds, the critical budget and
the smallest `priority_key`) and share nothing with the engine's rank order.
The reference critical context takes the applicable jobs in any order and
shares nothing with the engine's urgency order.
The product oracle plays every scenario apart, each up to its first miss in
a loop of its own with the reference critical context (built once per tuple
of each task's next job), and is the reference for the engine's
prefix-sharing search. The reference simulator derives the
applicable and released jobs and the critical context afresh at every
scheduling decision and is the reference for the simulator's kept state.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from schedgraph import (AnalysisStuck, ExecutionScenario, InstanceError, PolicyKind,
                        ScenarioCapExceeded, Task, make_instance, scenario_count)
from schedgraph.generator import UTILIZATION_TOLERANCE
from schedgraph.oracle import DEFAULT_SCENARIO_CAP, OracleReport, SimulationTrace
from schedgraph.policy import CriticalContext, pick

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
ANOMALY = INSTANCE_DIR / "anomaly.txt"
ANOMALY_MISS = INSTANCE_DIR / "anomaly_miss.scenario"  # a scenario of ANOMALY that misses
EDF_JITTER = INSTANCE_DIR / "edf_jitter.txt"
PRECAUTIOUS_IDLE = INSTANCE_DIR / "precautious_idle.txt"
PRECAUTIOUS_IDLE_WORST = INSTANCE_DIR / "precautious_idle_worst.scenario"  # its worst case
SE_STUCK_SCHEDULABLE = INSTANCE_DIR / "se_stuck_schedulable.txt"

ALL_POLICIES = list(PolicyKind)
PERIOD_CHOICES = (4, 5, 8, 10, 20, 40)  # all divide 40, so H <= 40
# `sample_crowded_instance` keywords for 7-8 tasks with release jitter up to 4
MANY_TASKS = {"n_tasks": (7, 8), "r_spans": (0, 1, 2, 3, 4)}


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


def sample_crowded_instance(rng: random.Random, n_tasks: tuple[int, int] = (4, 6),
                            r_spans: tuple[int, ...] = (0, 0, 1, 2),
                            max_scenarios: int = 10**4):
    """Random instance of `n_tasks` (low, high) tasks with priorities 0-3 and hyperperiod <= 40.

    It has at most 40 jobs and `max_scenarios` scenarios, and each task's
    release jitter is drawn from `r_spans`. Execution times stay under 1/n of
    a task's period and under half the shortest period, so that crowded task
    sets still meet their deadlines often enough to compare finish bounds;
    non-preemptive blocking and the occasional tight deadline still cause
    misses.
    """
    low, high = n_tasks
    while True:
        periods = [rng.choice(PERIOD_CHOICES) for _ in range(rng.randint(low, high))]
        n = len(periods)
        drawn = []  # each task's fields after its id, as plain integers
        for period in periods:
            c_max = rng.randint(1, max(1, min(period // n, min(periods) // 2)))
            c_min = max(1, c_max - rng.choice((0, 0, 1)))
            r_span = rng.choice(r_spans)
            r_min = rng.randint(0, max(0, period - r_span - 1))
            r_max = r_min + r_span
            if rng.random() < 0.9:
                deadline = rng.randint(min(period, r_max + c_max), period)
            else:
                deadline = rng.randint(c_max, max(c_max, r_max + c_max))
            drawn.append((period, r_min, r_max, c_min, c_max, deadline, rng.randint(0, 3)))
        hyperperiod = math.lcm(*periods)
        if sum(hyperperiod // period for period in periods) > 40:
            continue  # over 40 jobs: refused before any task is built
        # the scenario count, unbuilt: each task has H / period jobs, as r_min < period
        scenarios = math.prod(((r_max - r_min + 1) * (c_max - c_min + 1)) ** (hyperperiod // period)
                              for period, r_min, r_max, c_min, c_max, _, _ in drawn)
        if scenarios <= max_scenarios:
            return make_instance([Task(i + 1, *fields) for i, fields in enumerate(drawn)])


def utilization(tasks) -> Fraction:
    """Exact total utilization: sum of worst-case execution time over period."""
    tasks = list(tasks)
    if not tasks:
        raise InstanceError("empty instance")
    return sum((Fraction(t.c_max, t.period) for t in tasks), Fraction(0))


@dataclass(frozen=True)
class RatioReport:
    """Measured jitter/variation ratios per task plus the exact utilization."""

    per_task: dict[int, tuple[Fraction, Fraction]]  # id -> (jitter, variation)
    utilization: Fraction


def measure_ratios(instance) -> RatioReport:
    """Evaluate the generator's ratio definitions on actual task parameters."""
    per_task = {}
    for task in instance.tasks:
        jitter = Fraction(task.r_max - task.r_min, task.r_max) if task.r_max > 0 else Fraction(0)
        variation = (Fraction(task.c_max - task.c_min, task.c_max - 1)
                     if task.c_max > 1 else Fraction(0))
        per_task[task.id] = (jitter, variation)
    return RatioReport(per_task, utilization(instance.tasks))


def reference_repair_utilization(periods: list[int], c_maxes: list[int], target: float) -> bool:
    """The generator's +-1 utilization repair written over `Fraction`: the
    reference for its integer arithmetic in units of 1/lcm(periods)."""
    current = sum(Fraction(c, p) for c, p in zip(c_maxes, periods))
    for _ in range(256):
        distance = abs(float(current) - target)
        if distance <= UTILIZATION_TOLERANCE + 1e-12:
            return True
        direction = 1 if float(current) < target else -1
        best = None
        for i, (c, p) in enumerate(zip(c_maxes, periods)):
            if not 1 <= c + direction <= p:
                continue
            candidate = current + Fraction(direction, p)
            gap = abs(float(candidate) - target)
            if best is None or gap < best[0]:
                best = (gap, i, candidate)
        if best is None or best[0] >= distance:
            return False
        _, i, current = best
        c_maxes[i] += direction
    return False


def product_oracle(instance, kind, max_scenarios: int = DEFAULT_SCENARIO_CAP,
                   exhaustive: bool = False) -> OracleReport:
    """Play every integer scenario apart, in lexicographic (task, job, r, c) order.

    Each scenario is played up to its first miss, and the finish extremes
    cover the jobs played. Stops at the first failing scenario unless
    `exhaustive` is set. In exhaustive mode its report equals
    `enumerate_scenarios`' in every field.
    """
    total = scenario_count(instance)
    if total > max_scenarios:
        raise ScenarioCapExceeded(total, max_scenarios)
    dims = []
    for job in instance.jobs:
        dims += [range(job.r_min, job.r_max + 1), range(job.c_min, job.c_max + 1)]
    runs = [instance.jobs_by_task[task.id] for task in instance.tasks]
    slot = {task.id: i for i, task in enumerate(instance.tasks)}
    states: dict[tuple, tuple] = {}  # ptr -> (applicable jobs, critical context)

    def state(ptr: tuple) -> tuple:
        if ptr not in states:
            applicable = [run[p] for run, p in zip(runs, ptr) if p < len(run)]
            states[ptr] = (applicable, reference_critical_context(kind, applicable))
        return states[ptr]

    finish_min: dict[tuple[int, int], int] = {}
    finish_max: dict[tuple[int, int], int] = {}
    first_failure = None
    checked = 0
    for combo in itertools.product(*dims):
        # release and execution times by job position
        release, execution = combo[0::2], combo[1::2]
        checked += 1
        # play the scenario up to its first miss, as the enumerator does
        ptr = (0,) * len(runs)  # each task's next job
        applicable, crit = state(ptr)
        t = 0
        missed = False
        while applicable:
            job = pick(t, crit, sorted((j for j in applicable if release[j.pos] <= t),
                                       key=kind.priority_key))
            if job is None:
                t = min(release[j.pos] for j in applicable if release[j.pos] > t)
                continue
            t += execution[job.pos]
            key = job.key
            if key not in finish_min or t < finish_min[key]:
                finish_min[key] = t
            if key not in finish_max or t > finish_max[key]:
                finish_max[key] = t
            if t > job.deadline:
                missed = True
                break
            i = slot[job.task_id]
            ptr = (*ptr[:i], ptr[i] + 1, *ptr[i + 1:])
            applicable, crit = state(ptr)
        if missed and first_failure is None:
            first_failure = ExecutionScenario(
                {job.key: release[job.pos] for job in instance.jobs},
                {job.key: execution[job.pos] for job in instance.jobs})
            if not exhaustive:
                break
    return OracleReport(
        schedulable=first_failure is None,
        scenarios_checked=checked,
        scenarios_total=total,
        finish_min=finish_min,
        finish_max=finish_max,
        first_failure=first_failure,
    )


def reference_simulate(instance, kind, release, execution):
    """Play one scenario given by job position, deriving the scheduler's state
    at every decision: the applicable jobs from each task's pointer, the
    released ones by filtering and sorting them, and the critical context by
    `reference_critical_context`. Returns the simulator's `SimulationTrace`."""
    runs = [instance.jobs_by_task[task.id] for task in instance.tasks]
    slot = {task.id: i for i, task in enumerate(instance.tasks)}
    ptr = [0] * len(runs)
    t = 0
    dispatches, idle, misses = [], [], []
    while len(dispatches) < len(instance.jobs):
        applicable = [run[p] for run, p in zip(runs, ptr) if p < len(run)]
        crit = reference_critical_context(kind, applicable)
        job = pick(t, crit, sorted((j for j in applicable if release[j.pos] <= t),
                                   key=kind.priority_key))
        if job is None:
            upcoming = [release[j.pos] for j in applicable if release[j.pos] > t]
            if not upcoming:
                raise RuntimeError("scheduler idles with every applicable job released")
            nxt = min(upcoming)
            idle.append((t, nxt))
            t = nxt
            continue
        finish = t + execution[job.pos]
        dispatches.append((job, t, finish))
        if finish > job.deadline:
            misses.append((job, finish, job.deadline))
        ptr[slot[job.task_id]] += 1
        t = finish
    return SimulationTrace(dispatches, idle, misses)


def mask(instance, keys) -> int:
    """Finished-set bitmask of the jobs with the given (task, index) keys."""
    out = 0
    for key in keys:
        out |= 1 << instance.job(key).pos
    return out


def reference_critical_context(kind, applicable):
    """Critical context of the applicable jobs given in any order, written from
    the definition: P-FP-EDF protects the p=0 job with the earliest certain
    release, CP the earliest deadline, and CW the earliest deadline under a
    budget folded over every job, latest deadline first."""
    jobs = list(applicable)
    if kind.work_conserving or not jobs:
        return None
    if kind is PolicyKind.P_FP_EDF:
        top = [j for j in jobs if j.priority == 0]
        if not top:
            return None
        crit = min(top, key=lambda j: (j.r_max, j.task_id))
        return CriticalContext(crit.pos, crit.deadline - crit.c_max)
    crit = min(jobs, key=lambda j: (j.deadline, j.task_id))
    if kind is PolicyKind.CP:
        return CriticalContext(crit.pos, crit.deadline - crit.c_max)
    budget = None
    for job in sorted(jobs, key=lambda j: (-j.deadline, j.task_id)):
        budget = (job.deadline if budget is None else min(budget, job.deadline)) - job.c_max
    return CriticalContext(crit.pos, budget)


def _admitted(apps, job, t, exclude) -> bool:
    return (apps.crit is None or t <= apps.crit.latest_start(job)) and job.pos not in exclude


def reference_certainly_eligible(apps, t, exclude=frozenset()):
    """The job of smallest `priority_key` among those certainly released (r_max <= t)
    and admitted by the critical budget at t, or None."""
    candidates = [j for j in apps.applicable if j.r_max <= t and _admitted(apps, j, t, exclude)]
    return min(candidates, key=apps.kind.priority_key, default=None)


def reference_possibly_eligible(apps, t, exclude=frozenset()):
    """Jobs possibly released at t (r_min <= t < r_max), admitted by the budget
    and of smaller `priority_key` than the certain choice, in position order."""
    ce = reference_certainly_eligible(apps, t, exclude)
    return [j for j in apps.applicable
            if j.r_min <= t < j.r_max and _admitted(apps, j, t, exclude)
            and (ce is None or apps.kind.priority_key(j) < apps.kind.priority_key(ce))]


def eligible_at(apps, t, exclude=frozenset()):
    ce = reference_certainly_eligible(apps, t, exclude)
    head = [] if ce is None else [ce]
    return head + reference_possibly_eligible(apps, t, exclude)


def exploration_bound(apps, lft) -> int:
    """Smallest t >= lft at which a certainly eligible job exists.

    A certainly eligible job can only appear when some applicable job
    becomes certainly released, so it suffices to probe lft and the r_max
    values above it. If none of them works, no later time can either.
    """
    candidates = sorted({lft} | {j.r_max for j in apps.applicable if j.r_max > lft})
    for t in candidates:
        if reference_certainly_eligible(apps, t) is not None:
            return t
    raise AnalysisStuck(f"no certainly eligible job exists at or after t={lft}")


def naive_windows_me(apps, eft, lft):
    """Per-integer-time sweep over the exploration interval of a vertex [eft, lft]."""
    hi = exploration_bound(apps, lft)
    open_runs: dict = {}
    out = []
    for t in range(eft, hi + 2):
        eligible = [] if t > hi else eligible_at(apps, t)
        live = set(eligible)
        for job in [j for j in open_runs if j not in live]:
            out.append((job, open_runs.pop(job), t - 1))
        for job in eligible:
            if job not in open_runs:
                open_runs[job] = t
    assert not open_runs
    return out


def naive_windows_se(apps, eft, lft):
    """Per-integer-time sweep with single-eligibility consumption semantics."""
    cap = max([lft] + [j.r_max for j in apps.applicable])
    if apps.crit is not None:
        cap = max([cap] + [apps.crit.time - j.c_max + 1 for j in apps.applicable
                           if j.pos != apps.crit.pos])
    consumed: set = set()  # positions
    open_runs: dict = {}
    out = []
    bound = None
    for t in range(eft, cap + 1):
        eligible = eligible_at(apps, t, frozenset(consumed))
        live = set(eligible)
        for job in [j for j in open_runs if j not in live]:
            out.append((job, open_runs.pop(job), t - 1))
            consumed.add(job.pos)
        for job in eligible:
            if job not in open_runs and job.pos not in consumed:
                open_runs[job] = t
        if t >= lft and reference_certainly_eligible(apps, t, frozenset(consumed)) is not None:
            bound = t
            break
    if bound is None:
        raise AnalysisStuck("naive single-eligibility sweep found no dispatch time")
    for job, est in open_runs.items():
        out.append((job, est, bound))
    return out


def finish_bounds(graph) -> dict[tuple[int, int], tuple[int, int]]:
    """Per-job finish bounds read back from the stored arcs' dispatch windows.

    An arc's window folds in every duplicate merged into it, so
    [est + c_min, lst + c_max] over a job's arcs is its exact finish range.
    """
    bounds: dict[int, tuple[int, int]] = {}  # by job position
    for arc_id in sorted(graph.arcs):
        arc = graph.arcs[arc_id]
        job = graph.instance.jobs[arc.job_pos]
        lo = arc.est + job.c_min
        hi = arc.lst + job.c_max
        if job.pos in bounds:
            old_lo, old_hi = bounds[job.pos]
            bounds[job.pos] = (min(old_lo, lo), max(old_hi, hi))
        else:
            bounds[job.pos] = (lo, hi)
    return {graph.instance.jobs[pos].key: bound for pos, bound in bounds.items()}


def level_stats(graph) -> list[tuple[int, int]]:
    """Per stored level: (vertices, in-arcs), recounted from the graph."""
    return [(len(ids), sum(len(graph.vertices[vid].in_arcs) for vid in ids))
            for ids in graph.levels]


def check_graph(graph, result=None) -> None:
    """Structural invariants of a generated graph; raises AssertionError.

    With the analysis result, its bounds and level stats must equal the
    ones read back from the stored graph.
    """
    if result is not None:
        assert result.bounds == finish_bounds(graph)
        assert result.levels == level_stats(graph)
        assert len(result.created) == len(result.levels) and result.created[0] == 0
        assert sum(result.created) == graph.vertices_created - 1
        if not result.bounds_complete:  # the aborting level is recorded as created
            assert result.created[-1] == result.levels[-1][0]
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
        job = graph.instance.jobs[arc.job_pos]
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
