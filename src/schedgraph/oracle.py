"""Online-scheduler simulator and exhaustive scenario enumerator.

The simulator plays one concrete scenario: the scheduler is invoked at time
zero, at every job completion, and, while idle, at each upcoming release.
It reads the scenario by job position in the same pass that validates it,
and keeps the scheduler's state between decisions, because the applicable
set changes only at a dispatch: the applicable jobs not yet released in a
heap by release time, the released ones in priority order, and, under an
idling policy, the applicable jobs in urgency order. A release inserts its
job into the priority order, so `pick` takes the first released job the
start budget admits. A dispatch bisects its job out of the priority order
and, under an idling policy, out of the urgency order, into which it
inserts the task's next job; the critical context that `pick` reads is
folded from that order once per applicable set.
The enumerator covers the full integer grid of release and execution times
and is the ground-truth check for the graph analysis on small instances.
It does not play the grid's scenarios one by one: a depth-first search
over the scheduler's decisions plays each prefix that scenarios share
once, branching on a job's release only when the scheduler is about to
look at it and on its execution time only when it is dispatched. Each
leaf of the search stands for a box of scenarios (a product of per-job
release and execution intervals) that all take its decisions. Different
dispatch orders often reach the same scheduler state, so the search is
memoized: each distinct state is searched once per call, and the memo, one
entry per distinct state, is dropped when the call returns. The search
keeps one explicit stack: a state pushes an exit marker below its
children, and is finished, its count and first failure folded into its
parent, when the marker pops; on a first-miss stop, the markers still on
the stack are the chain from the root to the failing state. Each task's
next job, `ptr`, fixes the applicable jobs and so the critical context and
their priority order, so the search builds all three once per distinct
`ptr`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .model import ExecutionScenario, InstanceError, Job, ProblemInstance, validate_scenario
from .policy import CriticalContext, PolicyKind, critical_context, pick

DEFAULT_SCENARIO_CAP = 10**7


class ScenarioCapExceeded(RuntimeError):
    """The instance has more scenarios than the enumerator is allowed to run."""

    def __init__(self, total: int, cap: int):
        super().__init__(f"{total} scenarios exceed the cap of {cap}")
        self.total = total
        self.cap = cap


def scenario_count(instance: ProblemInstance) -> int:
    """Number of integer scenarios: product of all release and execution spans."""
    total = 1
    for job in instance.jobs:
        total *= (job.r_max - job.r_min + 1) * (job.c_max - job.c_min + 1)
    return total


@dataclass
class SimulationTrace:
    """Dispatches and idle gaps of one simulated scenario, in time order."""

    dispatches: list[tuple[Job, int, int]]  # (job, start, finish)
    idle: list[tuple[int, int]]
    misses: list[tuple[Job, int, int]]  # (job, finish, deadline)

    @property
    def miss(self) -> tuple[Job, int, int] | None:
        return self.misses[0] if self.misses else None


def simulate(instance: ProblemInstance, kind: PolicyKind,
             scenario: ExecutionScenario) -> SimulationTrace:
    """Play one scenario, validated and read by job position in one pass (misses are not fatal)."""
    if not instance.jobs:
        raise InstanceError("instance has no jobs")
    return _simulate(instance, kind, *validate_scenario(instance, scenario))


def _simulate(instance: ProblemInstance, kind: PolicyKind, release, execution) -> SimulationTrace:
    jobs, runs = instance.jobs, instance.jobs_by_task
    applicable = [run[0] for run in runs.values() if run]  # each task's first job
    waiting = [(release[job.pos], job.pos) for job in applicable]  # not yet released
    heapify(waiting)
    prio, key = kind.priority_key, kind.urgency_key
    released: list[Job] = []  # in priority order
    # an idling policy's applicable jobs in urgency order
    urgent = None if kind.work_conserving else sorted(applicable, key=key)
    crit = None if urgent is None else critical_context(kind, urgent)
    t = 0
    dispatches: list[tuple[Job, int, int]] = []
    idle: list[tuple[int, int]] = []
    misses: list[tuple[Job, int, int]] = []
    while len(dispatches) < len(jobs):
        while waiting and waiting[0][0] <= t:
            insort(released, jobs[heappop(waiting)[1]], key=prio)
        job = pick(t, crit, released)
        if job is None:
            if not waiting:
                # cannot happen for the built-in policies: the critical job is
                # always viable once released
                raise RuntimeError("scheduler idles with every applicable job released")
            idle.append((t, waiting[0][0]))
            t = waiting[0][0]
            continue
        finish = t + execution[job.pos]
        dispatches.append((job, t, finish))
        if finish > job.deadline:
            misses.append((job, finish, job.deadline))
        i = bisect_left(released, prio(job), key=prio)
        # equal keys would leave the order, and so the pick, to insertion order
        if i == len(released) or released[i] is not job:
            raise RuntimeError("priority order is not strict")
        del released[i]
        run = runs[job.task_id]
        nxt = run[job.index] if job.index < len(run) else None  # the task's next job
        if nxt is not None:
            heappush(waiting, (release[nxt.pos], nxt.pos))
        if urgent is not None:
            i = bisect_left(urgent, key(job), key=key)
            # equal keys would leave the order, and so the critical job, to insertion order
            if urgent[i] is not job:
                raise RuntimeError("urgency order is not strict")
            del urgent[i]
            if nxt is not None:
                insort(urgent, nxt, key=key)
            crit = critical_context(kind, urgent)
        t = finish
    return SimulationTrace(dispatches, idle, misses)


@dataclass
class OracleReport:
    """Verdict of the exhaustive enumeration plus per-job finish extremes."""

    schedulable: bool
    scenarios_checked: int
    scenarios_total: int
    finish_min: dict[tuple[int, int], int]
    finish_max: dict[tuple[int, int], int]
    first_failure: ExecutionScenario | None

    def to_json_dict(self) -> dict:
        data: dict = {
            "schedulable": self.schedulable,
            "scenarios_checked": self.scenarios_checked,
            "scenarios_total": self.scenarios_total,
            "finish_bounds": [
                {"task": task, "job": index,
                 "min": self.finish_min[(task, index)],
                 "max": self.finish_max[(task, index)]}
                for (task, index) in sorted(self.finish_min)
            ],
        }
        if self.first_failure is not None:
            data["first_failure"] = [
                {"task": task, "job": index,
                 "r": self.first_failure.release[(task, index)],
                 "c": self.first_failure.execution[(task, index)]}
                for (task, index) in sorted(self.first_failure.release)
            ]
        return data


def enumerate_scenarios(instance: ProblemInstance, kind: PolicyKind,
                        max_scenarios: int = DEFAULT_SCENARIO_CAP,
                        exhaustive: bool = False) -> OracleReport:
    """Simulate every integer scenario by a memoized depth-first search over decisions.

    The search asks `pick` once per decision prefix that scenarios share
    instead of once per scenario. A search state is a time t, each task's
    applicable job, and for each applicable job the lowest release it can
    still take (`lo`) and whether its release is resolved to "at most t";
    the scenarios it stands for are counted in a weight. At each decision
    time, before `pick` is asked, every applicable job whose release is
    still open is resolved:

    * lo > t: not released yet, no branch;
    * r_max <= t: released; the weight takes its r_max - lo + 1 values;
    * otherwise two branches: released in [lo, t] (weight times t - lo + 1),
      and not yet released (lo becomes t + 1).

    `pick` is then handed the jobs whose release is resolved, which are
    those with lo <= t, in priority order, and the critical context of the
    applicable jobs. The applicable jobs, their slots, their priority order
    and their context depend on `ptr` alone and are built once per distinct
    `ptr` in a call; the resolution above keeps slot order. When it idles,
    the time steps to the smallest open `lo`: no job is released in
    between, and a job a policy refuses at t it refuses later too. A
    dispatched job branches on each execution time; a finish past its
    deadline ends that branch in a failing leaf. A leaf stands for its
    weight times the values still open in every dimension it left
    undecided, and the leaves of a completed search sum to
    `scenario_count`; a search that does not is a bug and raises
    RuntimeError.

    Different dispatch orders often reach the same state, and what lies
    below a state depends on the state alone, so each distinct state
    `(t, ptr, lo, released)`, after a dispatch or a "not yet released"
    branch alike, is searched once per call. A finished state leaves a memo
    entry of two values: the scenarios below it at weight 1, and the
    smallest failing completion below it (a scenario in which the jobs
    dispatched before the state keep their lowest values), or None. A state
    reached again adds its weight times that count to its parent, and its
    completion stamped with the parent's dispatch `(pos, r, c)`. Each
    searched state folds into its parent in the same way, without
    recursion: before it pushes a child, it pushes an exit marker onto the
    search stack, so the marker pops once every child is folded in, and the
    state is finished there. After a first-miss stop, the markers left on
    the stack are the chain from the root to the failing state, and each
    is finished as it stands. The memo lives for one call and holds one
    entry per distinct state; it joins only equal concrete states. The
    finish extremes are not memoized: a repeated state's dispatches were
    all folded in when it was first searched.

    Raises InstanceError when the instance has no jobs, and
    ScenarioCapExceeded instead of sampling when the grid is larger than
    `max_scenarios`. With `exhaustive`, every state is searched and the
    report equals one that simulates each scenario apart: `first_failure`
    is the lexicographically smallest failing scenario in (task, job, r, c)
    order, the smallest over the failing leaves of each leaf's per-job
    minimum. Otherwise the search stops at its first dispatch that misses:
    `first_failure` is the smallest scenario of that dispatch's failing
    leaves, which need not be the lexicographically first failure, and
    `scenarios_checked` counts the scenarios of the leaves visited so far,
    those failing leaves included; the finish extremes then cover the
    visited leaves only. A state reached again in this mode was searched
    to the end without a miss, so the memo changes none of these. The
    search order is fixed (released before not yet released, longer
    execution times first), so all of these are stable across runs. A
    schedulable instance is always searched to the end, with
    `scenarios_checked == scenarios_total`.
    """
    if not instance.jobs:
        raise InstanceError("instance has no jobs")
    total = scenario_count(instance)
    if total > max_scenarios:
        raise ScenarioCapExceeded(total, max_scenarios)
    runs = [instance.jobs_by_task[task.id] for task in instance.tasks]
    sizes = [len(run) for run in runs]
    slot = {task.id: i for i, task in enumerate(instance.tasks)}
    # open_tail[i][p]: scenarios of the jobs of run i from index p on
    open_tail = []
    for run in runs:
        tail = [1]
        for job in reversed(run):
            tail.append(tail[-1] * (job.r_max - job.r_min + 1) * (job.c_max - job.c_min + 1))
        open_tail.append(tail[::-1])
    lowest = [v for job in instance.jobs for v in (job.r_min, job.c_min)]
    finish_min: list[int | None] = [None] * len(instance.jobs)
    finish_max: list[int | None] = [None] * len(instance.jobs)
    # finished state -> [count, failure]: failure is a flat (r, c) per job
    memo: dict[tuple, list] = {}
    done = tuple(sizes)  # the ptr once every job is dispatched
    # ptr -> (live slots, their (slot, applicable job) pairs in priority order,
    # critical context)
    ptr_state: dict[tuple, tuple[list[int], list[tuple[int, Job]], CriticalContext | None]] = {}

    def fold(acc: list, weight: int, edge, count: int, failure) -> None:
        """Fold a finished state, reached by `edge` at `weight`, into its parent's `acc`."""
        acc[0] += weight * count
        if failure is not None:
            if edge is not None:  # the parent's dispatch: its job at its release and execution
                pos, r, c = edge
                failure = failure.copy()
                failure[2 * pos], failure[2 * pos + 1] = r, c
            if acc[1] is None or failure < acc[1]:
                acc[1] = failure

    top = [0, None]  # collects the root's count and failure
    # (t, ptr, lo, released, parent, weight, edge), or an exit marker
    # (None, acc, key, parent, weight, edge) below the children of a state
    stack: list[tuple] = [(0, (0,) * len(runs), tuple(run[0].r_min if run else 0 for run in runs),
                           (False,) * len(runs), top, 1, None)]
    while stack:
        entry = stack.pop()
        if entry[0] is None:  # every child is folded in: the state is finished
            _, acc, key, parent, weight, edge = entry
            memo[key] = acc
            fold(parent, weight, edge, *acc)
            continue
        t, ptr, lo, released, parent, weight, edge = entry
        key = (t, ptr, lo, released)
        if key in memo:
            fold(parent, weight, edge, *memo[key])
            continue
        if ptr == done:  # every job dispatched: one scenario
            fold(parent, weight, edge, 1, None)
            continue
        acc = [0, None]  # the state's count and failure, both at weight 1
        stack.append((None, acc, key, parent, weight, edge))
        if ptr not in ptr_state:
            live = [i for i, size in enumerate(sizes) if ptr[i] < size]
            applicable = [runs[i][ptr[i]] for i in live]
            by_priority = sorted(zip(live, applicable), key=lambda pair: kind.priority_key(pair[1]))
            ptr_state[ptr] = (live, by_priority, None if kind.work_conserving else
                              critical_context(kind, sorted(applicable, key=kind.urgency_key)))
        live, by_priority, crit = ptr_state[ptr]
        lo = list(lo)
        released = list(released)
        weight = 1  # from here on, relative to the state
        while True:
            for i in live:
                if released[i] or lo[i] > t:
                    continue
                r_max = runs[i][ptr[i]].r_max
                if r_max <= t:
                    weight *= r_max - lo[i] + 1
                else:  # resumed by a scan that skips slot i and every slot before it
                    stack.append((t, ptr, (*lo[:i], t + 1, *lo[i + 1:]), tuple(released),
                                  acc, weight, None))
                    weight *= t - lo[i] + 1
                released[i] = True
            # lo stands in for a release: it is <= t exactly when the release is resolved
            job = pick(t, crit, [job for i, job in by_priority if lo[i] <= t])
            if job is None:
                upcoming = [lo[i] for i in live if not released[i]]
                if not upcoming:
                    raise RuntimeError("scheduler idles with every applicable job released")
                t = min(upcoming)
                continue
            pos = job.pos
            if finish_min[pos] is None or t + job.c_min < finish_min[pos]:
                finish_min[pos] = t + job.c_min
            if finish_max[pos] is None or t + job.c_max > finish_max[pos]:
                finish_max[pos] = t + job.c_max
            i = slot[job.task_id]
            p = ptr[i]
            fits = min(job.c_max, job.deadline - t)  # longest execution that meets the deadline
            if fits < job.c_max:
                # each longer execution is a failing leaf; they differ only in c
                missing = job.c_max - max(fits, job.c_min - 1)
                box = weight * open_tail[i][p + 1]
                for j, other in by_priority:
                    if j != i:
                        box *= open_tail[j][ptr[j] + 1] * (other.c_max - other.c_min + 1)
                        if not released[j]:
                            box *= other.r_max - lo[j] + 1
                # the leaves' smallest completion: each open dimension at its lowest value
                failure = lowest.copy()
                for j, other in by_priority:
                    failure[2 * other.pos] = lo[j]
                failure[2 * pos + 1] = max(fits + 1, job.c_min)
                fold(acc, 1, None, box * missing, failure)
                if not exhaustive:
                    break
            if fits >= job.c_min:
                ptr_next = (*ptr[:i], p + 1, *ptr[i + 1:])
                lo_next = (*lo[:i], runs[i][p + 1].r_min if p + 1 < sizes[i] else 0, *lo[i + 1:])
                released_next = (*released[:i], False, *released[i + 1:])
                for c in range(job.c_min, fits + 1):
                    stack.append((t + c, ptr_next, lo_next, released_next, acc, weight,
                                  (pos, lo[i], c)))
            break
        if acc[1] is not None and not exhaustive:
            break  # the first miss ends the search
    # after a first-miss stop, the exit markers left on the stack, among states not
    # yet searched, are the chain from the root to the failing state: finish them
    for entry in reversed(stack):
        if entry[0] is None:
            _, acc, _, parent, weight, edge = entry
            fold(parent, weight, edge, *acc)
    checked, failure = top
    if (exhaustive or failure is None) and checked != total:
        raise RuntimeError(f"search covered {checked} of {total} scenarios")
    jobs = instance.jobs
    first_failure = None
    if failure is not None:
        first_failure = ExecutionScenario({job.key: failure[2 * job.pos] for job in jobs},
                                          {job.key: failure[2 * job.pos + 1] for job in jobs})
    return OracleReport(
        schedulable=failure is None,
        scenarios_checked=checked,
        scenarios_total=total,
        finish_min={job.key: finish_min[job.pos] for job in jobs if finish_min[job.pos] is not None},
        finish_max={job.key: finish_max[job.pos] for job in jobs if finish_max[job.pos] is not None},
        first_failure=first_failure,
    )
