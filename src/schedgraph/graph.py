"""Schedule-graph generation for exact, sustainable schedulability analysis.

The graph abstracts every execution scenario of an instance under one
policy. A vertex stands for "this set of jobs has finished and the
processor becomes free at some time in [eft, lft]"; an arc stands for
dispatching one more job over a window of start times. Levels are indexed
by the number of finished jobs; the root is level 0 with interval [0, 0].

A job is named by its position `job.pos` in `instance.jobs`: its bit in a
vertex's finished set, its arcs' and its successor candidates' `job_pos`.
A task's jobs hold consecutive positions, so the applicable job of each
task, its first unfinished one, is read off one bit field.

Expanding a vertex asks, for every applicable job, at which integer times it
could be the next job started:

* a job is *certainly eligible* at t when it is certainly released
  (r_max <= t), respects the critical start budget, and no other such job
  outranks it; there is at most one per t;
* a job is *possibly eligible* at t when it is possibly released
  (r_min <= t < r_max), respects the budget, and outranks the certainly
  eligible job (vacuously when there is none).

Priorities are integer ranks: `generate` ranks every job position by the
policy's `priority_key` once, so outranking is `int <`, and by an idling
policy's `urgency_key` too. The graph keeps each job's entry `(rank, r_min,
r_max, c_max, pos, c_min, deadline, job)` in a table by position; an
applicable set holds its jobs' entries in rank order, so the probe,
`expand` and `generate` read no `Job` attribute. The probe reads the
critical start budget, `crit.pos` and `crit.time` (`-1` and inf without
one), once per call and admits a job at t iff `t + c_max <= crit.time` or
it is the critical job, `CriticalContext.latest_start`'s rule. Only the
root's set is computed from its finished set. A successor's is derived
from its parent's: the dispatched job's entry and urgency slot go to its
task's next job, or are dropped when the task is done, and the critical
context is read off the new urgency order, whose ranks `derive` bisects as
plain integers, with no key function. `ApplicableSet`, the only eligibility
state, serves every vertex that has it for one level, unchanged: the probe
`possibly_eligible(apps, t)` reads it alone, and `expansion_windows(apps,
eft, lft, mode)` adds the vertex's interval. `make_context` builds the same
set from scratch for any finished set.

One sweep serves both generation modes. Each probe is one walk of the
entries in rank order, `possibly_eligible(apps, t)`. It stops at the
certainly eligible job, the first admitted one that is certainly released,
and returns it, the possibly eligible jobs, the admitted ones ranked above
it, and the next event that can change either: a release bound, or the
instant a job stops respecting the budget (`last + 1`, where its latest
start `last` is `crit.time - c_max`), of a job ranked above the certain
choice, or that choice's own `last + 1`. A job ranked below the certain
choice is not eligible while that choice stays admitted, a job past its
latest start never is again, and one released after it never is at all, so
the walk takes no event from them. Eligibility is constant from one probe
to the next, every event lies after the probe, and the sweep probes eft and
then each next event. Each job's eligible times form maximal integer
ranges; each range becomes one window `(pos, est, lst)` and one new vertex,
`expand(graph, vertex, pos, est, lst)`. The sweep stops at the first probe
that has a certainly eligible job and whose next event lies beyond lft: by
max(probe, lft) the processor has certainly started something, so later
times cannot begin the next dispatch, and every open range closes there.
Without a critical budget a job gets at most one range, from its release
on; under a budget the check can cut a range and re-open it later, so one
vertex may carry several arcs with the same job label.

The two generation modes differ only in what the sweep forgets. The
default, multiple eligibility ("me"), expands every range. Single
eligibility ("se") reproduces the older behaviour of letting each job
become eligible at most once per vertex: when a job's range ends, the sweep
deletes its entry, by rank, from the sweep's own copy of the applicable
set, so it no longer counts as eligible, certainly or possibly, at later
probes; the shared set is never changed.

A level is merged before it is recorded: expansion yields plain successor
candidates, each filed under its finished set as it is made, and the merge
takes each set apart, so only candidates that share a set are ever sorted or
compared. It records the survivors as frontier tuples `(finished, eft, id,
lft)` and the kept arcs, set by set, as one flat `array('Q')`; a
merged-away id is only counted. A successor's interval at creation is
exactly [est + c_min, lst + c_max] of its window, so it is folded into its
job's finish bound and checked against the deadline right there. `Vertex`
and `Arc` objects are built only when the graph is read. Generation makes
no reference cycles, so `generate` pauses the cyclic garbage collector,
which would only rescan the level's working set, and leaves it as found.
"""

from __future__ import annotations

import gc
import time
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from math import inf
from operator import attrgetter, itemgetter
from typing import Sequence

from .model import InstanceError, Job, ProblemInstance
from .policy import CriticalContext, PolicyKind, critical_context

ME = "me"
SE = "se"
MODES = (ME, SE)
_ID = attrgetter("id")
_EFT = itemgetter(1)  # a candidate's earliest finish time
_VID = itemgetter(2)  # a frontier tuple's or a candidate's vertex id
_NO_BUDGET = (-1, inf)  # (crit.pos, crit.time) without a budget: every job is admitted


class AnalysisStuck(RuntimeError):
    """No dispatch time exists at or after a vertex's latest finish time."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


@dataclass(slots=True)
class Vertex:
    id: int
    eft: int
    lft: int
    finished: int  # bit job.pos is set for every finished job
    level: int
    in_arcs: list[int] = field(default_factory=list)
    out_arcs: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Arc:
    id: int
    src: int
    dst: int
    job_pos: int
    est: int  # dispatch window recorded at creation; merged duplicates fold in
    lst: int


class ScheduleGraph:
    """Level-structured DAG of scheduler states for one (instance, policy, mode).

    `recorded` holds each level, the root's first, as its frontier tuples in
    id order and its arcs' `(id, src, dst, job_pos, est, lst)` in in-arc
    order. A read of `vertices` or `arcs` adds the levels recorded since the
    last read to the same dicts, so objects read earlier gain later out-arcs,
    and empties their arc records; `levels` still reads their survivors.
    Each successor is handed one id: vertex id k, whose arc from its source
    is arc id k - 1, so `arcs_created` is always `vertices_created - 1`.
    """

    def __init__(self, instance: ProblemInstance, kind: PolicyKind, mode: str = ME):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.instance = instance
        self.kind = kind
        self.mode = mode
        self.entries = ranked_entries(instance, kind)  # by job position, for `expand` and `generate`
        self.root = 0
        self.recorded: list[tuple[list[tuple], array]] = [([(0, 0, self.root, 0)], array("Q"))]
        self.vertices_created = 1  # ids handed out, merged-away ones included
        self.first_unrecorded = 1  # every smaller vertex id belongs to a recorded level
        self._vertices, self._arcs = {}, {}  # built from `recorded` on read
        self._built = 0  # levels of `recorded` built into the dicts

    levels = property(lambda self: [[*map(_VID, survivors)] for survivors, _ in self.recorded])
    arcs_created = property(lambda self: self.vertices_created - 1)  # one per successor
    vertices = property(lambda self: self._build()[0])  # dict[int, Vertex]
    arcs = property(lambda self: self._build()[1])  # dict[int, Arc]

    def _build(self) -> tuple[dict[int, Vertex], dict[int, Arc]]:
        vertices, arcs = self._vertices, self._arcs
        for level in range(self._built, len(self.recorded)):
            survivors, kept = self.recorded[level]
            vertices.update((v[2], Vertex(v[2], v[1], v[3], v[0], level)) for v in survivors)
            made = [Arc(*fields) for fields in zip(*[iter(kept)] * 6)]
            for arc in made:  # in in-arc order
                vertices[arc.dst].in_arcs.append(arc.id)
            for arc in sorted(made, key=_ID):
                arcs[arc.id] = arc
                vertices[arc.src].out_arcs.append(arc.id)
            del kept[:]  # the `Arc` objects hold it now
        self._built = len(self.recorded)
        return vertices, arcs


# --- priority ranks and applicable sets ---------------------------------------

def applicable_jobs(instance: ProblemInstance, finished: int) -> list[Job]:
    """First unfinished job of each task, in task-id order, given a finished bitmask.

    The finished set must be prefix-closed per task; anything else indicates
    a corrupted graph and raises RuntimeError.
    """
    out: list[Job] = []
    for run in instance.jobs_by_task.values():
        if not run:
            continue
        done = finished >> run[0].pos & (1 << len(run)) - 1
        if done & (done + 1):  # some job finished above the first unfinished one
            first = (done ^ (done + 1)).bit_length() - 1
            after = next(k for k in range(first, len(run)) if done >> k & 1)
            raise RuntimeError(
                f"finished set not prefix-closed: {run[after].label} finished "
                f"before {run[first].label}"
            )
        if done.bit_length() < len(run):
            out.append(run[done.bit_length()])
    return out


def ranked_entries(instance: ProblemInstance, kind: PolicyKind) -> list[tuple]:
    """Each job position's `ranked` entry `(rank, r_min, r_max, c_max, pos,
    c_min, deadline, job)`: its rank in the policy's priority order, rank 0
    winning, and its job's constants, built once per graph.

    Calls `kind.priority_key` once per job. Two equal keys would leave the
    certainly eligible job undefined and raise RuntimeError.
    """
    keys = [kind.priority_key(job) for job in instance.jobs]
    if len(set(keys)) != len(keys):
        raise RuntimeError("priority order is not strict")
    ranks = _ranks(keys)
    return [(ranks[job.pos], job.r_min, job.r_max, job.c_max, job.pos, job.c_min, job.deadline, job)
            for job in instance.jobs]


def urgency_ranks(instance: ProblemInstance, kind: PolicyKind) -> list[int]:
    """Each job position's rank in `kind.urgency_key` order, ties by position;
    empty under a work conserving policy, which has no critical job."""
    return [] if kind.work_conserving else _ranks([kind.urgency_key(job) for job in instance.jobs])


def _ranks(keys: list) -> list[int]:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return sorted(range(len(order)), key=order.__getitem__)  # the inverse of `order`


@dataclass(slots=True)
class ApplicableSet:
    """The applicable jobs of one finished set under one policy, prepared once
    for every vertex that has it; all that eligibility at a time t reads.

    `ranked` holds the entry of every applicable job in rank order, the very
    tuple of its position in `entries`, the `ranked_entries` table that all
    sets of one graph share, so no entry depends on the set. Ranks are
    distinct, so the entries sort by rank alone. `crit` is the critical
    context, which the sweep reads the budget off. `urgent` lists every job
    of an idling policy by urgency, `urgent_ranks` their urgency ranks.
    Nothing changes later.
    """

    kind: PolicyKind
    crit: CriticalContext | None
    ranked: list[tuple[int, int, int, int, int, int, int, Job]]
    urgent: list[Job]
    urgent_ranks: list[int]
    entries: Sequence[tuple]


def prepare(kind: PolicyKind, entries: Sequence[tuple], urgency: Sequence[int],
            jobs: Sequence[Job]) -> ApplicableSet:
    """An applicable set built from scratch, given the `ranked_entries` table
    and the urgency ranks.

    A job named twice raises RuntimeError: the priority order among the
    jobs would not be strict.
    """
    if len({job.pos for job in jobs}) != len(jobs):
        raise RuntimeError("priority order is not strict")
    urgent = sorted(jobs, key=lambda job: urgency[job.pos]) if urgency else []
    return ApplicableSet(kind, critical_context(kind, urgent), sorted(entries[job.pos] for job in jobs),
                         urgent, [urgency[job.pos] for job in urgent], entries)


def make_context(instance: ProblemInstance, kind: PolicyKind, finished: int) -> ApplicableSet:
    """A finished set's applicable set built from scratch, ranks and applicable jobs included."""
    return prepare(kind, ranked_entries(instance, kind), urgency_ranks(instance, kind),
                   applicable_jobs(instance, finished))


def derive(instance: ProblemInstance, urgency: Sequence[int], apps: ApplicableSet,
           pos: int) -> ApplicableSet:
    """The applicable set once the job at position `pos` finishes, derived from its parent's:
    the task's next job, if any, takes its place in both orders, by its entry and by its
    urgency rank, bisected with no key function. An idling policy reads the critical
    context off the new urgency order."""
    jobs, entries, after = instance.jobs, apps.entries, pos + 1
    follows = after < len(jobs) and jobs[after].task_id == jobs[pos].task_id
    urgent, ranks, crit = apps.urgent, apps.urgent_ranks, None
    if urgency:  # an idling policy
        urgent, ranks = urgent.copy(), ranks.copy()
        i = bisect_left(ranks, urgency[pos])
        del urgent[i], ranks[i]
        if follows:
            i = bisect_left(ranks, urgency[after])
            urgent.insert(i, jobs[after])
            ranks.insert(i, urgency[after])
        crit = critical_context(apps.kind, urgent)
    ranked = apps.ranked.copy()
    del ranked[bisect_left(ranked, entries[pos])]
    if follows:
        insort(ranked, entries[after])
    return ApplicableSet(apps.kind, crit, ranked, urgent, ranks, entries)


# --- eligibility ----------------------------------------------------------------

def possibly_eligible(apps: ApplicableSet, t: int) -> tuple[int | None, list[int], float]:
    """One probe at t, one walk of `apps.ranked` in rank order: the certainly
    eligible job (None if none) and the possibly eligible ones, ascending, by
    position, and the next event after t that can change either (inf if none).

    A job is admitted at t iff `t + c_max <= crit.time` or it is the
    critical job. The walk stops at the first admitted job with `r_max <=
    t`, the certain choice, which adds its `last + 1`. Each admitted job
    above it has `r_max > t` and adds its `r_max` or `last + 1`, whichever
    comes first; an unreleased job adds its `r_min` unless it is released
    after `last` (`crit.time - c_max`, inf for the critical job).
    """
    crit = apps.crit
    crit_pos, crit_time = _NO_BUDGET if crit is None else (crit.pos, crit.time)
    ce, out, after = None, [], inf
    for _, r_min, r_max, c_max, pos, _, _, _ in apps.ranked:
        if t < r_min:  # an event if it can be admitted once released
            if r_min < after and (r_min + c_max <= crit_time or pos == crit_pos):
                after = r_min
        elif t + c_max <= crit_time or pos == crit_pos:  # admitted
            if r_max <= t:  # the certain choice: it hides every job ranked below
                if pos != crit_pos and crit_time - c_max + 1 < after:  # it expires
                    after = crit_time - c_max + 1
                ce = pos
                break
            out.append(pos)
            event = r_max if r_max + c_max <= crit_time or pos == crit_pos else crit_time - c_max + 1
            if event < after:
                after = event
    out.sort()
    return ce, out, after


def certainly_eligible(apps: ApplicableSet, t: int) -> int | None:
    """The unique certainly released, budget-respecting job of top priority at t, by position."""
    return possibly_eligible(apps, t)[0]


# --- expansion sweep ----------------------------------------------------------

def expansion_windows(apps: ApplicableSet, eft: int, lft: int,
                      mode: str) -> list[tuple[int, int, int]]:
    """Dispatch windows (pos, est, lst) of a vertex with interval [eft, lft], in creation order.

    Probes eft and then each next event, with one `possibly_eligible` walk
    per probe, which names the certain choice, the possibly eligible jobs
    and the next event, always after the probe; eligibility is constant in
    between, so the result matches a per-integer-time sweep exactly. The
    sweep stops at the first probe with a certain choice whose next event
    lies beyond lft, or with no next event, and closes every open run at
    max(probe, lft). In `se` mode the jobs whose runs have ended are deleted
    by rank from the sweep's own copy of `apps` before the next probe.
    Without a budget a job has one range, from its release on, so a run that
    opens anywhere but at max(r_min, eft) raises RuntimeError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not apps.ranked:
        return []
    entries = apps.entries
    open_runs: dict[int, int] = {}  # position -> est
    out: list[tuple[int, int, int]] = []
    free = apps.crit is None  # no budget, so each job's one range starts at its release
    t, own = eft, None
    while True:
        ce, eligible, after = possibly_eligible(apps, t)
        if ce is not None:
            eligible.insert(0, ce)
        ended = []  # plain loops: before Python 3.12 a comprehension is a call of its own
        for pos in open_runs:
            if pos not in eligible:
                ended.append(pos)
        for pos in ended:
            out.append((pos, open_runs.pop(pos), t - 1))
        for pos in eligible:
            if pos not in open_runs:
                if free and t != (eft if (r_min := entries[pos][1]) <= eft else r_min):
                    raise RuntimeError("work conserving job re-eligibility"
                                       if any(w[0] == pos for w in out) else
                                       "work conserving range must start at release")
                open_runs[pos] = t
        if after == inf or ce is not None and after > lft:  # the last segment reached lft
            break
        if ended and mode == SE:
            if own is None:  # a copy of its own: every vertex with this finished set reads `apps`
                own = apps = ApplicableSet(apps.kind, apps.crit, apps.ranked.copy(), apps.urgent,
                                           apps.urgent_ranks, entries)
            for pos in ended:
                del own.ranked[bisect_left(own.ranked, entries[pos])]
        t = after
    if ce is None:
        raise AnalysisStuck(f"no certainly eligible job exists at or after t={lft}")
    bound = t if t > lft else lft
    for pos, est in open_runs.items():
        out.append((pos, est, bound))
    return out


# --- graph construction -------------------------------------------------------

def expand(graph: ScheduleGraph, vertex: tuple, pos: int, est: int, lst: int) -> tuple:
    """The successor candidate for dispatching job position `pos` from frontier tuple
    `vertex` over [est, lst]: `(finished, eft, id, lft, source, job_pos, est, lst)`,
    with the next vertex id. Its arc takes the id one less, so that each successor
    hands out one id. Nothing is recorded before the merge."""
    if est > lst:
        raise ValueError(f"empty dispatch window [{est}, {lst}]")
    if vertex[0] >> pos & 1:
        raise RuntimeError("job already finished in source vertex")
    entry = graph.entries[pos]
    eft, lft = est + entry[5], lst + entry[3]
    if eft > lft:
        raise RuntimeError(f"vertex interval [{eft}, {lft}] is empty")
    vid = graph.vertices_created
    graph.vertices_created = vid + 1
    return (vertex[0] | 1 << pos, eft, vid, lft, vertex[2], pos, est, lst)


def merge_phase(graph: ScheduleGraph, groups: dict[int, list[tuple]]) -> list[tuple]:
    """Merge one level's candidates and record it; the survivors' frontier tuples in id order.

    `groups` files the level's candidates under their finished set, each set's
    in creation order, which is id order. Within a set, candidates with
    overlapping intervals merge into one vertex with the smallest id and the
    interval hull. Its in-arcs are its own arc, then the others in (eft, id)
    order; a second arc from one source folds its dispatch window into the
    first, which keeps finish bounds exact and the graph simple. A
    merged-away id is counted in `vertices_created` but never recorded. The
    arcs are recorded set by set. Sorts each set of several in place.
    """
    survivors: list[tuple] = []
    arcs = array("Q")
    for group in groups.values():
        if group[0][2] < graph.first_unrecorded:  # the set's smallest id
            raise RuntimeError("merge phase ran after expansion of the level")
        i, n = 0, len(group)
        if n > 1:
            group.sort(key=_EFT)  # stable, so by (eft, id)
        while i < n:
            finished, eft, vid, lft, src, job_pos, est, lst = group[i]
            j = i + 1
            while j < n and group[j][1] <= lft:
                if group[j][3] > lft:
                    lft = group[j][3]
                j += 1
            if j == i + 1:  # a run of one: nothing to merge
                survivors.append((finished, eft, vid, lft))
                arcs.fromlist([vid - 1, src, vid, job_pos, est, lst])  # `extend` is slow on a tuple
            else:
                run = group[i:j]
                ids = [*map(_VID, run)]
                keep_id = min(ids)
                run.insert(0, run.pop(ids.index(keep_id)))  # its own arc first, then (eft, id)
                at: dict[int, int] = {}  # by source: where its arc starts in `arcs`
                for _, _, vid, _, src, job_pos, est, lst in run:
                    k = at.get(src)
                    if k is None:
                        at[src] = len(arcs)
                        arcs.fromlist([vid - 1, src, keep_id, job_pos, est, lst])
                    elif arcs[k + 3] != job_pos:
                        raise RuntimeError("arcs between one pair of vertices dispatch different jobs")
                    else:
                        arcs[k + 4], arcs[k + 5] = min(arcs[k + 4], est), max(arcs[k + 5], lst)
                survivors.append((finished, eft, keep_id, lft))
            i = j
    graph.first_unrecorded = graph.vertices_created
    survivors.sort(key=_VID)
    graph.recorded.append((survivors, arcs))
    return survivors


def _record_unmerged(graph: ScheduleGraph, groups: dict[int, list[tuple]]) -> list[tuple]:
    """Record a level's candidates, filed as for `merge_phase`, as created:
    each a vertex with its own arc, in id order."""
    candidates = sorted([candidate for group in groups.values() for candidate in group], key=_VID)
    arcs = array("Q")
    for _, _, vid, _, src, job_pos, est, lst in candidates:
        arcs.fromlist([vid - 1, src, vid, job_pos, est, lst])
    graph.recorded.append(([candidate[:4] for candidate in candidates], arcs))
    return graph.recorded[-1][0]


# --- analysis driver ----------------------------------------------------------

@dataclass(frozen=True)
class DeadlineMiss:
    """A successor whose latest finish passes its job's deadline. `vertex` is
    its id as created: the aborting level is recorded unmerged, so the
    default witness is a vertex of the graph, but under `exhaustive_misses` a
    miss may name an id that was merged away and is never recorded."""

    vertex: int
    job: Job
    lft: int
    deadline: int


@dataclass
class AnalysisResult:
    schedulable: bool
    witness: DeadlineMiss | None
    misses: list[DeadlineMiss]
    bounds: dict[tuple[int, int], tuple[int, int]]  # job key -> (finish min, finish max)
    bounds_complete: bool
    levels: list[tuple[int, int]]  # per level: (vertices, in-arcs), as recorded
    created: list[int]  # per level: candidates created before the merge; 0 for the root
    vertices_created: int  # before merging
    arcs_created: int
    wall_ms: float

    def to_json_dict(self) -> dict:
        data: dict = {
            "schedulable": self.schedulable,
            "bounds": [
                {"task": task, "job": index, "eft_min": lo, "lft_max": hi}
                for (task, index), (lo, hi) in sorted(self.bounds.items())
            ],
            "bounds_complete": self.bounds_complete,
            "stats": {
                "levels": [{"vertices": v, "arcs": a, "created": c}
                           for (v, a), c in zip(self.levels, self.created)],
                "vertices_created": self.vertices_created,
                "arcs_created": self.arcs_created,
                "wall_ms": self.wall_ms,
            },
        }
        if self.witness is not None:  # the first of the misses, in creation order
            misses = [{"vertex": m.vertex, "task": m.job.task_id, "job": m.job.index,
                       "lft": m.lft, "deadline": m.deadline} for m in self.misses]
            data["witness"], data["misses"] = dict(misses[0]), misses
        return data


def generate(instance: ProblemInstance, kind: PolicyKind, mode: str = ME,
             exhaustive_misses: bool = False) -> tuple[ScheduleGraph, AnalysisResult]:
    """Build the schedule graph level by level and report schedulability.

    Levels alternate expansion and merging, and a level is merged before it
    is recorded. A frontier vertex is expanded by one `expansion_windows`
    sweep, whose AnalysisStuck is re-raised with the vertex's id, and one
    `expand` per window, in window order; the window's job position is the
    successor's, and a `Job` is looked up only for a miss. Each successor's
    interval is folded into its job's finish bound and checked against its
    deadline as it is created; a level with a miss is still expanded in full
    and recorded unmerged, then the first miss aborts with a witness unless
    `exhaustive_misses` asks to keep going and collect all of them. Pure
    function of its arguments: repeated runs build identical graphs.

    Only the root's applicable jobs are computed from its finished set. The
    first successor created with a finished set opens that set's group of
    candidates for `merge_phase` and derives its applicable set from its
    parent's; the set is kept, keyed by finished set, for the next level
    alone, and dropped once the last vertex that has it is expanded.

    The cyclic garbage collector is paused for the call and left as it was
    found: generation makes no reference cycles, so reference counting
    frees all it drops, and a collection would only rescan the level's
    working set.
    """
    if not instance.jobs:
        raise InstanceError("instance has no jobs")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _generate(instance, kind, mode, exhaustive_misses)
    finally:
        if collecting:
            gc.enable()


def _generate(instance: ProblemInstance, kind: PolicyKind, mode: str,
              exhaustive_misses: bool) -> tuple[ScheduleGraph, AnalysisResult]:
    start = time.perf_counter()
    graph = ScheduleGraph(instance, kind, mode)
    entries, urgency = graph.entries, urgency_ranks(instance, kind)
    # finished set -> applicable set, for the level being expanded
    applicable = {0: prepare(kind, entries, urgency, applicable_jobs(instance, 0))}
    misses: list[DeadlineMiss] = []
    bounds: dict[int, tuple[int, int]] = {}  # by job position, in creation order
    frontier = graph.recorded[0][0]
    created = [0]  # the root is no candidate
    for _ in instance.jobs:  # one level per job
        first_id = graph.vertices_created
        derived: dict[int, ApplicableSet] = {}  # the same, for the next level
        groups: dict[int, list[tuple]] = {}  # finished set -> its candidates, in id order
        last_user = {vertex[0]: vertex for vertex in frontier}
        for vertex in frontier:
            apps = applicable[vertex[0]]
            if last_user[vertex[0]] is vertex:  # free it while the next level grows
                del applicable[vertex[0]]
            try:
                windows = expansion_windows(apps, vertex[1], vertex[3], mode)
            except AnalysisStuck as exc:
                raise AnalysisStuck(str(exc), vertex=vertex[2]) from None
            for pos, est, lst in windows:
                successor = expand(graph, vertex, pos, est, lst)
                finished, eft, lft = successor[0], successor[1], successor[3]
                group = groups.get(finished)
                if group is None:
                    groups[finished] = group = []
                    derived[finished] = derive(instance, urgency, apps, pos)
                group.append(successor)
                bound = bounds.get(pos)
                if bound is None:
                    bounds[pos] = (eft, lft)
                elif eft < bound[0] or lft > bound[1]:  # rewritten only when it widens
                    bounds[pos] = (min(bound[0], eft), max(bound[1], lft))
                if lft > entries[pos][6] and (exhaustive_misses or not misses):
                    misses.append(DeadlineMiss(successor[2], instance.jobs[pos], lft, entries[pos][6]))
        applicable = derived
        created.append(graph.vertices_created - first_id)
        aborted = bool(misses) and not exhaustive_misses
        frontier = _record_unmerged(graph, groups) if aborted else merge_phase(graph, groups)
        if aborted:
            break
    result = AnalysisResult(
        schedulable=not misses,
        witness=misses[0] if misses else None,
        misses=misses,
        bounds={instance.jobs[pos].key: bound for pos, bound in bounds.items()},
        bounds_complete=not aborted,
        levels=[(len(survivors), len(arcs) // 6) for survivors, arcs in graph.recorded],
        created=created,
        vertices_created=graph.vertices_created,
        arcs_created=graph.arcs_created,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )
    return graph, result


# --- DOT export ----------------------------------------------------------------

def export_dot(graph: ScheduleGraph, result: AnalysisResult | None = None) -> str:
    """Render the graph as a DOT digraph; the miss witness is highlighted red."""
    witness_vertex = result.witness.vertex if result is not None and result.witness else None
    lines = ["digraph schedule {", "  rankdir=TB;", "  node [shape=ellipse];"]
    vertices, arcs = graph.vertices, graph.arcs  # each read checks for unbuilt levels
    for vid in sorted(vertices):
        vertex = vertices[vid]
        attrs = [f'label="v{vid}: [{vertex.eft},{vertex.lft}]"']
        if vid == witness_vertex:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f"  v{vid} [{', '.join(attrs)}];")
    for arc_id in sorted(arcs):
        arc = arcs[arc_id]
        attrs = [f'label="{graph.instance.jobs[arc.job_pos].label}"']
        if arc.dst == witness_vertex:
            attrs.append("color=red")
        lines.append(f"  v{arc.src} -> v{arc.dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
