"""Schedule-graph generation for exact, sustainable schedulability analysis.

The graph abstracts every execution scenario of an instance under one
policy. A vertex stands for "this set of jobs has finished and the
processor becomes free at some time in [eft, lft]"; an arc stands for
dispatching one more job over a window of start times. Levels are indexed
by the number of finished jobs; the root is level 0 with interval [0, 0].

A job is named by its position `job.pos` in `instance.jobs`: its bit in a
vertex's finished set, its arcs' `job_pos`, and what `exclude` sets hold.
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

One sweep serves both generation modes. It probes eft and every boundary
time above it (a release bound, or the instant a job stops respecting the
budget); eligibility is constant from one probe to the next. At each probe
the certainly eligible job is computed once and reused to filter the
possibly eligible jobs. Each job's eligible times form maximal integer
ranges; each range becomes one new vertex. The sweep stops at the first
probe that has a certainly eligible job and whose constant segment reaches
lft: by max(probe, lft) the processor has certainly started something, so
later times cannot begin the next dispatch, and every open range closes
there. Under a work conserving policy a job gets at most one range; under
an idling policy the budget check can cut a range and re-open it later, so
one vertex may carry several arcs with the same job label.

The two generation modes differ only in what the sweep forgets. The
default, multiple eligibility ("me"), expands every range. Single
eligibility ("se") reproduces the older behaviour of letting each job
become eligible at most once per vertex: a job whose range has ended is
consumed and no longer counts as eligible, certainly or possibly, at later
probes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

from .model import InstanceError, Job, ProblemInstance
from .policy import CriticalContext, PolicyKind, critical_context, pi_higher, pi_key

ME = "me"
SE = "se"
MODES = (ME, SE)


class AnalysisStuck(RuntimeError):
    """No dispatch time exists at or after a vertex's latest finish time."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


@dataclass
class Vertex:
    id: int
    eft: int
    lft: int
    finished: int  # bit job.pos is set for every finished job
    level: int
    in_arcs: list[int] = field(default_factory=list)
    out_arcs: list[int] = field(default_factory=list)

    @property
    def interval(self) -> tuple[int, int]:
        return (self.eft, self.lft)


@dataclass
class Arc:
    id: int
    src: int
    dst: int
    job_pos: int
    est: int  # dispatch window recorded at creation; merged duplicates fold in
    lst: int


class ScheduleGraph:
    """Level-structured DAG of scheduler states for one (instance, policy, mode)."""

    def __init__(self, instance: ProblemInstance, kind: PolicyKind, mode: str = ME):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.instance = instance
        self.kind = kind
        self.mode = mode
        self.vertices: dict[int, Vertex] = {}
        self.arcs: dict[int, Arc] = {}
        self.levels: list[list[int]] = []
        self.vertices_created = 0
        self.arcs_created = 0
        root = self.add_vertex(0, 0, 0, 0)
        self.root = root.id
        self.levels.append([root.id])

    def add_vertex(self, eft: int, lft: int, finished: int, level: int) -> Vertex:
        assert eft <= lft
        vertex = Vertex(self.vertices_created, eft, lft, finished, level)
        self.vertices[vertex.id] = vertex
        self.vertices_created += 1
        return vertex

    def add_arc(self, src: int, dst: int, job_pos: int, est: int, lst: int) -> Arc:
        arc = Arc(self.arcs_created, src, dst, job_pos, est, lst)
        self.arcs[arc.id] = arc
        self.arcs_created += 1
        self.vertices[src].out_arcs.append(arc.id)
        self.vertices[dst].in_arcs.append(arc.id)
        return arc

    def remove_arc(self, arc_id: int) -> None:
        arc = self.arcs.pop(arc_id)
        self.vertices[arc.src].out_arcs.remove(arc_id)

    def remove_vertex(self, vertex_id: int) -> None:
        del self.vertices[vertex_id]

    def job_of_arc(self, arc: Arc) -> Job:
        return self.instance.jobs[arc.job_pos]


# --- applicable jobs and eligibility ----------------------------------------

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


@dataclass(frozen=True)
class EligibilityContext:
    """Everything needed to probe one vertex's eligibility pointwise."""

    instance: ProblemInstance
    kind: PolicyKind
    eft: int
    lft: int
    applicable: tuple[Job, ...]
    crit: CriticalContext | None


def make_context(instance: ProblemInstance, kind: PolicyKind, finished: int,
                 eft: int, lft: int) -> EligibilityContext:
    apps = tuple(applicable_jobs(instance, finished))
    return EligibilityContext(instance, kind, eft, lft, apps, critical_context(kind, apps))


def certainly_eligible(ctx: EligibilityContext, t: int,
                       exclude: AbstractSet[int] = frozenset()) -> Job | None:
    """The unique certainly released, budget-respecting job of top priority at t."""
    crit = ctx.crit
    candidates = [j for j in ctx.applicable
                  if j.r_max <= t and (crit is None or crit.admits(j, t))
                  and j.pos not in exclude]
    if not candidates:
        return None
    keys = [pi_key(ctx.kind, j) for j in candidates]
    assert len(set(keys)) == len(keys), "priority order is not strict"
    return candidates[keys.index(min(keys))]


def _outranking_possible(ctx: EligibilityContext, t: int, ce: Job | None,
                         exclude: AbstractSet[int]) -> list[Job]:
    crit = ctx.crit
    return [job for job in ctx.applicable
            if job.r_min <= t < job.r_max and (crit is None or crit.admits(job, t))
            and job.pos not in exclude and pi_higher(ctx.kind, job, ce)]


def possibly_eligible(ctx: EligibilityContext, t: int,
                      exclude: AbstractSet[int] = frozenset()) -> list[Job]:
    """Possibly released, budget-respecting jobs outranking the certain choice at t."""
    return _outranking_possible(ctx, t, certainly_eligible(ctx, t, exclude), exclude)


def _boundary_times(ctx: EligibilityContext) -> set[int]:
    """Times at which any job's eligibility status can change.

    Release boundaries cover work conserving policies; with a critical start
    budget, a non-critical job additionally stops being viable the instant
    t + c_max first exceeds the budget.
    """
    times: set[int] = set()
    for job in ctx.applicable:
        times.add(job.r_min)
        times.add(job.r_max)
        if ctx.crit is not None and job.pos != ctx.crit.job.pos:
            times.add(ctx.crit.time - job.c_max + 1)
    return times


# --- expansion sweep ----------------------------------------------------------

def expansion_windows(ctx: EligibilityContext, mode: str = ME) -> list[tuple[Job, int, int]]:
    """Dispatch windows (job, est, lst) a vertex expands into, in creation order.

    Probes eft and every boundary time above it; between two probes nothing
    can change, so the result matches a per-integer-time sweep exactly. The
    sweep stops at the first probe with a certain choice whose constant
    segment reaches lft, and closes every open run at max(probe, lft).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not ctx.applicable:
        return []
    eft, lft = ctx.eft, ctx.lft
    probes = sorted({eft} | {b for b in _boundary_times(ctx) if b > eft})
    jobs = ctx.instance.jobs
    consumed: set[int] = set()  # positions; stays empty in ME mode
    open_runs: dict[int, int] = {}  # position -> est
    out: list[tuple[Job, int, int]] = []
    for i, t in enumerate(probes):
        ce = certainly_eligible(ctx, t, consumed)
        eligible = _outranking_possible(ctx, t, ce, consumed)
        if ce is not None:
            eligible.insert(0, ce)
        live = {job.pos for job in eligible}
        for pos in [p for p in open_runs if p not in live]:
            out.append((jobs[pos], open_runs.pop(pos), t - 1))
            if mode == SE:
                # consumed jobs were not eligible at t, so ce stays the same
                consumed.add(pos)
        for job in eligible:
            if job.pos not in open_runs:
                open_runs[job.pos] = t
        if ce is not None and (i + 1 == len(probes) or probes[i + 1] > lft):
            break
    else:
        raise AnalysisStuck(f"no certainly eligible job exists at or after t={lft}")
    bound = max(t, lft)
    out.extend((jobs[pos], est, bound) for pos, est in open_runs.items())
    if ctx.kind.work_conserving:
        seen: set[int] = set()
        for job, est, _ in out:
            assert job.pos not in seen, "work conserving job re-eligibility"
            assert est == max(eft, job.r_min), "work conserving range must start at release"
            seen.add(job.pos)
    return out


# --- graph construction -------------------------------------------------------

def expand(graph: ScheduleGraph, vertex: Vertex, job: Job, est: int, lst: int) -> tuple[Vertex, Arc]:
    """Create the successor vertex for dispatching `job` over [est, lst]."""
    if est > lst:
        raise ValueError(f"empty dispatch window [{est}, {lst}]")
    assert not vertex.finished >> job.pos & 1, "job already finished in source vertex"
    successor = graph.add_vertex(
        est + job.c_min, lst + job.c_max, vertex.finished | 1 << job.pos, vertex.level + 1
    )
    arc = graph.add_arc(vertex.id, successor.id, job.pos, est, lst)
    return successor, arc


def merge_phase(graph: ScheduleGraph, vertex_ids: Sequence[int]) -> list[int]:
    """Merge same-level vertices with equal finished sets and overlapping intervals.

    The survivor keeps the smallest id and the interval hull of its group.
    Redirecting in-arcs never creates a second arc for one (source,
    destination) pair: the duplicate is dropped after folding its dispatch
    window into the kept arc, which preserves exact per-job finish bounds.
    """
    buckets: dict[int, list[int]] = {}
    for vid in vertex_ids:
        buckets.setdefault(graph.vertices[vid].finished, []).append(vid)
    survivors: list[int] = []
    for members in buckets.values():
        members.sort(key=lambda vid: (graph.vertices[vid].eft, vid))
        group = [members[0]]
        reach = graph.vertices[members[0]].lft
        for vid in members[1:]:
            vertex = graph.vertices[vid]
            if vertex.eft <= reach:
                group.append(vid)
                reach = max(reach, vertex.lft)
            else:
                survivors.append(_merge_group(graph, group))
                group = [vid]
                reach = vertex.lft
        survivors.append(_merge_group(graph, group))
    return sorted(survivors)


def _merge_group(graph: ScheduleGraph, group: list[int]) -> int:
    keep_id = min(group)
    keep = graph.vertices[keep_id]
    by_source = {graph.arcs[a].src: a for a in keep.in_arcs}
    for vid in group:
        if vid == keep_id:
            continue
        vertex = graph.vertices[vid]
        assert not vertex.out_arcs, "merge phase ran after expansion of the level"
        keep.eft = min(keep.eft, vertex.eft)
        keep.lft = max(keep.lft, vertex.lft)
        for arc_id in list(vertex.in_arcs):
            arc = graph.arcs[arc_id]
            if arc.src in by_source:
                kept = graph.arcs[by_source[arc.src]]
                assert kept.job_pos == arc.job_pos
                kept.est = min(kept.est, arc.est)
                kept.lst = max(kept.lst, arc.lst)
                graph.remove_arc(arc_id)
            else:
                arc.dst = keep_id
                keep.in_arcs.append(arc_id)
                by_source[arc.src] = arc_id
        graph.remove_vertex(vid)
    return keep_id


# --- analysis driver ----------------------------------------------------------

@dataclass(frozen=True)
class DeadlineMiss:
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
    levels: list[tuple[int, int]]  # per level: (vertices, in-arcs), post-merge
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
                "levels": [{"vertices": v, "arcs": a} for v, a in self.levels],
                "wall_ms": self.wall_ms,
            },
        }
        if self.witness is not None:
            data["witness"] = {
                "vertex": self.witness.vertex,
                "task": self.witness.job.task_id,
                "job": self.witness.job.index,
                "lft": self.witness.lft,
                "deadline": self.witness.deadline,
            }
        return data


def next_nodes(graph: ScheduleGraph, vertex: Vertex) -> list[Vertex]:
    """Expand one vertex into its successor vertices (one per dispatch window)."""
    ctx = make_context(graph.instance, graph.kind, vertex.finished, vertex.eft, vertex.lft)
    try:
        windows = expansion_windows(ctx, graph.mode)
    except AnalysisStuck as exc:
        raise AnalysisStuck(str(exc), vertex=vertex.id) from None
    return [expand(graph, vertex, job, est, lst)[0] for job, est, lst in windows]


def generate(instance: ProblemInstance, kind: PolicyKind, mode: str = ME,
             exhaustive_misses: bool = False) -> tuple[ScheduleGraph, AnalysisResult]:
    """Build the schedule graph level by level and report schedulability.

    Levels alternate expansion and merging. After each expansion every new
    vertex is checked against its arc label's deadline; the first violation
    aborts with a witness unless `exhaustive_misses` asks to keep going and
    collect all of them. Pure function of its arguments: repeated runs build
    identical graphs.
    """
    if not instance.jobs:
        raise InstanceError("instance has no jobs")
    start = time.perf_counter()
    graph = ScheduleGraph(instance, kind, mode)
    misses: list[DeadlineMiss] = []
    aborted = False
    for level in range(1, len(instance.jobs) + 1):
        new_ids = [v.id for vid in graph.levels[level - 1]
                   for v in next_nodes(graph, graph.vertices[vid])]
        for vid in new_ids:
            vertex = graph.vertices[vid]
            arc = graph.arcs[vertex.in_arcs[0]]
            job = graph.job_of_arc(arc)
            if vertex.lft > job.deadline:
                misses.append(DeadlineMiss(vid, job, vertex.lft, job.deadline))
                if not exhaustive_misses:
                    aborted = True
                    break
        if aborted:
            graph.levels.append(sorted(new_ids))
            break
        graph.levels.append(merge_phase(graph, new_ids))
    bounds = _finish_bounds(graph)
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = [_level_stats(graph, ids) for ids in graph.levels]
    result = AnalysisResult(
        schedulable=not misses,
        witness=misses[0] if misses else None,
        misses=misses,
        bounds=bounds,
        bounds_complete=not aborted,
        levels=stats,
        wall_ms=wall_ms,
    )
    return graph, result


def _level_stats(graph: ScheduleGraph, vertex_ids: Sequence[int]) -> tuple[int, int]:
    arcs = sum(len(graph.vertices[vid].in_arcs) for vid in vertex_ids)
    return (len(vertex_ids), arcs)


def _finish_bounds(graph: ScheduleGraph) -> dict[tuple[int, int], tuple[int, int]]:
    # Per-job finish bounds come from the arcs' dispatch windows, which are
    # exactly the destination intervals at creation time; merged intervals
    # would smear other jobs' contributions in.
    bounds: dict[int, tuple[int, int]] = {}  # by job position
    for arc_id in sorted(graph.arcs):
        arc = graph.arcs[arc_id]
        job = graph.job_of_arc(arc)
        lo = arc.est + job.c_min
        hi = arc.lst + job.c_max
        if job.pos in bounds:
            old_lo, old_hi = bounds[job.pos]
            bounds[job.pos] = (min(old_lo, lo), max(old_hi, hi))
        else:
            bounds[job.pos] = (lo, hi)
    return {graph.instance.jobs[pos].key: bound for pos, bound in bounds.items()}


# --- DOT export ----------------------------------------------------------------

def export_dot(graph: ScheduleGraph, result: AnalysisResult | None = None) -> str:
    """Render the graph as a DOT digraph; the miss witness is highlighted red."""
    witness_vertex = result.witness.vertex if result is not None and result.witness else None
    lines = ["digraph schedule {", "  rankdir=TB;", "  node [shape=ellipse];"]
    for vid in sorted(graph.vertices):
        vertex = graph.vertices[vid]
        attrs = [f'label="v{vid}: [{vertex.eft},{vertex.lft}]"']
        if vid == witness_vertex:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f"  v{vid} [{', '.join(attrs)}];")
    for arc_id in sorted(graph.arcs):
        arc = graph.arcs[arc_id]
        job = graph.job_of_arc(arc)
        attrs = [f'label="{job.label}"']
        if arc.dst == witness_vertex:
            attrs.append("color=red")
        lines.append(f"  v{arc.src} -> v{arc.dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
