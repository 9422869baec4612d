from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from math import inf
from pathlib import Path

import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

import schedgraph.graph
from schedgraph import (ME, SE, AnalysisStuck, ExecutionScenario, GenSpec, InstanceError,
                        PolicyKind, Task, enumerate_scenarios, export_dot, generate,
                        generate_instance, make_instance, parse_instance, scenario_count,
                        simulate, write_instance)
from schedgraph.cli import main
from schedgraph.graph import (ScheduleGraph, applicable_jobs, certainly_eligible, expand,
                              expansion_windows, make_context, merge_phase, possibly_eligible,
                              ranked_entries)
from schedgraph.model import Job
from schedgraph.policy import CriticalContext, critical_context
from support import (ALL_POLICIES, ANOMALY, EDF_JITTER, MANY_TASKS, SE_STUCK_SCHEDULABLE,
                     applicable, check_graph, exploration_bound, interval, latest_start, mask,
                     merge, naive_windows_me, naive_windows_se, pruned, reference_certainly_eligible,
                     reference_critical_context, reference_boundary_windows, reference_merge,
                     reference_possibly_eligible, sample_crowded_instance, sample_instance)

CROWDED_DRAWS = 300
CROWDED_SEED_BASE = 90_000
MANY_TASK_DRAWS = 400
MANY_TASK_SEED_BASE = 95_000
EVENT_SWEEP_DRAWS = 10
DIFFERENTIAL_MAX_SCENARIOS = 10**6


def intervals(graph, level):
    return sorted(interval(graph.vertices[vid]) for vid in graph.levels[level])


def scratch(graph, vid):
    """A stored vertex's applicable set, built from scratch."""
    return make_context(graph.instance, graph.kind, graph.vertices[vid].finished)


def span(candidate):
    """A successor candidate's interval (eft, lft)."""
    return candidate[1], candidate[3]


def top(graph):
    """The root's frontier tuple (finished, eft, id, lft)."""
    [root] = graph.recorded[0][0]
    return root


def successors(graph, vertex, apps):
    """A frontier tuple's successor candidates, one per window, as `generate` makes them."""
    windows = expansion_windows(apps, vertex[1], vertex[3], graph.mode)
    return [expand(graph, vertex, pos, est, lst) for pos, est, lst in windows]


def store(graph, candidate):
    """Merge a level of one candidate into the graph; the recorded frontier tuple."""
    [vertex] = merge(graph, [candidate])
    return vertex


class TestApplicableJobs:
    def test_finishing_a_job_exposes_its_successor(self, jitter3):
        got = applicable_jobs(jitter3, mask(jitter3, [(2, 1)]))
        assert [j.key for j in got] == [(1, 1), (2, 2), (3, 1)]

    def test_empty_finished_set_gives_first_jobs(self, anomaly):
        got = applicable_jobs(anomaly, 0)
        assert [j.key for j in got] == [(1, 1), (2, 1), (3, 1)]

    def test_all_finished_gives_empty_set(self, jitter3):
        assert applicable_jobs(jitter3, mask(jitter3, [j.key for j in jitter3.jobs])) == []

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_task_without_a_job_in_the_horizon_is_skipped(self, kind):
        # task 2's first release is at the horizon, so it has no job
        instance = make_instance([Task(1, 10, 0, 2, 2, 3, 8), Task(2, 20, 10, 10, 1, 1, 20),
                                  Task(3, 5, 0, 1, 1, 2, 5)], horizon=10)
        assert instance.jobs_by_task[2] == ()
        assert [j.key for j in applicable_jobs(instance, 0)] == [(1, 1), (3, 1)]
        check_graph(*generate(instance, kind, ME))
        me_agrees_with_oracle(instance, kind)

    def test_non_prefix_closed_set_is_a_bug(self, jitter3, anomaly):
        with pytest.raises(RuntimeError, match="prefix-closed: J2,2 finished before J2,1"):
            applicable_jobs(jitter3, mask(jitter3, [(2, 2)]))
        with pytest.raises(RuntimeError, match="prefix-closed: J3,4 finished before J3,2"):
            applicable_jobs(anomaly, mask(anomaly, [(1, 1), (3, 1), (3, 4)]))


class TestJobIdentity:
    """Generation, the online scheduler and the scenario search name a job by
    its position only, so no tie in a sort or heap ever compares two jobs."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("a Job was hashed or compared by value")

    def test_no_job_is_hashed_or_compared_by_value(self, monkeypatch, anomaly, jitter3,
                                                   idle4):
        instances = (anomaly, jitter3, idle4)
        worst = [ExecutionScenario.worst_case(instance) for instance in instances]
        monkeypatch.setattr(Job, "__hash__", self.refuse)
        monkeypatch.setattr(Job, "__eq__", self.refuse)
        for instance, scenario in zip(instances, worst):
            for kind in ALL_POLICIES:
                for mode in (ME, SE):
                    try:
                        generate(instance, kind, mode)
                    except AnalysisStuck:
                        pass
                simulate(instance, kind, scenario)
                for exhaustive in (False, True):
                    enumerate_scenarios(instance, kind, exhaustive=exhaustive)

    def test_critical_contexts_compare_by_position(self, monkeypatch, anomaly):
        runs = anomaly.jobs_by_task.values()
        first, last = [run[0] for run in runs], [run[-1] for run in runs]
        monkeypatch.setattr(Job, "__eq__", self.refuse)
        # (position, time) of the first jobs' context, then of the last jobs'
        expected = {PolicyKind.P_FP_EDF: ((3, 4), (0, 9)), PolicyKind.CP: ((3, 4), (0, 9)),
                    PolicyKind.CW: ((3, 3), (0, 7))}
        for kind, (early, late) in expected.items():
            contexts = [critical_context(kind, sorted(jobs, key=kind.urgency_key))
                        for jobs in (first, last)]
            assert contexts[0] != contexts[1]
            assert contexts == [CriticalContext(*early), CriticalContext(*late)]


class TestEligibility:
    def test_certain_choice_at_root(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, 0)
        assert certainly_eligible(apps, 0) == jitter3.job((2, 1)).pos

    def test_certain_choice_respects_budget(self, idle4):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        assert certainly_eligible(apps, 7) == idle4.job((3, 1)).pos

    def test_no_certain_choice_before_any_certain_release(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(1, 1), (2, 1)]))
        # only the jittery job remains unreleased-for-sure before t=3
        assert certainly_eligible(apps, 2) is None

    def test_possible_jobs_must_outrank_certain_choice(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]))
        assert possibly_eligible(apps, 1)[1] == [jitter3.job((3, 1)).pos]

    def test_priority_table_pattern(self):
        # seven jobs, one per priority level; at t=5: priorities 3 and 4 are
        # certainly released, 0, 2 and 6 possibly, 1 and 5 not at all
        windows = {0: (3, 9), 1: (7, 9), 2: (4, 8), 3: (0, 2), 4: (1, 3),
                   5: (8, 9), 6: (2, 7)}
        tasks = [Task(p + 1, 40, lo, hi, 1, 1, 30 + p, p) for p, (lo, hi) in windows.items()]
        instance = make_instance(tasks, horizon=40)
        apps = make_context(instance, PolicyKind.FP_EDF, 0)
        assert instance.jobs[certainly_eligible(apps, 5)].priority == 3
        assert sorted(instance.jobs[pos].priority for pos in possibly_eligible(apps, 5)[1]) == [0, 2]

    def test_nothing_possible_once_everything_certain(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]))
        assert possibly_eligible(apps, 5)[1] == []

    def test_equal_priority_keys_are_refused_before_generation(self, monkeypatch, jitter3):
        monkeypatch.setattr(PolicyKind.EDF, "priority_key", lambda job: (job.priority,))
        with pytest.raises(RuntimeError, match="priority order is not strict"):
            generate(jitter3, PolicyKind.EDF, ME)


class TestExplorationBound:
    def test_bound_stays_at_lft_when_choice_exists(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1), (3, 1)]))
        assert exploration_bound(apps, 5) == 5

    def test_bound_jumps_to_next_certain_release(self):
        tasks = [Task(1, 20, 10, 10, 1, 1, 20)]
        instance = make_instance([Task(2, 20, 0, 0, 4, 8, 20)] + tasks)
        apps = make_context(instance, PolicyKind.EDF, mask(instance, [(2, 1)]))
        assert exploration_bound(apps, 8) == 10

    def test_bound_with_recovered_eligibility(self, idle4):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        assert exploration_bound(apps, 8) == 8


class TestRanges:
    @staticmethod
    def ranges(apps, eft, lft, job):
        return [(est, lst) for pos, est, lst in expansion_windows(apps, eft, lft, ME) if pos == job.pos]

    def test_split_eligibility_of_low_priority_job(self, idle4):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        assert self.ranges(apps, 1, 8, idle4.job((3, 1))) == [(1, 2), (7, 8)]

    def test_single_window_of_mid_priority_job(self, idle4):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        assert self.ranges(apps, 1, 8, idle4.job((4, 1))) == [(3, 6)]

    def test_work_conserving_range_starts_at_release(self, jitter3):
        apps = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]))
        for job in applicable(apps):
            ranges = self.ranges(apps, 1, 1, job)
            assert len(ranges) <= 1
            if ranges:
                assert ranges[0][0] == max(1, job.r_min)

    def test_single_eligibility_forgets_in_its_own_copy(self, idle4):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        before = dataclasses.replace(apps, ranked=apps.ranked.copy(), urgent=apps.urgent.copy())

        def windows(mode):
            return [(idle4.jobs[pos].label, est, lst)
                    for pos, est, lst in expansion_windows(apps, 1, 8, mode)]

        assert windows(SE) == [("J3,1", 1, 2), ("J4,1", 3, 6), ("J1,1", 10, 10)]
        assert apps == before
        assert windows(ME) == [("J3,1", 1, 2), ("J4,1", 3, 6), ("J3,1", 7, 8)]


def events(apps, entry) -> tuple:
    """An entry's event times under the budget of `apps`: its job's release
    bounds and, under a budget, the instant it stops being admitted (`last +
    1`, its latest start by `crit.latest_start(job)` plus one); none when it
    is released after its latest start, so never eligible."""
    job = entry[-1]
    last = latest_start(apps, job)
    if job.r_min > last:
        return ()
    return (job.r_min, job.r_max) if last == inf else (job.r_min, job.r_max, last + 1)


def recorded(run) -> list[list]:
    """Every sweep made while `run()` runs, up to a stuck one, as [apps, eft,
    lft, its windows or "stuck", its probes as (time, the set it read, its
    certain choice)]."""
    made, engine = [], schedgraph.graph
    sweep, probe = engine.expansion_windows, engine.possibly_eligible

    def recording_sweep(apps, eft, lft, mode):
        made.append([apps, eft, lft, "stuck", []])
        made[-1][3] = sweep(apps, eft, lft, mode)
        return made[-1][3]

    def recording_probe(apps, t):
        found = probe(apps, t)
        made[-1][4].append((t, apps, found[0]))
        return found

    engine.expansion_windows, engine.possibly_eligible = recording_sweep, recording_probe
    try:
        run()
    except AnalysisStuck:
        pass
    finally:
        engine.expansion_windows, engine.possibly_eligible = sweep, probe
    return made


def probed(apps, eft, lft, mode):
    """One sweep's windows, or "stuck", and its probes."""
    [(_, _, _, windows, calls)] = recorded(
        lambda: schedgraph.graph.expansion_windows(apps, eft, lft, mode))
    return windows, calls


def sweeps(instance, kind, mode) -> list[list]:
    """Every sweep that `generate` makes, through its misses."""
    return recorded(lambda: generate(instance, kind, mode, exhaustive_misses=True))


def next_event(apps, t, ce) -> float:
    """The first event after t of a job at or above the one at position `ce`
    (of any job when it is None) that is not past its latest start nor
    released after it; inf if there is none."""
    upto = len(apps.ranked) if ce is None else \
        next(i for i, entry in enumerate(apps.ranked) if entry[4] == ce) + 1
    return min((e for entry in apps.ranked[:upto] if t <= latest_start(apps, entry[-1])
                for e in events(apps, entry) if e > t), default=inf)


def assert_probe_rule(apps, eft, lft, calls) -> int:
    """Assert that a sweep of `apps` over [eft, lft] made the probes `calls`
    by the rule of `TestProbeCount`; their number."""
    times = [t for t, _, _ in calls]
    assert times[:1] == ([eft] if apps.ranked else []), f"eft was not probed first: {times}"
    assert len(times) == len(set(times)), f"a time was probed twice: {times}"
    for (t, seen, ce), following in zip(calls, [*times[1:], None]):
        after = next_event(seen, t, ce)
        stops = after == inf or ce is not None and after > lft
        assert (following is None) is stops, (times, t, after)
        assert following is None or following == after, (times, t, after)
    return len(times)


class TestProbeCount:
    """The sweep evaluates the certain choice once per probed time. After eft
    it probes the first event after the last probe of a job at or above that
    probe's certain choice (of any job when there was none) that is not past
    its latest start, and stops when there is none, or when there was a
    choice and the event lies beyond lft. `TestEventSweep` checks the rule
    on sampled, crowded and many-task draws."""

    @pytest.mark.parametrize("mode", [ME, SE])
    def test_idle_vertex(self, idle4, mode):
        apps = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]))
        # me probes 1, 3 and 7; se also 10, where J1,1 is left once the others are dropped
        assert assert_probe_rule(apps, 1, 8, probed(apps, 1, 8, mode)[1]) == {ME: 3, SE: 4}[mode]

    @pytest.mark.parametrize("mode", [ME, SE])
    def test_every_jitter_vertex(self, jitter3, mode):
        graph, _ = generate(jitter3, PolicyKind.EDF, mode)
        for vertex in graph.vertices.values():
            apps = make_context(jitter3, PolicyKind.EDF, vertex.finished)
            assert_probe_rule(apps, vertex.eft, vertex.lft,
                              probed(apps, vertex.eft, vertex.lft, mode)[1])

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_every_sweep_of_the_bundled_instances(self, kind):
        for path in sorted(SE_STUCK_SCHEDULABLE.parent.glob("*.txt")):
            instance = parse_instance(path.read_text(encoding="utf-8"))
            for mode in (ME, SE):
                for apps, eft, lft, _, calls in sweeps(instance, kind, mode):
                    assert_probe_rule(apps, eft, lft, calls)


class TestExpand:
    def test_expand_adds_execution_window(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        first = expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0)
        assert span(first) == (1, 1)
        assert (len(first), first[2]) == (8, 1)  # no arc id field; the next vertex id
        assert graph.vertices.keys() == {graph.root}  # nothing stored before the merge
        v1 = store(graph, first)
        assert graph.vertices[v1[2]].in_arcs == [0]  # its arc takes the id one less
        assert span(expand(graph, v1, jitter3.job((3, 1)).pos, 1, 1)) == (4, 5)
        assert span(expand(graph, v1, jitter3.job((1, 1)).pos, 1, 1)) == (2, 3)
        arc = graph.arcs[graph.vertices[v1[2]].in_arcs[0]]
        assert (arc.est, arc.lst) == (0, 0)

    def test_expand_window_spans_dispatch_times(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        v1 = store(graph, expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0))
        v2 = store(graph, expand(graph, v1, jitter3.job((1, 1)).pos, 1, 1))
        assert span(expand(graph, v2, jitter3.job((3, 1)).pos, 2, 3)) == (5, 7)

    def test_deterministic_job_gives_point_interval(self):
        instance = make_instance([Task(1, 10, 0, 0, 3, 3, 10)])
        graph = ScheduleGraph(instance, PolicyKind.EDF)
        candidate = expand(graph, top(graph), instance.jobs[0].pos, 4, 4)
        assert span(candidate) == (7, 7)

    def test_empty_window_rejected(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        with pytest.raises(ValueError, match="empty dispatch window"):
            expand(graph, top(graph), jitter3.job((2, 1)).pos, 3, 2)


class TestNextNodes:
    def test_root_expands_to_single_certain_choice(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        new = successors(graph, top(graph), scratch(graph, graph.root))
        assert [(jitter3.jobs[c[5]].label, span(c)) for c in new] == [("J2,1", (1, 1))]

    def test_vertex_with_certain_switchover_expands_twice(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        v1 = store(graph, expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0))
        v3 = store(graph, expand(graph, v1, jitter3.job((3, 1)).pos, 1, 1))
        new = successors(graph, v3, scratch(graph, v3[2]))
        assert [span(c) for c in new] == [(5, 6), (6, 6)]

    def test_idling_policy_reopens_eligibility(self, idle4):
        graph = ScheduleGraph(idle4, PolicyKind.P_FP_EDF)
        v1 = store(graph, expand(graph, top(graph), idle4.job((2, 1)).pos, 0, 0))
        new = successors(graph, v1, scratch(graph, v1[2]))
        labels = [(idle4.jobs[c[5]].label, span(c)) for c in new]
        assert labels == [("J3,1", (3, 4)), ("J4,1", (7, 10)), ("J3,1", (9, 10))]


class TestMergePhase:
    def test_same_set_overlapping_intervals_merge(self, jitter3):
        graph, _ = generate(jitter3, PolicyKind.EDF, ME)
        assert intervals(graph, 3) == [(5, 7), (6, 6)]

    def test_different_sets_never_merge(self, jitter3):
        graph, _ = generate(jitter3, PolicyKind.EDF, ME)
        assert intervals(graph, 2) == [(2, 3), (4, 5)]

    def test_disjoint_intervals_never_merge(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        a = expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0)
        b = expand(graph, top(graph), jitter3.job((2, 1)).pos, 3, 3)
        assert (span(a), span(b)) == ((1, 1), (4, 4))  # a gap between the two intervals
        assert merge(graph, [b, a]) == [a[:4], b[:4]]
        assert [interval(graph.vertices[c[2]]) for c in (a, b)] == [(1, 1), (4, 4)]

    def test_merge_takes_interval_hull_and_redirects_arcs(self, jitter3):
        graph, _ = generate(jitter3, PolicyKind.EDF, ME)
        merged = [graph.vertices[vid] for vid in graph.levels[3]
                  if interval(graph.vertices[vid]) == (5, 7)][0]
        sources = {graph.arcs[a].src for a in merged.in_arcs}
        assert len(sources) == 2

    def test_duplicate_arc_windows_fold_on_merge(self, jitter3):
        # two dispatch windows of one job reach overlapping intervals: the
        # merge keeps a single arc whose window is the hull of both, so
        # finish bounds stay exact and the graph stays simple
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        root = graph.vertices[graph.root]  # read before the merge, still current after it
        a = expand(graph, top(graph), jitter3.job((1, 1)).pos, 0, 1)  # interval [1, 3]
        b = expand(graph, top(graph), jitter3.job((1, 1)).pos, 2, 3)  # interval [3, 5]
        assert [vertex[2] for vertex in merge(graph, [a, b])] == [a[2]]
        assert b[2] not in graph.vertices  # merged away, counted, never stored
        assert graph.vertices_created == 3 and graph.arcs_created == 2
        survivor = graph.vertices[a[2]]
        assert interval(survivor) == (1, 5)
        assert len(survivor.in_arcs) == 1
        assert len(root.out_arcs) == 1
        kept = graph.arcs[survivor.in_arcs[0]]
        assert (kept.est, kept.lst) == (0, 3)

    def test_a_stale_candidate_first_in_its_set_is_refused(self, jitter3):
        # the guard reads each set's first id, which is its smallest
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        stale = expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0)
        merge(graph, [stale])
        fresh = expand(graph, top(graph), jitter3.job((2, 1)).pos, 0, 0)
        assert stale[0] == fresh[0]
        with pytest.raises(RuntimeError, match="merge phase ran after expansion of the level"):
            merge(graph, [stale, fresh])


MERGE_CONTRACT_DRAWS = 60
# draws whose merges fold a duplicate arc, with the verdict under their policy
FOLDING_DRAWS = [(GenSpec(4, 0.5, 1.0, 1.0, (10, 20, 40), 36), PolicyKind.CW, True),
                 (GenSpec(4, 0.6, 0.5, 1.0, (10, 20, 40), 14), PolicyKind.CP, False),
                 (GenSpec(4, 0.6, 0.5, 1.0, (10, 20, 40), 246), PolicyKind.CP, False)]


class TestPerSetMerge:
    """`generate` files each level's candidates under their finished set and
    `merge_phase` merges each set apart; at every level that must give the
    survivors, kept arcs, folded windows and in-arc order of one sort of the
    whole level (`reference_merge`)."""

    @staticmethod
    def in_arcs(arcs) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for arc in arcs:
            out.setdefault(arc[2], []).append(arc[0])
        return out

    def checked_merge(self, tally):
        def merge_level(graph, groups):
            for finished, group in groups.items():
                assert {c[0] for c in group} == {finished}
                assert [c[2] for c in group] == sorted(c[2] for c in group)
            survivors, arcs = reference_merge([c for group in groups.values() for c in group])
            assert merge_phase(graph, groups) == survivors
            kept = [*zip(*[iter(graph.recorded[-1][1])] * 6)]
            assert sorted(kept) == sorted(arcs)  # by id, folded windows included
            assert self.in_arcs(kept) == self.in_arcs(arcs)
            created = sum(map(len, groups.values()))
            tally["levels"] += 1
            tally["merged"] += len(survivors) < created
            tally["folded"] += len(arcs) < created
            return survivors
        return merge_level

    def run(self, monkeypatch, runs):
        tally = dict.fromkeys(("levels", "merged", "folded"), 0)
        monkeypatch.setattr(schedgraph.graph, "merge_phase", self.checked_merge(tally))
        for instance, kinds in runs:
            for kind in kinds:
                for mode in (ME, SE):
                    try:
                        generate(instance, kind, mode)
                    except AnalysisStuck:
                        pass
        return tally

    def test_sampled_draws(self, monkeypatch):
        draws = [sample_instance(random.Random(seed)) for seed in range(MERGE_CONTRACT_DRAWS)]
        tally = self.run(monkeypatch, [(instance, ALL_POLICIES) for instance in draws])
        assert tally["merged"] > 0, tally

    def test_crowded_draws(self, monkeypatch, crowded_instances):
        runs = [(instance, ALL_POLICIES) for instance in crowded_instances[:MERGE_CONTRACT_DRAWS]]
        tally = self.run(monkeypatch, runs)
        assert tally["merged"] > 0, tally

    def test_many_task_draws(self, monkeypatch, many_task_instances):
        runs = [(instance, ALL_POLICIES) for instance in many_task_instances[:MERGE_CONTRACT_DRAWS]]
        tally = self.run(monkeypatch, runs)
        assert tally["merged"] > 0, tally

    def test_draws_that_fold_arcs(self, monkeypatch):
        tally = self.run(monkeypatch, [(generate_instance(spec), [kind])
                                       for spec, kind, _ in FOLDING_DRAWS])
        assert tally["folded"] > 0, tally


@pytest.fixture
def made(monkeypatch):
    """Counts of the `Vertex` and `Arc` objects built from here on."""
    made = {"vertex": 0, "arc": 0}

    class CountingVertex(schedgraph.graph.Vertex):
        __slots__ = ()

        def __init__(self, *args):
            made["vertex"] += 1
            super().__init__(*args)

    class CountingArc(schedgraph.graph.Arc):
        __slots__ = ()

        def __init__(self, *args):
            made["arc"] += 1
            super().__init__(*args)

    monkeypatch.setattr(schedgraph.graph, "Vertex", CountingVertex)
    monkeypatch.setattr(schedgraph.graph, "Arc", CountingArc)
    return made


class TestGraphOnRead:
    """Generation records its levels flat; `graph.vertices` and `graph.arcs`
    build each `Vertex` and `Arc` once, on the first read that needs it."""

    @pytest.mark.parametrize("mode", [ME, SE])
    @pytest.mark.parametrize("kind", [PolicyKind.EDF, PolicyKind.CW], ids=lambda kind: kind.value)
    def test_objects_are_built_on_the_first_read_only(self, made, kind, mode):
        # edf misses a deadline and records its aborting level unmerged; cw completes
        instance = generate_instance(GenSpec(20, 0.3, 0.6, 0.6, periods=(50, 100, 200), seed=3))
        graph, result = generate(instance, kind, mode)
        assert graph.vertices_created > 5_000
        assert made == {"vertex": 0, "arc": 0}
        vertices, arcs = graph.vertices, graph.arcs
        assert made == {"vertex": len(vertices), "arc": len(arcs)}
        assert type(vertices[graph.root]) is schedgraph.graph.Vertex
        assert graph.vertices is vertices and graph.arcs is arcs
        assert made == {"vertex": len(vertices), "arc": len(arcs)}
        check_graph(graph, result)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_a_read_empties_the_arc_records_it_built(self, made, anomaly, exhaustive):
        graph, result = generate(anomaly, PolicyKind.EDF, ME, exhaustive_misses=exhaustive)
        levels = graph.levels
        recorded_arcs = sum(len(kept) // 6 for _, kept in graph.recorded)
        assert len(graph.arcs) == recorded_arcs == sum(arcs for _, arcs in result.levels)
        assert all(len(kept) == 0 for _, kept in graph.recorded)
        assert graph.levels == levels
        # the second read built nothing
        assert made == {"vertex": len(graph.vertices), "arc": recorded_arcs}
        check_graph(graph, result)

    def test_a_level_merged_after_a_read_is_built_on_the_next(self, made, anomaly):
        graph = ScheduleGraph(anomaly, PolicyKind.EDF, ME)
        assert graph.vertices.keys() == {graph.root} and graph.arcs == {}
        apps = make_context(anomaly, PolicyKind.EDF, 0)
        candidates = successors(graph, top(graph), apps)
        level = merge(graph, candidates)
        assert len(graph.recorded[1][1]) == 6 * len(candidates)
        assert graph.vertices.keys() == {graph.root, *(vertex[2] for vertex in level)}
        assert len(graph.arcs) == len(graph.vertices[graph.root].out_arcs) == len(candidates)
        assert len(graph.recorded[1][1]) == 0
        assert graph.levels == [[graph.root], [vertex[2] for vertex in level]]
        assert made == {"vertex": 1 + len(level), "arc": len(candidates)}


class TestGenerate:
    def test_jitter_instance_is_schedulable(self, jitter3):
        graph, result = generate(jitter3, PolicyKind.EDF, ME)
        assert result.schedulable
        assert intervals(graph, 4) == [(6, 8)]

    def test_precautious_final_level(self, idle4):
        graph, result = generate(idle4, PolicyKind.P_FP_EDF, ME)
        assert result.schedulable
        assert intervals(graph, 4) == [(12, 12), (14, 14), (16, 16)]

    def test_single_eligibility_mode_misses(self, idle4):
        _, result = generate(idle4, PolicyKind.P_FP_EDF, SE)
        assert not result.schedulable
        witness = result.witness
        assert (witness.job.key, witness.lft, witness.deadline) == ((3, 1), 18, 14)

    def test_anomaly_instance_misses(self, anomaly):
        _, result = generate(anomaly, PolicyKind.EDF, ME)
        assert not result.schedulable
        assert result.witness.job.key == (3, 2)
        assert not result.bounds_complete

    def test_exhaustive_misses_completes_bounds(self, anomaly):
        _, result = generate(anomaly, PolicyKind.EDF, ME, exhaustive_misses=True)
        assert not result.schedulable
        assert result.bounds_complete
        assert len(result.misses) >= 1
        assert set(result.bounds) == {j.key for j in anomaly.jobs}

    def test_aborted_run_keeps_its_whole_level_and_first_miss(self, anomaly):
        graph, partial = generate(anomaly, PolicyKind.EDF, ME)
        full_graph, full = generate(anomaly, PolicyKind.EDF, ME, exhaustive_misses=True)
        check_graph(graph, partial)
        check_graph(full_graph, full)
        assert len(partial.misses) == 1 and partial.witness is partial.misses[0]
        # the witness is the first vertex of the aborting level, in creation
        # order, whose interval ends past its job's deadline
        level = graph.levels[-1]
        late = [vid for vid in level if graph.vertices[vid].lft
                > graph.instance.jobs[graph.arcs[graph.vertices[vid].in_arcs[0]].job_pos].deadline]
        assert level == [5, 6] and late == [5]
        assert partial.witness == full.misses[0]
        assert (partial.witness.vertex, partial.witness.job.key) == (5, (3, 2))
        # J1,1 reaches v6 after the miss: the level is still expanded in full
        assert partial.bounds == {(3, 1): (1, 1), (2, 1): (3, 5), (1, 1): (8, 13),
                                  (3, 2): (6, 12)}
        assert full.bounds == {**partial.bounds, (3, 3): (11, 14), (2, 2): (13, 18),
                               (3, 4): (16, 19)}
        assert not partial.bounds_complete and full.bounds_complete
        assert partial.levels == full.levels[:4] + [(2, 2)]

    def test_times_past_the_int64_and_uint64_ranges(self):
        # a start at 2**63 fits the arc record; times that could pass 2**64 - 1 are refused
        long = make_instance([Task(1, 2**64 - 1, 0, 0, 2**63, 2**63, 1),
                              Task(2, 2**64 - 1, 0, 0, 1, 1, 1)])
        graph, result = generate(long, PolicyKind.EDF, ME, exhaustive_misses=True)
        check_graph(graph, result)
        assert not result.schedulable
        assert max(arc.lst for arc in graph.arcs.values()) == 2**63
        late = [Task(i, 2**64 - 1, 2**64 - 10, 2**64 - 10, 4, 4, 2**64 - 1) for i in (1, 2, 3, 4)]
        with pytest.raises(InstanceError, match=f"plus every c_max, {2**64 + 15}, exceeds"):
            make_instance(late)

    @staticmethod
    def edge_tasks(deadline):
        """Two jobs released at 2**64 - 10 with c_max 2: the deadline plus 4 is the bound."""
        return [Task(i, 2**64 - 1, 2**64 - 10, 2**64 - 10, 2, 2, deadline) for i in (1, 2)]

    @pytest.mark.parametrize("mode", [ME, SE])
    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_derived_times_at_the_bound(self, kind, mode):
        # the latest deadline plus every c_max is exactly 2**64 - 1
        graph, result = generate(make_instance(self.edge_tasks(2**64 - 5)), kind, mode)
        check_graph(graph, result)
        assert result.schedulable
        assert [interval(v) for v in graph.vertices.values()] == \
            [(0, 0), (2**64 - 8, 2**64 - 8), (2**64 - 6, 2**64 - 6)]
        assert result.bounds == {(1, 1): (2**64 - 8, 2**64 - 8), (2, 1): (2**64 - 6, 2**64 - 6)}
        assert max(arc.lst for arc in graph.arcs.values()) == 2**64 - 8

    def test_one_past_the_bound_is_refused(self):
        with pytest.raises(InstanceError, match=f"plus every c_max, {2**64}, exceeds"):
            make_instance(self.edge_tasks(2**64 - 4))

    def test_generate_is_deterministic(self, idle4):
        g1, r1 = generate(idle4, PolicyKind.P_FP_EDF, ME)
        g2, r2 = generate(idle4, PolicyKind.P_FP_EDF, ME)
        assert [(v.id, interval(v), v.finished) for v in g1.vertices.values()] == \
               [(v.id, interval(v), v.finished) for v in g2.vertices.values()]
        assert [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in g1.arcs.values()] == \
               [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in g2.arcs.values()]
        assert r1.bounds == r2.bounds

    def test_level_stats_cover_all_levels(self, jitter3):
        _, result = generate(jitter3, PolicyKind.EDF, ME)
        assert len(result.levels) == len(jitter3.jobs) + 1
        assert result.levels[0] == (1, 0)
        assert result.levels[1] == (1, 1)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_created_counts_each_levels_candidates(self, anomaly, jitter3, idle4, exhaustive):
        for instance, kind in ((anomaly, PolicyKind.EDF), (jitter3, PolicyKind.EDF),
                               (idle4, PolicyKind.P_FP_EDF), (idle4, PolicyKind.CW)):
            for mode in (ME, SE):
                _, result = generate(instance, kind, mode, exhaustive_misses=exhaustive)
                assert len(result.created) == len(result.levels)
                assert result.created[0] == 0  # the root is no candidate
                assert sum(result.created) == result.vertices_created - 1
                assert all(made >= vertices for made, (vertices, _)
                           in zip(result.created[1:], result.levels[1:]))
                assert [entry["created"] for entry in result.to_json_dict()["stats"]["levels"]] \
                    == result.created

    def test_the_aborting_level_counts_its_candidates(self, anomaly):
        graph, result = generate(anomaly, PolicyKind.EDF, ME)
        assert not result.bounds_complete
        assert result.created[-1] == result.levels[-1][0] == len(graph.levels[-1]) == 2

    def test_structural_invariants_on_worked_examples(self, anomaly, jitter3, idle4):
        cases = [(anomaly, PolicyKind.EDF), (jitter3, PolicyKind.EDF),
                 (idle4, PolicyKind.P_FP_EDF)]
        for instance, kind in cases:
            for mode in (ME, SE):
                graph, result = generate(instance, kind, mode)
                check_graph(graph, result)

    def test_each_vertex_is_swept_once_and_each_window_expanded_once(
            self, monkeypatch, anomaly, jitter3, idle4):
        calls = {"expansion_windows": 0, "expand": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(schedgraph.graph, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(schedgraph.graph, name, counting)
        aborted = set()
        for kind in ALL_POLICIES:
            for instance in (anomaly, jitter3, idle4):
                calls.update(expansion_windows=0, expand=0)
                graph, result = generate(instance, kind, ME)
                aborted.add(not result.bounds_complete)
                # the last level, full or aborting, is never expanded
                assert calls["expansion_windows"] == sum(map(len, graph.levels[:-1]))
                assert calls["expand"] == graph.vertices_created - 1
                if instance is idle4 and kind is PolicyKind.CW:
                    assert (result.bounds_complete, *calls.values()) == (False, 10, 13)
        assert aborted == {True, False}


class TestCollectorPause:
    """generate pauses the cyclic garbage collector and leaves it as it found it."""

    @pytest.fixture
    def collecting(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("path, kind, mode, outcome", [
        (EDF_JITTER, PolicyKind.EDF, ME, "schedulable"),
        (ANOMALY, PolicyKind.EDF, ME, "miss"),
        (SE_STUCK_SCHEDULABLE, PolicyKind.CW, SE, "stuck"),
    ], ids=["schedulable", "first-miss", "stuck"])
    def test_an_enabled_collector_is_enabled_after(self, monkeypatch, collecting,
                                                   path, kind, mode, outcome):
        instance = parse_instance(path.read_text(encoding="utf-8"))
        during = []
        original = schedgraph.graph.expansion_windows

        def watching(apps, eft, lft, mode):
            during.append(gc.isenabled())
            return original(apps, eft, lft, mode)

        monkeypatch.setattr(schedgraph.graph, "expansion_windows", watching)
        if outcome == "stuck":
            with pytest.raises(AnalysisStuck):
                generate(instance, kind, mode)
        else:
            _, result = generate(instance, kind, mode)
            assert result.schedulable is (outcome == "schedulable")
        assert during and not any(during)
        assert gc.isenabled()

    def test_an_enabled_collector_is_enabled_after_a_jobless_instance(self, collecting):
        jobless = make_instance([Task(1, 10, 7, 8, 1, 1, 10)], horizon=5)
        with pytest.raises(InstanceError, match="instance has no jobs"):
            generate(jobless, PolicyKind.EDF, ME)
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, collecting, jitter3):
        gc.disable()
        generate(jitter3, PolicyKind.EDF, ME)
        assert not gc.isenabled()


class TestMissVertex:
    """A miss names its successor's id as created; only the aborting level is stored unmerged."""

    def test_default_witness_is_a_stored_vertex_of_the_last_level(self):
        witnesses = 0
        for seed in range(150):
            instance = sample_instance(random.Random(seed))
            for kind in ALL_POLICIES:
                for mode in (ME, SE):
                    try:
                        graph, result = generate(instance, kind, mode)
                    except AnalysisStuck:
                        continue
                    witness = result.witness
                    if witness is None:
                        continue
                    witnesses += 1
                    assert witness.vertex in graph.levels[-1]
                    vertex = graph.vertices[witness.vertex]
                    assert vertex.lft == witness.lft  # its interval as created
                    [arc] = vertex.in_arcs
                    assert graph.arcs[arc].job_pos == witness.job.pos
        assert witnesses > 100

    def test_exhaustive_miss_can_name_a_merged_away_vertex(self, idle4):
        graph, result = generate(idle4, PolicyKind.FP_EDF, ME, exhaustive_misses=True)
        assert [(m.vertex, m.job.key, m.lft) for m in result.misses] == \
            [(6, (1, 1), 14), (8, (1, 1), 13), (9, (3, 1), 16)]
        assert 8 not in graph.vertices and graph.vertices_created > 8
        # vertex 8 merged into vertex 7, whose interval hull covers its miss
        assert graph.levels[4] == [7, 9]
        assert graph.vertices[7].lft >= 13


class TestSingleEligibilityStuck:
    """Single eligibility gets stuck under cw and cp on a set that multiple
    eligibility and the oracle find schedulable."""

    def test_pinned_instance_is_the_seeded_draw(self):
        drawn = sample_crowded_instance(random.Random(95_201), max_scenarios=10**6, **MANY_TASKS)
        pinned = parse_instance(SE_STUCK_SCHEDULABLE.read_text(encoding="utf-8"))
        assert pinned.tasks == drawn.tasks
        assert (len(pinned.tasks), len(pinned.jobs)) == (7, 14)

    @pytest.mark.parametrize("kind", [PolicyKind.CW, PolicyKind.CP], ids=lambda kind: kind.value)
    def test_se_stuck_where_me_and_oracle_schedule(self, capsys, kind):
        instance = parse_instance(SE_STUCK_SCHEDULABLE.read_text(encoding="utf-8"))
        message = "no certainly eligible job exists at or after t=14"
        with pytest.raises(AnalysisStuck, match=message) as stuck:
            generate(instance, kind, SE)
        assert stuck.value.vertex == 6
        assert generate(instance, kind, ME)[1].schedulable
        assert enumerate_scenarios(instance, kind, max_scenarios=10**6, exhaustive=True).schedulable
        path = str(SE_STUCK_SCHEDULABLE)
        assert main(["analyze", path, "--policy", kind.value, "--mode", "se"]) == 3
        assert main(["analyze", path, "--policy", kind.value, "--mode", "me"]) == 0
        capsys.readouterr()


class TestSweepEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), kind=st.sampled_from(ALL_POLICIES))
    def test_event_sweep_matches_naive_sweep(self, seed, kind):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        graph, _ = generate(instance, kind, ME)
        for vertex in graph.vertices.values():
            if vertex.level == len(instance.jobs):
                continue
            apps = make_context(instance, kind, vertex.finished)
            if not apps.ranked:
                continue
            assert expansion_windows(apps, vertex.eft, vertex.lft, ME) == \
                naive_windows_me(apps, vertex.eft, vertex.lft)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), kind=st.sampled_from(ALL_POLICIES))
    def test_single_eligibility_sweep_matches_naive(self, seed, kind):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        graph, _ = generate(instance, kind, SE)
        for vertex in graph.vertices.values():
            if vertex.level == len(instance.jobs):
                continue
            apps = make_context(instance, kind, vertex.finished)
            if not apps.ranked:
                continue
            try:
                fast = expansion_windows(apps, vertex.eft, vertex.lft, SE)
            except AnalysisStuck:
                with pytest.raises(AnalysisStuck):
                    naive_windows_se(apps, vertex.eft, vertex.lft)
                continue
            assert fast == naive_windows_se(apps, vertex.eft, vertex.lft)


def check_event_sweeps(instance, kind, mode):
    """Assert that every sweep `generate` makes keeps the probe rule, has the
    boundary sweep's windows, or is stuck where it is, and probes only times
    that the boundary sweep probes."""
    for apps, eft, lft, windows, calls in sweeps(instance, kind, mode):
        times = []
        try:
            expected = reference_boundary_windows(apps, eft, lft, mode, times)
        except AnalysisStuck:
            expected = "stuck"
        assert windows == expected, (eft, lft, apps.ranked)
        assert {t for t, _, _ in calls} <= set(times), (eft, lft, apps.ranked)
        assert_probe_rule(apps, eft, lft, calls)


class TestEventSweep:
    """The event sweep against the boundary sweep it replaced, which probes
    every release bound and budget expiry of every entry above eft: the same
    windows and stuck verdicts, with a subset of its probes."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), kind=st.sampled_from(ALL_POLICIES),
           mode=st.sampled_from([ME, SE]))
    def test_sampled_draws(self, seed, kind, mode):
        check_event_sweeps(sample_instance(random.Random(seed)), kind, mode)

    @pytest.mark.parametrize("draws", ["crowded_instances", "many_task_instances"])
    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_crowded_and_many_task_draws(self, request, draws, kind):
        for instance in request.getfixturevalue(draws)[:EVENT_SWEEP_DRAWS]:
            for mode in (ME, SE):
                check_event_sweeps(instance, kind, mode)

    def test_release_ranked_below_the_certain_choice_is_skipped(self, idle4):
        # at v1 under edf J3,1 is certain from 1 on, and J4,1, released at 3,
        # ranks below it; J1,1's release at 10 lies beyond lft
        graph, _ = generate(idle4, PolicyKind.EDF, ME)
        vertex = graph.vertices[1]
        assert interval(vertex) == (1, 8)
        apps = make_context(idle4, PolicyKind.EDF, vertex.finished)
        times = []
        expected = reference_boundary_windows(apps, 1, 8, ME, times)
        windows, calls = probed(apps, 1, 8, ME)
        assert windows == expected == [(idle4.job((3, 1)).pos, 1, 8)]
        assert times == [1, 3] and [t for t, _, _ in calls] == [1]


class TestIncrementalState:
    """What generate derives from each parent equals what make_context builds from scratch."""

    @pytest.mark.parametrize("mode", [ME, SE])
    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), crowded=st.booleans())
    def test_derived_state_matches_scratch(self, kind, mode, seed, crowded):
        instance = (sample_crowded_instance if crowded else sample_instance)(random.Random(seed))
        ranks = [entry[0] for entry in ranked_entries(instance, kind)]
        assert sorted(range(len(instance.jobs)), key=ranks.__getitem__) == \
            sorted(range(len(instance.jobs)), key=lambda pos: kind.priority_key(instance.jobs[pos]))

        def matches_scratch(apps, finished):
            scratch = make_context(instance, kind, finished)
            assert apps.kind is scratch.kind is kind
            assert applicable(apps) == applicable(scratch)
            assert apps.crit == scratch.crit
            assert apps.ranked == scratch.ranked
            assert apps.urgent == scratch.urgent
            assert apps == scratch  # every field, one added later included

        finished_of = {}  # id -> (set, its finished set); holding the set keeps its id unused
        original = schedgraph.graph.derive

        def checking(instance_, urgency, apps, pos):
            if not finished_of:  # the root's set, prepared from scratch
                matches_scratch(apps, 0)
                finished_of[id(apps)] = (apps, 0)
            parent = finished_of[id(apps)][1]
            assert not parent >> pos & 1
            child, finished = original(instance_, urgency, apps, pos), parent | 1 << pos
            matches_scratch(child, finished)
            finished_of[id(child)] = (child, finished)
            return child

        schedgraph.graph.derive = checking
        stuck = None
        try:
            generate(instance, kind, mode)
        except AnalysisStuck as exc:
            stuck = exc.vertex
        finally:
            schedgraph.graph.derive = original
        assert finished_of or stuck == 0  # only a stuck root derives no set

    def test_derive_swaps_the_dispatched_entry_for_the_followers(self, monkeypatch):
        """A child's `ranked` is its parent's without the dispatched job's
        entry and with its task's next job's, if any, and every entry is its
        job's tuple of the `entries` table itself, also for a child whose
        critical context differs from its parent's: no set rebuilds or copies
        its entries."""
        calls, counts = [], {}

        def context(apps):  # equal contexts have equal positions and times
            return reference_critical_context(apps.kind, applicable(apps))

        def deriving(instance, urgency, apps, pos, _original=schedgraph.graph.derive):
            child, entries, job = _original(instance, urgency, apps, pos), apps.entries, instance.jobs[pos]
            follower = instance.job_index.get((job.task_id, job.index + 1))
            expected = sorted([entry for entry in apps.ranked if entry[-1] is not job]
                              + ([] if follower is None else [entries[follower]]))
            assert len(child.ranked) == len(expected)
            assert all(entry is kept for entry, kept in zip(child.ranked, expected))
            assert all(entry is entries[entry[-1].pos] for entry in apps.ranked + child.ranked)
            calls.append(context(apps) != context(child))
            return child

        monkeypatch.setattr(schedgraph.graph, "derive", deriving)
        for kind in ALL_POLICIES:
            for path in sorted(SE_STUCK_SCHEDULABLE.parent.glob("*.txt")):
                del calls[:]
                generate(parse_instance(path.read_text(encoding="utf-8")), kind, ME,
                         exhaustive_misses=True)
                counts[kind.value, path.stem] = (sum(calls), len(calls))
        # (sets whose critical context changed, sets derived) per run under an idling policy
        assert {key: count for key, count in counts.items() if key[0] in ("p-fp-edf", "cp", "cw")} == {
            ("p-fp-edf", "anomaly"): (7, 8), ("p-fp-edf", "edf_jitter"): (3, 6),
            ("p-fp-edf", "precautious_idle"): (3, 7), ("p-fp-edf", "se_stuck_schedulable"): (12, 22),
            ("cp", "anomaly"): (6, 7), ("cp", "edf_jitter"): (3, 6),
            ("cp", "precautious_idle"): (4, 7), ("cp", "se_stuck_schedulable"): (11, 28),
            ("cw", "anomaly"): (7, 7), ("cw", "edf_jitter"): (4, 4),
            ("cw", "precautious_idle"): (6, 7), ("cw", "se_stuck_schedulable"): (16, 29)}
        assert all(changed == 0 < derived for (name, _), (changed, derived) in counts.items()
                   if name in ("edf", "fp-edf"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), crowded=st.booleans(),
           kind=st.sampled_from(ALL_POLICIES))
    def test_rank_order_matches_reference_pointwise(self, seed, crowded, kind):
        rng = random.Random(seed)
        instance = (sample_crowded_instance if crowded else sample_instance)(rng)
        try:
            graph, _ = generate(instance, kind, ME)
        except AnalysisStuck:
            return
        for vertex in graph.vertices.values():
            apps = make_context(instance, kind, vertex.finished)
            last_event = max([vertex.lft, *(e for entry in apps.ranked for e in events(apps, entry))])
            for t in range(vertex.eft, last_event + 1):
                exclude = frozenset(j.pos for j in applicable(apps) if rng.random() < 0.2)
                for skip in (frozenset(), exclude):
                    narrowed = dataclasses.replace(
                        apps, ranked=[e for e in apps.ranked if e[4] not in skip])
                    ce, possible, after = possibly_eligible(narrowed, t)
                    reference = reference_certainly_eligible(apps, t, skip)
                    assert ce == certainly_eligible(narrowed, t) == \
                        (None if reference is None else reference.pos)
                    assert possible == [job.pos for job in reference_possibly_eligible(apps, t, skip)]
                    assert after == next_event(narrowed, t, ce) and after > t, (t, after)


@pytest.fixture
def built_sets(monkeypatch):
    """Every applicable set that `prepare` and `derive` build while `generate`
    runs, as (finished set, applicable set): `prepare` builds the root's."""
    sets, finished_of = [], {}  # id -> finished set; `sets` holds each set, so its id stays unused
    prepare, derive = schedgraph.graph.prepare, schedgraph.graph.derive

    def preparing(*args):
        sets.append((0, prepare(*args)))
        finished_of[id(sets[-1][1])] = 0
        return sets[-1][1]

    def deriving(instance, urgency, apps, pos):
        sets.append((finished_of[id(apps)] | 1 << pos, derive(instance, urgency, apps, pos)))
        finished_of[id(sets[-1][1])] = sets[-1][0]
        return sets[-1][1]

    monkeypatch.setattr(schedgraph.graph, "prepare", preparing)
    monkeypatch.setattr(schedgraph.graph, "derive", deriving)
    return sets


def check_ranked_entries(instance, kind, sets) -> int:
    """Assert that each set's `ranked` holds exactly one entry per applicable
    job of its finished set, in rank order, each holding its own job's
    constants `(rank, r_min, r_max, c_max, pos, c_min, deadline, job)`; the number of entries
    whose job is released after its latest start under its set's budget."""
    ranks, dead = [entry[0] for entry in ranked_entries(instance, kind)], 0
    for finished, apps in sets:
        jobs = applicable_jobs(instance, finished)
        assert apps.ranked == sorted((ranks[job.pos], job.r_min, job.r_max, job.c_max, job.pos,
                                      job.c_min, job.deadline, job) for job in jobs)
        assert {id(entry[-1]) for entry in apps.ranked} == {id(job) for job in jobs}
        crit = reference_critical_context(kind, jobs)
        dead += sum(crit is not None and job.r_min > crit.latest_start(job) for job in jobs)
    return dead


class TestRankedEntries:
    """Each set's `ranked` holds an entry for exactly its applicable jobs, in
    rank order, each the constants of its own job, on every set built along a
    graph; comparing derived to scratch sets cannot catch a wrong entry or a
    wrong membership rule that both make."""

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_bundled_instances(self, built_sets, kind):
        for path in sorted(SE_STUCK_SCHEDULABLE.parent.glob("*.txt")):
            instance = parse_instance(path.read_text(encoding="utf-8"))
            for mode in (ME, SE):
                del built_sets[:]
                try:
                    generate(instance, kind, mode, exhaustive_misses=True)
                except AnalysisStuck:
                    pass
                assert len(built_sets) > 1
                dead = check_ranked_entries(instance, kind, built_sets)
                assert not kind.work_conserving or dead == 0

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_crowded_draws(self, built_sets, crowded_instances, kind):
        dead = 0
        for instance in crowded_instances:
            del built_sets[:]
            generate(instance, kind, ME)
            assert len(built_sets) > 1
            dead += check_ranked_entries(instance, kind, built_sets)
        assert (dead == 0) is kind.work_conserving


class TestPruning:
    """Under a budget a job with `r_min > last`, its latest start, is never
    certainly (`r_max <= t <= last`) nor possibly (`r_min <= t <= last`)
    eligible, and the scans take no event from it, so the sweep of a set
    that holds it is the sweep of the set without it: the same windows, stop
    bound, stuck verdict and probes."""

    @pytest.mark.parametrize("kind", [PolicyKind.CP, PolicyKind.CW], ids=lambda kind: kind.value)
    def test_bundled_root_admits_only_its_critical_job(self, idle4, kind):
        # J2,1 is critical with budget 8 - 8 = 0; every other job is released after its
        # latest start 0 - c_max
        apps = make_context(idle4, kind, 0)
        assert (apps.crit.pos, apps.crit.time) == (idle4.job((2, 1)).pos, 0)
        assert [job.label for job in applicable(apps)] == ["J1,1", "J2,1", "J3,1", "J4,1"]
        assert len(apps.ranked) == 4
        assert [entry[-1].label for entry in pruned(apps).ranked] == ["J2,1"]
        assert [events(apps, entry) for entry in apps.ranked if entry[-1].label != "J2,1"] == [()] * 3
        assert certainly_eligible(apps, 0) == idle4.job((2, 1)).pos
        assert possibly_eligible(apps, 0)[1] == []
        for mode in (ME, SE):
            windows, calls = probed(apps, 0, 0, mode)
            assert [t for t, _, _ in calls] == [0]
            assert windows == probed(pruned(apps), 0, 0, mode)[0] == [(idle4.job((2, 1)).pos, 0, 0)]

    @pytest.mark.parametrize("mode", [ME, SE])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), crowded=st.booleans(),
           kind=st.sampled_from([kind for kind in ALL_POLICIES if not kind.work_conserving]))
    def test_pruned_sweep_equals_unpruned_and_naive_sweeps(self, mode, seed, crowded, kind):
        instance = (sample_crowded_instance if crowded else sample_instance)(random.Random(seed))
        try:
            graph, _ = generate(instance, kind, ME)
        except AnalysisStuck:
            return

        def outcome(apps, eft, lft):
            """The sweep's windows, or "stuck", and the times it probed."""
            windows, calls = probed(apps, eft, lft, mode)
            return windows, [t for t, _, _ in calls]

        pruned_sets = 0
        for vertex in graph.vertices.values():
            apps = make_context(instance, kind, vertex.finished)
            kept = pruned(apps)
            if len(kept.ranked) == len(apps.ranked):
                continue  # no job released after its latest start: the same set
            pruned_sets += 1
            eft, lft = vertex.eft, vertex.lft
            try:
                naive = (naive_windows_me if mode == ME else naive_windows_se)(apps, eft, lft)
            except AnalysisStuck:
                naive = "stuck"
            windows, times = outcome(apps, eft, lft)
            assert (windows, times) == outcome(kept, eft, lft), vertex
            assert windows == naive, vertex
            dead = [entry[4] for entry in apps.ranked if entry not in kept.ranked]
            for t in range(eft, max(times + [lft]) + 1):
                assert certainly_eligible(apps, t) not in dead
                assert not set(possibly_eligible(apps, t)[1]) & set(dead)
        note(f"{pruned_sets} pruned sets")


class TestIncrementalCost:
    """generate computes applicable jobs only at the root and each priority and
    urgency key once.

    A per-vertex rescan of the tasks or of the priority keys makes this fail.
    """

    @pytest.mark.parametrize("name", ["anomaly", "idle4"])
    def test_no_per_vertex_rescan(self, monkeypatch, request, name):
        instance = request.getfixturevalue(name)
        calls = {"applicable_jobs": 0, "priority_key": 0, "urgency_key": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(schedgraph.graph, "applicable_jobs",
                            counted("applicable_jobs", applicable_jobs))
        for kind in ALL_POLICIES:
            for key in ("priority_key", "urgency_key"):
                monkeypatch.setattr(kind, key, counted(key, getattr(kind, key)))
        for kind in ALL_POLICIES:
            for mode in (ME, SE):
                calls.update(applicable_jobs=0, priority_key=0, urgency_key=0)
                graph, _ = generate(instance, kind, mode, exhaustive_misses=True)
                assert graph.vertices_created > len(instance.jobs)
                assert calls["applicable_jobs"] <= 1, (kind, mode)
                assert calls["priority_key"] <= len(instance.jobs), (kind, mode)
                assert calls["urgency_key"] <= len(instance.jobs), (kind, mode)


class TestOracleSoundness:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(ALL_POLICIES))
    def test_simulated_finishes_lie_within_bounds(self, seed, kind):
        # exhaustive-miss mode keeps expanding past misses, so bounds cover
        # every job on both verdicts
        rng = random.Random(seed)
        instance = sample_instance(rng)
        _, result = generate(instance, kind, ME, exhaustive_misses=True)
        assert result.bounds_complete
        from schedgraph import ExecutionScenario, simulate
        for _ in range(10):
            release = {j.key: rng.randint(j.r_min, j.r_max) for j in instance.jobs}
            execution = {j.key: rng.randint(j.c_min, j.c_max) for j in instance.jobs}
            trace = simulate(instance, kind, ExecutionScenario(release, execution))
            for job, _, finish in trace.dispatches:
                lo, hi = result.bounds[job.key]
                assert lo <= finish <= hi


@pytest.fixture(scope="module")
def crowded_instances():
    return [sample_crowded_instance(random.Random(CROWDED_SEED_BASE + seed),
                                    max_scenarios=DIFFERENTIAL_MAX_SCENARIOS)
            for seed in range(CROWDED_DRAWS)]


@pytest.fixture(scope="module")
def many_task_instances():
    return [sample_crowded_instance(random.Random(MANY_TASK_SEED_BASE + seed),
                                    max_scenarios=DIFFERENTIAL_MAX_SCENARIOS, **MANY_TASKS)
            for seed in range(MANY_TASK_DRAWS)]


def me_agrees_with_oracle(instance, kind) -> bool:
    """Assert that me and the oracle agree on the verdict, and on the bounds
    when schedulable; return the verdict."""
    _, result = generate(instance, kind, ME)
    report = enumerate_scenarios(instance, kind)
    assert result.schedulable == report.schedulable, instance.tasks
    if result.schedulable:
        assert result.bounds == {key: (report.finish_min[key], report.finish_max[key])
                                 for key in report.finish_min}, instance.tasks
    return result.schedulable


class TestDifferential:
    """The me graph against the exhaustive oracle: verdicts and exact bounds,
    on draws of up to 10**6 scenarios."""

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_crowded_instances_agree(self, crowded_instances, kind):
        # 4-6 tasks with priorities 0-3; se is never schedulable where me is not
        schedulable = 0
        for instance in crowded_instances:
            verdict = me_agrees_with_oracle(instance, kind)
            schedulable += verdict
            _, single = generate(instance, kind, SE)
            assert not single.schedulable or verdict, instance.tasks
        assert 0 < schedulable < len(crowded_instances)

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_many_task_instances_agree(self, many_task_instances, kind):
        # 7-8 tasks with release jitter up to 4; a stuck se analysis gives no verdict
        schedulable = 0
        for instance in many_task_instances:
            verdict = me_agrees_with_oracle(instance, kind)
            schedulable += verdict
            try:
                _, single = generate(instance, kind, SE)
            except AnalysisStuck:
                continue
            assert not single.schedulable or verdict, instance.tasks
        assert 0 < schedulable < len(many_task_instances)

    @pytest.mark.parametrize("spec, kind, schedulable", FOLDING_DRAWS,
                             ids=["cw-36", "cp-14", "cp-246"])
    def test_folded_arcs_agree(self, spec, kind, schedulable):
        # the crowded draws never fold a duplicate arc in merge_phase; these do
        instance = generate_instance(spec)
        graph, result = generate(instance, kind, ME)
        assert graph.arcs_created > len(graph.arcs)
        assert me_agrees_with_oracle(instance, kind) is schedulable
        check_graph(graph, result)

    @settings(max_examples=200, deadline=None)
    @given(tasks=st.lists(st.builds(
        lambda period, r_min, r_span, c_min, c_span, slack, p: Task(
            0, period, r_min, r_min + r_span, c_min, c_min + c_span,
            max(1, r_min + r_span + c_min + c_span + slack), p),
        period=st.sampled_from((8, 10, 20, 40)), r_min=st.integers(0, 7),
        r_span=st.integers(0, 2), c_min=st.integers(1, 4), c_span=st.integers(0, 1),
        slack=st.integers(-3, 6), p=st.integers(0, 3)), min_size=1, max_size=4),
        kind=st.sampled_from(ALL_POLICIES))
    def test_disagreement_shrinks_to_an_instance_file(self, tasks, kind):
        instance = make_instance([dataclasses.replace(task, id=i + 1)
                                  for i, task in enumerate(tasks)])
        assume(scenario_count(instance) <= 5000)
        note(write_instance(instance))  # printed, shrunk, if the comparison fails
        _, result = generate(instance, kind, ME)
        report = enumerate_scenarios(instance, kind)
        assert result.schedulable == report.schedulable
        if result.schedulable:
            assert result.bounds == {key: (report.finish_min[key], report.finish_max[key])
                                     for key in report.finish_min}


def narrow(rng: random.Random, instance, field: str):
    """The instance with one task's `field` moved strictly inside its range, same H.

    Returns None when no task has room to move that field.
    """
    low, high = ("r_min", "r_max") if field[0] == "r" else ("c_min", "c_max")
    roomy = [task for task in instance.tasks if getattr(task, low) < getattr(task, high)]
    if not roomy:
        return None
    task = rng.choice(roomy)
    lo, hi = getattr(task, low), getattr(task, high)
    value = rng.randint(lo + 1, hi) if field == low else rng.randint(lo, hi - 1)
    tasks = [dataclasses.replace(t, **{field: value}) if t is task else t
             for t in instance.tasks]
    return make_instance(tasks, instance.horizon)


class TestSustainability:
    """A schedulable instance stays schedulable when one task's parameters narrow.

    Raising r_min or c_min leaves every policy's scheduler as it was and
    only removes scenarios. Lowering r_max or c_max is checked under the
    work conserving policies only: the idling policies read r_max and c_max
    in their critical budget, so narrowing those changes the scheduler
    itself, and its bounds may widen.
    """

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), crowded=st.booleans(),
           narrowing=st.one_of(
               st.tuples(st.sampled_from(("r_min", "c_min")), st.sampled_from(ALL_POLICIES)),
               st.tuples(st.sampled_from(("r_max", "c_max")),
                         st.sampled_from([k for k in ALL_POLICIES if k.work_conserving]))))
    def test_narrowing_keeps_verdict_and_bounds(self, seed, crowded, narrowing):
        field, kind = narrowing
        rng = random.Random(seed)
        while True:  # draw on until a schedulable instance has room to narrow
            instance = (sample_crowded_instance if crowded else sample_instance)(rng)
            _, result = generate(instance, kind, ME)
            narrowed = narrow(rng, instance, field) if result.schedulable else None
            if narrowed is not None:
                break
        note(write_instance(instance))
        note(write_instance(narrowed))
        assert [job.key for job in narrowed.jobs] == [job.key for job in instance.jobs]
        _, after = generate(narrowed, kind, ME)
        assert after.schedulable
        assert after.bounds.keys() == result.bounds.keys()
        for key, (lo, hi) in after.bounds.items():
            old_lo, old_hi = result.bounds[key]
            assert old_lo <= lo and hi <= old_hi, key


class TestDotExport:
    def test_jitter_graph_labels_and_counts(self, jitter3):
        graph, result = generate(jitter3, PolicyKind.EDF, ME)
        dot = export_dot(graph, result)
        assert graph.vertices_created == 9
        assert len(graph.vertices) == 7
        assert len(graph.arcs) == 8
        assert 'label="v4: [5,7]"' in dot
        assert 'label="v7: [6,8]"' in dot
        assert dot.count('label="J2,2"') == 2

    def test_root_only_graph(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        dot = export_dot(graph)
        assert 'label="v0: [0,0]"' in dot
        assert "->" not in dot

    def test_double_label_out_of_one_vertex(self, idle4):
        graph, result = generate(idle4, PolicyKind.P_FP_EDF, ME)
        dot = export_dot(graph, result)
        assert dot.count('v1 -> ') == 3
        assert dot.count('label="J3,1"') == 4  # two out of v1, two deeper down

    def test_witness_is_highlighted(self, idle4):
        graph, result = generate(idle4, PolicyKind.P_FP_EDF, SE)
        dot = export_dot(graph, result)
        assert "color=red" in dot

    def test_output_is_deterministic(self, anomaly):
        first = export_dot(*generate(anomaly, PolicyKind.EDF, ME))
        second = export_dot(*generate(anomaly, PolicyKind.EDF, ME))
        assert first == second

    def test_output_is_pinned_byte_for_byte(self, monkeypatch, jitter3, idle4):
        builds = []
        build = ScheduleGraph._build
        monkeypatch.setattr(ScheduleGraph, "_build", lambda self: builds.append(1) or build(self))
        for instance, kind, digest in [
            (jitter3, PolicyKind.EDF,
             "679af2748a0b2451fd8480588f7ff8355d235cbfd6d4ca41e6ba74915ded78f7"),
            # cw misses on this instance, so the witness is highlighted too
            (idle4, PolicyKind.CW,
             "d9c138c314ebc5cafe239df56b5ba2819ac97976f396c22cbef48e16b1209463"),
        ]:
            graph, result = generate(instance, kind, ME)
            builds.clear()
            dot = export_dot(graph, result)
            assert len(builds) == 2  # one read of `vertices` and one of `arcs`
            assert (kind, hashlib.sha256(dot.encode()).hexdigest()) == (kind, digest)


class TestStuckGuard:
    def test_engine_rejects_unknown_mode(self, jitter3):
        with pytest.raises(ValueError, match="unknown mode"):
            generate(jitter3, PolicyKind.EDF, "both")

    def test_sweep_rejects_unknown_mode_without_applicable_jobs(self, jitter3):
        done = mask(jitter3, [j.key for j in jitter3.jobs])
        apps = make_context(jitter3, PolicyKind.EDF, done)
        assert expansion_windows(apps, 8, 8, ME) == []
        with pytest.raises(ValueError, match="unknown mode"):
            expansion_windows(apps, 8, 8, "both")


def script_env() -> dict:
    """The environment of a script run apart: the package and the tests' support on its path."""
    src = Path(schedgraph.graph.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}


# Each case corrupts the engine's state in one way; the check must still fire
# when assert statements are stripped.
CORRUPTED_CASES = textwrap.dedent("""
    import sys
    from schedgraph import ME, PolicyKind, Task, generate, make_instance, parse_instance
    from schedgraph.graph import ScheduleGraph, expand, prepare, ranked_entries
    from support import applicable, merge
    assert False, "assert statements must be stripped"
    instance = parse_instance(open(sys.argv[1]).read())
    graph = ScheduleGraph(instance, PolicyKind.EDF)
    [root] = graph.recorded[0][0]
    job = instance.job((2, 1))
    first = expand(graph, root, job.pos, 0, 0)
    [done] = merge(graph, [first])

    def empty_interval():  # a job whose c_min exceeds its c_max
        broken = ScheduleGraph(instance, PolicyKind.EDF)
        rank, r_min, r_max, _, pos, _, deadline, _ = broken.entries[job.pos]
        broken.entries[job.pos] = (rank, r_min, r_max, 2, pos, 3, deadline, job)
        expand(broken, root, job.pos, 0, 0)

    def twice():  # one job twice in the applicable set
        prepare(PolicyKind.EDF, ranked_entries(instance, PolicyKind.EDF), [], (job, job))

    def merged_after_expansion():  # a candidate of a level already recorded
        expand(graph, done, instance.job((1, 1)).pos, 1, 1)
        merge(graph, [first])

    def generator_breaks_its_deadline_rule():
        import schedgraph.generator as generator
        bad = make_instance([Task(1, 10, 0, 0, 1, 1, 20)])  # deadline past period
        generator.make_instance = lambda tasks: bad
        generator.generate_instance(generator.GenSpec(1, 0.1, 0.0, 0.0))

    def eligible_before_release():  # the last case: the engine stays patched
        import schedgraph.graph as engine
        probe = engine.possibly_eligible

        def everything_possible(apps, t):
            ce, _, after = probe(apps, t)
            return ce, [j.pos for j in applicable(apps) if j.pos != ce], after

        engine.possibly_eligible = everything_possible
        generate(instance, PolicyKind.EDF, ME)

    cases = [
        empty_interval,
        lambda: expand(graph, done, job.pos, 1, 1),
        twice,
        merged_after_expansion,
        generator_breaks_its_deadline_rule,
        eligible_before_release,
    ]
    for case in cases:
        try:
            case()
        except RuntimeError as exc:
            print(exc)
        else:
            print("no error")
""")


def test_invariant_checks_survive_optimize_flag(tmp_path):
    script = tmp_path / "corrupt.py"
    script.write_text(CORRUPTED_CASES, encoding="utf-8")
    instance = Path(__file__).resolve().parent.parent / "instances" / "edf_jitter.txt"
    out = subprocess.run([sys.executable, "-O", str(script), str(instance)], env=script_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "vertex interval [3, 2] is empty",
        "job already finished in source vertex",
        "priority order is not strict",
        "merge phase ran after expansion of the level",
        "generated task 1 breaks r_max + c_max <= deadline <= period",
        "work conserving range must start at release",
    ]


# J1,1 may be released over [0, 10] and outranks J2,1 (released over [2, 4]) by
# its deadline, so the root's sweep probes 0, 2 and 4; the corruption hides
# J1,1 at the second probe only, so it is eligible, then not, then again.
REELIGIBLE_CASE = textwrap.dedent("""
    import schedgraph.graph as engine
    from schedgraph import ME, PolicyKind, Task, generate, make_instance
    instance = make_instance([Task(1, 20, 0, 10, 1, 1, 12), Task(2, 20, 2, 4, 1, 1, 19)])
    probe, probes = engine.possibly_eligible, []

    def flicker(apps, t):
        probes.append(t)
        ce, found, after = probe(apps, t)
        return ce, ([pos for pos in found if pos != 0] if len(probes) == 2 else found), after

    engine.possibly_eligible = flicker
    try:
        generate(instance, PolicyKind.EDF, ME)
    except RuntimeError as exc:
        print(exc)
    else:
        print("no error")
    print(probes)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_work_conserving_job_eligible_again_is_refused(tmp_path, flags):
    script = tmp_path / "reeligible.py"
    script.write_text(REELIGIBLE_CASE, encoding="utf-8")
    out = subprocess.run([sys.executable, *flags, str(script)], env=script_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["work conserving job re-eligibility", "[0, 2, 4]"]
