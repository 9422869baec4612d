from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedgraph.graph
from schedgraph import (ME, SE, AnalysisStuck, ExecutionScenario, Job, PolicyKind,
                        ScheduleGraph, Task, applicable_jobs, certainly_eligible,
                        expand, expansion_windows, export_dot, generate,
                        make_context, make_instance, merge_phase, next_nodes,
                        possibly_eligible, simulate)
from support import (ALL_POLICIES, check_graph, exploration_bound, mask,
                     naive_windows_me, naive_windows_se, sample_instance)


def intervals(graph, level):
    return sorted(graph.vertices[vid].interval for vid in graph.levels[level])


class TestApplicableJobs:
    def test_finishing_a_job_exposes_its_successor(self, jitter3):
        got = applicable_jobs(jitter3, mask(jitter3, [(2, 1)]))
        assert [j.key for j in got] == [(1, 1), (2, 2), (3, 1)]

    def test_empty_finished_set_gives_first_jobs(self, anomaly):
        got = applicable_jobs(anomaly, 0)
        assert [j.key for j in got] == [(1, 1), (2, 1), (3, 1)]

    def test_all_finished_gives_empty_set(self, jitter3):
        assert applicable_jobs(jitter3, mask(jitter3, [j.key for j in jitter3.jobs])) == []

    def test_non_prefix_closed_set_is_a_bug(self, jitter3, anomaly):
        with pytest.raises(RuntimeError, match="prefix-closed: J2,2 finished before J2,1"):
            applicable_jobs(jitter3, mask(jitter3, [(2, 2)]))
        with pytest.raises(RuntimeError, match="prefix-closed: J3,4 finished before J3,2"):
            applicable_jobs(anomaly, mask(anomaly, [(1, 1), (3, 1), (3, 4)]))


class TestJobIdentity:
    """Generation and the online scheduler name a job by its position only."""

    def test_no_job_is_hashed_or_compared_by_value(self, monkeypatch, anomaly, jitter3,
                                                   idle4):
        def refuse(*args):
            raise AssertionError("a Job was hashed or compared by value")

        worst = ExecutionScenario.worst_case(idle4)
        monkeypatch.setattr(Job, "__hash__", refuse)
        monkeypatch.setattr(Job, "__eq__", refuse)
        for instance in (anomaly, jitter3, idle4):
            for kind in ALL_POLICIES:
                for mode in (ME, SE):
                    try:
                        generate(instance, kind, mode)
                    except AnalysisStuck:
                        pass
        for kind in (PolicyKind.P_FP_EDF, PolicyKind.CP, PolicyKind.CW):
            simulate(idle4, kind, worst)


class TestEligibility:
    def test_certain_choice_at_root(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, 0, 0, 0)
        assert certainly_eligible(ctx, 0) == jitter3.job((2, 1))

    def test_certain_choice_respects_budget(self, idle4):
        ctx = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]), 1, 8)
        assert certainly_eligible(ctx, 7) == idle4.job((3, 1))

    def test_no_certain_choice_before_any_certain_release(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(1, 1), (2, 1)]), 2, 3)
        # only the jittery job remains unreleased-for-sure before t=3
        assert certainly_eligible(ctx, 2) is None

    def test_possible_jobs_must_outrank_certain_choice(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]), 1, 1)
        assert possibly_eligible(ctx, 1) == [jitter3.job((3, 1))]

    def test_priority_table_pattern(self):
        # seven jobs, one per priority level; at t=5: priorities 3 and 4 are
        # certainly released, 0, 2 and 6 possibly, 1 and 5 not at all
        windows = {0: (3, 9), 1: (7, 9), 2: (4, 8), 3: (0, 2), 4: (1, 3),
                   5: (8, 9), 6: (2, 7)}
        tasks = [Task(p + 1, 40, lo, hi, 1, 1, 30 + p, p) for p, (lo, hi) in windows.items()]
        instance = make_instance(tasks, horizon=40)
        ctx = make_context(instance, PolicyKind.FP_EDF, 0, 5, 5)
        assert certainly_eligible(ctx, 5).priority == 3
        assert sorted(j.priority for j in possibly_eligible(ctx, 5)) == [0, 2]

    def test_nothing_possible_once_everything_certain(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]), 5, 5)
        assert possibly_eligible(ctx, 5) == []


class TestExplorationBound:
    def test_bound_stays_at_lft_when_choice_exists(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1), (3, 1)]), 4, 5)
        assert exploration_bound(ctx) == 5

    def test_bound_jumps_to_next_certain_release(self):
        tasks = [Task(1, 20, 10, 10, 1, 1, 20)]
        instance = make_instance([Task(2, 20, 0, 0, 4, 8, 20)] + tasks)
        ctx = make_context(instance, PolicyKind.EDF, mask(instance, [(2, 1)]), 4, 8)
        assert exploration_bound(ctx) == 10

    def test_bound_with_recovered_eligibility(self, idle4):
        ctx = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]), 1, 8)
        assert exploration_bound(ctx) == 8


class TestRanges:
    @staticmethod
    def ranges(ctx, job):
        return [(est, lst) for j, est, lst in expansion_windows(ctx, ME) if j == job]

    def test_split_eligibility_of_low_priority_job(self, idle4):
        ctx = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]), 1, 8)
        assert self.ranges(ctx, idle4.job((3, 1))) == [(1, 2), (7, 8)]

    def test_single_window_of_mid_priority_job(self, idle4):
        ctx = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]), 1, 8)
        assert self.ranges(ctx, idle4.job((4, 1))) == [(3, 6)]

    def test_work_conserving_range_starts_at_release(self, jitter3):
        ctx = make_context(jitter3, PolicyKind.EDF, mask(jitter3, [(2, 1)]), 1, 1)
        for job in ctx.applicable:
            ranges = self.ranges(ctx, job)
            assert len(ranges) <= 1
            if ranges:
                assert ranges[0][0] == max(ctx.eft, job.r_min)


class TestProbeCount:
    """The sweep evaluates the certain choice once per probed time."""

    @staticmethod
    def probed_times(monkeypatch, ctx, mode):
        calls = []
        original = schedgraph.graph.certainly_eligible

        def counting(ctx, t, *args):
            calls.append(t)
            return original(ctx, t, *args)

        monkeypatch.setattr(schedgraph.graph, "certainly_eligible", counting)
        try:
            expansion_windows(ctx, mode)
        finally:
            monkeypatch.undo()
        return calls

    def assert_once_per_probe(self, monkeypatch, ctx, mode):
        calls = self.probed_times(monkeypatch, ctx, mode)
        boundaries = {ctx.eft} | schedgraph.graph._boundary_times(ctx)
        assert calls, "the sweep probed nothing"
        assert len(calls) == len(set(calls)), f"a time was probed twice: {calls}"
        assert set(calls) <= boundaries

    @pytest.mark.parametrize("mode", [ME, SE])
    def test_idle_vertex(self, monkeypatch, idle4, mode):
        ctx = make_context(idle4, PolicyKind.P_FP_EDF, mask(idle4, [(2, 1)]), 1, 8)
        self.assert_once_per_probe(monkeypatch, ctx, mode)

    @pytest.mark.parametrize("mode", [ME, SE])
    def test_every_jitter_vertex(self, monkeypatch, jitter3, mode):
        graph, _ = generate(jitter3, PolicyKind.EDF, mode)
        for vertex in graph.vertices.values():
            ctx = make_context(jitter3, PolicyKind.EDF, vertex.finished, vertex.eft, vertex.lft)
            if ctx.applicable:
                self.assert_once_per_probe(monkeypatch, ctx, mode)


class TestExpand:
    def test_expand_adds_execution_window(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        root = graph.vertices[graph.root]
        v1, arc = expand(graph, root, jitter3.job((2, 1)), 0, 0)
        assert v1.interval == (1, 1)
        v2, _ = expand(graph, v1, jitter3.job((3, 1)), 1, 1)
        assert v2.interval == (4, 5)
        v3, _ = expand(graph, v1, jitter3.job((1, 1)), 1, 1)
        assert v3.interval == (2, 3)
        assert (arc.est, arc.lst) == (0, 0)

    def test_expand_window_spans_dispatch_times(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        root = graph.vertices[graph.root]
        v1, _ = expand(graph, root, jitter3.job((2, 1)), 0, 0)
        v2, _ = expand(graph, v1, jitter3.job((1, 1)), 1, 1)
        v4, _ = expand(graph, v2, jitter3.job((3, 1)), 2, 3)
        assert v4.interval == (5, 7)

    def test_deterministic_job_gives_point_interval(self):
        instance = make_instance([Task(1, 10, 0, 0, 3, 3, 10)])
        graph = ScheduleGraph(instance, PolicyKind.EDF)
        vertex, _ = expand(graph, graph.vertices[graph.root], instance.jobs[0], 4, 4)
        assert vertex.interval == (7, 7)

    def test_empty_window_rejected(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        with pytest.raises(ValueError, match="empty dispatch window"):
            expand(graph, graph.vertices[graph.root], jitter3.job((2, 1)), 3, 2)


class TestNextNodes:
    def test_root_expands_to_single_certain_choice(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        new = next_nodes(graph, graph.vertices[graph.root])
        assert [(graph.job_of_arc(graph.arcs[v.in_arcs[0]]).label, v.interval)
                for v in new] == [("J2,1", (1, 1))]

    def test_vertex_with_certain_switchover_expands_twice(self, jitter3):
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        root = graph.vertices[graph.root]
        v1, _ = expand(graph, root, jitter3.job((2, 1)), 0, 0)
        v3, _ = expand(graph, v1, jitter3.job((3, 1)), 1, 1)
        new = next_nodes(graph, v3)
        assert [v.interval for v in new] == [(5, 6), (6, 6)]

    def test_idling_policy_reopens_eligibility(self, idle4):
        graph = ScheduleGraph(idle4, PolicyKind.P_FP_EDF)
        root = graph.vertices[graph.root]
        v1, _ = expand(graph, root, idle4.job((2, 1)), 0, 0)
        new = next_nodes(graph, v1)
        labels = [(graph.job_of_arc(graph.arcs[v.in_arcs[0]]).label, v.interval)
                  for v in new]
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
        root = graph.vertices[graph.root]
        a, _ = expand(graph, root, jitter3.job((2, 1)), 0, 0)
        b, _ = expand(graph, root, jitter3.job((2, 1)), 3, 3)
        b.eft, b.lft = 4, 5  # force a gap between the two intervals
        assert merge_phase(graph, [a.id, b.id]) == [a.id, b.id]

    def test_merge_takes_interval_hull_and_redirects_arcs(self, jitter3):
        graph, _ = generate(jitter3, PolicyKind.EDF, ME)
        merged = [graph.vertices[vid] for vid in graph.levels[3]
                  if graph.vertices[vid].interval == (5, 7)][0]
        sources = {graph.arcs[a].src for a in merged.in_arcs}
        assert len(sources) == 2

    def test_duplicate_arc_windows_fold_on_merge(self, jitter3):
        # two dispatch windows of one job reach overlapping intervals: the
        # merge keeps a single arc whose window is the hull of both, so
        # finish bounds stay exact and the graph stays simple
        graph = ScheduleGraph(jitter3, PolicyKind.EDF)
        root = graph.vertices[graph.root]
        a, _ = expand(graph, root, jitter3.job((1, 1)), 0, 1)  # interval [1, 3]
        b, _ = expand(graph, root, jitter3.job((1, 1)), 2, 3)  # interval [3, 5]
        assert merge_phase(graph, [a.id, b.id]) == [a.id]
        survivor = graph.vertices[a.id]
        assert survivor.interval == (1, 5)
        assert len(survivor.in_arcs) == 1
        assert len(root.out_arcs) == 1
        kept = graph.arcs[survivor.in_arcs[0]]
        assert (kept.est, kept.lst) == (0, 3)


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

    def test_generate_is_deterministic(self, idle4):
        g1, r1 = generate(idle4, PolicyKind.P_FP_EDF, ME)
        g2, r2 = generate(idle4, PolicyKind.P_FP_EDF, ME)
        assert [(v.id, v.interval, v.finished) for v in g1.vertices.values()] == \
               [(v.id, v.interval, v.finished) for v in g2.vertices.values()]
        assert [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in g1.arcs.values()] == \
               [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in g2.arcs.values()]
        assert r1.bounds == r2.bounds

    def test_level_stats_cover_all_levels(self, jitter3):
        _, result = generate(jitter3, PolicyKind.EDF, ME)
        assert len(result.levels) == len(jitter3.jobs) + 1
        assert result.levels[0] == (1, 0)
        assert result.levels[1] == (1, 1)

    def test_structural_invariants_on_worked_examples(self, anomaly, jitter3, idle4):
        cases = [(anomaly, PolicyKind.EDF), (jitter3, PolicyKind.EDF),
                 (idle4, PolicyKind.P_FP_EDF)]
        for instance, kind in cases:
            for mode in (ME, SE):
                graph, result = generate(instance, kind, mode)
                check_graph(graph, result)


class TestSweepEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), kind=st.sampled_from(ALL_POLICIES))
    def test_boundary_sweep_matches_naive_sweep(self, seed, kind):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        graph, _ = generate(instance, kind, ME)
        for vertex in graph.vertices.values():
            if vertex.level == len(instance.jobs):
                continue
            ctx = make_context(instance, kind, vertex.finished, vertex.eft, vertex.lft)
            if not ctx.applicable:
                continue
            assert expansion_windows(ctx, ME) == naive_windows_me(ctx)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), kind=st.sampled_from(ALL_POLICIES))
    def test_single_eligibility_sweep_matches_naive(self, seed, kind):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        graph, _ = generate(instance, kind, SE)
        for vertex in graph.vertices.values():
            if vertex.level == len(instance.jobs):
                continue
            ctx = make_context(instance, kind, vertex.finished, vertex.eft, vertex.lft)
            if not ctx.applicable:
                continue
            try:
                fast = expansion_windows(ctx, SE)
            except AnalysisStuck:
                with pytest.raises(AnalysisStuck):
                    naive_windows_se(ctx)
                continue
            assert fast == naive_windows_se(ctx)


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


class TestStuckGuard:
    def test_engine_rejects_unknown_mode(self, jitter3):
        with pytest.raises(ValueError, match="unknown mode"):
            generate(jitter3, PolicyKind.EDF, "both")

    def test_sweep_rejects_unknown_mode_without_applicable_jobs(self, jitter3):
        done = mask(jitter3, [j.key for j in jitter3.jobs])
        ctx = make_context(jitter3, PolicyKind.EDF, done, 8, 8)
        assert expansion_windows(ctx, ME) == []
        with pytest.raises(ValueError, match="unknown mode"):
            expansion_windows(ctx, "both")
