from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgraph import (PolicyKind, critical_context, parse_policy, pi_higher,
                        pi_key, pick)
from support import ALL_POLICIES, sample_instance


def test_parse_policy_names():
    assert parse_policy("EDF") is PolicyKind.EDF
    assert parse_policy("p-fp-edf") is PolicyKind.P_FP_EDF
    with pytest.raises(ValueError, match="unknown policy"):
        parse_policy("rm")


def test_work_conserving_flags():
    assert PolicyKind.EDF.work_conserving
    assert PolicyKind.FP_EDF.work_conserving
    for kind in (PolicyKind.P_FP_EDF, PolicyKind.CP, PolicyKind.CW):
        assert not kind.work_conserving


class TestPiOrder:
    def test_edf_prefers_earlier_deadline(self, anomaly):
        early = anomaly.job((2, 1))   # deadline 8
        late = anomaly.job((1, 1))    # deadline 16
        assert pi_higher(PolicyKind.EDF, early, late)
        assert not pi_higher(PolicyKind.EDF, late, early)

    def test_fixed_priority_ties_break_on_task_id(self, idle4):
        # equal priority and deadline only differ in the task id
        a = idle4.job((3, 1))
        b = dataclasses.replace(a, task_id=5)
        assert pi_higher(PolicyKind.FP_EDF, a, b)

    def test_null_competitor_always_loses(self, anomaly):
        job = anomaly.job((3, 1))
        for kind in ALL_POLICIES:
            assert pi_higher(kind, job, None)

    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(ALL_POLICIES))
    def test_strict_total_order_on_instance_jobs(self, seed, kind):
        rng = random.Random(seed)
        jobs = sample_instance(rng).jobs
        keys = [pi_key(kind, job) for job in jobs]
        assert len(set(keys)) == len(keys)          # totality
        triple = [jobs[rng.randrange(len(jobs))] for _ in range(3)]
        a, b, c = triple
        assert not pi_higher(kind, a, a)            # irreflexive
        if pi_higher(kind, a, b) and pi_higher(kind, b, c):
            assert pi_higher(kind, a, c)            # transitive
        if a != b:
            assert pi_higher(kind, a, b) != pi_higher(kind, b, a)


class TestPick:
    def test_edf_picks_earliest_deadline_among_released(self, jitter3):
        applicable = [jitter3.job((1, 1)), jitter3.job((2, 1)), jitter3.job((3, 1))]
        releases = {(1, 1): 0, (2, 1): 0, (3, 1): 1}
        assert pick(PolicyKind.EDF, 0, applicable, releases) == jitter3.job((2, 1))

    def test_precautious_keeps_viable_low_priority_job(self, idle4):
        applicable = [idle4.job((1, 1)), idle4.job((3, 1)), idle4.job((4, 1))]
        releases = {(1, 1): 10, (3, 1): 1, (4, 1): 3}
        # at t=7 task 4 would overrun the critical budget (7+4 > 10); task 3 fits
        assert pick(PolicyKind.P_FP_EDF, 7, applicable, releases) == idle4.job((3, 1))

    def test_empty_applicable_set_yields_none(self):
        for kind in ALL_POLICIES:
            assert pick(kind, 0, [], {}) is None

    def test_idling_policy_defers_to_unreleased_critical_job(self, idle4):
        applicable = [idle4.job((1, 1)), idle4.job((4, 1))]
        releases = {(1, 1): 10, (4, 1): 3}
        # t=9: task 4 released but 9+4 > 10 endangers the critical job
        assert pick(PolicyKind.P_FP_EDF, 9, applicable, releases) is None

    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(ALL_POLICIES),
           t=st.integers(0, 50))
    def test_pick_returns_released_applicable_job_or_none(self, seed, kind, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [jobs[0] for jobs in instance.jobs_by_task.values() if jobs]
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        choice = pick(kind, t, applicable, releases)
        if choice is not None:
            assert choice in applicable
            assert releases[choice.key] <= t


class TestCriticalContext:
    def test_precautious_protects_top_priority_job(self, idle4):
        ctx = critical_context(PolicyKind.P_FP_EDF, idle4.jobs)
        assert ctx.job == idle4.job((1, 1))
        assert ctx.time == 12 - 2

    def test_precautious_absent_without_top_priority_job(self, idle4):
        applicable = [idle4.job((3, 1)), idle4.job((4, 1))]
        assert critical_context(PolicyKind.P_FP_EDF, applicable) is None

    def test_cp_protects_earliest_deadline(self, idle4):
        ctx = critical_context(PolicyKind.CP, idle4.jobs)
        assert ctx.job == idle4.job((2, 1))
        assert ctx.time == 8 - 8

    def test_cw_folds_all_deadlines(self, idle4):
        # deadlines descending: 16, 14, 12, 8 with c_max 4, 2, 2, 8
        ctx = critical_context(PolicyKind.CW, idle4.jobs)
        assert ctx.time == 0
        assert ctx.job == idle4.job((2, 1))

    def test_work_conserving_policies_have_no_context(self, idle4):
        assert critical_context(PolicyKind.EDF, idle4.jobs) is None
        assert critical_context(PolicyKind.FP_EDF, idle4.jobs) is None

    @given(seed=st.integers(0, 10_000))
    def test_cp_cw_always_present_on_non_empty_sets(self, seed):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [jobs[0] for jobs in instance.jobs_by_task.values() if jobs]
        for kind in (PolicyKind.CP, PolicyKind.CW):
            ctx = critical_context(kind, applicable)
            assert ctx is not None
            assert ctx.job in applicable
        assert critical_context(kind, []) is None


class TestPolicyCoincidence:
    @given(seed=st.integers(0, 10_000), t=st.integers(0, 60))
    def test_edf_equals_fp_edf_under_equal_priorities(self, seed, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [j for j in (jobs[0] for jobs in instance.jobs_by_task.values() if jobs)
                      if j.priority == instance.jobs[0].priority]
        if not applicable:
            return
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        assert (pick(PolicyKind.EDF, t, applicable, releases)
                == pick(PolicyKind.FP_EDF, t, applicable, releases))

    @given(seed=st.integers(0, 10_000), t=st.integers(0, 60))
    def test_fp_edf_equals_pure_fp_under_distinct_priorities(self, seed, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = []
        used = set()
        for jobs in instance.jobs_by_task.values():
            if jobs and jobs[0].priority not in used:
                applicable.append(jobs[0])
                used.add(jobs[0].priority)
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        got = pick(PolicyKind.FP_EDF, t, applicable, releases)
        released = [j for j in applicable if releases[j.key] <= t]
        expected = min(released, key=lambda j: j.priority) if released else None
        assert got == expected

    @given(seed=st.integers(0, 10_000), t=st.integers(0, 60))
    def test_precautious_falls_back_to_fp_edf_without_top_priority(self, seed, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [j for j in (jobs[0] for jobs in instance.jobs_by_task.values() if jobs)
                      if j.priority > 0]
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        assert (pick(PolicyKind.P_FP_EDF, t, applicable, releases)
                == pick(PolicyKind.FP_EDF, t, applicable, releases))
