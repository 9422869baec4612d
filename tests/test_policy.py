from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgraph import PolicyKind, parse_policy
from schedgraph.model import Job
from schedgraph.policy import critical_context, pick
from support import ALL_POLICIES, reference_critical_context, sample_instance


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
        assert PolicyKind.EDF.priority_key(early) < PolicyKind.EDF.priority_key(late)

    def test_fixed_priority_ties_break_on_task_id(self, idle4):
        # equal priority and deadline only differ in the task id
        a = idle4.job((3, 1))
        b = dataclasses.replace(a, task_id=5)
        assert PolicyKind.FP_EDF.priority_key(a) < PolicyKind.FP_EDF.priority_key(b)

    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(ALL_POLICIES))
    def test_strict_total_order_on_instance_jobs(self, seed, kind):
        rng = random.Random(seed)
        jobs = sample_instance(rng).jobs
        keys = [kind.priority_key(job) for job in jobs]
        assert len(set(keys)) == len(keys)          # totality
        triple = [jobs[rng.randrange(len(jobs))] for _ in range(3)]
        a, b, c = (kind.priority_key(job) for job in triple)
        assert not a < a                            # irreflexive
        if a < b and b < c:
            assert a < c                            # transitive
        if triple[0] != triple[1]:
            assert (a < b) != (b < a)


def released_by(applicable, releases, t):
    """The applicable jobs whose release in `releases` (by job key) is at most t."""
    return [j for j in applicable if releases[j.key] <= t]


class TestPick:
    def test_edf_picks_earliest_deadline_among_released(self, jitter3):
        applicable = [jitter3.job((1, 1)), jitter3.job((2, 1)), jitter3.job((3, 1))]
        released = released_by(applicable, {(1, 1): 0, (2, 1): 0, (3, 1): 1}, 0)
        crit = context(PolicyKind.EDF, applicable)
        assert pick(PolicyKind.EDF, 0, crit, released) == jitter3.job((2, 1))

    def test_precautious_keeps_viable_low_priority_job(self, idle4):
        applicable = [idle4.job((1, 1)), idle4.job((3, 1)), idle4.job((4, 1))]
        released = released_by(applicable, {(1, 1): 10, (3, 1): 1, (4, 1): 3}, 7)
        # at t=7 task 4 would overrun the critical budget (7+4 > 10); task 3 fits
        crit = context(PolicyKind.P_FP_EDF, applicable)
        assert pick(PolicyKind.P_FP_EDF, 7, crit, released) == idle4.job((3, 1))

    def test_empty_applicable_set_yields_none(self):
        for kind in ALL_POLICIES:
            assert pick(kind, 0, context(kind, []), []) is None

    def test_idling_policy_defers_to_unreleased_critical_job(self, idle4):
        applicable = [idle4.job((1, 1)), idle4.job((4, 1))]
        released = released_by(applicable, {(1, 1): 10, (4, 1): 3}, 9)
        # t=9: task 4 released but 9+4 > 10 endangers the critical job
        crit = context(PolicyKind.P_FP_EDF, applicable)
        assert pick(PolicyKind.P_FP_EDF, 9, crit, released) is None

    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(ALL_POLICIES),
           t=st.integers(0, 50))
    def test_pick_returns_released_applicable_job_or_none(self, seed, kind, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [jobs[0] for jobs in instance.jobs_by_task.values() if jobs]
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        released = released_by(applicable, releases, t)
        choice = pick(kind, t, context(kind, applicable), released)
        if choice is not None:
            assert choice in applicable
            assert releases[choice.key] <= t
        # the first released job by `priority_key` that the critical budget admits
        ctx = critical_context(kind, urgent(kind, applicable))
        admitted = [j for j in released if ctx is None or t <= ctx.latest_start(j)]
        assert choice is min(admitted, key=kind.priority_key, default=None)


def urgent(kind, jobs):
    """The jobs in the urgency order that `critical_context` expects."""
    return sorted(jobs, key=kind.urgency_key)


def context(kind, applicable):
    """The critical context `pick` takes: that of the applicable jobs in urgency order."""
    return critical_context(kind, urgent(kind, applicable))


@st.composite
def applicable_sets(draw):
    """One job per task, shuffled; small deadline and priority ranges make
    equal deadlines and sets without a p=0 job common."""
    jobs = []
    for pos in range(draw(st.integers(0, 6))):
        r_min, c_min = draw(st.integers(0, 4)), draw(st.integers(1, 3))
        jobs.append(Job(task_id=pos + 1, index=1, r_min=r_min,
                        r_max=r_min + draw(st.integers(0, 2)), c_min=c_min,
                        c_max=c_min + draw(st.integers(0, 2)),
                        deadline=draw(st.integers(1, 8)), priority=draw(st.integers(0, 2)),
                        pos=pos))
    return draw(st.permutations(jobs))


class TestCriticalContext:
    def test_precautious_protects_top_priority_job(self, idle4):
        ctx = critical_context(PolicyKind.P_FP_EDF, urgent(PolicyKind.P_FP_EDF, idle4.jobs))
        assert ctx.pos == idle4.job((1, 1)).pos
        assert ctx.time == 12 - 2

    def test_precautious_absent_without_top_priority_job(self, idle4):
        applicable = [idle4.job((3, 1)), idle4.job((4, 1))]
        assert critical_context(PolicyKind.P_FP_EDF, urgent(PolicyKind.P_FP_EDF, applicable)) is None

    def test_cp_protects_earliest_deadline(self, idle4):
        ctx = critical_context(PolicyKind.CP, urgent(PolicyKind.CP, idle4.jobs))
        assert ctx.pos == idle4.job((2, 1)).pos
        assert ctx.time == 8 - 8

    def test_cw_folds_all_deadlines(self, idle4):
        # deadlines descending: 16, 14, 12, 8 with c_max 4, 2, 2, 8
        ctx = critical_context(PolicyKind.CW, urgent(PolicyKind.CW, idle4.jobs))
        assert ctx.time == 0
        assert ctx.pos == idle4.job((2, 1)).pos

    def test_work_conserving_policies_have_no_context(self, idle4):
        assert critical_context(PolicyKind.EDF, urgent(PolicyKind.EDF, idle4.jobs)) is None
        assert critical_context(PolicyKind.FP_EDF, urgent(PolicyKind.FP_EDF, idle4.jobs)) is None

    @given(seed=st.integers(0, 10_000))
    def test_cp_cw_always_present_on_non_empty_sets(self, seed):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [jobs[0] for jobs in instance.jobs_by_task.values() if jobs]
        for kind in (PolicyKind.CP, PolicyKind.CW):
            ctx = critical_context(kind, urgent(kind, applicable))
            assert ctx is not None
            assert ctx.pos in [job.pos for job in applicable]
        assert critical_context(kind, []) is None

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    @given(jobs=applicable_sets())
    def test_urgency_order_matches_any_order_reference(self, kind, jobs):
        assert critical_context(kind, urgent(kind, jobs)) == reference_critical_context(kind, jobs)

    def test_cw_equal_deadlines_fold_in_any_order(self):
        jobs = [Job(task, 1, 0, 0, 1, c_max, 10, 0, task - 1)
                for task, c_max in ((1, 3), (2, 1), (3, 2))]
        for order in (jobs, jobs[::-1]):
            ctx = critical_context(PolicyKind.CW, urgent(PolicyKind.CW, order))
            assert ctx == reference_critical_context(PolicyKind.CW, order)
            assert (ctx.pos, ctx.time) == (jobs[0].pos, 10 - 6)


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
        released = released_by(applicable, releases, t)
        assert (pick(PolicyKind.EDF, t, context(PolicyKind.EDF, applicable), released)
                == pick(PolicyKind.FP_EDF, t, context(PolicyKind.FP_EDF, applicable), released))

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
        released = released_by(applicable, releases, t)
        got = pick(PolicyKind.FP_EDF, t, context(PolicyKind.FP_EDF, applicable), released)
        expected = min(released, key=lambda j: j.priority) if released else None
        assert got == expected

    @given(seed=st.integers(0, 10_000), t=st.integers(0, 60))
    def test_precautious_falls_back_to_fp_edf_without_top_priority(self, seed, t):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        applicable = [j for j in (jobs[0] for jobs in instance.jobs_by_task.values() if jobs)
                      if j.priority > 0]
        releases = {j.key: rng.randint(j.r_min, j.r_max) for j in applicable}
        released = released_by(applicable, releases, t)
        assert (pick(PolicyKind.P_FP_EDF, t, context(PolicyKind.P_FP_EDF, applicable), released)
                == pick(PolicyKind.FP_EDF, t, context(PolicyKind.FP_EDF, applicable), released))
