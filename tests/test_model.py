from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgraph import (ExecutionScenario, InstanceError, Task, expand_jobs,
                        hyperperiod, instance_to_json, make_instance,
                        parse_instance, parse_scenario, utilization,
                        validate_scenario, write_instance)
from schedgraph.model import MAX_JOBS, U64_MAX

tasks_strategy = st.lists(
    st.builds(
        lambda tid, period, r_min, r_span, c_min, c_span, d, p: Task(
            tid, period, r_min, r_min + r_span, c_min, c_min + c_span, d, p),
        tid=st.integers(1, 50),
        period=st.integers(1, 12),
        r_min=st.integers(0, 10),
        r_span=st.integers(0, 5),
        c_min=st.integers(1, 6),
        c_span=st.integers(0, 4),
        d=st.integers(1, 30),
        p=st.integers(0, 5),
    ),
    min_size=1, max_size=5,
    unique_by=lambda task: task.id,
)


class TestExpandJobs:
    def test_job_counts_over_one_hyperperiod(self, anomaly):
        counts = {tid: len(jobs) for tid, jobs in anomaly.jobs_by_task.items()}
        assert counts == {1: 1, 2: 2, 3: 4}
        assert len(anomaly.jobs) == 7

    def test_second_job_parameters_are_period_shifted(self, anomaly):
        job = anomaly.job((3, 2))
        assert (job.r_min, job.r_max, job.deadline) == (5, 5, 10)
        assert (job.c_min, job.c_max) == (1, 1)

    def test_single_period_job_equals_task(self):
        task = Task(1, 10, 0, 0, 2, 3, 9)
        (job,) = expand_jobs([task], 10)
        assert (job.r_min, job.r_max, job.c_min, job.c_max, job.deadline) == (0, 0, 2, 3, 9)
        assert job.key == (1, 1)

    def test_empty_task_list_rejected(self):
        with pytest.raises(InstanceError, match="empty instance"):
            expand_jobs([], 10)

    def test_release_after_horizon_yields_no_jobs(self):
        late = Task(1, 5, 12, 12, 1, 1, 20)
        base = Task(2, 10, 0, 0, 1, 1, 10)
        instance = make_instance([late, base], horizon=10)
        assert len(instance.jobs_by_task[1]) == 0
        assert len(instance.jobs_by_task[2]) == 1

    @pytest.mark.parametrize("tasks, horizon", [
        ([Task(1, 1, 0, 0, 1, 1, 1)], U64_MAX),
        # each task alone stays under the cap; together they exceed it
        ([Task(1, 1, 0, 0, 1, 1, 1), Task(2, 1, 0, 0, 1, 1, 1)], MAX_JOBS // 2 + 1),
        # coprime periods: a hyperperiod near 2**40 holds about 2**21 jobs
        ([Task(1, 2**20, 0, 0, 1, 1, 5), Task(2, 2**20 - 1, 0, 0, 1, 1, 5)], None),
    ])
    def test_job_cap_is_checked_before_expansion(self, tasks, horizon):
        with pytest.raises(InstanceError, match=f"exceed the cap of {MAX_JOBS}"):
            make_instance(tasks, horizon)

    @given(tasks=tasks_strategy, horizon=st.integers(1, 60))
    def test_spans_are_period_invariant_and_sorted(self, tasks, horizon):
        tasks = sorted(tasks, key=lambda task: task.id, reverse=True)
        jobs = expand_jobs(tasks, horizon)
        by_id = {task.id: task for task in tasks}
        for i, job in enumerate(jobs):
            task = by_id[job.task_id]
            assert job.r_max - job.r_min == task.r_max - task.r_min
            assert job.c_max - job.c_min == task.c_max - task.c_min
            assert job.pos == i
        assert list(jobs) == sorted(jobs, key=lambda j: j.key)
        for task in tasks:
            if task.r_min < horizon:
                assert any(j.task_id == task.id for j in jobs)


class TestAggregates:
    def test_hyperperiod_of_mixed_periods(self, anomaly):
        assert hyperperiod(anomaly.tasks) == 20

    def test_hyperperiod_single_task(self):
        assert hyperperiod([Task(1, 7, 0, 0, 1, 1, 7)]) == 7

    def test_hyperperiod_coprime_factors(self):
        tasks = [Task(1, 4, 0, 0, 1, 1, 4), Task(2, 6, 0, 0, 1, 1, 6)]
        assert hyperperiod(tasks) == 12

    def test_utilization_anomaly_instance(self, anomaly):
        assert utilization(anomaly.tasks) == Fraction(19, 20)

    def test_utilization_jitter_instance(self, jitter3):
        assert utilization(jitter3.tasks) == Fraction(4, 5)

    def test_full_utilization(self):
        assert utilization([Task(1, 9, 0, 0, 9, 9, 9)]) == 1

    def test_hyperperiod_overflow_is_an_error(self):
        tasks = [Task(1, 2**63, 0, 0, 1, 1, 1), Task(2, 2**63 - 1, 0, 0, 1, 1, 1)]
        with pytest.raises(InstanceError, match="unsigned 64-bit"):
            hyperperiod(tasks)

    def test_oversized_field_is_an_error(self):
        with pytest.raises(InstanceError, match="unsigned 64-bit"):
            Task(1, 2**65, 0, 0, 1, 1, 1)


class TestInstanceIO:
    def test_parse_anomaly_file(self, anomaly):
        assert anomaly.horizon == 20
        assert len(anomaly.tasks) == 3
        assert len(anomaly.jobs) == 7

    def test_horizon_defaults_to_hyperperiod(self, jitter3):
        assert jitter3.horizon == 10

    def test_empty_body_rejected(self):
        with pytest.raises(InstanceError, match="empty instance"):
            parse_instance("# nothing here\n\n")

    def test_malformed_field_reports_line(self):
        text = "H 10\ntask 1 T=10 rmin=0 rmax=zero cmin=1 cmax=1 d=5 p=0\n"
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance(text)

    def test_duplicate_task_id_reports_line(self):
        text = ("task 1 T=10 rmin=0 rmax=0 cmin=1 cmax=1 d=5\n"
                "task 1 T=5 rmin=0 rmax=0 cmin=1 cmax=1 d=5\n")
        with pytest.raises(InstanceError, match="line 2.*duplicate task id"):
            parse_instance(text)

    def test_violated_invariant_reports_line(self):
        with pytest.raises(InstanceError, match="line 1.*c_max"):
            parse_instance("task 1 T=10 rmin=0 rmax=0 cmin=4 cmax=2 d=5\n")

    def test_priority_defaults_to_zero(self):
        instance = parse_instance("task 1 T=10 rmin=0 rmax=0 cmin=1 cmax=1 d=5\n")
        assert instance.tasks[0].priority == 0

    def test_roundtrip_fixture_instances(self, anomaly, jitter3, idle4):
        for instance in (anomaly, jitter3, idle4):
            assert parse_instance(write_instance(instance)) == instance

    @given(tasks=tasks_strategy, horizon=st.one_of(st.none(), st.integers(1, 60)))
    def test_roundtrip_random_instances(self, tasks, horizon):
        instance = make_instance(tasks, horizon)
        assert parse_instance(write_instance(instance)) == instance

    def test_json_export_mirrors_fields(self, idle4):
        data = json.loads(instance_to_json(idle4))
        assert data["horizon"] == idle4.horizon
        assert data["tasks"][0] == {
            "id": 1, "period": 16, "r_min": 10, "r_max": 10,
            "c_min": 2, "c_max": 2, "deadline": 12, "priority": 0,
        }


class TestScenario:
    def test_worst_case_covers_all_jobs(self, anomaly):
        scenario = ExecutionScenario.worst_case(anomaly)
        validate_scenario(anomaly, scenario)
        assert scenario.release[(1, 1)] == 5
        assert scenario.execution[(2, 2)] == 4

    def test_missing_job_rejected(self, anomaly):
        scenario = ExecutionScenario.worst_case(anomaly)
        del scenario.release[(3, 4)]
        with pytest.raises(InstanceError, match="missing job J3,4"):
            validate_scenario(anomaly, scenario)

    def test_out_of_bounds_rejected(self, anomaly):
        scenario = ExecutionScenario.worst_case(anomaly)
        scenario.execution[(2, 1)] = 5
        with pytest.raises(InstanceError, match="J2,1"):
            validate_scenario(anomaly, scenario)

    def test_parse_scenario_lines(self, jitter3):
        text = ("J 1 1 r=0 c=2\nJ 2 1 r=0 c=1\n"
                "J 2 2 r=5 c=1\nJ 3 1 r=2 c=4\n")
        scenario = parse_scenario(text, jitter3)
        assert scenario.release[(3, 1)] == 2
        assert scenario.execution[(1, 1)] == 2

    def test_parse_scenario_bad_line(self, jitter3):
        with pytest.raises(InstanceError, match="line 1"):
            parse_scenario("J 1 1 r=0\n", jitter3)
