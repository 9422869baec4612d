from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgraph import (ExecutionScenario, InstanceError, Task, make_instance,
                        parse_instance, parse_scenario, write_instance)
from schedgraph.model import (MAX_JOBS, U64_MAX, expand_jobs, hyperperiod, job_count,
                              validate_scenario)
from support import INSTANCE_DIR, utilization

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

    @pytest.mark.parametrize("r_max, deadline, field", [
        (2**63, 1, "r_max"),
        (0, 2**63, "deadline"),
    ])
    def test_offset_job_beyond_u64_rejected(self, r_max, deadline, field):
        # the task itself is in range; its second job's offset pushes one field past it
        task = Task(1, 2**63, 0, r_max, 1, 1, deadline)
        with pytest.raises(InstanceError, match=f"J1,2: {field}={2**64} exceeds the unsigned 64-bit range"):
            expand_jobs([task], 2**63 + 1)

    @staticmethod
    def first_overflow(tasks, horizon) -> str | None:
        """The message of the first job, in (task, index) order, with a field past 2**64 - 1,
        found job by job with r_max checked before deadline."""
        for task in sorted(tasks, key=lambda task: task.id):
            for index in range(1, job_count(task, horizon) + 1):
                offset = (index - 1) * task.period
                for name, bound in (("r_max", task.r_max), ("deadline", task.deadline)):
                    if bound + offset > U64_MAX:
                        return (f"J{task.id},{index}: {name}={bound + offset} "
                                "exceeds the unsigned 64-bit range")
        return None

    @pytest.mark.parametrize("r_max, deadline, named", [
        (2**62, 3 * 2**62, "J2,2: deadline"),  # r_max first overflows at job 4
        (3 * 2**62, 2**62, "J2,2: r_max"),  # deadline first overflows at job 4
        (3 * 2**62, 3 * 2**62, "J2,2: r_max"),  # both at job 2
        (2**62 + 2, 2**62 + 1, "J2,4: r_max"),  # both at job 4
        (2**62, 2**63, "J2,3: deadline"),
        (2**63, 2**62, "J2,3: r_max"),
    ])
    def test_first_overflowing_job_is_named_as_job_by_job(self, r_max, deadline, named):
        tasks = [Task(2, 2**62, 0, r_max, 1, 1, deadline), Task(1, 2**62, 0, 0, 1, 1, 1)]
        expected = self.first_overflow(tasks, U64_MAX)
        assert expected.startswith(f"{named}=")
        with pytest.raises(InstanceError) as raised:
            expand_jobs(tasks, U64_MAX)
        assert str(raised.value) == expected

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

    @pytest.mark.parametrize("path", sorted(INSTANCE_DIR.glob("*.txt")), ids=lambda path: path.name)
    def test_write_renders_bundled_instances_field_by_field(self, path):
        instance = parse_instance(path.read_text(encoding="utf-8"))
        expected = f"H {instance.horizon}\n" + "".join(
            f"task {t.id} T={t.period} rmin={t.r_min} rmax={t.r_max} cmin={t.c_min}"
            f" cmax={t.c_max} d={t.deadline} p={t.priority}\n" for t in instance.tasks)
        assert write_instance(instance) == expected
        assert parse_instance(expected) == instance

    @given(tasks=tasks_strategy, horizon=st.one_of(st.none(), st.integers(1, 60)))
    def test_roundtrip_random_instances(self, tasks, horizon):
        instance = make_instance(tasks, horizon)
        assert parse_instance(write_instance(instance)) == instance


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

    @pytest.mark.parametrize("table", ["release", "execution"])
    def test_unknown_job_rejected(self, anomaly, table):
        scenario = ExecutionScenario.worst_case(anomaly)
        getattr(scenario, table)[(9, 9)] = 1
        with pytest.raises(InstanceError, match=r"unknown job \(9, 9\)"):
            validate_scenario(anomaly, scenario)

    def test_parse_scenario_duplicate_job_names_its_line(self, jitter3):
        text = ("J 1 1 r=0 c=2\nJ 2 1 r=0 c=1\n"
                "J 2 2 r=5 c=1\nJ 3 1 r=2 c=4\nJ 1 1 r=0 c=1\n")
        with pytest.raises(InstanceError, match="line 5: duplicate job J1,1"):
            parse_scenario(text, jitter3)

    def test_parse_scenario_unknown_job(self, jitter3):
        text = ("J 1 1 r=0 c=2\nJ 2 1 r=0 c=1\n"
                "J 2 2 r=5 c=1\nJ 3 1 r=2 c=4\nJ 9 9 r=1 c=1\n")
        with pytest.raises(InstanceError, match="unknown job"):
            parse_scenario(text, jitter3)

    @pytest.mark.parametrize("line, name", [("J 1 1 r=3 r=4", "r"), ("J 1 1 c=2 c=3", "c")])
    def test_parse_scenario_repeated_field_names_its_line(self, anomaly, line, name):
        text = "J 2 1 r=0 c=2\n" + line + "\n"
        with pytest.raises(InstanceError, match=f"line 2: duplicate field '{name}'"):
            parse_scenario(text, anomaly)
