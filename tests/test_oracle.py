from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedgraph.oracle
from schedgraph import (ExecutionScenario, GenSpec, InstanceError, PolicyKind,
                        ScenarioCapExceeded, Task, enumerate_scenarios, generate_instance,
                        make_instance, parse_scenario, scenario_count, simulate)
from schedgraph.model import Job
from schedgraph.oracle import _simulate
from schedgraph.policy import critical_context, pick
from support import (ALL_POLICIES, ANOMALY_MISS, PRECAUTIOUS_IDLE_WORST, check_trace,
                     product_oracle, reference_simulate, sample_crowded_instance,
                     sample_instance)

REFERENCE_DRAWS = 60
REFERENCE_SEED_BASE = 6000
REFERENCE_MAX_SCENARIOS = 5000  # the product enumerator pays for every scenario


def fig_worst_case(instance):
    return ExecutionScenario.worst_case(instance)


def anomaly_scenario(instance):
    scenario = ExecutionScenario.worst_case(instance)
    scenario.release[(1, 1)] = 2
    scenario.execution[(2, 1)] = 2
    return scenario


class TestSimulate:
    def test_worst_case_scenario_meets_all_deadlines(self, anomaly):
        trace = simulate(anomaly, PolicyKind.EDF, fig_worst_case(anomaly))
        assert trace.miss is None
        runs = {job.key: (start, finish) for job, start, finish in trace.dispatches}
        assert runs[(1, 1)] == (6, 13)
        assert runs[(2, 2)] == (14, 18)

    def test_early_release_short_execution_misses(self, anomaly):
        trace = simulate(anomaly, PolicyKind.EDF, anomaly_scenario(anomaly))
        job, finish, deadline = trace.miss
        assert (job.key, finish, deadline) == ((3, 2), 11, 10)
        runs = {job.key: (start, finish) for job, start, finish in trace.dispatches}
        assert runs[(1, 1)] == (3, 10)
        assert runs[(3, 2)] == (10, 11)

    def test_misses_do_not_stop_the_simulation(self, anomaly):
        trace = simulate(anomaly, PolicyKind.EDF, anomaly_scenario(anomaly))
        assert len(trace.dispatches) == len(anomaly.jobs)

    def test_single_job_trivial_dispatch(self):
        instance = make_instance([Task(1, 10, 0, 0, 1, 1, 5)])
        scenario = ExecutionScenario({(1, 1): 0}, {(1, 1): 1})
        trace = simulate(instance, PolicyKind.EDF, scenario)
        assert trace.dispatches == [(instance.jobs[0], 0, 1)]
        assert trace.miss is None

    def test_scheduler_waits_for_late_release(self, jitter3):
        scenario = ExecutionScenario.worst_case(jitter3)
        scenario.execution[(1, 1)] = 1
        trace = simulate(jitter3, PolicyKind.EDF, scenario)
        assert (2, 3) in trace.idle  # gap until the jittery job appears at 3
        runs = {job.key: (start, finish) for job, start, finish in trace.dispatches}
        assert runs[(3, 1)] == (3, 7)

    def test_idling_policy_skips_released_work(self, idle4):
        scenario = ExecutionScenario.worst_case(idle4)
        scenario.execution[(2, 1)] = 7
        trace = simulate(idle4, PolicyKind.P_FP_EDF, scenario)
        runs = {job.key: (start, finish) for job, start, finish in trace.dispatches}
        assert runs[(3, 1)] == (7, 9)
        assert (9, 10) in trace.idle  # task 4 is released but would be harmful
        assert runs[(1, 1)] == (10, 12)
        assert trace.miss is None

    def test_incomplete_scenario_rejected(self, anomaly):
        scenario = fig_worst_case(anomaly)
        del scenario.execution[(1, 1)]
        with pytest.raises(InstanceError, match="missing job"):
            simulate(anomaly, PolicyKind.EDF, scenario)

    def test_determinism(self, idle4):
        scenario = ExecutionScenario.worst_case(idle4)
        first = simulate(idle4, PolicyKind.CW, scenario)
        second = simulate(idle4, PolicyKind.CW, scenario)
        assert first == second

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 20_000), kind=st.sampled_from(ALL_POLICIES))
    def test_trace_invariants_on_random_scenarios(self, seed, kind):
        rng = random.Random(seed)
        instance = sample_instance(rng)
        release = {j.key: rng.randint(j.r_min, j.r_max) for j in instance.jobs}
        execution = {j.key: rng.randint(j.c_min, j.c_max) for j in instance.jobs}
        scenario = ExecutionScenario(release, execution)
        trace = simulate(instance, kind, scenario)
        assert len(trace.dispatches) == len(instance.jobs)
        check_trace(instance, kind, release, trace)

    def test_shipped_anomaly_scenario_misses_once(self, anomaly):
        scenario = parse_scenario(ANOMALY_MISS.read_text(encoding="utf-8"), anomaly)
        assert scenario == anomaly_scenario(anomaly)
        assert len(simulate(anomaly, PolicyKind.EDF, scenario).misses) == 1

    def test_shipped_worst_case_scenario_idles_and_misses_under_cw(self, idle4):
        scenario = parse_scenario(PRECAUTIOUS_IDLE_WORST.read_text(encoding="utf-8"), idle4)
        assert scenario == ExecutionScenario.worst_case(idle4)
        trace = simulate(idle4, PolicyKind.CW, scenario)
        assert trace.idle == [(8, 10)]
        assert [(job.label, finish, deadline) for job, finish, deadline in trace.misses] == [
            ("J4,1", 18, 16)]
        assert simulate(idle4, PolicyKind.CP, scenario).misses == []


def same_trace(instance, kind, release, execution):
    """The simulator's trace equals the per-decision reference's; returns it."""
    trace = _simulate(instance, kind, release, execution)
    assert trace == reference_simulate(instance, kind, release, execution)
    return trace


# (tasks, horizon, release, execution by job position), each with a moment the
# simulator's kept state must get right
KEPT_STATE_PINS = {
    "equal-releases": (
        [Task(1, 10, 2, 2, 1, 2, 9), Task(2, 10, 2, 2, 1, 2, 8), Task(3, 10, 2, 2, 1, 2, 7)],
        None, [2, 2, 2], [2, 1, 2]),
    "release-at-completion": (
        [Task(1, 10, 0, 0, 3, 3, 10), Task(2, 10, 1, 3, 1, 2, 6)], None, [0, 3], [3, 2]),
    "idle-gap-ends-on-shared-release": (
        [Task(1, 10, 0, 0, 1, 1, 10), Task(2, 10, 4, 4, 2, 2, 10), Task(3, 10, 3, 4, 1, 1, 10),
         Task(4, 10, 6, 6, 1, 1, 10)], None, [0, 4, 4, 6], [1, 2, 1, 1]),
    "task-without-job": (
        [Task(1, 4, 0, 1, 1, 2, 4), Task(2, 10, 7, 8, 1, 1, 10)], 5, [1, 4], [2, 1]),
}


# two jobs released at 0, of which J2,1 has the earlier deadline and runs
# first, while J1,1 comes first in task order, the order an urgency key that
# ties everything keeps
NON_STRICT_URGENCY = """
from schedgraph import ExecutionScenario, PolicyKind, Task, make_instance, simulate
instance = make_instance([Task(1, 10, 0, 0, 1, 1, 10), Task(2, 10, 0, 0, 1, 1, 5)])
PolicyKind.CW.urgency_key = lambda job: 0
try:
    simulate(instance, PolicyKind.CW, ExecutionScenario.worst_case(instance))
except RuntimeError as exc:
    print(exc)
else:
    print("no error")
"""


class TestKeptState:
    """`simulate` keeps the scheduler's state between decisions; the reference
    derives it afresh at each one. Both play the same dispatches, idle gaps
    and misses. Under an idling policy the kept state includes the
    applicable jobs in urgency order."""

    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("pin", sorted(KEPT_STATE_PINS))
    def test_pinned_cases_equal_the_reference(self, pin, kind):
        tasks, horizon, release, execution = KEPT_STATE_PINS[pin]
        instance = make_instance(tasks, horizon)
        trace = same_trace(instance, kind, release, execution)
        if kind is not PolicyKind.EDF:
            return
        tasks = [job.task_id for job, _, _ in trace.dispatches]
        starts = [start for _, start, _ in trace.dispatches]
        if pin == "equal-releases":
            assert trace.idle == [(0, 2)] and tasks == [3, 2, 1]
        elif pin == "release-at-completion":
            assert trace.idle == [] and starts == [0, 3]
        elif pin == "idle-gap-ends-on-shared-release":
            assert trace.idle == [(1, 4)] and starts == [0, 4, 6, 7]
        else:
            assert instance.jobs_by_task[2] == () and trace.idle == [(0, 1), (3, 4)]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ALL_POLICIES),
           crowded=st.booleans())
    def test_random_scenarios_equal_the_reference(self, seed, kind, crowded):
        rng = random.Random(seed)
        instance = sample_crowded_instance(rng) if crowded else sample_instance(rng)
        release = [rng.randint(job.r_min, job.r_max) for job in instance.jobs]
        execution = [rng.randint(job.c_min, job.c_max) for job in instance.jobs]
        same_trace(instance, kind, release, execution)

    @pytest.mark.parametrize("kind", [PolicyKind.CW, PolicyKind.CP, PolicyKind.P_FP_EDF],
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("seed", range(4))
    def test_twenty_task_draws_equal_the_reference(self, seed, kind):
        # `idle`-like: 20 tasks with 40 to 80 jobs, so the kept urgency order
        # takes many removals and insertions
        rng = random.Random(seed)
        instance = generate_instance(GenSpec(20, rng.choice((0.5, 0.7, 0.9)), 0.6, 0.6,
                                             (50, 100, 200), seed))
        jobs = instance.jobs
        scenarios = [([job.r_max for job in jobs], [job.c_max for job in jobs]),
                     ([job.r_min for job in jobs], [job.c_min for job in jobs])]
        for _ in range(6):
            scenarios.append(([rng.randint(job.r_min, job.r_max) for job in jobs],
                              [rng.randint(job.c_min, job.c_max) for job in jobs]))
        for release, execution in scenarios:
            same_trace(instance, kind, release, execution)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_non_strict_urgency_order_is_an_error(self, tmp_path, flags):
        # `-O` drops asserts: the check must raise there too
        script = tmp_path / "non_strict.py"
        script.write_text(NON_STRICT_URGENCY, encoding="utf-8")
        src = str(Path(schedgraph.oracle.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, *flags, str(script)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["urgency order is not strict"]


class TestEnumerate:
    def test_scenario_count_is_the_span_product(self, anomaly):
        assert scenario_count(anomaly) == 4 * 3 * 3 * 3

    def test_precautious_example_is_schedulable(self, idle4):
        assert scenario_count(idle4) == 8
        report = enumerate_scenarios(idle4, PolicyKind.P_FP_EDF)
        assert report.schedulable
        assert report.scenarios_checked == 8

    def test_anomaly_instance_fails_with_early_release(self, anomaly):
        report = enumerate_scenarios(anomaly, PolicyKind.EDF)
        assert not report.schedulable
        failure = report.first_failure
        assert failure.release[(1, 1)] in (2, 3)
        trace = simulate(anomaly, PolicyKind.EDF, failure)
        assert trace.miss is not None

    def test_deterministic_instance_has_one_scenario(self):
        tasks = [Task(1, 10, 2, 2, 3, 3, 10), Task(2, 5, 0, 0, 1, 1, 4)]
        instance = make_instance(tasks)
        report = enumerate_scenarios(instance, PolicyKind.EDF)
        assert report.scenarios_total == 1
        assert report.schedulable == (simulate(
            instance, PolicyKind.EDF, ExecutionScenario.worst_case(instance)).miss is None)

    def test_cap_refusal_reports_the_count(self, anomaly):
        with pytest.raises(ScenarioCapExceeded, match="108 scenarios"):
            enumerate_scenarios(anomaly, PolicyKind.EDF, max_scenarios=100)

    def test_first_failure_is_stable(self, anomaly):
        first = enumerate_scenarios(anomaly, PolicyKind.EDF)
        second = enumerate_scenarios(anomaly, PolicyKind.EDF)
        assert first.first_failure == second.first_failure
        assert first.scenarios_checked == second.scenarios_checked

    # every non-schedulable (bundled instance, policy) pair: the scenarios a
    # first-miss stop has visited, summed up the chain of states it stopped in
    @pytest.mark.parametrize("name, policy, checked, total", [
        ("anomaly", "edf", 45, 108), ("anomaly", "fp-edf", 45, 108),
        ("anomaly", "p-fp-edf", 45, 108), ("anomaly", "cw", 24, 108),
        ("idle4", "edf", 2, 8), ("idle4", "fp-edf", 1, 8), ("idle4", "cw", 1, 8),
        ("jitter3", "cw", 1, 12),
    ])
    def test_first_miss_stop_counts_the_visited_scenarios(self, request, name, policy,
                                                         checked, total):
        instance, kind = request.getfixturevalue(name), PolicyKind(policy)
        report = enumerate_scenarios(instance, kind)
        assert not report.schedulable
        assert (report.scenarios_checked, report.scenarios_total) == (checked, total)
        assert simulate(instance, kind, report.first_failure).miss is not None

    def test_exhaustive_mode_checks_everything(self, anomaly):
        report = enumerate_scenarios(anomaly, PolicyKind.EDF, exhaustive=True)
        assert report.scenarios_checked == report.scenarios_total == 108

    def test_finish_extremes_cover_simulated_runs(self, idle4):
        report = enumerate_scenarios(idle4, PolicyKind.P_FP_EDF)
        scenario = ExecutionScenario.worst_case(idle4)
        trace = simulate(idle4, PolicyKind.P_FP_EDF, scenario)
        for job, _, finish in trace.dispatches:
            assert report.finish_min[job.key] <= finish <= report.finish_max[job.key]


@pytest.fixture(scope="module")
def reference_runs():
    """Search reports in both modes next to the product enumerator's exhaustive one."""
    runs = []
    for seed in range(REFERENCE_DRAWS):
        instance = sample_instance(random.Random(REFERENCE_SEED_BASE + seed),
                                   max_scenarios=REFERENCE_MAX_SCENARIOS)
        for kind in ALL_POLICIES:
            runs.append((instance, kind,
                         enumerate_scenarios(instance, kind, exhaustive=True),
                         enumerate_scenarios(instance, kind),
                         product_oracle(instance, kind, exhaustive=True)))
    return runs


class TestPrefixSearch:
    def test_exhaustive_report_equals_the_product_enumerator(self, reference_runs):
        failing = 0
        for instance, kind, exhaustive, _, reference in reference_runs:
            assert exhaustive == reference, f"{kind.value} on {instance.tasks}"
            failing += not reference.schedulable
        # both verdicts, and so the first-failure order, are exercised
        assert 0 < failing < len(reference_runs)

    def test_non_exhaustive_verdict_and_first_failure(self, reference_runs):
        for instance, kind, _, report, reference in reference_runs:
            assert report.schedulable == reference.schedulable
            assert report.scenarios_checked <= report.scenarios_total
            if report.schedulable:
                assert report == reference
            else:
                trace = simulate(instance, kind, report.first_failure)
                assert trace.miss is not None

    def test_schedulable_run_checks_every_scenario(self, reference_runs):
        schedulable = [report for _, _, _, report, _ in reference_runs if report.schedulable]
        assert schedulable
        for report in schedulable:
            assert report.scenarios_checked == report.scenarios_total

    def test_long_single_scenario_instance_needs_no_recursion(self):
        # 3,000 jobs deep: a recursive search would exceed Python's stack
        instance = make_instance([Task(1, 2, 0, 0, 1, 1, 2), Task(2, 4, 1, 1, 1, 1, 4)],
                                 horizon=4000)
        assert len(instance.jobs) == 3000
        report = enumerate_scenarios(instance, PolicyKind.EDF, exhaustive=True)
        assert report.scenarios_checked == report.scenarios_total == 1
        trace = simulate(instance, PolicyKind.EDF, ExecutionScenario.worst_case(instance))
        assert report.schedulable == (trace.miss is None)
        finishes = {job.key: finish for job, _, finish in trace.dispatches}
        assert report.finish_min == report.finish_max == finishes

    def test_cap_refusal_matches_the_product_enumerator(self, anomaly):
        for oracle in (enumerate_scenarios, product_oracle):
            with pytest.raises(ScenarioCapExceeded) as caught:
                oracle(anomaly, PolicyKind.EDF, max_scenarios=107)
            assert (caught.value.total, caught.value.cap) == (108, 107)
        assert enumerate_scenarios(anomaly, PolicyKind.EDF, max_scenarios=108,
                                   exhaustive=True).scenarios_checked == 108

    def test_leaves_that_miss_the_total_are_an_error(self, monkeypatch, idle4):
        monkeypatch.setattr(schedgraph.oracle, "scenario_count", lambda instance: 9)
        with pytest.raises(RuntimeError, match="covered 8 of 9 scenarios"):
            enumerate_scenarios(idle4, PolicyKind.P_FP_EDF)


def converging_instance():
    """Six jobs released together and run in a fixed order, each for 1-3."""
    return make_instance([Task(i, 40, 0, 0, 1, 3, 40) for i in range(1, 7)])


class TestMemo:
    """Each distinct search state is searched once per call, however many
    dispatch orders reach it."""

    def test_converging_dispatch_orders_share_their_states(self, monkeypatch):
        # the 3**k ways to run the first k jobs end at one of 2k + 1 times, so
        # a search of states asks 1 + 3 + ... + 11 = 36 times where one of
        # prefixes asks 1 + 3 + ... + 3**5 = 364 times
        instance = converging_instance()
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return pick(*args)

        monkeypatch.setattr(schedgraph.oracle, "pick", counting)
        for kind in ALL_POLICIES:
            for exhaustive in (False, True):
                calls = 0
                report = enumerate_scenarios(instance, kind, exhaustive=exhaustive)
                assert report.schedulable
                assert report.scenarios_checked == 3**6
                assert calls <= 36, (kind, exhaustive)


class TestContextCache:
    """The critical context depends on the applicable set alone: `simulate`
    builds it once per dispatch, plus once at the start, and the search once
    per distinct `ptr`, however many decisions share it."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        """The applicable positions of each `critical_context` call the oracle makes."""
        calls = []

        def counting(kind, ordered):
            calls.append(tuple(sorted(job.pos for job in ordered)))
            return critical_context(kind, ordered)

        monkeypatch.setattr(schedgraph.oracle, "critical_context", counting)
        return calls

    @pytest.mark.parametrize("name", ["anomaly", "jitter3", "idle4", "converging"])
    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_one_context_per_applicable_set(self, request, contexts, name, kind):
        if name == "converging":  # 36 decisions share 6 applicable sets, see TestMemo
            instance = converging_instance()
        else:
            instance = request.getfixturevalue(name)
        for exhaustive in (False, True):
            contexts.clear()
            enumerate_scenarios(instance, kind, exhaustive=exhaustive)
            # one applicable set per ptr: a repeated set is a repeated ptr
            assert len(set(contexts)) == len(contexts)
            assert bool(contexts) != kind.work_conserving
        for scenario in (ExecutionScenario.worst_case(instance),
                         ExecutionScenario({job.key: job.r_min for job in instance.jobs},
                                           {job.key: job.c_min for job in instance.jobs})):
            contexts.clear()
            trace = simulate(instance, kind, scenario)
            assert len(contexts) <= len(trace.dispatches) + 1


class TestInstanceWithoutJobs:
    """Like `generate`, both oracle functions refuse an instance without jobs."""

    @pytest.fixture
    def jobless(self):
        # H is below every r_min, so the observation interval holds no job
        instance = make_instance([Task(1, 10, 7, 8, 1, 1, 10)], horizon=5)
        assert not instance.jobs
        return instance

    def test_enumerate_scenarios_refuses(self, jobless):
        with pytest.raises(InstanceError, match="instance has no jobs"):
            enumerate_scenarios(jobless, PolicyKind.EDF)

    def test_simulate_refuses(self, jobless):
        with pytest.raises(InstanceError, match="instance has no jobs"):
            simulate(jobless, PolicyKind.EDF, ExecutionScenario({}, {}))


class TestPositions:
    """The oracle names jobs by position: `Job.key` is called a bounded number
    of times per job, however many scheduling decisions one call takes."""

    MAX_KEY_CALLS_PER_JOB = 6
    MAX_SIMULATE_KEY_CALLS_PER_JOB = 1  # validating the scenario and reading it by position

    @pytest.mark.parametrize("name", ["anomaly", "jitter3", "idle4"])
    @pytest.mark.parametrize("kind", ALL_POLICIES, ids=lambda kind: kind.value)
    def test_key_calls_per_job_are_bounded(self, request, monkeypatch, name, kind):
        instance = request.getfixturevalue(name)
        scenario = ExecutionScenario.worst_case(instance)
        calls = []
        key = Job.key

        def counting(job):
            calls.append(job.pos)
            return key.fget(job)

        monkeypatch.setattr(Job, "key", property(counting))
        search, replay = self.MAX_KEY_CALLS_PER_JOB, self.MAX_SIMULATE_KEY_CALLS_PER_JOB
        for run, bound in ((lambda: enumerate_scenarios(instance, kind), search),
                           (lambda: enumerate_scenarios(instance, kind, exhaustive=True), search),
                           (lambda: simulate(instance, kind, scenario), replay)):
            calls.clear()
            run()
            assert len(calls) <= bound * len(instance.jobs)
