from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedgraph.generator
from schedgraph import GenSpec, GenerationError, generate_instance
from schedgraph.generator import (DEFAULT_PERIODS, _repair_utilization, _round_half_up,
                                  _uniform_simplex)
from schedgraph.model import MAX_JOBS
from support import measure_ratios, reference_repair_utilization

specs = st.builds(
    GenSpec,
    n_tasks=st.integers(1, 6),
    utilization=st.floats(0.1, 0.9),
    jitter_ratio=st.floats(0.0, 1.0),
    variation_ratio=st.floats(0.0, 1.0),
    periods=st.just((5, 10, 20, 40)),
    seed=st.integers(0, 2**32),
)


class TestGenerateInstance:
    def test_zero_ratios_remove_all_spans(self):
        spec = GenSpec(4, 0.4, 0.0, 0.0, seed=7)
        instance = generate_instance(spec)
        for task in instance.tasks:
            assert task.r_min == task.r_max
            assert task.c_min == task.c_max

    def test_full_variation_drops_to_unit_floor(self):
        spec = GenSpec(3, 0.5, 0.0, 1.0, seed=11)
        instance = generate_instance(spec)
        for task in instance.tasks:
            assert task.c_min == 1

    def test_seed_determinism(self):
        spec = GenSpec(5, 0.3, 0.3, 0.3, seed=42)
        assert generate_instance(spec) == generate_instance(spec)

    def test_different_seeds_differ(self):
        base = GenSpec(5, 0.3, 0.3, 0.3, seed=1)
        other = GenSpec(5, 0.3, 0.3, 0.3, seed=2)
        assert generate_instance(base) != generate_instance(other)

    def test_infeasible_spec_raises(self):
        # 12 tasks of c_max >= 1 on periods of 5 cannot stay near U = 0.05
        spec = GenSpec(12, 0.05, 0.0, 0.0, periods=(5,), seed=0)
        with pytest.raises(GenerationError):
            generate_instance(spec)

    def test_unreachable_utilization_raises_before_any_draw(self, monkeypatch):
        import schedgraph.generator as generator

        def no_draw(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(generator, "_uniform_simplex", no_draw)
        # 12 tasks of c_max >= 1 on periods of 5 give U >= 2.4
        with pytest.raises(GenerationError, match="utilization 0.05 is out of reach"):
            generate_instance(GenSpec(12, 0.05, 0.0, 0.0, periods=(5,), seed=0))

    def test_invalid_spec_rejected_early(self):
        with pytest.raises(ValueError):
            GenSpec(0, 0.3, 0.0, 0.0)
        with pytest.raises(ValueError):
            GenSpec(3, 1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            GenSpec(3, 0.3, -0.1, 0.0)
        # each generated task has a job, so such a spec could only end at the job cap
        with pytest.raises(ValueError, match=f"n_tasks must be <= {MAX_JOBS}, the cap"):
            GenSpec(MAX_JOBS + 1, 0.5, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(spec=specs)
    def test_constraints_and_ratio_roundtrip(self, spec):
        try:
            instance = generate_instance(spec)
        except GenerationError:
            return
        report = measure_ratios(instance)
        for task in instance.tasks:
            assert task.r_max + task.c_max <= task.deadline <= task.period
            jitter, variation = report.per_task[task.id]
            if task.c_max > 1:
                assert abs(variation - spec.variation_ratio) <= Fraction(1, task.c_max - 1)
            if task.r_max > 0:
                assert abs(jitter - spec.jitter_ratio) <= Fraction(1, task.r_max)
        assert abs(float(report.utilization) - spec.utilization) <= 0.01 + 1e-9
        # the default period set is a divisor chain, so the hyperperiod is
        # the largest drawn period
        assert instance.horizon == max(t.period for t in instance.tasks)


class TestRepairUtilization:
    """The repair counts utilization in integer units of 1/lcm(periods); each
    of its steps and its outcome equal the `Fraction` reference's."""

    @pytest.mark.parametrize("n_tasks, periods", [(4, DEFAULT_PERIODS), (6, (3, 7, 11, 13)),
                                                  (20, (50, 100, 200)), (30, (50, 100, 200))])
    def test_steps_equal_the_fraction_reference(self, n_tasks, periods):
        stepped = failed = 0
        for seed in range(300):
            rng = random.Random(seed)
            target = rng.uniform(n_tasks / max(periods), 1.0)
            task_periods = [rng.choice(periods) for _ in range(n_tasks)]
            # drawn off the target, so that the repair has steps to take
            shares = _uniform_simplex(rng, n_tasks, target * rng.uniform(0.8, 1.2))
            drawn = [min(p, max(1, _round_half_up(share * p)))
                     for p, share in zip(task_periods, shares)]
            c_maxes, reference = drawn.copy(), drawn.copy()
            ok = _repair_utilization(task_periods, c_maxes, target)
            assert ok == reference_repair_utilization(task_periods, reference, target)
            assert c_maxes == reference, seed
            stepped += c_maxes != drawn
            failed += not ok
        # most draws take steps, and both outcomes occur
        assert stepped > 200 and 0 < failed < 300

    def test_generated_instances_equal_the_fraction_reference(self, monkeypatch):
        specs = [GenSpec(20, u, 0.6, 0.6, (50, 100, 200), seed)
                 for u in (0.5, 0.7, 0.9) for seed in range(5)]
        specs += [GenSpec(30, 0.8, 0.3, 0.3, (50, 100, 200), seed) for seed in range(5)]
        specs += [GenSpec(5, u, 0.5, 0.5, seed=seed) for u in (0.3, 0.95) for seed in range(10)]
        drawn = [generate_instance(spec) for spec in specs]
        monkeypatch.setattr(schedgraph.generator, "_repair_utilization",
                            reference_repair_utilization)
        assert [generate_instance(spec) for spec in specs] == drawn


class TestMeasureRatios:
    def test_hand_evaluated_ratios(self, anomaly):
        report = measure_ratios(anomaly)
        jitter, variation = report.per_task[1]
        assert variation == Fraction(2, 6)
        assert jitter == Fraction(3, 5)

    def test_unit_execution_has_zero_variation(self, anomaly):
        _, variation = measure_ratios(anomaly).per_task[3]
        assert variation == 0

    def test_zero_latest_release_has_zero_jitter(self, jitter3):
        jitter, _ = measure_ratios(jitter3).per_task[1]
        assert jitter == 0

    def test_total_utilization_is_exact(self, anomaly):
        assert measure_ratios(anomaly).utilization == Fraction(19, 20)
