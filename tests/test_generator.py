from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedgraph import GenSpec, GenerationError, generate_instance
from schedgraph.model import MAX_JOBS
from support import measure_ratios

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
