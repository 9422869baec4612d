"""Seeded random instance generation driven by utilization and span ratios.

A task's variation ratio is (c_max - c_min) / (c_max - 1) when c_max > 1 and
0 otherwise; its jitter ratio is (r_max - r_min) / r_max when r_max > 0 and
0 otherwise. The generator inverts these: it draws worst-case execution
times to hit a target utilization, then derives the remaining parameters so
every task satisfies r_max + c_max <= deadline <= period.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import MAX_JOBS, ProblemInstance, Task, make_instance

DEFAULT_PERIODS = (5, 10, 20, 40)
UTILIZATION_TOLERANCE = 0.01
_MAX_ATTEMPTS = 1000


class GenerationError(RuntimeError):
    """The spec admits no parameter assignment within the retry budget."""


@dataclass(frozen=True)
class GenSpec:
    n_tasks: int
    utilization: float
    jitter_ratio: float
    variation_ratio: float
    periods: tuple[int, ...] = DEFAULT_PERIODS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.n_tasks > MAX_JOBS:  # every generated task has a job in the hyperperiod
            raise ValueError(f"n_tasks must be <= {MAX_JOBS}, the cap on an instance's jobs")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        for name in ("jitter_ratio", "variation_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.periods or any(p < 1 for p in self.periods):
            raise ValueError("periods must be positive integers")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _uniform_simplex(rng: random.Random, n: int, total: float) -> list[float]:
    # uniform over {u >= 0 : sum(u) = total}
    shares = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        shares.append(remaining - nxt)
        remaining = nxt
    shares.append(remaining)
    return shares


def _repair_utilization(periods: list[int], c_maxes: list[int], target: float) -> bool:
    """Nudge worst-case execution times until the total lands within tolerance.

    Rounding the simplex draw to integers can leave a gap larger than the
    tolerance on coarse period grids; single +-1 steps close it whenever the
    integer lattice admits a point in the window at all. The utilization is
    kept exactly, as an integer count of 1/lcm(periods); integer true
    division rounds correctly, so each float read of it is the exact
    fraction's nearest float.
    """
    scale = math.lcm(*periods)
    units = [scale // p for p in periods]  # 1/p in units of 1/scale
    current = sum(c * unit for c, unit in zip(c_maxes, units))
    for _ in range(256):
        distance = abs(current / scale - target)
        if distance <= UTILIZATION_TOLERANCE + 1e-12:
            return True
        direction = 1 if current / scale < target else -1
        best = None
        for i, (c, p) in enumerate(zip(c_maxes, periods)):
            if not 1 <= c + direction <= p:
                continue
            candidate = current + direction * units[i]
            gap = abs(candidate / scale - target)
            if best is None or gap < best[0]:
                best = (gap, i, candidate)
        if best is None or best[0] >= distance:
            return False
        _, i, current = best
        c_maxes[i] += direction
    return False


def check_reachable(spec: GenSpec) -> None:
    """Refuse a target below n_tasks / max(periods): every task has c_max >= 1."""
    floor = spec.n_tasks / max(spec.periods)
    if floor - spec.utilization > UTILIZATION_TOLERANCE + 1e-12:
        raise GenerationError(f"utilization {spec.utilization:g} is out of reach: {spec.n_tasks}"
                              f" tasks on periods up to {max(spec.periods)} give at least {floor:g}")


def generate_instance(spec: GenSpec) -> ProblemInstance:
    """Draw an instance matching the spec; identical seeds give identical results."""
    check_reachable(spec)
    rng = random.Random(spec.seed)
    for _ in range(_MAX_ATTEMPTS):
        periods = [rng.choice(spec.periods) for _ in range(spec.n_tasks)]
        shares = _uniform_simplex(rng, spec.n_tasks, spec.utilization)
        c_maxes = [min(period, max(1, _round_half_up(share * period)))
                   for period, share in zip(periods, shares)]
        if not _repair_utilization(periods, c_maxes, spec.utilization):
            continue
        tasks = []
        for i, (period, c_max) in enumerate(zip(periods, c_maxes)):
            c_min = max(1, _round_half_up(c_max - spec.variation_ratio * (c_max - 1)))
            deadline = rng.randint(c_max, period)
            r_max = rng.randint(0, deadline - c_max)
            r_min = _round_half_up(r_max * (1.0 - spec.jitter_ratio))
            tasks.append(Task(id=i + 1, period=period, r_min=r_min, r_max=r_max,
                              c_min=c_min, c_max=c_max, deadline=deadline,
                              priority=0))
        instance = make_instance(tasks)
        for task in instance.tasks:
            if not task.r_max + task.c_max <= task.deadline <= task.period:
                raise RuntimeError(f"generated task {task.id} breaks "
                                   f"r_max + c_max <= deadline <= period")
        return instance
    raise GenerationError(
        f"no feasible instance for {spec} after {_MAX_ATTEMPTS} attempts"
    )
