"""Scheduling policies and the strict priority order they induce.

A policy maps (time, applicable jobs, released jobs) to the job to start
next, or None to idle. EDF and FP-EDF never idle while something runnable is
released. The remaining three may idle to protect a *critical job*: the
applicable job whose deadline would be endangered if a long job started
first. A released job is *viable* at time t if starting it cannot push the
critical job past its latest safe start.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .model import Job


class PolicyKind(enum.Enum):
    EDF = "edf"
    FP_EDF = "fp-edf"
    P_FP_EDF = "p-fp-edf"
    CP = "cp"
    CW = "cw"

    @property
    def work_conserving(self) -> bool:
        return self in (PolicyKind.EDF, PolicyKind.FP_EDF)


POLICY_NAMES = tuple(kind.value for kind in PolicyKind)


def parse_policy(name: str) -> PolicyKind:
    try:
        return PolicyKind(name.lower())
    except ValueError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        ) from None


@dataclass(frozen=True)
class CriticalContext:
    """The job an idling policy protects, and its latest safe start time."""

    job: Job
    time: int

    def admits(self, job: Job, t: int) -> bool:
        """Starting `job` at t keeps the critical job safe."""
        return t + job.c_max <= self.time or job.pos == self.job.pos


def pi_key(kind: PolicyKind, job: Job) -> tuple[int, ...]:
    """Sort key of the policy's priority order; lexicographically smaller wins.

    EDF orders by deadline; every other policy orders by priority value
    first (0 is highest), then deadline. Ties always fall back to the task
    id, which keeps the order strict within one instance.
    """
    if kind is PolicyKind.EDF:
        return (job.deadline, job.task_id)
    return (job.priority, job.deadline, job.task_id)


def critical_context(kind: PolicyKind, applicable: Iterable[Job]) -> CriticalContext | None:
    """Critical job and latest safe start for the idling policies.

    EDF/FP-EDF never idle and have no critical job. P-FP-EDF protects the
    highest-priority (p=0) applicable job with the earliest certain release,
    and has no context when no p=0 job is applicable. CP protects the
    earliest-deadline applicable job. CW folds every applicable job, latest
    deadline first, into a single start-time budget and protects the
    earliest-deadline job.
    """
    jobs = list(applicable)
    if kind.work_conserving or not jobs:
        return None
    if kind is PolicyKind.P_FP_EDF:
        top = [j for j in jobs if j.priority == 0]
        if not top:
            return None
        crit = min(top, key=lambda j: (j.r_max, j.task_id))
        return CriticalContext(crit, crit.deadline - crit.c_max)
    if kind is PolicyKind.CP:
        crit = min(jobs, key=lambda j: (j.deadline, j.task_id))
        return CriticalContext(crit, crit.deadline - crit.c_max)
    # CW: enough slack must remain to run every applicable job by its deadline.
    budget: int | None = None
    for job in sorted(jobs, key=lambda j: (-j.deadline, j.task_id)):
        budget = (job.deadline if budget is None else min(budget, job.deadline)) - job.c_max
    crit = min(jobs, key=lambda j: (j.deadline, j.task_id))
    return CriticalContext(crit, budget)


def pick(kind: PolicyKind, t: int, applicable: Iterable[Job],
         released: Iterable[Job]) -> Job | None:
    """The job an online scheduler starts at time t, or None to idle.

    Only `released`, the applicable jobs whose release in the scenario
    being played is at most t, are candidates; the caller filters them.
    For the idling policies, released jobs that would overrun the critical
    start budget are dropped (the critical job itself is always kept).
    P-FP-EDF without a p=0 applicable job behaves exactly like FP-EDF.
    """
    ctx = critical_context(kind, applicable)
    if ctx is not None:
        released = [j for j in released if ctx.admits(j, t)]
    return min(released, key=lambda j: pi_key(kind, j), default=None)
