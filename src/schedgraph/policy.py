"""Scheduling policies and the strict priority order they induce.

A policy maps (time, critical context of the applicable jobs, released
jobs) to the job to start next, or None to idle. EDF and FP-EDF never idle
while something runnable is released. The remaining three may idle to
protect a *critical job*: the applicable job whose deadline would be
endangered if a long job started first. A released job is *viable* at time
t if starting it cannot push the critical job past its latest safe start.
The critical context depends on the applicable jobs alone, so a caller
builds it once per applicable set, not once per decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .model import Job

_BY_DEADLINE = attrgetter("deadline", "task_id")  # `pi_key` under EDF, `urgency_key` under CP and CW
_BY_PRIORITY = attrgetter("priority", "deadline", "task_id")  # `pi_key` under the other policies


def _by_certain_release(job: Job) -> tuple[int, ...]:  # `urgency_key` under P-FP-EDF
    return (job.priority != 0, job.r_max, job.task_id)


class PolicyKind(enum.Enum):
    EDF = "edf"
    FP_EDF = "fp-edf"
    P_FP_EDF = "p-fp-edf"
    CP = "cp"
    CW = "cw"

    def __init__(self, value: str) -> None:
        # plain attributes: the analysis reads them per applicable set, the oracle per decision
        self.work_conserving = value in ("edf", "fp-edf")
        self.priority_key = _BY_DEADLINE if value == "edf" else _BY_PRIORITY  # see `pi_key`
        self.urgency_key = _by_certain_release if value == "p-fp-edf" else _BY_DEADLINE


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
    return kind.priority_key(job)


def urgency_key(kind: PolicyKind, job: Job) -> tuple[int, ...]:
    """Sort key that puts an idling policy's critical job first: the earliest
    deadline, or under P-FP-EDF a p=0 job by certain release; then task id."""
    return kind.urgency_key(job)


def critical_context(kind: PolicyKind, ordered: Sequence[Job]) -> CriticalContext | None:
    """Critical job and latest safe start for the idling policies, given the
    applicable jobs in `urgency_key` order.

    EDF/FP-EDF never idle and have no critical job. The idling policies
    protect the first job, P-FP-EDF only if it has p=0. CW folds every
    applicable job, latest deadline first, into a single start-time budget.
    """
    if kind.work_conserving or not ordered:
        return None
    crit = ordered[0]
    if kind is PolicyKind.CW:
        # enough slack must remain to run every applicable job by its deadline
        budget = ordered[-1].deadline
        for job in reversed(ordered):
            budget = (budget if budget < job.deadline else job.deadline) - job.c_max
        return CriticalContext(crit, budget)
    if kind is PolicyKind.P_FP_EDF and crit.priority != 0:
        return None
    return CriticalContext(crit, crit.deadline - crit.c_max)


def pick(kind: PolicyKind, t: int, crit: CriticalContext | None,
         released: Iterable[Job]) -> Job | None:
    """The job an online scheduler starts at time t, or None to idle.

    Only `released`, the applicable jobs whose release in the scenario
    being played is at most t, are candidates; the caller filters them.
    `crit` is the critical context of the applicable jobs,
    `critical_context(kind, <applicable jobs in urgency order>)`, which
    changes only when a dispatch changes the applicable set, so the caller
    builds it once per set and not once per decision. Released jobs that
    would overrun its start budget are dropped (the critical job itself is
    always kept). EDF, FP-EDF, and P-FP-EDF without a p=0 applicable job
    have no context and pick the released job of smallest `pi_key`.
    """
    if crit is not None:
        released = [j for j in released if crit.admits(j, t)]
    return min(released, key=kind.priority_key, default=None)
