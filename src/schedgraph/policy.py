"""Scheduling policies and the strict priority order they induce.

A policy maps (time, critical context of the applicable jobs, released
jobs in `priority_key` order) to the job to start next, or None to idle:
the first released job the start budget admits. EDF and FP-EDF never idle
while something runnable is released. The remaining three may idle to
protect a *critical job*: the applicable job whose deadline would be
endangered if a long job started first. A released job is *viable* at time
t if t <= `CriticalContext.latest_start(job)`, the one place that writes the
start budget rule for the analysis and the oracle alike. The critical
context depends on the applicable jobs alone, so a caller builds it once
per applicable set, not once per decision, and keeps the released jobs
ranked between decisions instead of searching them at each one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Iterable, Sequence

from .model import Job

# `priority_key` under EDF, `urgency_key` under CP and CW
_BY_DEADLINE = attrgetter("deadline", "task_id")
_BY_PRIORITY = attrgetter("priority", "deadline", "task_id")  # `priority_key` otherwise


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
        # the priority order, smaller wins: EDF by deadline, the others by
        # priority value (0 is highest), then deadline; ties by task id keep it strict
        self.priority_key = _BY_DEADLINE if value == "edf" else _BY_PRIORITY
        # puts an idling policy's critical job first: the earliest deadline,
        # or under P-FP-EDF a p=0 job by certain release; then task id
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
    """The critical job's position `pos` and latest safe start `time`: any
    other job must finish by then, whatever its execution time."""

    pos: int
    time: int

    def latest_start(self, job: Job) -> float:
        """The latest time `job` may start: `time - job.c_max`, or inf for
        the critical job itself, which the budget never holds back."""
        return inf if job.pos == self.pos else self.time - job.c_max


def critical_context(kind: PolicyKind, ordered: Sequence[Job]) -> CriticalContext | None:
    """Critical job position and start budget for the idling policies, given
    the applicable jobs in `kind.urgency_key` order.

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
        return CriticalContext(crit.pos, budget)
    if kind is PolicyKind.P_FP_EDF and crit.priority != 0:
        return None
    return CriticalContext(crit.pos, crit.deadline - crit.c_max)


def pick(t: int, crit: CriticalContext | None, released: Iterable[Job]) -> Job | None:
    """The job an online scheduler starts at time t, or None to idle.

    Only `released`, the applicable jobs whose release in the scenario
    being played is at most t, are candidates; the caller filters them and
    hands them over in `kind.priority_key` order, so the first one the
    critical budget admits is the pick. `crit` is the critical context of
    the applicable jobs, `critical_context(kind, <applicable jobs in urgency
    order>)`, which changes only when a dispatch changes the applicable set,
    so the caller builds it once per set and not once per decision. A
    released job is admitted iff t <= `crit.latest_start(job)`, so the
    critical job always is. EDF, FP-EDF, and P-FP-EDF without a p=0
    applicable job have no context and start the first released job.
    """
    for job in released:
        if crit is None or t <= crit.latest_start(job):
            return job
    return None
