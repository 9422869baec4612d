"""Periodic task model, job expansion, and instance file I/O.

All timing parameters are non-negative integers. Values above 2**64 - 1 are
rejected outright rather than wrapped. Instances are immutable once built,
so any number of analysis workers may read them concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

U64_MAX = 2**64 - 1

# Each job is one level of the schedule graph and one bit of every vertex's
# finished set, so the analysis cost grows steeply with the job count; the
# largest benchmark workload has 343 jobs. A horizon that expands to more
# than this many jobs is rejected before any job is built.
MAX_JOBS = 100_000


class InstanceError(ValueError):
    """Malformed instance data or a violated task invariant."""


def _check_range(name: str, value: int, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InstanceError(f"{name} must be >= {low}, got {value}")
    if value > U64_MAX:
        raise InstanceError(f"{name}={value} exceeds the unsigned 64-bit range")


@dataclass(frozen=True)
class Task:
    """A periodic task with release jitter and execution-time variation."""

    id: int
    period: int
    r_min: int
    r_max: int
    c_min: int
    c_max: int
    deadline: int
    priority: int = 0

    def __post_init__(self) -> None:
        _check_range(f"task {self.id}: period", self.period, 1)
        _check_range(f"task {self.id}: r_min", self.r_min, 0)
        _check_range(f"task {self.id}: r_max", self.r_max, self.r_min)
        _check_range(f"task {self.id}: c_min", self.c_min, 1)
        _check_range(f"task {self.id}: c_max", self.c_max, self.c_min)
        _check_range(f"task {self.id}: deadline", self.deadline, 1)
        _check_range(f"task {self.id}: priority", self.priority, 0)


@dataclass(frozen=True)
class Job:
    """One job of a task; all parameters are absolute (shifted by the period).

    `pos` is the job's index in its instance's job tuple, which is also its
    bit in a finished-set bitmask.
    """

    task_id: int
    index: int
    r_min: int
    r_max: int
    c_min: int
    c_max: int
    deadline: int
    priority: int
    pos: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.task_id, self.index)

    @property
    def label(self) -> str:
        return f"J{self.task_id},{self.index}"


def job_count(task: Task, horizon: int) -> int:
    """Number of jobs of `task` whose earliest release falls in [0, horizon)."""
    if task.r_min >= horizon:
        return 0
    return (horizon - 1 - task.r_min) // task.period + 1


def expand_jobs(tasks: Iterable[Task], horizon: int) -> tuple[Job, ...]:
    """Expand tasks into their job lists over [0, horizon), in (task, index) order.

    Tasks are walked in id order, so each task's jobs hold consecutive
    positions.
    """
    tasks = sorted(tasks, key=lambda task: task.id)
    if not tasks:
        raise InstanceError("empty instance")
    _check_range("observation interval", horizon, 1)
    counts = [job_count(task, horizon) for task in tasks]
    if sum(counts) > MAX_JOBS:
        raise InstanceError(f"{sum(counts)} jobs over the observation interval exceed "
                            f"the cap of {MAX_JOBS}")
    jobs: list[Job] = []
    for task, count in zip(tasks, counts):
        for j in range(1, count + 1):
            offset = (j - 1) * task.period
            job = Job(
                task_id=task.id,
                index=j,
                r_min=task.r_min + offset,
                r_max=task.r_max + offset,
                c_min=task.c_min,
                c_max=task.c_max,
                deadline=task.deadline + offset,
                priority=task.priority,
                pos=len(jobs),
            )
            _check_range(f"{job.label}: r_max", job.r_max, 0)
            _check_range(f"{job.label}: deadline", job.deadline, 1)
            jobs.append(job)
    return tuple(jobs)


def hyperperiod(tasks: Iterable[Task]) -> int:
    """Least common multiple of all task periods."""
    periods = [task.period for task in tasks]
    if not periods:
        raise InstanceError("empty instance")
    h = math.lcm(*periods)
    if h > U64_MAX:
        raise InstanceError(f"hyperperiod {h} exceeds the unsigned 64-bit range")
    return h


def utilization(tasks: Iterable[Task]) -> Fraction:
    """Exact total utilization: sum of worst-case execution time over period."""
    tasks = list(tasks)
    if not tasks:
        raise InstanceError("empty instance")
    return sum((Fraction(t.c_max, t.period) for t in tasks), Fraction(0))


@dataclass(frozen=True)
class ProblemInstance:
    """An immutable task set together with its job expansion."""

    tasks: tuple[Task, ...]
    horizon: int
    jobs: tuple[Job, ...]

    @cached_property
    def job_index(self) -> dict[tuple[int, int], int]:
        return {job.key: pos for pos, job in enumerate(self.jobs)}

    @cached_property
    def jobs_by_task(self) -> dict[int, tuple[Job, ...]]:
        """Each task's jobs in index order, keyed by task id in id order."""
        grouped: dict[int, list[Job]] = {tid: [] for tid in sorted(t.id for t in self.tasks)}
        for job in self.jobs:
            grouped[job.task_id].append(job)
        return {tid: tuple(js) for tid, js in grouped.items()}

    def job(self, key: tuple[int, int]) -> Job:
        return self.jobs[self.job_index[key]]


def make_instance(tasks: Iterable[Task], horizon: int | None = None) -> ProblemInstance:
    """Build an instance; the observation interval defaults to the hyperperiod."""
    tasks = tuple(tasks)
    if not tasks:
        raise InstanceError("empty instance")
    ids = [task.id for task in tasks]
    if len(set(ids)) != len(ids):
        raise InstanceError("duplicate task id")
    h = hyperperiod(tasks) if horizon is None else horizon
    return ProblemInstance(tasks, h, expand_jobs(tasks, h))


# --- instance file format ---------------------------------------------------
#
# UTF-8 text, one directive per line, `#` starts a comment:
#   H <int>                                  (optional; defaults to the hyperperiod)
#   task <id> T=<int> rmin=<int> rmax=<int> cmin=<int> cmax=<int> d=<int> p=<int>
# The p= field may be omitted and defaults to 0.

_TASK_FIELDS = {"T": "period", "rmin": "r_min", "rmax": "r_max",
                "cmin": "c_min", "cmax": "c_max", "d": "deadline", "p": "priority"}


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise InstanceError(f"{what}: expected an integer, got {text!r}") from None


def _parse_task_line(parts: list[str]) -> Task:
    if not parts:
        raise InstanceError("task directive needs an id")
    task_id = _parse_int(parts[0], "task id")
    kwargs = {}
    for item in parts[1:]:
        name, sep, value = item.partition("=")
        if not sep or name not in _TASK_FIELDS:
            raise InstanceError(f"unknown task field {item!r}")
        field = _TASK_FIELDS[name]
        if field in kwargs:
            raise InstanceError(f"duplicate task field {name!r}")
        kwargs[field] = _parse_int(value, name)
    missing = [n for n, f in _TASK_FIELDS.items() if f not in kwargs and n != "p"]
    if missing:
        raise InstanceError(f"task {task_id}: missing field(s) {', '.join(missing)}")
    return Task(id=task_id, **kwargs)


def parse_instance(text: str) -> ProblemInstance:
    """Parse the instance file format; errors carry the offending line number."""
    horizon: int | None = None
    tasks: list[Task] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "H":
                if horizon is not None:
                    raise InstanceError("duplicate H directive")
                if len(parts) != 2:
                    raise InstanceError("H takes exactly one value")
                horizon = _parse_int(parts[1], "H")
                _check_range("H", horizon, 1)
            elif parts[0] == "task":
                task = _parse_task_line(parts[1:])
                if task.id in seen:
                    raise InstanceError(f"duplicate task id {task.id}")
                seen.add(task.id)
                tasks.append(task)
            else:
                raise InstanceError(f"unknown directive {parts[0]!r}")
        except InstanceError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from None
    if not tasks:
        raise InstanceError("empty instance")
    return make_instance(tasks, horizon)


def write_instance(instance: ProblemInstance) -> str:
    """Serialize an instance; parse(write(x)) is structurally equal to x."""
    lines = [f"H {instance.horizon}"]
    for t in instance.tasks:
        lines.append(
            f"task {t.id} T={t.period} rmin={t.r_min} rmax={t.r_max}"
            f" cmin={t.c_min} cmax={t.c_max} d={t.deadline} p={t.priority}"
        )
    return "\n".join(lines) + "\n"


def instance_to_json(instance: ProblemInstance) -> str:
    """JSON mirror of the instance file fields, for machine consumption."""
    data = {
        "horizon": instance.horizon,
        "tasks": [
            {"id": t.id, "period": t.period, "r_min": t.r_min, "r_max": t.r_max,
             "c_min": t.c_min, "c_max": t.c_max, "deadline": t.deadline,
             "priority": t.priority}
            for t in instance.tasks
        ],
    }
    return json.dumps(data, indent=2)


# --- execution scenarios ----------------------------------------------------

@dataclass
class ExecutionScenario:
    """One concrete assignment of release and execution times to every job."""

    release: dict[tuple[int, int], int]
    execution: dict[tuple[int, int], int]

    def copy(self) -> "ExecutionScenario":
        return ExecutionScenario(dict(self.release), dict(self.execution))

    @classmethod
    def worst_case(cls, instance: ProblemInstance) -> "ExecutionScenario":
        """Latest releases and maximal execution times for every job."""
        return cls({j.key: j.r_max for j in instance.jobs},
                   {j.key: j.c_max for j in instance.jobs})


def validate_scenario(instance: ProblemInstance, scenario: ExecutionScenario) -> None:
    """Raise InstanceError unless the scenario covers every job within bounds."""
    for job in instance.jobs:
        if job.key not in scenario.release or job.key not in scenario.execution:
            raise InstanceError(f"scenario missing job {job.label}")
        r = scenario.release[job.key]
        c = scenario.execution[job.key]
        if not job.r_min <= r <= job.r_max:
            raise InstanceError(f"{job.label}: release {r} outside [{job.r_min}, {job.r_max}]")
        if not job.c_min <= c <= job.c_max:
            raise InstanceError(f"{job.label}: execution {c} outside [{job.c_min}, {job.c_max}]")


def parse_scenario(text: str, instance: ProblemInstance) -> ExecutionScenario:
    """Parse `J <task> <index> r=<int> c=<int>` lines into a validated scenario."""
    release: dict[tuple[int, int], int] = {}
    execution: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] != "J" or len(parts) != 5:
                raise InstanceError("expected 'J <task> <index> r=<int> c=<int>'")
            key = (_parse_int(parts[1], "task"), _parse_int(parts[2], "index"))
            for item in parts[3:]:
                name, sep, value = item.partition("=")
                if name == "r" and sep:
                    release[key] = _parse_int(value, "r")
                elif name == "c" and sep:
                    execution[key] = _parse_int(value, "c")
                else:
                    raise InstanceError(f"unknown scenario field {item!r}")
        except InstanceError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from None
    scenario = ExecutionScenario(release, execution)
    validate_scenario(instance, scenario)
    return scenario
