"""Periodic task model, job expansion, and instance file I/O.

All timing parameters are non-negative integers. Values above 2**64 - 1 are
rejected outright rather than wrapped, and so is an instance whose latest
release or deadline plus the sum of every job's c_max passes 2**64 - 1:
that sum bounds every time the analysis derives. Instances are immutable
once built, so any number of analysis workers may read them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable

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
    latest = total = 0
    for task, count in zip(tasks, counts):
        if not count:
            continue
        tid, period, r_min, r_max, c_min, c_max, deadline, priority = (
            task.id, task.period, task.r_min, task.r_max, task.c_min, task.c_max, task.deadline,
            task.priority)
        # the task's own checks bound both from below; only the offset can overflow, first
        # at index (U64_MAX - bound) // period + 2, and r_max is named first on a tie
        r_over, d_over = (U64_MAX - r_max) // period + 2, (U64_MAX - deadline) // period + 2
        if r_over <= count or d_over <= count:
            index, name, bound = (r_over, "r_max", r_max) if r_over <= d_over else \
                (d_over, "deadline", deadline)
            _check_range(f"J{tid},{index}: {name}", bound + (index - 1) * period, 0)
        base = len(jobs) - 1
        jobs += [Job(tid, index, r_min + offset, r_max + offset, c_min, c_max, deadline + offset,
                     priority, base + index)
                 for index, offset in enumerate(range(0, count * period, period), 1)]
        latest = max(latest, max(r_max, deadline) + (count - 1) * period)
        total += count * c_max
    total += latest
    if total > U64_MAX:
        raise InstanceError(f"latest release or deadline plus every c_max, {total}, "
                            "exceeds the unsigned 64-bit range")
    return tuple(jobs)


def hyperperiod(tasks: Iterable[Task]) -> int:
    """Least common multiple of all task periods."""
    h = math.lcm(*(task.period for task in tasks))
    if h > U64_MAX:
        raise InstanceError(f"hyperperiod {h} exceeds the unsigned 64-bit range")
    return h


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
    tasks = tuple(tasks)  # `expand_jobs` refuses an empty one
    ids = [task.id for task in tasks]
    if len(set(ids)) != len(ids):
        raise InstanceError("duplicate task id")
    h = hyperperiod(tasks) if horizon is None else horizon
    return ProblemInstance(tasks, h, expand_jobs(tasks, h))


# --- text formats ------------------------------------------------------------
#
# Instance, scenario and bench spec files share one grammar: UTF-8 text, one
# directive per line, `#` starts a comment, and a field is a `name=value` word.
# An instance file holds:
#   H <int>                                  (optional; defaults to the hyperperiod)
#   task <id> T=<int> rmin=<int> rmax=<int> cmin=<int> cmax=<int> d=<int> p=<int>
# The p= field may be omitted and defaults to 0.

_TASK_FIELDS = {"T": "period", "rmin": "r_min", "rmax": "r_max",
                "cmin": "c_min", "cmax": "c_max", "d": "deadline", "p": "priority"}


def read_directives(text: str, handle: Callable[[int, list[str]], None]) -> None:
    """Call `handle(lineno, words)` per line that holds more than a comment; an
    InstanceError it raises is raised again as `line N: ...`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            try:
                handle(lineno, words)
            except InstanceError as exc:
                raise InstanceError(f"line {lineno}: {exc}") from None


def read_fields(words: Iterable[str], names: Collection[str]) -> dict[str, str]:
    """The `name=value` words as a dict; a malformed, unknown or repeated field raises."""
    fields: dict[str, str] = {}
    for item in words:
        name, sep, value = item.partition("=")
        if not sep:
            raise InstanceError(f"malformed field {item!r}")
        if name not in names:
            raise InstanceError(f"unknown field {name!r}")
        if name in fields:
            raise InstanceError(f"duplicate field {name!r}")
        fields[name] = value
    return fields


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise InstanceError(f"{what}: expected an integer, got {text!r}") from None


def parse_instance(text: str) -> ProblemInstance:
    """Parse the instance file format; errors carry the offending line number."""
    horizon: int | None = None
    tasks: dict[int, Task] = {}  # by id, in file order

    def directive(lineno: int, words: list[str]) -> None:
        nonlocal horizon
        if words[0] == "H":
            if horizon is not None:
                raise InstanceError("duplicate H directive")
            if len(words) != 2:
                raise InstanceError("H takes exactly one value")
            horizon = _parse_int(words[1], "H")
            _check_range("H", horizon, 1)
        elif words[0] == "task":
            if len(words) < 2:
                raise InstanceError("task directive needs an id")
            task_id = _parse_int(words[1], "task id")
            fields = read_fields(words[2:], _TASK_FIELDS)
            missing = [name for name in _TASK_FIELDS if name not in fields and name != "p"]
            if missing:
                raise InstanceError(f"task {task_id}: missing field(s) {', '.join(missing)}")
            task = Task(task_id, **{_TASK_FIELDS[name]: _parse_int(value, name)
                                    for name, value in fields.items()})
            if task.id in tasks:
                raise InstanceError(f"duplicate task id {task.id}")
            tasks[task.id] = task
        else:
            raise InstanceError(f"unknown directive {words[0]!r}")

    read_directives(text, directive)
    return make_instance(tasks.values(), horizon)


def write_instance(instance: ProblemInstance) -> str:
    """Serialize an instance; parse(write(x)) is structurally equal to x."""
    lines = [f"H {instance.horizon}"]
    for t in instance.tasks:
        lines.append(f"task {t.id} " + " ".join(f"{name}={getattr(t, field)}"
                                                for name, field in _TASK_FIELDS.items()))
    return "\n".join(lines) + "\n"


# --- execution scenarios ----------------------------------------------------

@dataclass
class ExecutionScenario:
    """One concrete assignment of release and execution times to every job."""

    release: dict[tuple[int, int], int]
    execution: dict[tuple[int, int], int]

    @classmethod
    def worst_case(cls, instance: ProblemInstance) -> "ExecutionScenario":
        """Latest releases and maximal execution times for every job."""
        return cls({j.key: j.r_max for j in instance.jobs},
                   {j.key: j.c_max for j in instance.jobs})


def validate_scenario(instance: ProblemInstance,
                      scenario: ExecutionScenario) -> tuple[list[int], list[int]]:
    """Raise InstanceError unless the scenario covers exactly the jobs, within bounds.

    Returns the release and the execution times by job position, read in the
    same pass over the jobs that checks them.
    """
    release, execution = scenario.release, scenario.execution
    r_by_pos: list[int] = []
    c_by_pos: list[int] = []
    for job in instance.jobs:
        key = job.key
        try:
            r = release[key]
            c = execution[key]
        except KeyError:
            raise InstanceError(f"scenario missing job {job.label}") from None
        if not job.r_min <= r <= job.r_max:
            raise InstanceError(f"{job.label}: release {r} outside [{job.r_min}, {job.r_max}]")
        if not job.c_min <= c <= job.c_max:
            raise InstanceError(f"{job.label}: execution {c} outside [{job.c_min}, {job.c_max}]")
        r_by_pos.append(r)
        c_by_pos.append(c)
    # every job's key is present, so a larger dict holds a key of no job
    for values in (release, execution):
        if len(values) != len(instance.jobs):
            unknown = next(key for key in values if key not in instance.job_index)
            raise InstanceError(f"scenario names unknown job {unknown!r}")
    return r_by_pos, c_by_pos


def parse_scenario(text: str, instance: ProblemInstance) -> ExecutionScenario:
    """Parse `J <task> <index> r=<int> c=<int>` lines into a validated scenario."""
    release: dict[tuple[int, int], int] = {}
    execution: dict[tuple[int, int], int] = {}

    def directive(lineno: int, words: list[str]) -> None:
        if words[0] != "J" or len(words) != 5:
            raise InstanceError("expected 'J <task> <index> r=<int> c=<int>'")
        key = (_parse_int(words[1], "task"), _parse_int(words[2], "index"))
        if key in release:
            raise InstanceError(f"duplicate job J{key[0]},{key[1]}")
        fields = read_fields(words[3:], ("r", "c"))  # two distinct names of two: both
        release[key], execution[key] = _parse_int(fields["r"], "r"), _parse_int(fields["c"], "c")

    read_directives(text, directive)
    scenario = ExecutionScenario(release, execution)
    validate_scenario(instance, scenario)
    return scenario
