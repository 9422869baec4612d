"""Seeded instance families of the four workloads.

`wide`, `deep` and `idle` draw their instances from a pool of family
members whose analyses are known to complete at a useful size
(`pool.json`, written by `pool.py`). A benchmark seed shuffles the pool and
takes a fixed number of members whose summed count of created vertices
lands in a fixed band, so every seed analyses a different set of instances
of the same make-up and about the same amount of graph work. `verify`
draws small instances from its own sampler and keeps a fixed number of
them whose job dispatches in the exhaustive oracle sum into a band. The
benchmark only hands the generated instances to the program. The
program's functions are called through their modules, so that the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import schedgraph.generator as sg_generator
import schedgraph.model as sg_model
from schedgraph import GenSpec, PolicyKind, Task, scenario_count

POOL_FILE = Path(__file__).resolve().parent / "pool.json"

WIDE_PERIODS = (50, 100, 200)
# Harmonic periods of the deep family, as multiples of the 40-tick frame:
# eight tasks of period 40, four of 80, two of 160, one each of 320, 640
# and 1280, so every instance has 343 jobs over H = 1280.
DEEP_FRAME = 40
DEEP_MULTIPLES = (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 8, 16, 32)

# Per workload: instances per round, the band of vertices created that
# each instance's analyses must fall in, and the band their sum must hit.
# A fixed count keeps set-up work level across seeds; the narrow bands keep
# graph work and the largest live graph level.
ROUND_SHAPE = {
    "wide": (2, (40_000, 60_000), (96_000, 104_000)),
    "deep": (6, (2_000, 5_000), (20_000, 21_000)),
    "idle": (3, (13_000, 33_000), (60_000, 65_000)),
}
# A verify round takes VERIFY_INSTANCES of twice as many draws, such that the
# job dispatches the exhaustive oracle simulates (scenarios times jobs, over
# all five policies) land in a band: the oracle's time follows this count.
VERIFY_INSTANCES = 360
DISPATCH_BAND = (336_000, 348_000)
VERIFY_MAX_SCENARIOS = 256
VERIFY_BASE_SEED = 1000

ALL_POLICIES = tuple(PolicyKind)


@dataclass(frozen=True)
class Case:
    """One instance of a workload and the analyses it gets.

    A pool member also carries what the pool recorded: the vertices its
    analyses create together, and whether each `me` analysis is known to
    be schedulable.
    """

    name: str
    instance: object
    policies: tuple[PolicyKind, ...]
    modes: tuple[str, ...]
    vertices: int | None = None
    schedulable: bool = False


def wide_spec(seed: int) -> GenSpec:
    return GenSpec(30, 0.3, 0.8, 0.8, periods=WIDE_PERIODS, seed=seed)


def idle_spec(utilization: float, seed: int) -> GenSpec:
    return GenSpec(20, utilization, 0.6, 0.6, periods=WIDE_PERIODS, seed=seed)


def deep_instance(seed: int):
    """A schedulable instance with hundreds of jobs and narrow levels.

    Periods are harmonic multiples of a 40-tick frame and deadlines are
    implicit. Each task is phased into the frame of its period that carries
    the least load, and draws are repeated until every frame holds at most
    40 ticks of worst-case work counted from its latest release. A
    work-conserving scheduler then finishes each frame's jobs inside that
    frame, so `edf` and `fp-edf` meet every deadline; jitter of up to three
    ticks, one tick of execution-time variation and mixed priorities leave
    a few orders open per frame.
    """
    rng = random.Random(seed)
    frames = max(DEEP_MULTIPLES)
    while True:
        load = [0] * frames
        reach = [0] * frames
        tasks = []
        for i, m in enumerate(DEEP_MULTIPLES):
            c_max = rng.randint(1, 3)
            c_min = max(1, c_max - rng.randint(0, 1))
            jitter = rng.randint(0, 3)
            phase = min(range(m), key=lambda f: (max(load[f::m]), rng.random()))
            offset = rng.randint(0, 12)
            for k in range(phase, frames, m):
                load[k] += c_max
                reach[k] = max(reach[k], offset + jitter)
            r_min = phase * DEEP_FRAME + offset
            tasks.append(Task(i + 1, m * DEEP_FRAME, r_min, r_min + jitter, c_min, c_max,
                              m * DEEP_FRAME, rng.randint(0, 3)))
        if all(w + r <= DEEP_FRAME for w, r in zip(load, reach)):
            return sg_model.make_instance(tasks)


def verify_instance(rng: random.Random, max_scenarios: int = VERIFY_MAX_SCENARIOS,
                    max_jobs: int = 30):
    """Small instance with a bounded scenario grid and hyperperiod <= 40.

    Alternates a deep profile (short periods, many jobs, little jitter) and
    a wide one (long periods, more jitter and variation); deadlines are
    loose often enough that both verdicts occur.
    """
    while True:
        wide = rng.random() < 0.5
        periods = (8, 10, 20, 40) if wide else (4, 5, 8, 10, 20, 40)
        spans = (0, 1, 1, 2, 2) if wide else (0, 0, 0, 1)
        tasks = []
        for i in range(rng.choice((1, 2, 2, 3, 3, 3))):
            period = rng.choice(periods)
            c_max = rng.randint(1, max(1, period // 3))
            c_min = max(1, c_max - rng.choice(spans))
            r_span = rng.choice(spans)
            r_min = rng.randint(0, max(0, period - r_span - 1))
            r_max = r_min + r_span
            d_lo = min(period, r_max + c_max) if rng.random() < 0.7 else max(1, c_max)
            deadline = rng.randint(d_lo, max(d_lo, period + rng.choice((0, 0, 0, 4))))
            tasks.append(Task(i + 1, period, r_min, r_max, c_min, c_max, deadline,
                              rng.choice((0, 0, 1, 2))))
        instance = sg_model.make_instance(tasks)
        if len(instance.jobs) <= max_jobs and scenario_count(instance) <= max_scenarios:
            return instance


def reeligible_arcs(graph) -> int:
    """Arcs that share their (source, job) pair with another arc."""
    pairs = Counter((arc.src, arc.job_pos) for arc in graph.arcs.values())
    return sum(n for n in pairs.values() if n > 1)


def _pool_case(workload: str, entry: dict) -> Case:
    edf, fp, cw, cp = PolicyKind.EDF, PolicyKind.FP_EDF, PolicyKind.CW, PolicyKind.CP
    seed, vertices = entry["seed"], entry["vertices"]
    if workload == "wide":
        return Case(f"wide-s{seed}", sg_generator.generate_instance(wide_spec(seed)), (edf,),
                    ("me",), vertices, schedulable=True)
    if workload == "deep":
        return Case(f"deep-s{seed}", deep_instance(seed), (edf, fp), ("me",), vertices,
                    schedulable=True)
    if workload == "idle":
        u = entry["u"]
        return Case(f"idle-u{u}-s{seed}", sg_generator.generate_instance(idle_spec(u, seed)),
                    (cw, cp), ("me", "se"), vertices)
    raise ValueError(f"unknown workload {workload!r}")


def fill(entries: list[dict], count: int, band: tuple[int, int], rng: random.Random,
         key: str = "vertices") -> list[dict]:
    """`count` entries whose summed `key` lies in `band`, starting from a shuffle.

    Takes the first `count` entries of a seeded shuffle, then swaps in the
    left-over entry that brings the sum closest to the middle of the band,
    one swap at a time, until the sum lies in the band.
    """
    order = rng.sample(entries, len(entries))
    chosen, spare = order[:count], sorted(order[count:], key=lambda e: e[key])
    spare_keys = [e[key] for e in spare]
    lo, hi = band
    total = sum(e[key] for e in chosen)
    while not lo <= total <= hi:
        gap = (lo + hi) / 2 - total
        best = None
        for i, entry in enumerate(chosen):
            want = entry[key] + gap
            j = bisect.bisect_left(spare_keys, want)
            for k in (j - 1, j):
                if 0 <= k < len(spare):
                    miss = abs(spare_keys[k] - want)
                    if best is None or miss < best[0]:
                        best = (miss, i, k)
        if best is None or best[0] >= abs(gap):
            raise ValueError(f"no {count} entries sum into {band}")
        _, i, k = best
        out, chosen[i] = chosen[i], spare.pop(k)
        spare_keys.pop(k)
        total += chosen[i][key] - out[key]
        j = bisect.bisect_left(spare_keys, out[key])
        spare.insert(j, out)
        spare_keys.insert(j, out[key])
    return chosen


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text(encoding="utf-8"))


def cases(workload: str, seed: int, pool: dict) -> list[Case]:
    """Build the instances one benchmark seed draws for a workload."""
    if workload == "verify":
        return _verify_cases(seed)
    count, member_band, band = ROUND_SHAPE[workload]
    entries = [e for e in pool[workload] if member_band[0] <= e["vertices"] <= member_band[1]]
    # Build every member of the band, not only the drawn ones: the cost of
    # building one instance varies up to tenfold between members (the
    # generator retries its draws), so the set-up does the same work at
    # every seed.
    built = {id(entry): _pool_case(workload, entry) for entry in entries}
    chosen = fill(entries, count, band, random.Random(seed))
    return [built[id(entry)] for entry in chosen]


def _verify_cases(seed: int) -> list[Case]:
    rng = random.Random(VERIFY_BASE_SEED + seed)
    drawn = []
    for n in range(2 * VERIFY_INSTANCES):
        instance = verify_instance(rng)
        drawn.append({"n": n, "instance": instance,
                      "dispatches": scenario_count(instance) * len(instance.jobs) * len(ALL_POLICIES)})
    chosen = fill(drawn, VERIFY_INSTANCES, DISPATCH_BAND, rng, key="dispatches")
    return [Case(f"verify-{seed}-{e['n']}", e["instance"], ALL_POLICIES, ("me", "se"))
            for e in sorted(chosen, key=lambda e: e["n"])]
