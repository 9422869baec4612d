"""End-to-end acceptance suite: one test per criterion, all exact.

Every comparison is zero-tolerance. Each test prints a single
``[acceptance] <criterion>: PASS|FAIL`` line; run ``pytest -s
tests/test_acceptance.py`` to watch them go by.
"""

from __future__ import annotations

import csv
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from schedgraph import (ME, SE, ExecutionScenario, GenSpec, PolicyKind,
                        enumerate_scenarios, generate, generate_instance, simulate)
from schedgraph.cli import main
from schedgraph.graph import expansion_windows, make_context
from support import (ALL_POLICIES, applicable, check_graph, interval, naive_windows_me,
                     naive_windows_se, sample_instance)

FUZZ_INSTANCES = 500
FUZZ_SEED_BASE = 1000
SWEEP_STATES = 220


@contextmanager
def reported(name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def intervals(graph, level):
    return sorted(interval(graph.vertices[vid]) for vid in graph.levels[level])


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Graphs, results, and oracle reports for the seeded fuzz instances."""
    t0 = time.perf_counter()
    corpus = []
    for seed in range(FUZZ_INSTANCES):
        rng = random.Random(FUZZ_SEED_BASE + seed)
        instance = sample_instance(rng)
        per_policy = {}
        for kind in ALL_POLICIES:
            graph, result = generate(instance, kind, ME)
            report = enumerate_scenarios(instance, kind, max_scenarios=10**5)
            per_policy[kind] = (graph, result, report)
        corpus.append((instance, per_policy))
    elapsed = time.perf_counter() - t0
    return corpus, elapsed


def test_criterion_1_golden_graph(jitter3):
    with reported("1 golden per-level intervals"):
        t0 = time.perf_counter()
        graph, result = generate(jitter3, PolicyKind.EDF, ME)
        elapsed = time.perf_counter() - t0
        assert result.schedulable
        assert intervals(graph, 1) == [(1, 1)]
        assert intervals(graph, 2) == [(2, 3), (4, 5)]
        assert intervals(graph, 3) == [(5, 7), (6, 6)]
        assert intervals(graph, 4) == [(6, 8)]
        assert elapsed < 1.0


def test_criterion_2_eligibility_modes_differ(idle4):
    with reported("2 multiple vs single eligibility"):
        t0 = time.perf_counter()
        graph, result = generate(idle4, PolicyKind.P_FP_EDF, ME)
        assert result.schedulable
        v1 = graph.vertices[graph.levels[1][0]]
        windows = [(graph.instance.jobs[graph.arcs[a].job_pos].label,
                    graph.arcs[a].est, graph.arcs[a].lst)
                   for a in v1.out_arcs]
        assert windows == [("J3,1", 1, 2), ("J4,1", 3, 6), ("J3,1", 7, 8)]
        assert intervals(graph, 4) == [(12, 12), (14, 14), (16, 16)]

        _, single = generate(idle4, PolicyKind.P_FP_EDF, SE)
        assert not single.schedulable
        witness = single.witness
        assert (witness.job.key, witness.lft, witness.deadline) == ((3, 1), 18, 14)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_anomaly_detection(anomaly):
    with reported("3 anomaly detection"):
        t0 = time.perf_counter()
        _, result = generate(anomaly, PolicyKind.EDF, ME)
        assert not result.schedulable
        report = enumerate_scenarios(anomaly, PolicyKind.EDF)
        assert not report.schedulable

        worst = ExecutionScenario.worst_case(anomaly)
        assert simulate(anomaly, PolicyKind.EDF, worst).misses == []

        tweaked = ExecutionScenario({**worst.release, (1, 1): 2},
                                    {**worst.execution, (2, 1): 2})
        trace = simulate(anomaly, PolicyKind.EDF, tweaked)
        job, finish, deadline = trace.misses[0]
        assert (job.key, finish, deadline) == ((3, 2), 11, 10)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_exactness_fuzz(fuzz_corpus):
    corpus, build_seconds = fuzz_corpus
    with reported("4 exactness vs exhaustive oracle"):
        assert len(corpus) >= 500
        for instance, per_policy in corpus:
            for kind, (_, result, report) in per_policy.items():
                assert result.schedulable == report.schedulable, \
                    f"{kind.value} verdict differs from the oracle"
                if result.schedulable:
                    assert set(result.bounds) == set(report.finish_min)
                    for key, (lo, hi) in result.bounds.items():
                        assert (lo, hi) == (report.finish_min[key],
                                            report.finish_max[key]), \
                            f"{kind.value} bounds differ for {key}"
        assert build_seconds < 600.0


def test_criterion_5_sweep_equivalence():
    with reported("5 event sweep equals naive sweep"):
        checked = 0
        seed = 0
        while checked < SWEEP_STATES:
            rng = random.Random(77_000 + seed)
            seed += 1
            instance = sample_instance(rng)
            kind = ALL_POLICIES[seed % len(ALL_POLICIES)]
            graph, _ = generate(instance, kind, ME)
            for vertex in graph.vertices.values():
                if vertex.level == len(instance.jobs):
                    continue
                apps = make_context(instance, kind, vertex.finished)
                if not apps.ranked:
                    continue
                eft, lft = interval(vertex)
                assert expansion_windows(apps, eft, lft, ME) == naive_windows_me(apps, eft, lft)
                assert expansion_windows(apps, eft, lft, SE) == naive_windows_se(apps, eft, lft)
                checked += 1
        assert checked >= 200


def test_criterion_6_structural_invariants(fuzz_corpus):
    corpus, _ = fuzz_corpus
    with reported("6 structural invariants"):
        probes = 0
        for instance, per_policy in corpus:
            for kind, (graph, result, _) in per_policy.items():
                check_graph(graph, result)
                # certain-eligibility uniqueness, checked from the definition
                for vertex in list(graph.vertices.values())[:3]:
                    apps = make_context(instance, kind, vertex.finished)
                    if not apps.ranked:
                        continue
                    for t in (vertex.eft, vertex.lft, vertex.lft + 1):
                        viable = [
                            j for j in applicable(apps)
                            if j.r_max <= t and (apps.crit is None
                                                 or t + j.c_max <= apps.crit.time
                                                 or j.pos == apps.crit.pos)
                        ]
                        top = [a for a in viable
                               if all(not kind.priority_key(b) < kind.priority_key(a)
                                      for b in viable if b.pos != a.pos)]
                        assert len(top) <= 1
                        probes += 1
        assert probes > 1000


def test_criterion_7_scalability(tmp_path):
    with reported("7 scalability and bench tracking"):
        periods = (5, 10, 20, 40, 80)
        seeds = range(10)
        total_jobs = 0
        for seed in seeds:
            spec = GenSpec(8, 0.3, 0.3, 0.3, periods=periods, seed=seed)
            instance = generate_instance(spec)
            total_jobs += len(instance.jobs)
            t0 = time.perf_counter()
            generate(instance, PolicyKind.EDF, ME)
            assert time.perf_counter() - t0 < 10.0
        assert total_jobs >= 200

        bench_spec = tmp_path / "bench.txt"
        bench_spec.write_text(
            "bench tasks=8 util=0.3 rj=0.3 rc=0.3 seeds=10 periods=5,10,20,40,80\n"
        )
        out = tmp_path / "bench.csv"
        assert main(["bench", str(bench_spec), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 10
        for row in rows:
            assert float(row["wall_ms"]) >= 0.0
            assert row["verdict"] in ("schedulable", "non-schedulable")
