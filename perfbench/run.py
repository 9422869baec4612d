"""Benchmark of schedule-graph analysis: four seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 0 --seconds 25 --trace 0

One run builds the workload's instances (set-up, timed several times),
then plays whole rounds until the next round would end past `--seconds`.
A round runs every analysis of the workload through `schedgraph.graph.
generate`, checks each result against the oracle (`simulate` on `wide`,
`deep` and `idle`, exhaustive `enumerate_scenarios` on `verify`), and runs
`schedgraph analyze --format json` on the three bundled instances, checking
exit code and JSON against the library. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones of `tracing.py`, taken from traced rounds that follow
untraced ones. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "schedgraph").is_dir():
    # Measure the checkout's own source, never an installed copy.
    sys.exit(f"no schedgraph package under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import schedgraph.cli as sg_cli  # noqa: E402
import schedgraph.graph as sg_graph  # noqa: E402
import schedgraph.oracle as sg_oracle  # noqa: E402
from schedgraph import AnalysisStuck, PolicyKind, parse_instance  # noqa: E402

import checks  # noqa: E402
import families  # noqa: E402
import tracing  # noqa: E402
from meter import Meter, startup_scaled  # noqa: E402

WORKLOADS = ("wide", "deep", "idle", "verify")
SETUP_REPEATS = 9
# Job dispatches `simulate` plays per round, shared evenly by the round's
# (instance, policy) pairs, so that the oracle's work does not depend on
# which instances a seed drew. Each pair plays its all-worst-case and
# all-best-case scenario and as many seeded random ones as its share buys.
SIMULATED_DISPATCHES = {"wide": 10_000, "deep": 22_000, "idle": 10_000}
ORACLE_CAP = 10**6
BUNDLED = (("anomaly.txt", "edf", "me"), ("edf_jitter.txt", "edf", "me"),
           ("precautious_idle.txt", "p-fp-edf", "se"))
CLI_REPEATS = 3  # passes over BUNDLED per round; one call is mostly interpreter start-up


@dataclass
class Round:
    wall_s: float = 0.0
    # (start, end) of each operation, keyed by (case, policy[, mode]) or CLI call.
    analysis: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    cli: dict = field(default_factory=dict)
    cli_bare: dict = field(default_factory=dict)  # bare interpreter run before each CLI subprocess
    vertices: int = 0
    attempted: int = 0
    failed: int = 0
    scenarios: int = 0
    shape: dict | None = None  # graph shape counts, gathered in traced rounds only


@dataclass
class Workload:
    name: str
    cases: list
    scenarios: dict  # (case name, policy) -> list of ExecutionScenario
    bundled: list  # (path, policy, mode, library result or None when stuck)
    meter: Meter
    tracer: tracing.Tracer | None = None
    signatures: dict = field(default_factory=dict)
    sample: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def setup(name: str, seed: int, pool: dict):
    cases = families.cases(name, seed, pool)
    scenarios = {}
    if name in SIMULATED_DISPATCHES:
        pairs = [(case, kind) for case in cases for kind in case.policies]
        share = SIMULATED_DISPATCHES[name] / len(pairs)
        rng = random.Random(seed)
        for case, kind in pairs:
            count = max(2, round(share / len(case.instance.jobs)))
            scenarios[(case.name, kind)] = checks.scenarios(case.instance, rng, count - 2)
    return cases, scenarios


def bundled_references():
    out = []
    for filename, policy, mode in BUNDLED:
        path = ROOT / "instances" / filename
        instance = parse_instance(path.read_text(encoding="utf-8"))
        try:
            _, result = sg_graph.generate(instance, PolicyKind(policy), mode)
        except AnalysisStuck:
            result = None
        out.append((path, policy, mode, result))
    return out


def _next_op(work: Workload) -> None:
    if work.tracer is not None:
        work.tracer.op += 1


def _fail(work: Workload, stats: Round, where: str, problems: list[str]) -> None:
    if problems:
        stats.failed += 1
        if len(work.problems) < 20:
            work.problems.append(f"{where}: {'; '.join(problems)}")


def run_round(work: Workload, traced: bool) -> Round:
    stats = Round()
    if traced:
        stats.shape = dict.fromkeys(("arcs", "survivors", "widest", "levels", "reeligible"), 0)
    start = time.perf_counter()
    for case in work.cases:
        created = 0
        for kind in case.policies:
            report = traces = None
            _next_op(work)
            t0 = time.perf_counter()
            if work.name == "verify":
                report = sg_oracle.enumerate_scenarios(case.instance, kind, ORACLE_CAP, exhaustive=True)
                stats.scenarios += report.scenarios_checked
            else:
                traces = [sg_oracle.simulate(case.instance, kind, s)
                          for s in work.scenarios[(case.name, kind)]]
                stats.scenarios += len(traces)
            stats.oracle[(case.name, kind)] = work.meter.stop(t0)
            for mode in case.modes:
                problems, vertices = analyse(work, stats, case, kind, mode, report, traces)
                created += vertices
                last = (kind, mode) == (case.policies[-1], case.modes[-1])
                if last and case.vertices is not None and created != case.vertices:
                    problems.append(f"{created} vertices created, the pool recorded {case.vertices}")
                _fail(work, stats, f"{case.name} {kind.value} {mode}", problems)
    for repeat in range(CLI_REPEATS):
        for path, policy, mode, result in work.bundled:
            run_cli(work, stats, (repeat, path, policy, mode), result, traced)
    stats.wall_s = time.perf_counter() - start
    return stats


def analyse(work, stats, case, kind, mode, report, traces) -> tuple[list[str], int]:
    """One analysis and its checks: the problems found and the vertices created."""
    _next_op(work)
    stats.attempted += 1
    graph = result = None
    t0 = time.perf_counter()
    try:
        graph, result = sg_graph.generate(case.instance, kind, mode)
    except AnalysisStuck:
        pass
    except Exception as exc:  # any other exception is a failed operation
        stats.analysis[(case.name, kind, mode)] = work.meter.stop(t0)
        return [f"raised {exc!r}"], 0
    stats.analysis[(case.name, kind, mode)] = work.meter.stop(t0)
    if result is None:
        signature = ("stuck", 0, 0)
        problems = ["analysis stuck in me mode"] if mode == "me" else []
    else:
        signature = (result.schedulable, graph.vertices_created, graph.arcs_created)
        stats.vertices += graph.vertices_created
        if stats.shape is not None:
            add_shape(stats.shape, graph, result)
        del graph
        problems = checks.check_verdict(case.instance, result)
        if case.schedulable and mode == "me" and not result.schedulable:
            problems.append("not schedulable, but the pool member is")
        if report is not None:
            problems += checks.check_oracle(result, mode, report)
            if "result" not in work.sample and mode == "me" and result.schedulable:
                work.sample.update(instance=case.instance, result=result, report=report)
        else:
            trace_problems, tight = checks.check_traces(result, traces)
            problems += trace_problems
            if "result" not in work.sample and tight:
                work.sample.update(instance=case.instance, result=result, traces=traces, tight=tight)
    key = (case.name, kind, mode)
    if work.signatures.setdefault(key, signature) != signature:
        problems.append(f"repeat gave {signature}, first run {work.signatures[key]}")
    return problems, signature[1]


def add_shape(shape: dict, graph, result) -> None:
    shape["arcs"] += graph.arcs_created
    shape["survivors"] += len(graph.vertices)
    shape["widest"] = max(shape["widest"], max(n for n, _ in result.levels))
    shape["levels"] += len(result.levels)
    shape["reeligible"] += families.reeligible_arcs(graph)


def run_cli(work, stats, key, result, in_process: bool) -> None:
    _, path, policy, mode = key
    argv = ["analyze", str(path), "--policy", policy, "--mode", mode, "--format", "json"]
    _next_op(work)
    stats.attempted += 1
    if not in_process:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        stats.cli_bare[key] = work.meter.stop(t0)
    t0 = time.perf_counter()
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sg_cli.main(argv)
        stdout = out.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "schedgraph.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        code, stdout = proc.returncode, proc.stdout
    stats.cli[key] = work.meter.stop(t0)
    try:
        payload = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        payload = None
    problems = checks.check_cli(code, payload, result, result is None)
    if not problems and payload and payload["bounds"] and "cli" not in work.sample:
        work.sample["cli"] = (code, payload, result)
    _fail(work, stats, f"cli {path.name} {policy} {mode}", problems)


def measure(work: Workload, seconds: float, traced: bool = False) -> list[Round]:
    """Whole rounds, until the next one would end past `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(work, traced))
        if time.perf_counter() - start + rounds[-1].wall_s > seconds:
            return rounds


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_op(rounds: list[Round], kind: str, meter: Meter, raw: bool = False) -> dict:
    """Each operation's median time over the rounds, scaled by the meter unless `raw`."""
    times: dict = {}
    for r in rounds:
        for key, (start, end) in getattr(r, kind).items():
            times.setdefault(key, []).append(end - start if raw else meter.scaled((start, end)))
    return {key: statistics.median(values) for key, values in times.items()}


def end_to_end(setup_spans: list, rounds: list[Round], meter: Meter) -> dict:
    analysis_s = sum(per_op(rounds, "analysis", meter).values())
    return {
        "setup_s": (statistics.median(meter.scaled(span) for span in setup_spans), "s"),
        "analysis_s": (analysis_s, "s"),
        "vertices_per_s": (rounds[0].vertices / analysis_s, "1/s"),
        "verify_s": (sum(per_op(rounds, "oracle", meter).values()), "s"),
        "cli_ms": (statistics.median(startup_scaled(span, r.cli_bare[key])
                                     for r in rounds for key, span in r.cli.items()) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def import_spans(meter: Meter, repeats: int = 5) -> dict:
    """Spans of fresh interpreters that import schedgraph.cli, and of bare ones."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans: dict = {"pass": [], "import schedgraph.cli": []}
    for _ in range(repeats):
        for code, out in spans.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            out.append(meter.stop(t0))
    return spans


def per_layer(work: Workload, untraced: list[Round], traced: list[Round],
              tracer: tracing.Tracer, imports: dict) -> dict:
    meter = work.meter

    def median_ms(spans: list) -> float:
        return statistics.median(meter.scaled(span) for span in spans) * 1000.0

    setup_self_s, setup_calls = tracer.summary(setup=True)
    self_s, calls = tracer.summary(setup=False)
    n = len(traced)
    layer = {
        "model.make_instance_s": (setup_self_s.get("model.make_instance", 0.0), "s"),
        "generator.generate_instance.calls": (setup_calls.get("generator.generate_instance", 0), "count"),
        "trace.overhead_s": (sum(per_op(traced, "analysis", meter).values())
                             - sum(per_op(untraced, "analysis", meter).values()), "s"),
    }
    per_round = {
        "graph.make_context": ("graph.make_context_s", "graph.make_context.calls"),
        "graph.applicable_jobs": ("graph.applicable_jobs_s", None),
        "policy.critical_context": ("policy.critical_context_s", None),
        "graph.expansion_windows": ("graph.expansion_windows_s", "graph.expansion_windows.calls"),
        "graph.expand": ("graph.expand_s", None),
        "graph.merge_phase": ("graph.merge_phase_s", None),
        "graph.generate": ("graph.generate.self_s", None),
        "policy.pick": ("policy.pick_s", "policy.pick.calls"),
    }
    for span, (time_name, count_name) in per_round.items():
        layer[time_name] = (self_s.get(span, 0.0) / n, "s")
        if count_name:
            layer[count_name] = (calls.get(span, 0) // n, "count")
    oracle_self = self_s.get("oracle.simulate", 0.0) + self_s.get("oracle.enumerate_scenarios", 0.0)
    oracle_total = oracle_self + self_s.get("policy.pick", 0.0)
    scenarios = sum(r.scenarios for r in traced) / n
    layer.update({
        "graph.probes": (tracer.counts["graph.probes"] // n, "count"),
        "oracle.self_s": (oracle_self / n, "s"),
        "oracle.scenarios_checked": (int(scenarios), "count"),
        "oracle.us_per_scenario": (oracle_total / n / scenarios * 1e6, "us"),
        "oracle.enumerate_scenarios.calls": (calls.get("oracle.enumerate_scenarios", 0) // n, "count"),
        "cli.main_ms": (statistics.median(meter.scaled(span) for r in traced for span in r.cli.values())
                        * 1000.0, "ms"),
        "cli.import_ms": (median_ms(imports["import schedgraph.cli"]) - median_ms(imports["pass"]),
                          "ms"),
    })
    shape = traced[-1].shape
    layer.update({
        "graph.vertices_created": (traced[-1].vertices, "count"),
        "graph.arcs_created": (shape["arcs"], "count"),
        "graph.merge_survivors": (shape["survivors"], "count"),
        "graph.merge_ratio": (shape["survivors"] / traced[-1].vertices, "ratio"),
        "graph.widest_level": (shape["widest"], "count"),
        "graph.levels": (shape["levels"], "count"),
        "graph.reeligible_arcs": (shape["reeligible"], "count"),
    })
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="schedgraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pool = families.load_pool()
    meter = Meter()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        meter.sample()  # each set-up is scaled by the kernel samples right around it
        t0 = time.perf_counter()
        cases, scenarios = setup(args.workload, args.seed, pool)
        setup_spans.append(meter.stop(t0))
    meter.sample()
    work = Workload(args.workload, cases, scenarios, bundled_references(), meter)

    if args.trace:
        untraced = measure(work, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup(args.workload, args.seed, pool)  # operation 0: the set-up spans
            work.tracer = tracer
            traced = measure(work, args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
        imports = import_spans(meter)
        meter.close()
        metrics = per_layer(work, untraced, traced, tracer, imports)
        out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-s{args.seed}.bin"
        tracer.write(out)
        if tracer.absent:
            print("absent (no longer in the program): " + ", ".join(tracer.absent))
        print(f"spans: {len(tracer.start_col)} written to {out.relative_to(ROOT)}")
    else:
        rounds = measure(work, args.seconds)
        meter.close()
        metrics = end_to_end(setup_spans, rounds, meter)

    missed = checks.selftest(work.sample) if {"result", "cli"} <= set(work.sample) else ["no sample"]
    latencies = [meter.scaled(span) * 1000.0 for r in rounds for span in r.analysis.values()]
    print(f"{args.workload} seed {args.seed}: {len(work.cases)} instances, {len(rounds)} rounds, "
          f"{len(latencies)} generate calls, p50 {percentile(latencies, 0.5):.3f} ms"
          + (f", p99 {percentile(latencies, 0.99):.3f} ms" if len(latencies) >= 1000 else "")
          + f"; unscaled analysis {sum(per_op(rounds, 'analysis', meter, raw=True).values()):.3f} s,"
          f" kernel {min(meter.refs) * 1000:.3f}-{max(meter.refs) * 1000:.3f} ms")
    for problem in work.problems:
        print(f"FAILED {problem}")
    for label in missed:
        print(f"SELF-TEST: checker accepted a corrupted result ({label})")
    result = {
        "correct": not work.problems and not missed,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
