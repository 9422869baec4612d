"""Command-line front end.

Subcommands: analyze, simulate, brute-force, gen, compare, export-dot, bench.
Exit codes: 0 = schedulable / no miss / agreement, 1 = non-schedulable /
miss / exactness violation, 2 = usage or input error, 3 = analysis stuck.
JSON output is the stable machine surface; text output is for humans and
may change.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time

from .generator import DEFAULT_PERIODS, GenerationError, GenSpec, check_reachable, generate_instance
from .graph import ME, MODES, SE, AnalysisStuck, export_dot, generate
from .model import (InstanceError, _parse_int, parse_instance, parse_scenario,
                     read_directives, read_fields, write_instance)
from .oracle import (DEFAULT_SCENARIO_CAP, ScenarioCapExceeded,
                     enumerate_scenarios, simulate)
from .policy import POLICY_NAMES, parse_policy

def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _analysis_text(result) -> str:
    lines = [f"schedulable: {'yes' if result.schedulable else 'no'}"]
    for k, miss in enumerate(result.misses):  # the witness first
        lines.append(f"{'miss' if k else 'witness'}: {miss.job.label} may finish at"
                     f" {miss.lft} > deadline {miss.deadline} (vertex v{miss.vertex})")
    lines.append("levels (vertices/arcs): " +
                 " ".join(f"{v}/{a}" for v, a in result.levels))
    lines.append(f"created before merging: {result.vertices_created} vertices,"
                 f" {result.arcs_created} arcs")
    if result.bounds_complete:
        lines.append("finish-time bounds:")
        for (task, index), (lo, hi) in sorted(result.bounds.items()):
            lines.append(f"  J{task},{index}: [{lo}, {hi}]")
    else:
        lines.append("finish-time bounds: partial (analysis aborted on first miss)")
    lines.append(f"wall: {result.wall_ms:.2f} ms")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    instance = _load_instance(args.instance)
    kind = parse_policy(args.policy)
    _, result = generate(instance, kind, args.mode,
                         exhaustive_misses=args.exhaustive_misses)
    if args.format == "json":
        _emit(args, json.dumps(result.to_json_dict(), indent=2) + "\n")
    else:
        _emit(args, _analysis_text(result))
    return 0 if result.schedulable else 1


def cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    kind = parse_policy(args.policy)
    with open(args.scenario, "r", encoding="utf-8") as handle:
        scenario = parse_scenario(handle.read(), instance)
    trace = simulate(instance, kind, scenario)
    if args.format == "json":
        data = {
            "dispatches": [{"task": j.task_id, "job": j.index, "start": s, "finish": f}
                           for j, s, f in trace.dispatches],
            "idle": [[a, b] for a, b in trace.idle],
            "misses": [{"task": j.task_id, "job": j.index, "finish": f, "deadline": d}
                       for j, f, d in trace.misses],
        }
        _emit(args, json.dumps(data, indent=2) + "\n")
    else:
        lines = [f"{j.label}: runs [{s}, {f})" for j, s, f in trace.dispatches]
        for j, f, d in trace.misses:
            lines.append(f"MISS: {j.label} finishes at {f} > deadline {d}")
        if not trace.misses:
            lines.append("no deadline miss")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if not trace.misses else 1


def _check_cap(args) -> None:
    if args.max_scenarios < 1:
        raise ValueError(f"--max-scenarios must be at least 1, got {args.max_scenarios}")


def cmd_brute_force(args) -> int:
    _check_cap(args)
    instance = _load_instance(args.instance)
    kind = parse_policy(args.policy)
    report = enumerate_scenarios(instance, kind, max_scenarios=args.max_scenarios,
                                 exhaustive=args.exhaustive)
    _emit(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0 if report.schedulable else 1


def cmd_gen(args) -> int:
    spec = GenSpec(
        n_tasks=args.tasks,
        utilization=args.util,
        jitter_ratio=args.rj,
        variation_ratio=args.rc,
        periods=tuple(args.periods),
        seed=args.seed,
    )
    instance = generate_instance(spec)
    _emit(args, write_instance(instance))
    return 0


def compare_verdicts(me_verdict: str, oracle_verdict: str) -> bool:
    """The analysis must agree with the oracle whenever the oracle ran."""
    return oracle_verdict == "skipped" or me_verdict == oracle_verdict


def cmd_compare(args) -> int:
    _check_cap(args)
    instance = _load_instance(args.instance)
    kind = parse_policy(args.policy)
    verdicts: dict[str, str] = {}
    for mode in MODES:
        try:
            _, result = generate(instance, kind, mode)
            verdicts[mode] = "schedulable" if result.schedulable else "non-schedulable"
        except AnalysisStuck:
            verdicts[mode] = "stuck"
    try:
        report = enumerate_scenarios(instance, kind, max_scenarios=args.max_scenarios)
        verdicts["oracle"] = "schedulable" if report.schedulable else "non-schedulable"
    except ScenarioCapExceeded as exc:
        verdicts["oracle"] = "skipped"
        print(f"oracle skipped: {exc}", file=sys.stderr)
    ok = compare_verdicts(verdicts["me"], verdicts["oracle"])
    if args.format == "json":
        _emit(args, json.dumps({**verdicts, "exactness_ok": ok}, indent=2) + "\n")
    else:
        lines = [f"{name:<8} {verdict}" for name, verdict in verdicts.items()]
        lines.append("exactness: " + ("ok" if ok else "VIOLATION"))
        _emit(args, "\n".join(lines) + "\n")
    if not ok:
        print("exactness violation: analysis and oracle disagree", file=sys.stderr)
        return 1
    return 0


def cmd_export_dot(args) -> int:
    instance = _load_instance(args.instance)
    kind = parse_policy(args.policy)
    graph, result = generate(instance, kind, args.mode)
    _emit(args, export_dot(graph, result))
    return 0


# --- bench -----------------------------------------------------------------
#
# Bench spec files follow the grammar of instance files (`model.read_directives`):
#   bench tasks=<n> util=<f> rj=<f> rc=<f> seeds=<k> [seed0=<s>]
#         [periods=a,b,c] [policies=edf,...] [modes=me,se]
# After the CSV, stderr gets one summary line per (spec line, policy): verdict
# counts per mode and the median per-seed me/se ratios of vertices and wall_ms.

BENCH_COLUMNS = ("instance", "jobs", "policy", "mode", "vertices", "arcs",
                 "wall_ms", "verdict")
_BENCH_REPEATS = 3
_BENCH_DEFAULTS = {"seed0": "0", "periods": ",".join(map(str, DEFAULT_PERIODS)),
                   "policies": "edf", "modes": ME}
_BENCH_FIELDS = ("tasks", "util", "rj", "rc", "seeds", *_BENCH_DEFAULTS)


def _parse_number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InstanceError(f"{what}: expected a number, got {text!r}") from None


def _parse_bench_spec(text: str) -> list[dict]:
    """Rows of a bench spec; an unknown, repeated, missing or bad field, policy or mode names its line."""
    rows = []

    def directive(lineno: int, words: list[str]) -> None:
        if words[0] != "bench":
            raise InstanceError(f"unknown directive {words[0]!r}")
        fields = {**_BENCH_DEFAULTS, **read_fields(words[1:], _BENCH_FIELDS)}
        missing = [name for name in _BENCH_FIELDS if name not in fields]
        if missing:
            raise InstanceError(f"missing field(s) {', '.join(missing)}")
        try:
            row = {
                "line": lineno,
                "tasks": _parse_int(fields["tasks"], "tasks"),
                "util": _parse_number(fields["util"], "util"),
                "rj": _parse_number(fields["rj"], "rj"),
                "rc": _parse_number(fields["rc"], "rc"),
                "seeds": _parse_int(fields["seeds"], "seeds"),
                "seed0": _parse_int(fields["seed0"], "seed0"),
                "periods": tuple(_parse_int(p, "periods") for p in fields["periods"].split(",")),
                "policies": tuple(fields["policies"].split(",")),
                "modes": tuple(fields["modes"].split(",")),
            }
            # every check that needs no analysis runs here, so it can name the line
            check_reachable(GenSpec(row["tasks"], row["util"], row["rj"], row["rc"], row["periods"]))
            if row["seeds"] < 1:
                raise ValueError(f"seeds must be >= 1, got {row['seeds']}")
            policies = [parse_policy(policy).value for policy in row["policies"]]
            for mode in row["modes"]:
                if mode not in MODES:
                    raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
            for name, named in (("policy", policies), ("mode", row["modes"])):
                for k, value in enumerate(named):
                    if value in named[:k]:  # each would be analysed and summarised twice
                        raise ValueError(f"{name} {value!r} named twice")
        except (ValueError, GenerationError) as exc:
            raise InstanceError(str(exc)) from None
        rows.append(row)

    read_directives(text, directive)
    return rows


def _bench_items(rows: list[dict]) -> list[tuple[GenSpec, str, str]]:
    items = []
    for row in rows:
        for seed in range(row["seed0"], row["seed0"] + row["seeds"]):
            spec = GenSpec(row["tasks"], row["util"], row["rj"], row["rc"],
                           row["periods"], seed)
            for policy in row["policies"]:
                for mode in row["modes"]:
                    items.append((spec, policy, mode))
    return items


def _bench_one(item: tuple[GenSpec, str, str]) -> dict:
    import statistics  # imported here, as in `cmd_bench`
    spec, policy, mode = item
    instance = generate_instance(spec)
    kind = parse_policy(policy)
    name = (f"n{spec.n_tasks}-u{spec.utilization:g}-rj{spec.jitter_ratio:g}"
            f"-rc{spec.variation_ratio:g}-s{spec.seed}")
    row = {"instance": name, "jobs": len(instance.jobs), "policy": policy, "mode": mode}
    timings = []
    try:
        for _ in range(_BENCH_REPEATS):
            t0 = time.perf_counter()
            graph, result = generate(instance, kind, mode)
            timings.append((time.perf_counter() - t0) * 1000.0)
    except AnalysisStuck:  # a row without a verdict, not the end of the run
        return {**row, "vertices": "", "arcs": "", "wall_ms": "", "verdict": "stuck"}
    return {**row, "vertices": graph.vertices_created, "arcs": graph.arcs_created,
            "wall_ms": f"{statistics.median(timings):.3f}",
            "verdict": "schedulable" if result.schedulable else "non-schedulable"}


def cmd_bench(args) -> int:
    # Imported here: multiprocessing and statistics would slow every other subcommand.
    import csv
    import statistics
    from concurrent.futures import ProcessPoolExecutor

    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.spec, "r", encoding="utf-8") as handle:
        rows = _parse_bench_spec(handle.read())
    items = _bench_items(rows)
    # The pool starts every worker at once, so never ask for more than can run.
    workers = min(args.jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_bench_one, items))
    else:
        records = [_bench_one(item) for item in items]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(records)
    _emit(args, buffer.getvalue())
    start = 0
    for row in rows:  # the summary: per (spec line, policy), in spec order
        modes, width = row["modes"], len(row["policies"]) * len(row["modes"])
        block = records[start:start + row["seeds"] * width]  # by seed, then policy, then mode
        start += len(block)
        for k, policy in enumerate(row["policies"]):
            group = {mode: block[k * len(modes) + m::width] for m, mode in enumerate(modes)}
            parts = []
            for mode, rows_of_mode in group.items():
                verdicts = [record["verdict"] for record in rows_of_mode]
                counts = (f"{verdicts.count(v)} {v}" for v in ("schedulable", "non-schedulable", "stuck"))
                parts.append(f"{mode} {', '.join(counts)}")
            # a non-schedulable analysis stops at its first miss, so a seed is
            # compared only when both modes analyze it to the end
            pairs = [(me, se) for me, se in zip(group.get(ME, ()), group.get(SE, ()))
                     if me["verdict"] == se["verdict"] == "schedulable"]
            parts.append(f"{len(pairs)} paired seeds")
            if pairs:
                ratios = [statistics.median(float(me[column]) / float(se[column]) for me, se in pairs)
                          for column in ("vertices", "wall_ms")]
                parts.append("median me/se {:.3f} vertices, {:.3f} wall_ms".format(*ratios))
            print(f"line {row['line']} {policy}: {'; '.join(parts)}", file=sys.stderr)
    return 0


# --- parser ------------------------------------------------------------------

def _add_shared(parser: argparse.ArgumentParser, mode: bool = True, fmt: bool = True) -> None:
    parser.add_argument("--policy", default="edf", choices=POLICY_NAMES,
                        help="scheduling policy (default: edf)")
    if mode:
        parser.add_argument("--mode", default=ME, choices=MODES,
                            help="eligibility mode: me allows a job to become "
                                 "eligible again within one vertex, se does not")
    if fmt:
        parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedgraph",
        description="Exact schedulability analysis for non-preemptive periodic "
                    "tasks with release jitter and execution-time variation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the schedule-graph analysis")
    p.add_argument("instance")
    _add_shared(p)
    p.add_argument("--exhaustive-misses", action="store_true",
                   help="collect every deadline miss instead of aborting at the first")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("simulate", help="play one concrete execution scenario")
    p.add_argument("instance")
    p.add_argument("--scenario", required=True,
                   help="file of 'J <task> <index> r=<int> c=<int>' lines")
    _add_shared(p, mode=False)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("brute-force", help="exhaustively simulate every scenario")
    p.add_argument("instance")
    _add_shared(p, mode=False, fmt=False)  # the report is always JSON
    p.add_argument("--max-scenarios", type=int, default=DEFAULT_SCENARIO_CAP,
                   help=f"refuse above this many scenarios (default {DEFAULT_SCENARIO_CAP})")
    p.add_argument("--exhaustive", action="store_true",
                   help="keep enumerating past the first failing scenario")
    p.set_defaults(handler=cmd_brute_force)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--util", type=float, required=True)
    p.add_argument("--rj", type=float, required=True, help="release jitter ratio in [0,1]")
    p.add_argument("--rc", type=float, required=True, help="execution variation ratio in [0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--periods", type=lambda s: [int(x) for x in s.split(",")],
                   default=list(DEFAULT_PERIODS),
                   help="comma-separated period choices (default 5,10,20,40)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("compare", help="compare both modes against the oracle")
    p.add_argument("instance")
    _add_shared(p, mode=False)
    p.add_argument("--max-scenarios", type=int, default=DEFAULT_SCENARIO_CAP,
                   help="oracle scenario cap; above it the oracle is skipped")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("export-dot", help="emit the schedule graph in DOT format")
    p.add_argument("instance")
    _add_shared(p, fmt=False)
    p.set_defaults(handler=cmd_export_dot)

    p = sub.add_parser("bench", help="time analyses over generated instance sets")
    p.add_argument("spec", help="bench spec file; see the module docstring")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes, at most one per CPU and item "
                        "(output order stays deterministic)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceError, GenerationError, ScenarioCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisStuck as exc:
        vertex = f" (vertex v{exc.vertex})" if exc.vertex is not None else ""
        print(f"analysis stuck: {exc}{vertex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
