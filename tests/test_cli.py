from __future__ import annotations

import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import schedgraph
from schedgraph import (ME, GenSpec, InstanceError, PolicyKind, generate, generate_instance,
                        parse_instance, parse_scenario, write_instance)
from schedgraph.cli import _bench_items, _parse_bench_spec, compare_verdicts, main
from support import ANOMALY, EDF_JITTER, INSTANCE_DIR, PRECAUTIOUS_IDLE, SE_STUCK_SCHEDULABLE

ANALYZE_SCHEMA = {
    "type": "object",
    "required": ["schedulable", "bounds", "bounds_complete", "stats"],
    "additionalProperties": False,
    "properties": {
        "schedulable": {"type": "boolean"},
        "bounds_complete": {"type": "boolean"},
        "witness": {
            "type": "object",
            "required": ["vertex", "task", "job", "lft", "deadline"],
            "properties": {k: {"type": "integer"}
                           for k in ("vertex", "task", "job", "lft", "deadline")},
        },
        "misses": {"type": "array", "minItems": 1, "items": {"$ref": "#/properties/witness"}},
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["task", "job", "eft_min", "lft_max"],
                "properties": {k: {"type": "integer"}
                               for k in ("task", "job", "eft_min", "lft_max")},
            },
        },
        "stats": {
            "type": "object",
            "required": ["levels", "vertices_created", "arcs_created", "wall_ms"],
            "properties": {
                "levels": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["vertices", "arcs", "created"],
                        "properties": {k: {"type": "integer"}
                                       for k in ("vertices", "arcs", "created")},
                    },
                },
                "vertices_created": {"type": "integer"},
                "arcs_created": {"type": "integer"},
                "wall_ms": {"type": "number"},
            },
        },
    },
}


# Scenarios for ANOMALY: every job meets its deadline, or J3,2 misses it.
NO_MISS = ("J 1 1 r=5 c=7\nJ 2 1 r=1 c=4\nJ 2 2 r=11 c=4\n"
           "J 3 1 r=0 c=1\nJ 3 2 r=5 c=1\nJ 3 3 r=10 c=1\nJ 3 4 r=15 c=1\n")
J32_MISSES = ("J 1 1 r=2 c=7\nJ 2 1 r=1 c=2\nJ 2 2 r=11 c=4\n"
              "J 3 1 r=0 c=1\nJ 3 2 r=5 c=1\nJ 3 3 r=10 c=1\nJ 3 4 r=15 c=1\n")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def strip_timing(text):
    """Bench CSV rows without their wall-clock column."""
    return [{k: v for k, v in row.items() if k != "wall_ms"}
            for row in csv.DictReader(io.StringIO(text))]


class TestAnalyze:
    def test_schedulable_instance_exits_zero(self, capsys):
        code, out = run(capsys, "analyze", str(EDF_JITTER), "--policy", "edf",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, ANALYZE_SCHEMA)
        assert {"task": 2, "job": 2, "eft_min": 6, "lft_max": 8} in data["bounds"]

    def test_single_eligibility_miss_exits_one(self, capsys):
        code, out = run(capsys, "analyze", str(PRECAUTIOUS_IDLE),
                        "--policy", "p-fp-edf", "--mode", "se", "--format", "json")
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, ANALYZE_SCHEMA)
        witness = data["witness"]
        assert (witness["task"], witness["job"]) == (3, 1)
        assert (witness["lft"], witness["deadline"]) == (18, 14)
        assert data["misses"] == [witness]  # the first miss aborts the analysis

    def test_exhaustive_misses_lists_every_miss(self, capsys):
        argv = ("analyze", str(PRECAUTIOUS_IDLE), "--policy", "fp-edf", "--exhaustive-misses")
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, ANALYZE_SCHEMA)
        assert [(m["vertex"], m["task"], m["job"], m["lft"], m["deadline"])
                for m in data["misses"]] == [(6, 1, 1, 14, 12), (8, 1, 1, 13, 12), (9, 3, 1, 16, 14)]
        assert data["witness"] == data["misses"][0]
        code, text = run(capsys, *argv)
        assert code == 1
        assert [line for line in text.splitlines() if line.startswith(("witness", "miss"))] == [
            "witness: J1,1 may finish at 14 > deadline 12 (vertex v6)",
            "miss: J1,1 may finish at 13 > deadline 12 (vertex v8)",
            "miss: J3,1 may finish at 16 > deadline 14 (vertex v9)",
        ]

    def test_missing_file_exits_two(self, capsys):
        code = main(["analyze", "/nonexistent/instance.txt"])
        assert code == 2

    def test_bad_instance_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("task 1 T=0 rmin=0 rmax=0 cmin=1 cmax=1 d=1\n")
        assert main(["analyze", str(path)]) == 2

    def test_horizon_over_the_job_cap_exits_two(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"H {2**64 - 1}\ntask 1 T=1 rmin=0 rmax=0 cmin=1 cmax=1 d=1\n")
        assert main(["analyze", str(path)]) == 2
        assert "exceed the cap" in capsys.readouterr().err

    def test_text_output_mentions_verdict(self, capsys):
        code, out = run(capsys, "analyze", str(EDF_JITTER))
        assert code == 0
        assert "schedulable: yes" in out

    def test_stats_count_what_the_analysis_created(self, capsys, jitter3):
        graph, _ = generate(jitter3, PolicyKind.EDF, ME)
        _, out = run(capsys, "analyze", str(EDF_JITTER), "--format", "json")
        stats = json.loads(out)["stats"]
        assert (stats["vertices_created"], stats["arcs_created"]) == \
            (graph.vertices_created, graph.arcs_created)
        assert stats["vertices_created"] == 9 > len(graph.vertices)
        _, text = run(capsys, "analyze", str(EDF_JITTER))
        assert (f"created before merging: {graph.vertices_created} vertices,"
                f" {graph.arcs_created} arcs") in text

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["analyze", str(EDF_JITTER), "--format", "json",
                     "--out", str(target)])
        assert code == 0
        jsonschema.validate(json.loads(target.read_text()), ANALYZE_SCHEMA)


class TestSimulate:
    def test_scenario_without_miss(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text(NO_MISS)
        code, out = run(capsys, "simulate", str(ANOMALY), "--scenario",
                        str(scenario), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["misses"] == []
        assert {"task": 1, "job": 1, "start": 6, "finish": 13} in data["dispatches"]

    def test_scenario_with_miss_exits_one(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text(J32_MISSES)
        code, out = run(capsys, "simulate", str(ANOMALY), "--scenario",
                        str(scenario), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["misses"] == [{"task": 3, "job": 2, "finish": 11, "deadline": 10}]

    @pytest.mark.parametrize("text, code, lines", [
        (NO_MISS, 0, ["J3,1: runs [0, 1)", "J2,1: runs [1, 5)", "J3,2: runs [5, 6)",
                      "J1,1: runs [6, 13)", "J3,3: runs [13, 14)", "J2,2: runs [14, 18)",
                      "J3,4: runs [18, 19)", "no deadline miss"]),
        (J32_MISSES, 1, ["J3,1: runs [0, 1)", "J2,1: runs [1, 3)", "J1,1: runs [3, 10)",
                         "J3,2: runs [10, 11)", "J3,3: runs [11, 12)", "J2,2: runs [12, 16)",
                         "J3,4: runs [16, 17)", "MISS: J3,2 finishes at 11 > deadline 10"]),
    ], ids=["no-miss", "miss"])
    def test_text_output_lists_dispatches_then_misses(self, capsys, tmp_path, text, code, lines):
        scenario = tmp_path / "s.txt"
        scenario.write_text(text)
        assert run(capsys, "simulate", str(ANOMALY), "--scenario", str(scenario)) == \
            (code, "\n".join(lines) + "\n")

    def test_invalid_scenario_exits_two(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("J 1 1 r=0 c=7\n")  # release below r_min, jobs missing
        assert main(["simulate", str(ANOMALY), "--scenario", str(scenario)]) == 2

    @pytest.mark.parametrize("extra, message", [
        ("J 9 9 r=1 c=1\n", "unknown job (9, 9)"),
        ("J 1 1 r=2 c=7\n", "line 8: duplicate job J1,1"),
    ])
    def test_unknown_or_repeated_job_exits_two(self, capsys, tmp_path, extra, message):
        scenario = tmp_path / "s.txt"
        scenario.write_text(NO_MISS + extra)
        assert main(["simulate", str(ANOMALY), "--scenario", str(scenario)]) == 2
        assert message in capsys.readouterr().err


class TestBruteForce:
    def test_report_json(self, capsys):
        code, out = run(capsys, "brute-force", str(PRECAUTIOUS_IDLE),
                        "--policy", "p-fp-edf")
        assert code == 0
        data = json.loads(out)
        assert data["schedulable"] is True
        assert data["scenarios_total"] == 8

    def test_failing_instance_exits_one(self, capsys):
        code, out = run(capsys, "brute-force", str(ANOMALY))
        assert code == 1
        data = json.loads(out)
        assert data["schedulable"] is False
        assert data["first_failure"]

    def test_cap_refusal_exits_two(self, capsys):
        code = main(["brute-force", str(ANOMALY), "--max-scenarios", "10"])
        assert code == 2


@pytest.mark.parametrize("command", ["brute-force", "compare"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_exits_two_before_any_analysis(capsys, monkeypatch, command, cap):
    import schedgraph.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("an analysis ran")

    monkeypatch.setattr(cli, "generate", refuse)
    monkeypatch.setattr(cli, "enumerate_scenarios", refuse)
    assert main([command, str(ANOMALY), "--max-scenarios", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --max-scenarios must be at least 1, got {cap}" in captured.err


class TestGen:
    def test_generated_instance_parses_and_analyzes(self, capsys, tmp_path):
        out_file = tmp_path / "gen.txt"
        code = main(["gen", "--tasks", "4", "--util", "0.3", "--rj", "0.3",
                     "--rc", "0.3", "--seed", "7", "--out", str(out_file)])
        assert code == 0
        assert main(["analyze", str(out_file)]) in (0, 1)

    def test_custom_periods(self, capsys, tmp_path):
        out_file = tmp_path / "gen.txt"
        code = main(["gen", "--tasks", "2", "--util", "0.5", "--rj", "0", "--rc", "0",
                     "--seed", "1", "--periods", "6,12", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "T=6" in text or "T=12" in text

    def test_more_tasks_than_the_job_cap_exit_two(self, capsys, tmp_path):
        out_file = tmp_path / "gen.txt"
        code = main(["gen", "--tasks", "100001", "--util", "1", "--rj", "0", "--rc", "0",
                     "--periods", "1000000", "--out", str(out_file)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: n_tasks must be <= 100000, the cap on an instance's jobs\n"
        assert not out_file.exists()


class TestCompare:
    def test_modes_disagree_on_idling_instance(self, capsys):
        code, out = run(capsys, "compare", str(PRECAUTIOUS_IDLE),
                        "--policy", "p-fp-edf", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"me": "schedulable", "se": "non-schedulable",
                        "oracle": "schedulable", "exactness_ok": True}

    def test_all_agree_on_jitter_instance(self, capsys):
        code, out = run(capsys, "compare", str(EDF_JITTER), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["me"] == data["se"] == data["oracle"] == "schedulable"

    def test_trivial_instance_all_schedulable(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("task 1 T=10 rmin=0 rmax=0 cmin=2 cmax=2 d=10\n")
        code, out = run(capsys, "compare", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["exactness_ok"] is True

    def test_oracle_skipped_over_cap(self, capsys):
        code, out = run(capsys, "compare", str(ANOMALY), "--max-scenarios", "10",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["oracle"] == "skipped"

    def test_text_output(self, capsys):
        assert run(capsys, "compare", str(ANOMALY)) == (0, "me       non-schedulable\n"
                                                           "se       non-schedulable\n"
                                                           "oracle   non-schedulable\n"
                                                           "exactness: ok\n")

    def test_stuck_single_eligibility_is_a_verdict(self, capsys):
        # se gets stuck under cw where me and the oracle schedule the set
        code, out = run(capsys, "compare", str(SE_STUCK_SCHEDULABLE), "--policy", "cw")
        assert code == 0
        assert out.splitlines() == ["me       schedulable", "se       stuck",
                                    "oracle   schedulable", "exactness: ok"]
        code, out = run(capsys, "compare", str(SE_STUCK_SCHEDULABLE), "--policy", "cw",
                        "--format", "json")
        assert code == 0
        assert json.loads(out) == {"me": "schedulable", "se": "stuck", "oracle": "schedulable",
                                   "exactness_ok": True}

    def test_disagreement_is_a_hard_failure(self):
        assert compare_verdicts("schedulable", "non-schedulable") is False
        assert compare_verdicts("schedulable", "schedulable") is True
        assert compare_verdicts("non-schedulable", "skipped") is True

    def test_forced_disagreement_fails_the_process(self, capsys, monkeypatch):
        import schedgraph.cli as cli
        from schedgraph.oracle import OracleReport

        def fake_oracle(*args, **kwargs):
            return OracleReport(False, 1, 1, {}, {}, None)

        monkeypatch.setattr(cli, "enumerate_scenarios", fake_oracle)
        code = main(["compare", str(EDF_JITTER), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "exactness violation" in captured.err


class TestInstanceWithoutJobs:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "brute-force", "compare",
                                         "export-dot"])
    def test_instance_without_jobs_exits_two(self, capsys, tmp_path, command):
        # H is below every r_min, so the observation interval holds no job
        path = tmp_path / "empty.txt"
        path.write_text("H 5\ntask 1 T=10 rmin=7 rmax=8 cmin=1 cmax=1 d=10\n")
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("")
        extra = ["--scenario", str(scenario)] if command == "simulate" else []
        assert main([command, str(path), *extra]) == 2
        assert "error: instance has no jobs" in capsys.readouterr().err


class TestInstanceFileErrors:
    @pytest.mark.parametrize("text, message", [
        ("H 20\nH 20\n", "line 2: duplicate H directive"),
        ("H 20 40\n", "line 1: H takes exactly one value"),
        ("# no id\ntask\n", "line 2: task directive needs an id"),
        ("task 1 T=10 rmax=0 cmin=1 cmax=1 d=10\n", "line 1: task 1: missing field(s) rmin"),
        ("period 10\n", "line 1: unknown directive 'period'"),
    ], ids=["second-H", "H-two-values", "task-without-id", "missing-rmin", "unknown-directive"])
    def test_bad_directive_names_its_line_and_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDerivedTimeBound:
    """An instance whose latest release or deadline plus every c_max passes
    2**64 - 1 is refused before any analysis runs."""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "brute-force", "compare",
                                         "export-dot"])
    def test_every_subcommand_exits_two(self, capsys, tmp_path, monkeypatch, command):
        import schedgraph.cli as cli

        path = tmp_path / "late.txt"
        path.write_text("".join(f"task {i} T={2**64 - 1} rmin={2**64 - 10} rmax={2**64 - 10} "
                                f"cmin=2 cmax=2 d={2**64 - 4}\n" for i in (1, 2)))
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("")
        analysed = []
        for name in ("generate", "simulate", "enumerate_scenarios"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: analysed.append(args))
        extra = ["--scenario", str(scenario)] if command == "simulate" else []
        assert main([command, str(path), *extra]) == 2
        assert capsys.readouterr().err == ("error: latest release or deadline plus every c_max, "
                                           f"{2**64}, exceeds the unsigned 64-bit range\n")
        assert analysed == []


class TestStuckExitCode:
    def test_analysis_stuck_exits_three(self, monkeypatch):
        import schedgraph.cli as cli
        from schedgraph import AnalysisStuck

        def fake_generate(*args, **kwargs):
            raise AnalysisStuck("no dispatch time", vertex=5)

        monkeypatch.setattr(cli, "generate", fake_generate)
        assert main(["analyze", str(EDF_JITTER)]) == 3


class TestExportDot:
    def test_dot_output(self, capsys):
        code, out = run(capsys, "export-dot", str(EDF_JITTER))
        assert code == 0
        assert out.startswith("digraph schedule {")
        assert 'label="v7: [6,8]"' in out


class TestBench:
    def test_rows_per_seed(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=10\n")
        code, out = run(capsys, "bench", str(spec))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        assert all(float(row["wall_ms"]) >= 0 for row in rows)
        assert all(row["policy"] == "edf" and row["mode"] == "me" for row in rows)

    def test_empty_spec_yields_header_only(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("# nothing\n")
        code, out = run(capsys, "bench", str(spec))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["instance,jobs,policy,mode,vertices,arcs,wall_ms,verdict"]

    def test_both_modes_double_the_rows(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.2 rc=0.2 seeds=4 modes=me,se\n")
        code, out = run(capsys, "bench", str(spec))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert {row["mode"] for row in rows} == {"me", "se"}

    def test_counts_are_created_not_surviving(self, capsys, tmp_path):
        # merging folds this instance's 34 created vertices into 25
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=4 util=0.3 rj=0.5 rc=0.5 seeds=1\n")
        code, out = run(capsys, "bench", str(spec))
        assert code == 0
        [row] = list(csv.DictReader(io.StringIO(out)))
        graph, _ = generate(generate_instance(GenSpec(4, 0.3, 0.5, 0.5, (5, 10, 20, 40), 0)),
                            PolicyKind.EDF, ME)
        assert graph.vertices_created > len(graph.vertices)
        assert int(row["vertices"]) == graph.vertices_created
        assert int(row["arcs"]) == graph.arcs_created

    def test_stuck_analysis_is_a_row_not_the_end_of_the_run(self, capsys, tmp_path,
                                                            monkeypatch):
        import schedgraph.cli as cli

        def stuck_under_se(instance, kind, mode):
            if mode == "se":
                raise schedgraph.AnalysisStuck("no certainly eligible job exists at or after t=0")
            return generate(instance, kind, mode)

        monkeypatch.setattr(cli, "generate", stuck_under_se)
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.2 rc=0.2 seeds=3 modes=me,se\n")
        code, out = run(capsys, "bench", str(spec), "--jobs", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["mode"], row["verdict"] == "stuck") for row in rows] == \
            [("me", False), ("se", True)] * 3
        assert all(row["vertices"] == row["wall_ms"] == "" for row in rows if row["mode"] == "se")

    def test_parallel_output_matches_serial(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.1 rc=0.1 seeds=4\n")
        code, serial = run(capsys, "bench", str(spec))
        assert code == 0
        code, parallel = run(capsys, "bench", str(spec), "--jobs", "2")
        assert code == 0
        assert strip_timing(serial) == strip_timing(parallel)

    SUMMARY = re.compile(r"line (\d+) (\S+) (me|se): (\d+) schedulable, (\d+) non-schedulable, "
                         r"(\d+) stuck; median (\S+) vertices created \(schedulable rows\)")

    def summary(self, err):
        """The stderr summary, in order: (line, policy, mode) -> (schedulable,
        non-schedulable, stuck, median)."""
        matches = [self.SUMMARY.fullmatch(line) for line in err.splitlines()]
        assert all(matches), err
        return {(int(m[1]), m[2], m[3]): (int(m[4]), int(m[5]), int(m[6]), m[7]) for m in matches}

    def test_summary_per_line_policy_and_mode(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("# both modes under every policy\n"
                        "bench tasks=3 util=0.4 rj=0.3 rc=0.3 seeds=2 policies=edf,fp-edf,p-fp-edf,cp,cw"
                        " modes=me,se\n\n"
                        "bench tasks=4 util=0.7 rj=0.5 rc=0.5 seeds=2 seed0=5"
                        " policies=edf,fp-edf,p-fp-edf,cp,cw modes=me,se\n")
        assert main(["bench", str(spec)]) == 0
        serial = capsys.readouterr()
        summary = self.summary(serial.err)
        policies = ["edf", "fp-edf", "p-fp-edf", "cp", "cw"]
        assert list(summary) == [(line, policy, mode) for line in (2, 4)
                                 for policy in policies for mode in ("me", "se")]
        rows = list(csv.DictReader(io.StringIO(serial.out)))
        blocks = {2: rows[:20], 4: rows[20:]}  # 2 seeds x 5 policies x 2 modes each
        for (line, policy, mode), (ok, missed, stuck, median) in summary.items():
            assert ok + missed + stuck == 2
            group = [row for row in blocks[line] if (row["policy"], row["mode"]) == (policy, mode)]
            counts = [int(row["vertices"]) for row in group if row["verdict"] == "schedulable"]
            assert ok == len(counts)
            # a non-schedulable row stopped at its first miss and stays out of the median
            if counts:
                assert float(median) == statistics.median(counts)
            else:
                assert median == "-"
            # the paper's dominance claim: se schedulable implies me schedulable
            assert ok <= summary[line, policy, "me"][0]
        assert main(["bench", str(spec), "--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert parallel.err == serial.err
        assert strip_timing(parallel.out) == strip_timing(serial.out)

    def test_stuck_rows_count_as_stuck_and_leave_the_median(self, capsys, tmp_path,
                                                            monkeypatch):
        import schedgraph.cli as cli

        first = write_instance(generate_instance(GenSpec(3, 0.3, 0.2, 0.2, seed=0)))

        def stuck_on_seed_0_under_se(instance, kind, mode):
            if mode == "se" and write_instance(instance) == first:
                raise schedgraph.AnalysisStuck("no certainly eligible job exists at or after t=0")
            return generate(instance, kind, mode)

        monkeypatch.setattr(cli, "generate", stuck_on_seed_0_under_se)
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.2 rc=0.2 seeds=3 modes=me,se\n"
                        "bench tasks=3 util=0.3 rj=0.2 rc=0.2 seeds=1 modes=se\n")
        assert main(["bench", str(spec)]) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        summary = self.summary(captured.err)
        verdicts = {key: value[:3] for key, value in summary.items()}
        assert sum(verdicts[1, "edf", "se"]) == 3 and verdicts[1, "edf", "se"][2] == 1
        assert verdicts[1, "edf", "me"][2] == 0 and verdicts[2, "edf", "se"] == (0, 0, 1)
        se_rows = rows[3:6:2]  # seeds 1 and 2 under se
        se_counts = [int(row["vertices"]) for row in se_rows if row["verdict"] == "schedulable"]
        assert rows[1]["verdict"] == "stuck" and summary[1, "edf", "se"][3] != "-"
        assert float(summary[1, "edf", "se"][3]) == statistics.median(se_counts)
        assert summary[2, "edf", "se"][3] == "-"

    def test_shipped_util_sweep_spec_parses(self):
        # the utilization sweep: both modes under every policy, no analysis run here
        rows = _parse_bench_spec((INSTANCE_DIR / "util_sweep.bench").read_text())
        assert [row["util"] for row in rows] == [u / 10 for u in range(1, 10)]
        assert all(row["policies"] == ("edf", "fp-edf", "p-fp-edf", "cp", "cw")
                   and row["modes"] == ("me", "se") and row["seeds"] == 25 for row in rows)
        assert len(_bench_items(rows)) == 9 * 25 * 5 * 2

    def test_shipped_idle20_spec_parses(self):
        # the 20-task me/se comparison the README reports, no analysis run here
        rows = _parse_bench_spec((INSTANCE_DIR / "idle20.bench").read_text())
        assert [row["util"] for row in rows] == [0.5, 0.6]
        assert all((row["tasks"], row["rj"], row["rc"], row["periods"], row["seeds"])
                   == (20, 0.6, 0.6, (50, 100, 200), 10)
                   and row["policies"] == ("cw", "cp") and row["modes"] == ("me", "se")
                   for row in rows)
        assert len(_bench_items(rows)) == 2 * 10 * 2 * 2

    @staticmethod
    def exits_two_before_any_analysis(capsys, tmp_path, monkeypatch, line, message):
        import schedgraph.cli as cli

        spec = tmp_path / "bench.txt"
        spec.write_text("# a good line, then a bad one\n"
                        "bench tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=1\n"
                        f"{line}\n")
        analysed = []
        monkeypatch.setattr(cli, "_bench_one", analysed.append)
        assert main(["bench", str(spec)]) == 2
        assert f"error: line 3: {message}" in capsys.readouterr().err
        assert analysed == []

    @pytest.mark.parametrize("fields, message", [
        ("seeds=1 mode=se polices=cw", "unknown field 'mode'"),
        ("seeds=1 seeds=2", "duplicate field 'seeds'"),
        ("seeds=1 policies=edf,edff", "unknown policy 'edff'"),
        ("seeds=1 modes=me,both", "unknown mode 'both'"),
        ("seeds=1 periods=10,0", "periods must be positive integers"),
        ("seeds=-2", "seeds must be >= 1, got -2"),
        ("seeds=0", "seeds must be >= 1, got 0"),
        ("seeds=1 periods=5", "utilization 0.3 is out of reach"),
    ], ids=["unknown-field", "repeated-field", "unknown-policy", "unknown-mode",
            "bad-value", "negative-seeds", "zero-seeds", "unreachable-utilization"])
    def test_bad_field_exits_two_before_any_analysis(self, capsys, tmp_path, monkeypatch,
                                                     fields, message):
        self.exits_two_before_any_analysis(capsys, tmp_path, monkeypatch,
                                           f"bench tasks=3 util=0.3 rj=0.3 rc=0.3 {fields}",
                                           message)

    @pytest.mark.parametrize("line, message", [
        ("bench util=0.3 rj=0.3 rc=0.3 seeds=1", "missing field(s) tasks"),
        ("bench tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=a", "seeds: expected an integer, got 'a'"),
        ("bench tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=1 periods=10,x",
         "periods: expected an integer, got 'x'"),
        ("bench tasks=3 util=x rj=0.3 rc=0.3 seeds=1", "util: expected a number, got 'x'"),
        ("sweep tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=1", "unknown directive 'sweep'"),
        ("bench tasks=100001 util=0.3 rj=0.3 rc=0.3 seeds=1",
         "n_tasks must be <= 100000, the cap on an instance's jobs"),
    ], ids=["missing-field", "non-integer", "non-integer-period", "non-number",
            "unknown-directive", "too-many-tasks"])
    def test_bad_line_names_the_field_and_exits_two_before_any_analysis(
            self, capsys, tmp_path, monkeypatch, line, message):
        self.exits_two_before_any_analysis(capsys, tmp_path, monkeypatch, line, message)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that records its size and maps serially."""
    import concurrent.futures

    sizes: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestBenchWorkers:
    SPEC = "bench tasks=2 util=0.3 rj=0.1 rc=0.1 seeds=3\n"

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_two(self, capsys, tmp_path, recording_pool, jobs):
        spec = tmp_path / "bench.txt"
        spec.write_text(self.SPEC)
        assert main(["bench", str(spec), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert recording_pool == []

    @pytest.mark.parametrize("cpus, jobs, pools", [
        (64, "1000000", [3]),   # capped by the three items
        (2, "1000000", [2]),    # capped by the CPUs
        (64, "2", [2]),         # as asked
        (1, "8", []),           # one CPU: serial, no pool
        (None, "8", []),        # CPU count unknown: serial
    ])
    def test_pool_size_is_capped(self, capsys, tmp_path, monkeypatch, recording_pool,
                                 cpus, jobs, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = tmp_path / "bench.txt"
        spec.write_text(self.SPEC)
        code, out = run(capsys, "bench", str(spec), "--jobs", jobs)
        assert code == 0
        assert recording_pool == pools
        assert len(list(csv.DictReader(io.StringIO(out)))) == 3


# One directive of each text format, ending in a field. The scenario is for ONE_JOB,
# whose only job J1,1 has its release in [0, 0] and its execution time in [1, 2].
ONE_JOB = "task 1 T=10 rmin=0 rmax=0 cmin=1 cmax=2 d=5\n"
DIRECTIVES = {
    "instance": "task 1 T=10 rmin=0 rmax=0 cmin=1 cmax=2 d=5 p=0",
    "scenario": "J 1 1 r=0 c=2",
    "bench": "bench tasks=3 util=0.3 rj=0.3 rc=0.3 seeds=1",
}


class TestSharedGrammar:
    """Instance, scenario and bench spec files are read by one grammar."""

    @staticmethod
    def parse(kind, text):
        if kind == "instance":
            return parse_instance(text)
        if kind == "scenario":
            return parse_scenario(text, parse_instance(ONE_JOB))
        return _parse_bench_spec(text)

    @staticmethod
    def main_on(kind, tmp_path, text):
        """Exit code of the subcommand that reads `text` as a `kind` file."""
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        if kind == "instance":
            return main(["analyze", str(path)])
        if kind == "scenario":
            instance = tmp_path / "one_job.txt"
            instance.write_text(ONE_JOB)
            return main(["simulate", str(instance), "--scenario", str(path)])
        return main(["bench", str(path)])

    @pytest.mark.parametrize("kind", DIRECTIVES)
    def test_comments_and_blank_lines_are_skipped(self, kind):
        commented = (f"# a comment only\n\n   # indented, q=1 junk\n"
                     f"{DIRECTIVES[kind]}  # trailing, q=1 junk\n")
        assert self.parse(kind, commented) == self.parse(kind, f"\n\n\n{DIRECTIVES[kind]}\n")

    @pytest.mark.parametrize("kind", DIRECTIVES)
    @pytest.mark.parametrize("last, message", [
        ("junk", "malformed field 'junk'"),
        ("q=1", "unknown field 'q'"),
        (None, "duplicate field '{first}'"),  # the line's first field again
    ], ids=["malformed", "unknown", "duplicate"])
    def test_bad_field_names_its_line_and_exits_two(self, capsys, tmp_path, kind, last, message):
        words = DIRECTIVES[kind].split()
        first = next(word for word in words if "=" in word)
        words[-1] = last or first
        text = "# a bad field on line 3\n\n" + " ".join(words) + "\n"
        expected = "line 3: " + message.format(first=first.partition("=")[0])
        with pytest.raises(InstanceError) as exc:
            self.parse(kind, text)
        assert str(exc.value) == expected
        assert self.main_on(kind, tmp_path, text) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"


class TestImportCost:
    @staticmethod
    def loaded(*modules) -> str:
        """Those of `modules` that a fresh `import schedgraph.cli` loads, as a printed list."""
        src = str(Path(schedgraph.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, schedgraph.cli; "
                 f"print([name for name in {modules!r} if name in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True).stdout
        return out.strip()

    def test_cli_import_does_not_load_multiprocessing(self):
        assert self.loaded("concurrent.futures.process") == "[]"

    def test_cli_import_does_not_load_statistics(self):
        # only `bench` takes medians; `statistics` pulls in `fractions` and `decimal`
        assert self.loaded("statistics", "fractions", "decimal") == "[]"
