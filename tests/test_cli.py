from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import schedgraph
from schedgraph import ME, GenSpec, PolicyKind, generate, generate_instance
from schedgraph.cli import compare_verdicts, main
from support import ANOMALY, EDF_JITTER, PRECAUTIOUS_IDLE

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
            "required": ["levels", "wall_ms"],
            "properties": {
                "levels": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["vertices", "arcs"],
                    },
                },
                "wall_ms": {"type": "number"},
            },
        },
    },
}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


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

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["analyze", str(EDF_JITTER), "--format", "json",
                     "--out", str(target)])
        assert code == 0
        jsonschema.validate(json.loads(target.read_text()), ANALYZE_SCHEMA)


class TestSimulate:
    def test_scenario_without_miss(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("J 1 1 r=5 c=7\nJ 2 1 r=1 c=4\nJ 2 2 r=11 c=4\n"
                            "J 3 1 r=0 c=1\nJ 3 2 r=5 c=1\nJ 3 3 r=10 c=1\n"
                            "J 3 4 r=15 c=1\n")
        code, out = run(capsys, "simulate", str(ANOMALY), "--scenario",
                        str(scenario), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["misses"] == []
        assert {"task": 1, "job": 1, "start": 6, "finish": 13} in data["dispatches"]

    def test_scenario_with_miss_exits_one(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("J 1 1 r=2 c=7\nJ 2 1 r=1 c=2\nJ 2 2 r=11 c=4\n"
                            "J 3 1 r=0 c=1\nJ 3 2 r=5 c=1\nJ 3 3 r=10 c=1\n"
                            "J 3 4 r=15 c=1\n")
        code, out = run(capsys, "simulate", str(ANOMALY), "--scenario",
                        str(scenario), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["misses"] == [{"task": 3, "job": 2, "finish": 11, "deadline": 10}]

    def test_invalid_scenario_exits_two(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("J 1 1 r=0 c=7\n")  # release below r_min, jobs missing
        assert main(["simulate", str(ANOMALY), "--scenario", str(scenario)]) == 2


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

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SAG_MAX_SCENARIOS", "10")
        assert main(["brute-force", str(ANOMALY)]) == 2
        monkeypatch.setenv("SAG_MAX_SCENARIOS", "1000")
        capsys.readouterr()
        assert main(["brute-force", str(ANOMALY)]) == 1


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

    def test_disagreement_is_a_hard_failure(self):
        assert compare_verdicts("schedulable", "non-schedulable") is False
        assert compare_verdicts("schedulable", "schedulable") is True
        assert compare_verdicts("non-schedulable", "skipped") is True

    def test_forced_disagreement_fails_the_process(self, capsys, monkeypatch):
        import schedgraph.cli as cli
        from schedgraph import OracleReport

        def fake_oracle(*args, **kwargs):
            return OracleReport(False, 1, 1, {}, {}, None)

        monkeypatch.setattr(cli, "enumerate_scenarios", fake_oracle)
        code = main(["compare", str(EDF_JITTER), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "exactness violation" in captured.err


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

    def test_parallel_output_matches_serial(self, capsys, tmp_path):
        spec = tmp_path / "bench.txt"
        spec.write_text("bench tasks=3 util=0.3 rj=0.1 rc=0.1 seeds=4\n")
        code, serial = run(capsys, "bench", str(spec))
        assert code == 0
        code, parallel = run(capsys, "bench", str(spec), "--jobs", "2")
        assert code == 0

        def strip_timing(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]

        assert strip_timing(serial) == strip_timing(parallel)


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


class TestImportCost:
    def test_cli_import_does_not_load_multiprocessing(self):
        src = str(Path(schedgraph.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, schedgraph.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
