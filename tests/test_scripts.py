"""Smoke tests for the stand-alone scripts, loaded by path."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "schedulability_sweep.py"


def test_schedulability_sweep_prints_a_rate_per_policy_and_step(capsys):
    spec = importlib.util.spec_from_file_location("schedulability_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    sweep.sweep(1, 2, 0.3, 0.3)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["util", "edf", "fp-edf", "p-fp-edf", "cp", "cw"]
    assert [row.split()[0] for row in rows] == [f"0.{u}" for u in range(1, 10)]
    for row in rows:
        rates = [float(rate) for rate in row.split()[1:]]
        assert len(rates) == 5 and all(0.0 <= rate <= 1.0 for rate in rates)
