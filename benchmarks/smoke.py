#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 benchmarks/smoke.py

For each workload: one untimed-size run must pass every check, and two
traced runs must pass every check and report exactly the same counts. Exits
non-zero on the first failure. Also collectable by pytest when named
explicitly (``python -m pytest benchmarks/smoke.py``); the file name keeps
it out of the repository's default test collection.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread pins before numpy loads)

sys.path.insert(0, str(run.ROOT / "src"))
run.WORK_ROOT.mkdir(exist_ok=True)

EXACT_UNITS = ("count", "bytes")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _smoke(name: str) -> None:
    plain = run.run_workload(name, seed=7, seconds=0.5, trace=False, tiny=True)
    _check(plain["correct"], f"{name}: {plain['failures']}")
    _check(set(plain["metrics"]) == {"setup_s", "wall_s", "work_per_s", "peak_rss_mb"}, f"{name}: metrics")

    first, second = (run.run_workload(name, seed=7, seconds=0.5, trace=True, tiny=True) for _ in range(2))
    for res in (first, second):
        _check(res["correct"], f"{name} traced: {res['failures']}")
    exact = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] in EXACT_UNITS}
    again = {k: m["value"] for k, m in second["metrics"].items() if m["unit"] in EXACT_UNITS}
    _check(exact == again, f"{name}: traced counts differ: {exact} vs {again}")
    _check(exact["engine.step.calls"] > 0 and exact["engine.rng.draws"] > 0, f"{name}: nothing traced")


def test_ensemble_40() -> None:
    _smoke("ensemble-40")


def test_field_large() -> None:
    _smoke("field-large")


def test_fit_batch() -> None:
    _smoke("fit-batch")


def test_innovation_torus() -> None:
    _smoke("innovation-torus")


if __name__ == "__main__":
    for workload in run.WORKLOAD_NAMES:
        _smoke(workload)
        print(f"ok {workload}")
