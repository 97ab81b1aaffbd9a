"""Acceptance harness: release-gating checks at pinned tolerances.

Each criterion prints one PASS/FAIL line; run `pytest tests/test_acceptance.py -v -s`
to see them all. The shared 100-run ensemble uses the default configuration
(40x40 field, bounded edges, center seed) with base seed 42.
"""
import time

import mpmath as mp
import numpy as np
import pytest

from newsca import (
    Boundary,
    Grid,
    InnovationRuleParams,
    SimulationConfig,
    cross_point,
    fit_logistic,
    fit_model,
    make_rng,
    reference_model,
    run_ensemble,
    step,
)
from newsca.cli import main
from newsca.model import AnalyticModel, LogisticParams
from shapes import is_unimodal, moving_average

mp.mp.dps = 50

FIELD = 1600
ENSEMBLE_RUNS = 100
ENSEMBLE_SEED = 42


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def ensemble():
    start = time.perf_counter()
    result = run_ensemble(SimulationConfig(rng_seed=ENSEMBLE_SEED), ENSEMBLE_RUNS)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_conservation(ensemble):
    result, elapsed = ensemble
    ok = all(
        bool(np.all(tr.counts.sum(axis=1) == FIELD)) for tr in result.trajectories
    )
    ok = ok and elapsed < 10.0
    report(1, "conservation", ok,
           f"every step of {ENSEMBLE_RUNS} runs sums to {FIELD}; ensemble took {elapsed:.2f}s")


def test_criterion_2_convergence_window(ensemble):
    result, elapsed = ensemble
    converged = [c for c in result.converged_steps if c is not None]
    assert len(converged) == ENSEMBLE_RUNS, f"unconverged runs: {result.unconverged}"
    median = float(np.median(converged))
    narrow = sum(1 for c in converged if 80 <= c <= 150) / len(converged)
    band = "narrow [80,150]" if narrow >= 0.5 else "wide [60,200] (calibration documented)"
    ok = 60 <= median <= 200 and elapsed < 60.0
    report(2, "convergence window", ok,
           f"median={median:g}, {narrow:.0%} of runs in [80,150], accepted band: {band}")


def test_criterion_3_stabilization_ratio(ensemble):
    result, _ = ensemble
    white, grey, black = result.mean_fractions[-1]
    ok = 0.65 <= grey <= 0.85 and 0.15 <= white <= 0.35 and black == 0.0
    report(3, "stabilization ratio", ok,
           f"grey={grey:.4f} white={white:.4f} black={black}")


def test_criterion_4_cross_point(ensemble):
    result, _ = ensemble
    cp = cross_point(result.mean_fractions)
    ok = abs(cp.level - 1.0 / 3.0) <= 0.07 and cp.spread <= 0.10
    report(4, "cross point", ok,
           f"step={cp.step} level={cp.level:.4f} spread={cp.spread:.4f}")


def test_criterion_5_bell_shape(ensemble):
    result, _ = ensemble
    black = result.mean_fractions[:, 2]
    smoothed = moving_average(black, 3)
    # Monotone up to one-cell resolution of the underlying counts: mean-level
    # wiggles smaller than a single lattice cell cannot form a second mode.
    one_cell = 1.0 / FIELD
    ok = is_unimodal(smoothed, tol=one_cell) and smoothed[-1] <= one_cell and black[-1] == 0.0
    strict = is_unimodal(smoothed)
    report(5, "bell shape", ok,
           f"peak={smoothed.max():.4f} at step {int(np.argmax(smoothed))}, "
           f"decays to {smoothed[-1]:.2e}; zero-tolerance unimodality: {strict}")


def _oracle(t, c, tau, gamma):
    c, tau, gamma, t = (mp.mpf(v) for v in (c, tau, gamma, t))
    return c / (1 + mp.e ** (-gamma * (t - tau)))


def test_criterion_6_analytic_evaluation():
    model = reference_model()
    worst = 0.0
    for t in (0, 20, 25, 30):
        grey_true = _oracle(t, "0.75", "30", "0.15")
        white_true = 1 - _oracle(t, "0.75", "20", "0.25")
        black_true = _oracle(t, "0.75", "20", "0.25") - _oracle(t, "0.75", "30", "0.15")
        for got, want in zip(model.curves(t), (grey_true, white_true, black_true)):
            worst = max(worst, abs(got - float(want)))
    named = (
        abs(model.curves(0)[1] - 0.994980) < 1e-6
        and abs(model.curves(25)[2] - 0.342358) < 1e-6
        and abs(model.curves(0)[2] - (-0.0032205)) < 1e-6
    )
    ok = worst <= 1e-12 and named
    report(6, "analytic evaluation", ok,
           f"max |curve - oracle| = {worst:.2e} over t in {{0,20,25,30}}")


def test_criterion_7_normalization_identity():
    rng = make_rng(2024)
    worst = 0.0
    for _ in range(100):
        model = AnalyticModel(
            grey=LogisticParams(
                c=rng.uniform(0.05, 1.0),
                tau=rng.uniform(-50, 150),
                gamma=rng.uniform(0.01, 2.0),
            ),
            white=LogisticParams(
                c=rng.uniform(0.05, 1.0),
                tau=rng.uniform(-50, 150),
                gamma=rng.uniform(0.01, 2.0),
            ),
        )
        t = rng.uniform(-200, 300, size=10_000)
        grey, white, black = model.curves(t)
        total = grey + white + black
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    ok = worst <= 1e-12
    report(7, "normalization identity", ok,
           f"max |sum - 1| = {worst:.2e} over 100 models x 10000 steps")


def test_criterion_8_fit_recovery(ensemble):
    model = reference_model()
    t = np.arange(121, dtype=float)
    grey, white, _ = model.curves(t)
    fit = fit_model(t, grey, white)
    assert fit.model is not None
    pairs = [
        (fit.model.grey.c, 0.75), (fit.model.grey.tau, 30.0), (fit.model.grey.gamma, 0.15),
        (fit.model.white.c, 0.75), (fit.model.white.tau, 20.0), (fit.model.white.gamma, 0.25),
    ]
    worst_rel = max(abs(got - want) / want for got, want in pairs)

    result, _ = ensemble
    steps = np.arange(len(result.mean_fractions), dtype=float)
    grey_fit = fit_logistic(steps, result.mean_fractions[:, 1])
    ok = worst_rel <= 1e-3 and grey_fit.converged and grey_fit.rmse <= 0.05
    report(8, "fit recovery", ok,
           f"noiseless worst rel err = {worst_rel:.2e}; ensemble grey rmse = {grey_fit.rmse:.4f}")


def test_criterion_9_absorbing_adoption():
    rng = np.random.default_rng(7)
    params = InnovationRuleParams()
    ok = True
    for _ in range(1000):
        h = int(rng.integers(1, 11))
        w = int(rng.integers(1, 11))
        density = rng.uniform(0, 1)
        cells = (rng.random((h, w)) < density).astype(np.uint8)
        boundary = Boundary.TOROIDAL if rng.random() < 0.5 else Boundary.BOUNDED
        grid = Grid(cells, boundary)
        run_rng = make_rng(int(rng.integers(0, 2**63)))
        adopted = int(np.count_nonzero(grid.cells))
        for _ in range(50):
            grid = step(grid, run_rng, params)
            now = int(np.count_nonzero(grid.cells))
            if now < adopted:
                ok = False
                break
            adopted = now
        if not ok:
            break
    report(9, "absorbing adoption", ok,
           "adopted count never decreased over 1000 grids x 50 steps")


def test_criterion_10_determinism(tmp_path):
    base = ["ensemble", "--seed", str(ENSEMBLE_SEED), "--runs", str(ENSEMBLE_RUNS)]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--jobs", "1", "--outdir", str(a)]) == 0
    assert main(base + ["--jobs", "4", "--outdir", str(b)]) == 0
    files = ["mean_series.csv", "convergence.csv", "summary.json", "manifest.json"]
    ensembles_match = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--seed", "11", "--outdir", str(s1)]) == 0
    assert main(["simulate", "--from-manifest", str(s1 / "manifest.json"),
                 "--outdir", str(s2)]) == 0
    simulations_match = (s1 / "series.csv").read_bytes() == (s2 / "series.csv").read_bytes()

    ok = ensembles_match and simulations_match
    report(10, "determinism", ok,
           "byte-identical outputs across parallelism levels and manifest reruns")
