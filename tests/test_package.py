"""The package's public surface: exactly the names listed here, each one real;
and its import cost: scipy loads only when a fit runs, and the thread pool
only when an ensemble runs on more than one job."""
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import newsca

PUBLIC = {
    "__version__",
    "ADOPTION_CHARS", "AdoptionState", "AnalyticModel", "Boundary", "CellState", "CrossPoint",
    "EnsembleResult", "FitResult", "GENERATOR_NAME", "Grid", "InnovationRuleParams",
    "LogisticParams", "MAX_CELLS", "ModelFit", "NEWS_CHARS", "NewsRuleParams", "SimulationConfig",
    "Trajectory", "cross_point", "derive_run_seeds", "eval_black", "eval_grey", "eval_white",
    "fit_logistic", "fit_model", "grid_from_text", "grid_to_text", "logistic", "make_rng",
    "normalize", "reference_model", "run", "run_ensemble", "stabilization_ratio",
    "step",
}


def test_all_is_the_public_set():
    assert sorted(newsca.__all__) == sorted(PUBLIC)  # no name missing, extra or listed twice
    for name in newsca.__all__:
        # getattr raises on a name that does not resolve; no submodule is exported.
        assert not isinstance(getattr(newsca, name), types.ModuleType), name


def _cli(*args):
    return f"from newsca.cli import main; main({list(args)!r} + ['--outdir', OUT])"


# Each snippet runs in a fresh interpreter with OUT set to a temporary directory.
@pytest.mark.parametrize("snippet,loads_scipy,loads_threads", [
    ("import newsca", False, False),
    ("import newsca.cli", False, False),
    (_cli("simulate", "--width", "8", "--height", "6", "--max-steps", "4"), False, False),
    (_cli("ensemble", "--width", "8", "--height", "6", "--runs", "3", "--jobs", "1"), False, False),
    (_cli("ensemble", "--width", "8", "--height", "6", "--runs", "3", "--jobs", "2"), False, True),
    (_cli("eval-model", "--t-max", "20"), False, False),
    # scipy.optimize imports concurrent.futures itself.
    (_cli("eval-model", "--t-max", "60") + "; main(['fit', '--input', OUT + '/model_series.csv', '--outdir', OUT])",
     True, True),
], ids=["import", "import-cli", "simulate", "ensemble", "ensemble-jobs-2", "eval-model", "fit"])
def test_scipy_loads_only_for_a_fit(tmp_path, snippet, loads_scipy, loads_threads):
    check = ("import sys; print(any(m.split('.')[0] == 'scipy' for m in sys.modules), "
             "'concurrent.futures' in sys.modules)")
    src = str(Path(newsca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", f"OUT = {str(tmp_path)!r}\n{snippet}\n{check}"],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == f"{loads_scipy} {loads_threads}"
