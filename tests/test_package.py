"""The package's public surface: exactly the names listed here, each one real;
README's Python examples run as written and its dotted names resolve; its
import cost: scipy loads only when a fit runs, and the thread pool only when
an ensemble runs on more than one job; and its module entry point."""
import importlib
import os
import re
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
    "Trajectory", "cross_point", "derive_run_seeds", "fit_logistic",
    "fit_model", "grid_from_text", "grid_to_text", "logistic", "make_rng", "normalize",
    "reference_model", "run", "run_ensemble", "stabilization_ratio", "step",
}


def test_all_is_the_public_set():
    assert sorted(newsca.__all__) == sorted(PUBLIC)  # no name missing, extra or listed twice
    for name in newsca.__all__:
        # getattr raises on a name that does not resolve; no submodule is exported.
        assert not isinstance(getattr(newsca, name), types.ModuleType), name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # In order and in one namespace, as a reader pastes them: a later block may use an earlier one's names.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_dotted_names_resolve():
    # Each backticked ``newsca.<...>`` name: the longest prefix that imports as a module, then getattr for the rest.
    names = sorted(set(re.findall(r"`(newsca(?:\.\w+)+)", README.read_text(encoding="utf-8"))))
    assert names
    for name in names:
        parts = name.split(".")
        k = len(parts)
        while True:
            try:
                obj = importlib.import_module(".".join(parts[:k]))
                break
            except ModuleNotFoundError:
                k -= 1
        for attr in parts[k:]:
            assert hasattr(obj, attr), f"README names {name}, but {obj.__name__} has no {attr!r}"
            obj = getattr(obj, attr)


def _cli(*args):
    return f"from newsca.cli import main; main({list(args)!r} + ['--outdir', OUT])"


def _python(*args):
    """``python *args`` in a fresh interpreter that imports this checkout's newsca; its output is captured."""
    src = str(Path(newsca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
    done = _python("-c", f"OUT = {str(tmp_path)!r}\n{snippet}\n{check}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{loads_scipy} {loads_threads}"


# README's module entry point, the package's only one.
def test_python_m_newsca():
    done = _python("-m", "newsca", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"newsca {newsca.__version__}\n", "")
    done = _python("-m", "newsca")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
