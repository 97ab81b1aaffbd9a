"""The package's public surface: exactly the names listed here, each one real."""
import types

import newsca

PUBLIC = {
    "__version__",
    "ADOPTION_CHARS", "AdoptionState", "AnalyticModel", "Boundary", "CellState", "CrossPoint",
    "EnsembleResult", "FitResult", "GENERATOR_NAME", "Grid", "InnovationRuleParams",
    "LogisticParams", "MAX_CELLS", "ModelFit", "NEWS_CHARS", "NewsRuleParams", "SimulationConfig",
    "Trajectory", "cross_point", "derive_run_seeds", "eval_black", "eval_grey", "eval_white",
    "fit_logistic", "fit_model", "grid_from_text", "grid_to_text", "logistic", "make_rng",
    "new_grid", "normalize", "reference_model", "run", "run_ensemble", "stabilization_ratio",
    "step",
}



def test_all_is_the_public_set():
    assert sorted(newsca.__all__) == sorted(PUBLIC)  # no name missing, extra or listed twice
    for name in newsca.__all__:
        # getattr raises on a name that does not resolve; no submodule is exported.
        assert not isinstance(getattr(newsca, name), types.ModuleType), name
