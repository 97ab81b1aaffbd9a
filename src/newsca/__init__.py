"""Three-state lattice model of news diffusion.

A news item starts on one cell of a rectangular field and spreads to
neighbors that draw a lucky chance, goes stale once its vicinity has heard
it, and is eventually forgotten. The package provides the synchronous
simulator, a seeded ensemble executor, trajectory analytics, the matching
closed-form logistic curves, a least-squares fitting pipeline, and a CLI.
"""

__version__ = "0.1.0"

from .analytics import (
    CrossPoint,
    cross_point,
    is_unimodal,
    moving_average,
    normalize,
    stabilization_ratio,
)
from .engine import (
    GENERATOR_NAME,
    MAX_CELLS,
    EnsembleResult,
    SimulationConfig,
    Trajectory,
    derive_run_seeds,
    make_rng,
    run,
    run_ensemble,
    step,
)
from .grid import (
    ADOPTION_CHARS,
    NEWS_CHARS,
    AdoptionState,
    Boundary,
    CellState,
    Grid,
    grid_from_text,
    grid_to_text,
    new_grid,
)
from .model import (
    AnalyticModel,
    FitResult,
    LogisticParams,
    ModelFit,
    eval_black,
    eval_grey,
    eval_white,
    fit_logistic,
    fit_model,
    logistic,
    reference_model,
)
from .rules import (
    InnovationRuleParams,
    NewsRuleParams,
    adopts_news,
)

__all__ = [
    "__version__",
    "ADOPTION_CHARS",
    "AdoptionState",
    "AnalyticModel",
    "Boundary",
    "CellState",
    "CrossPoint",
    "EnsembleResult",
    "FitResult",
    "GENERATOR_NAME",
    "Grid",
    "InnovationRuleParams",
    "LogisticParams",
    "MAX_CELLS",
    "ModelFit",
    "NEWS_CHARS",
    "NewsRuleParams",
    "SimulationConfig",
    "Trajectory",
    "adopts_news",
    "cross_point",
    "derive_run_seeds",
    "eval_black",
    "eval_grey",
    "eval_white",
    "fit_logistic",
    "fit_model",
    "grid_from_text",
    "grid_to_text",
    "is_unimodal",
    "logistic",
    "make_rng",
    "moving_average",
    "new_grid",
    "normalize",
    "reference_model",
    "run",
    "run_ensemble",
    "stabilization_ratio",
    "step",
]
