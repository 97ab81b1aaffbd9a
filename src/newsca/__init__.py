"""Three-state lattice model of news diffusion.

A news item starts on one cell of a rectangular field and spreads to
neighbors that draw a lucky chance, goes stale once its vicinity has heard
it, and is eventually forgotten. The package provides the synchronous
simulator, a seeded ensemble executor, trajectory analytics, the matching
closed-form logistic curves, a least-squares fitting pipeline, and a CLI.
"""
import types as _types

__version__ = "0.1.0"

from .analytics import CrossPoint, cross_point, normalize, stabilization_ratio
from .engine import (GENERATOR_NAME, MAX_CELLS, EnsembleResult, SimulationConfig, Trajectory,
                     derive_run_seeds, make_rng, run, run_ensemble, step)
from .grid import Boundary, Grid, grid_from_text, grid_to_text
from .model import (AnalyticModel, FitResult, LogisticParams, ModelFit, fit_logistic, fit_model,
                    logistic, reference_model)
from .rules import (ADOPTION_CHARS, NEWS_CHARS, AdoptionState, CellState, InnovationRuleParams,
                    NewsRuleParams)

# Every name imported above; the submodules they come from are bound here too, but are not exported.
__all__ = ["__version__", *sorted(name for name, value in globals().items()
                                  if not name.startswith("_") and not isinstance(value, _types.ModuleType))]
