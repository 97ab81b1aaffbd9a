"""Synchronous lattice stepper, full-run driver, and seeded ensemble executor.

Every cell's next state is computed from a frozen snapshot of the current
grid, then all cells switch at once. Randomness comes from one seeded
numpy PCG64 generator per run; exactly one uniform draw is consumed per
adoptable cell (white / not-adopted) per step, in row-major cell order,
so seeded runs are bit-reproducible regardless of how ensembles are
scheduled.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    AdoptionState,
    Boundary,
    CellState,
    Grid,
    count_adoption,
    count_states,
    neighbor_counts,
    neighborhood,
    new_grid,
)
from .rules import (
    InnovationRuleParams,
    NewsRuleParams,
    next_innovation_state,
    next_news_state,
)

# Recorded in output manifests; changing the generator breaks reproducibility.
GENERATOR_NAME = "numpy-pcg64"

RuleParams = NewsRuleParams | InnovationRuleParams


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation; equal configs give identical runs.

    ``seed_position=None`` places the initial seed cell at the grid center.
    ``rule_params`` selects the model: NewsRuleParams for the three-state
    news automaton, InnovationRuleParams for the two-state adoption one.
    """

    width: int = 40
    height: int = 40
    seed_position: tuple[int, int] | None = None
    boundary: Boundary = Boundary.BOUNDED
    rng_seed: int = 0
    max_steps: int = 1000
    rule_params: RuleParams = field(default_factory=NewsRuleParams)
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.seed_position is not None:
            r, c = self.seed_position
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValueError(f"seed position {self.seed_position} out of bounds")

    @property
    def field_size(self) -> int:
        return self.width * self.height

    def initial_grid(self) -> Grid:
        return new_grid(
            self.width, self.height, self.seed_position, self.boundary, self.rule_params.seed_state
        )


@dataclass
class Trajectory:
    """Observable record of one run.

    ``counts[t]`` holds the (white, grey, black) cell counts of step ``t``,
    starting from the initial state at ``t = 0``; every row sums to the
    field size. For innovation runs the columns carry (not adopted, 0,
    adopted). ``converged_at`` is the index of the first recorded state
    that is a fixed point, ``max_steps`` included (None if the state at
    ``max_steps`` is still live); the trajectory ends at that state.
    ``black_extinct_at`` is the first step with no fresh-news cells.
    """

    counts: np.ndarray
    converged_at: int | None
    black_extinct_at: int | None
    snapshots: list[tuple[int, Grid]]
    final_grid: Grid

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def steps(self) -> int:
        return len(self.counts) - 1


@dataclass
class EnsembleResult:
    """Aggregate of independent seeded runs of one configuration.

    ``mean_fractions[t]`` is the across-run mean of (white, grey, black)
    fractions at step ``t``; runs that converge early hold their final
    fractions through the longest run's horizon. Per-run convergence steps
    are kept in full; non-converged runs are flagged, never dropped.
    """

    config: SimulationConfig
    runs: int
    run_seeds: list[int]
    mean_fractions: np.ndarray
    converged_steps: list[int | None]
    black_extinct_steps: list[int | None]
    trajectories: list[Trajectory]

    @property
    def base_seed(self) -> int:
        return self.config.rng_seed

    @property
    def unconverged(self) -> list[int]:
        return [i for i, c in enumerate(self.converged_steps) if c is None]

    def convergence_stats(self) -> tuple[float, float, float] | None:
        """(min, median, max) of converged runs' convergence steps, or None."""
        done = [c for c in self.converged_steps if c is not None]
        if not done:
            return None
        return float(min(done)), float(np.median(done)), float(max(done))


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: PCG64 under the numpy Generator API."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_run_seeds(base_seed: int, runs: int) -> list[int]:
    """Deterministic per-run 64-bit seeds hashed from the base seed.

    Prefix-stable: run ``i`` gets the same seed regardless of ``runs``.
    """
    state = np.random.SeedSequence(base_seed).generate_state(runs, dtype=np.uint64)
    return [int(s) for s in state]


# The largest value ``rng.random()`` returns. Adoption tests are monotone in
# the draw, so a cell that does not adopt at this draw can never adopt.
_MAX_DRAW = np.nextafter(1.0, 0.0)


def _news_adopts(draws, m: np.ndarray, params: NewsRuleParams) -> np.ndarray:
    p_eff = np.where(m < params.boost_below, draws * params.boost_factor, draws)
    return p_eff * m > params.adoption_threshold


def _innovation_adopts(draws, m: np.ndarray, params: InnovationRuleParams) -> np.ndarray:
    return draws * m > params.threshold


def _step_news(grid: Grid, rng: np.random.Generator, params: NewsRuleParams) -> Grid:
    cells = grid.cells
    white = cells == CellState.WHITE
    grey = cells == CellState.GREY
    black = cells == CellState.BLACK
    white_nb = neighbor_counts(white, grid.boundary)
    new = cells.copy()
    # Deterministic transitions: stale out / forget wherever no white neighbor remains.
    new[black & (white_nb == 0)] = CellState.GREY
    new[grey & (white_nb == 0)] = CellState.WHITE
    # Stochastic adoption: one draw per white cell, row-major.
    rows, cols = np.nonzero(white)
    if rows.size:
        draws = rng.random(rows.size)
        m = neighbor_counts(black, grid.boundary)[rows, cols]
        fires = _news_adopts(draws, m, params)
        new[rows[fires], cols[fires]] = CellState.BLACK
    return Grid(new, grid.boundary)


def _step_innovation(grid: Grid, rng: np.random.Generator, params: InnovationRuleParams) -> Grid:
    cells = grid.cells
    adopted = cells == AdoptionState.ADOPTED
    rows, cols = np.nonzero(~adopted)
    new = cells.copy()
    if rows.size:
        draws = rng.random(rows.size)
        m = neighbor_counts(adopted, grid.boundary)[rows, cols]
        fires = _innovation_adopts(draws, m, params)
        new[rows[fires], cols[fires]] = AdoptionState.ADOPTED
    return Grid(new, grid.boundary)


@lru_cache(maxsize=16)
def _can_adopt(params: RuleParams) -> tuple[np.ndarray, bool]:
    """(``table``, ``always``): ``table[m]`` tells whether an adoptable cell with
    ``m`` neighbors in the spreading state (black / adopted) can ever adopt,
    and ``always`` whether every ``m`` from 1 to 8 can."""
    table = _MODELS[type(params)].adopts(_MAX_DRAW, np.arange(9), params)
    return table, bool(table[1:].all())


def _news_fixed(grid: Grid, row: tuple[int, int, int], params: NewsRuleParams) -> bool:
    # Fixed when no cell can change: every black or grey cell has a white
    # neighbor, and no white cell can adopt from its black neighbors.
    if row[2] and _can_adopt(params)[1]:
        return False  # a black cell's white neighbor can adopt, or the cell goes stale
    cells = grid.cells
    white = cells == CellState.WHITE
    if np.any(~white & (neighbor_counts(white, grid.boundary) == 0)):
        return False
    if not row[2]:
        return True  # no white cell has a black neighbor
    m = neighbor_counts(cells == CellState.BLACK, grid.boundary)
    return not bool(np.any(white & _can_adopt(params)[0][m]))


def _innovation_frozen(grid: Grid, row: tuple[int, int, int], params: InnovationRuleParams) -> bool:
    # Adoption is permanent, so only a not-adopted cell that can adopt keeps the run live.
    adopted = grid.cells == AdoptionState.ADOPTED
    m = neighbor_counts(adopted, grid.boundary)
    return not bool(np.any(~adopted & _can_adopt(params)[0][m]))


def _innovation_row(grid: Grid) -> tuple[int, int, int]:
    not_adopted, adopted = count_adoption(grid)
    return not_adopted, 0, adopted


class _Model(NamedTuple):
    """What the engine needs to run one model."""

    transition: Callable  # (grid, rng, params) -> next grid, vectorized
    adopts: Callable  # (draws, m, params) -> the transition's adoption test, vectorized
    cell_rule: Callable  # (state, neighbors, draw, params) -> next state of one cell
    fixed: Callable  # (grid, count row, params) -> no step can change the grid
    count_row: Callable  # grid -> (white, grey, black) row of the trajectory


# The only place that tells the models apart, keyed by the rule parameters'
# type. count_states is looked up at call time, so a wrapper installed on
# newsca.engine.count_states (as the benchmark's tracer does) sees each call.
_MODELS = {
    NewsRuleParams: _Model(
        _step_news, _news_adopts, next_news_state, _news_fixed, lambda grid: count_states(grid)
    ),
    InnovationRuleParams: _Model(
        _step_innovation, _innovation_adopts, next_innovation_state, _innovation_frozen, _innovation_row
    ),
}


def step(grid: Grid, step_index: int, rng: np.random.Generator, params: RuleParams) -> Grid:
    """One synchronous update of the whole grid, computed from the old grid.

    ``step_index`` is threaded through for rules that depend on time; the
    built-in rules ignore it beyond the RNG stream position. Consumes one
    uniform draw per adoptable cell, in row-major order of those cells.
    """
    del step_index
    return _MODELS[type(params)].transition(grid, rng, params)


def step_reference(
    grid: Grid, step_index: int, rng: np.random.Generator, params: RuleParams
) -> Grid:
    """Per-cell slow path: applies the pure rule functions cell by cell.

    Kept for cross-checking the vectorized stepper; both consume the RNG
    stream identically, so results are bit-identical for equal seeds.
    """
    del step_index
    rule = _MODELS[type(params)].cell_rule
    states = type(params.seed_state)  # the model's state enum
    new = grid.cells.copy()
    for r in range(grid.height):
        for c in range(grid.width):
            state = states(int(grid.cells[r, c]))
            # Code 0 (white / not adopted) is the one adoptable state.
            p = rng.random() if state == 0 else 0.0
            new[r, c] = rule(state, neighborhood(grid, (r, c)), p, params)
    return Grid(new, grid.boundary)


def run(config: SimulationConfig) -> Trajectory:
    """Run one simulation until it reaches a fixed point or ``max_steps``.

    Every recorded state, the initial one and the one at ``max_steps``
    included, is tested for being a fixed point: a state no further step
    can change. No cell can change when no black or grey news cell lacks a
    white neighbor and no white or not-adopted cell can adopt, even at the
    largest draw. A run still live at ``max_steps`` is reported distinctly
    via ``converged_at=None``.
    """
    params = config.rule_params
    model = _MODELS[type(params)]
    rng = make_rng(config.rng_seed)
    grid = config.initial_grid()
    row = model.count_row(grid)
    counts = [row]
    snapshots: list[tuple[int, Grid]] = []
    every = config.snapshot_every
    black_extinct_at: int | None = None

    t = 0
    while True:
        if black_extinct_at is None and row[2] == 0:
            black_extinct_at = t
        if every is not None and t % every == 0:
            snapshots.append((t, grid.copy()))
        fixed = model.fixed(grid, row, params)
        if fixed or t == config.max_steps:
            break
        grid = step(grid, t, rng, params)
        t += 1
        row = model.count_row(grid)
        counts.append(row)

    return Trajectory(
        counts=np.array(counts, dtype=np.int64),
        converged_at=t if fixed else None,
        black_extinct_at=black_extinct_at,
        snapshots=snapshots,
        final_grid=grid,
    )


def run_ensemble(config: SimulationConfig, runs: int, jobs: int = 1) -> EnsembleResult:
    """Execute ``runs`` independent simulations and average their fractions.

    Per-run seeds come from :func:`derive_run_seeds` on ``config.rng_seed``;
    each run owns a private generator, and aggregation sums in run-index
    order, so the result is identical for any ``jobs`` (thread count).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = derive_run_seeds(config.rng_seed, runs)
    configs = [replace(config, rng_seed=s) for s in seeds]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trajectories = list(pool.map(run, configs))
    else:
        trajectories = [run(c) for c in configs]

    field_size = float(config.field_size)
    horizon = max(len(tr.counts) for tr in trajectories)
    stacked = np.empty((runs, horizon, 3), dtype=np.float64)
    for i, tr in enumerate(trajectories):
        frac = tr.counts / field_size
        stacked[i, : len(frac)] = frac
        stacked[i, len(frac):] = frac[-1]  # hold the fixed point
    mean = stacked.mean(axis=0)

    return EnsembleResult(
        config=config,
        runs=runs,
        run_seeds=seeds,
        mean_fractions=mean,
        converged_steps=[tr.converged_at for tr in trajectories],
        black_extinct_steps=[tr.black_extinct_at for tr in trajectories],
        trajectories=trajectories,
    )
