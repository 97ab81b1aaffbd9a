"""Per-cell oracle: the slow model the vectorized stepper is checked against.

Everything here works one cell at a time, straight from the rules: Moore
neighborhoods and the neighbor counts read from them, per-state counts, the
scalar transition of each model and :func:`step_reference`, which applies
them cell by cell. The transitions call each model's scalar rule
``params.adopts``, the one definition of adoption. None of the kernel's
own code in :mod:`newsca.engine` (its census, block sums and the cutoff
table it reads the rule through) is used here, so the two agreeing is a
real check. Randomness enters only through an explicit uniform draw ``p``
in [0, 1), supplied by the caller; only code-0 (white / not adopted) cells
consume a draw, and the other transitions are deterministic functions of
the neighborhood.
"""
from __future__ import annotations

from enum import IntEnum

import numpy as np

from .grid import Boundary, Grid
from .rules import AdoptionState, CellState, InnovationRuleParams, NewsRuleParams

# Row-major offset order; fixed so seeded runs are bit-reproducible.
MOORE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def neighborhood(grid: Grid, position: tuple[int, int]) -> np.ndarray:
    """States of the Moore neighbors of ``position``, in MOORE_OFFSETS order.

    The cell's own state is never sampled (the (0, 0) offset is excluded).
    Bounded grids return only in-bounds neighbors, so corners yield 3 states
    and edges 5. Toroidal grids always yield 8 by wrapping; on degenerate
    grids narrower than 3 cells the wrapped positions may coincide with each
    other or with the center cell.
    """
    r, c = position
    if not (0 <= r < grid.height and 0 <= c < grid.width):
        raise IndexError(f"position {position} out of bounds for {grid.width}x{grid.height}")
    states = []
    for dr, dc in MOORE_OFFSETS:
        rr, cc = r + dr, c + dc
        if grid.boundary is Boundary.TOROIDAL:
            states.append(grid.cells[rr % grid.height, cc % grid.width])
        elif 0 <= rr < grid.height and 0 <= cc < grid.width:
            states.append(grid.cells[rr, cc])
    return np.array(states, dtype=np.uint8)


def neighbor_counts(mask: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Per-cell count of True Moore neighbors of a boolean (height, width)
    mask, or of each mask of a (runs, height, width) stack, read cell by
    cell from :func:`neighborhood`. Counts are uint8 (at most 8)."""
    if mask.ndim == 3:
        return np.stack([neighbor_counts(m, boundary) for m in mask])
    grid = Grid(mask, boundary)
    return np.array([[np.count_nonzero(neighborhood(grid, (r, c))) for c in range(grid.width)]
                     for r in range(grid.height)], dtype=np.uint8)


def _count_codes(grid: Grid, states: type[IntEnum]) -> list[int]:
    """Count of each code of the ``states`` alphabet; ValueError on any other code."""
    size = len(states)
    counts = np.bincount(grid.cells.ravel(), minlength=size)
    if len(counts) > size:
        raise ValueError(f"cell code {len(counts) - 1} is not a {states.__name__}")
    return counts.tolist()


def count_states(grid: Grid) -> tuple[int, int, int]:
    """(white, grey, black) cell counts of a news grid; always sums to width*height."""
    return tuple(_count_codes(grid, CellState))


def count_adoption(grid: Grid) -> tuple[int, int]:
    """(not adopted, adopted) cell counts of an innovation grid."""
    return tuple(_count_codes(grid, AdoptionState))


def next_news_state(
    current: CellState,
    neighbors: np.ndarray,
    p: float,
    params: NewsRuleParams = NewsRuleParams(),
) -> CellState:
    """One synchronous-update transition of a single news-model cell.

    - white turns black iff ``params.adopts`` fires for its black-neighbor
      count (``p`` must be a fresh draw for this cell at this step);
    - black turns grey iff no neighbor is white (the news has saturated its
      vicinity and goes stale);
    - grey turns white iff no neighbor is white (well-known information is
      forgotten).

    An empty neighborhood satisfies the no-white condition vacuously.
    """
    nb = np.asarray(neighbors)
    if current == CellState.WHITE:
        m = int(np.count_nonzero(nb == CellState.BLACK))
        return CellState.BLACK if params.adopts(m, p) else CellState.WHITE
    has_white = bool(np.any(nb == CellState.WHITE))
    if current == CellState.BLACK:
        return CellState.BLACK if has_white else CellState.GREY
    return CellState.GREY if has_white else CellState.WHITE


def next_innovation_state(
    current: AdoptionState,
    neighbors: np.ndarray,
    p: float,
    params: InnovationRuleParams = InnovationRuleParams(),
) -> AdoptionState:
    """One transition of a single innovation-model cell; adoption is permanent."""
    if current == AdoptionState.ADOPTED:
        return AdoptionState.ADOPTED
    m = int(np.count_nonzero(np.asarray(neighbors) == AdoptionState.ADOPTED))
    return AdoptionState.ADOPTED if params.adopts(m, p) else AdoptionState.NOT_ADOPTED


# The per-cell rule of each model, applied by step_reference.
_CELL_RULES = {NewsRuleParams: next_news_state, InnovationRuleParams: next_innovation_state}


def step_reference(
    grid: Grid, step_index: int, rng: np.random.Generator, params: NewsRuleParams | InnovationRuleParams
) -> Grid:
    """One synchronous update of a single grid, applying the per-cell rules cell by cell.

    Every code-0 cell draws ``rng.random()`` in row-major order, as
    :func:`newsca.engine.step` does, so equal seeds give bit-identical
    results. ``step_index`` is ignored.
    """
    del step_index
    rule = _CELL_RULES[type(params)]
    states = type(params.seed_state)  # the model's state enum
    new = grid.cells.copy()
    for r in range(grid.height):
        for c in range(grid.width):
            state = states(int(grid.cells[r, c]))
            # Code 0 (white / not adopted) is the one adoptable state.
            p = rng.random() if state == 0 else 0.0
            new[r, c] = rule(state, neighborhood(grid, (r, c)), p, params)
    return Grid(new, grid.boundary)
