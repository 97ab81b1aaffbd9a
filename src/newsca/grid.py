"""Lattice data model: cell states, grid storage, Moore neighborhoods, counting.

Cells live on a rectangular lattice stored row-major as small integer codes.
Two state alphabets share the same storage: the three-state news model
(white / grey / black) and the two-state innovation model (not adopted /
adopted). Both start as a field of code 0 (white / not adopted) with one
seed cell, made by :func:`new_grid`. Neighborhoods are the eight Moore
neighbors, truncated at the edges of a bounded grid or wrapped on a
toroidal one.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class CellState(IntEnum):
    """News-model cell state."""

    WHITE = 0  # no information: never reached, or forgotten
    GREY = 1   # stale news, retained as information
    BLACK = 2  # fresh news


class AdoptionState(IntEnum):
    """Innovation-model cell state. ADOPTED is absorbing."""

    NOT_ADOPTED = 0
    ADOPTED = 1


class Boundary(Enum):
    """Edge handling: truncated neighborhoods or periodic wraparound."""

    BOUNDED = "bounded"
    TOROIDAL = "toroidal"


# Row-major offset order; fixed so seeded runs are bit-reproducible.
MOORE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

# ASCII serialization alphabets (one character per cell).
NEWS_CHARS = {CellState.WHITE: ".", CellState.GREY: "o", CellState.BLACK: "#"}
ADOPTION_CHARS = {AdoptionState.NOT_ADOPTED: ".", AdoptionState.ADOPTED: "#"}


@dataclass
class Grid:
    """Rectangular lattice of cell-state codes with a boundary mode.

    ``cells`` is a (height, width) uint8 array; row-major iteration order is
    the canonical cell order everywhere in this package.
    """

    cells: np.ndarray
    boundary: Boundary = Boundary.BOUNDED

    def __post_init__(self) -> None:
        self.cells = np.ascontiguousarray(self.cells, dtype=np.uint8)
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if self.cells.shape[0] < 1 or self.cells.shape[1] < 1:
            raise ValueError("grid dimensions must be at least 1x1")

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def field_size(self) -> int:
        return self.cells.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.boundary is other.boundary and np.array_equal(self.cells, other.cells)

    def copy(self) -> "Grid":
        return Grid(self.cells.copy(), self.boundary)


def new_grid(
    width: int,
    height: int,
    seed_position: tuple[int, int] | None = None,
    boundary: Boundary = Boundary.BOUNDED,
    seed_state: int = CellState.BLACK,
) -> Grid:
    """Grid of code-0 cells (white / not adopted) with one seed cell.

    ``seed_state`` is the seed's code: ``CellState.BLACK`` for a news grid,
    ``AdoptionState.ADOPTED`` for an innovation grid. ``seed_position`` is
    (row, col); ``None`` seeds the grid center, which maximizes room for
    symmetric growth.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    if seed_position is None:
        seed_position = (height // 2, width // 2)
    r, c = seed_position
    if not (0 <= r < height and 0 <= c < width):
        raise ValueError(f"seed position {seed_position} out of bounds for {width}x{height}")
    cells = np.zeros((height, width), dtype=np.uint8)
    cells[r, c] = seed_state
    return Grid(cells, boundary)


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
    """Per-cell count of True Moore neighbors of a boolean (height, width) mask.

    Vectorized companion of :func:`neighborhood`: the mask is copied into a
    one-cell halo that holds zeros on bounded grids and the opposite edges
    on toroidal ones, then the eight offset slices of the halo are summed.
    """
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.int64)
    padded[1:-1, 1:-1] = mask
    if boundary is Boundary.TOROIDAL:
        # Rows first, then whole columns, so the corners wrap too.
        padded[0], padded[-1] = padded[-2], padded[1]
        padded[:, 0], padded[:, -1] = padded[:, -2], padded[:, 1]
    out = np.zeros((h, w), dtype=np.int64)
    for dr, dc in MOORE_OFFSETS:
        out += padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
    return out


def _count_codes(grid: Grid, states: type[IntEnum]) -> list[int]:
    """Count of each code of the ``states`` alphabet; ValueError on any other code."""
    size = len(states)
    counts = np.bincount(grid.cells.ravel(), minlength=size)
    if len(counts) > size:
        raise ValueError(f"cell code {len(counts) - 1} is not a {states.__name__}")
    return counts.tolist()


def count_states(grid: Grid) -> tuple[int, int, int]:
    """(white, grey, black) cell counts of a news grid; always sums to width*height."""
    white, grey, black = _count_codes(grid, CellState)
    return white, grey, black


def count_adoption(grid: Grid) -> tuple[int, int]:
    """(not adopted, adopted) cell counts of an innovation grid."""
    not_adopted, adopted = _count_codes(grid, AdoptionState)
    return not_adopted, adopted


def grid_to_text(grid: Grid, chars: dict | None = None) -> str:
    """Serialize a grid as ASCII: a "<width> <height> <boundary>" header line,
    then one row per line ('.'=white, 'o'=grey, '#'=black for news grids)."""
    chars = NEWS_CHARS if chars is None else chars
    lut = {int(k): v for k, v in chars.items()}
    lines = [f"{grid.width} {grid.height} {grid.boundary.value}"]
    for row in grid.cells:
        lines.append("".join(lut[int(v)] for v in row))
    return "\n".join(lines) + "\n"


def grid_from_text(text: str, chars: dict | None = None) -> Grid:
    """Parse the ASCII serialization produced by :func:`grid_to_text`."""
    chars = NEWS_CHARS if chars is None else chars
    rev = {v: int(k) for k, v in chars.items()}
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty grid text")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"malformed grid header: {lines[0]!r}")
    width, height = int(header[0]), int(header[1])
    boundary = Boundary(header[2])
    rows = lines[1:]
    if len(rows) != height or any(len(row) != width for row in rows):
        raise ValueError("grid body does not match header dimensions")
    try:
        cells = np.array([[rev[ch] for ch in row] for row in rows], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"unknown cell character {exc.args[0]!r}") from None
    return Grid(cells, boundary)
