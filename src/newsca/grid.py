"""The model-free lattice: boundary modes, grid storage, ASCII text.

Cells live on a rectangular lattice stored row-major as small integer
codes. What the codes mean, and how each is written, is the model's
business (:mod:`newsca.rules`); the initial field is built by
:meth:`newsca.engine.SimulationConfig.initial_grid`. A grid's boundary mode
tells whether cell neighborhoods are truncated at its edges or wrap around
them. Grids are written and read as ASCII text, in the alphabet the caller
passes, by :func:`grid_to_text` and :func:`grid_from_text`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Boundary(Enum):
    """Edge handling: truncated neighborhoods or periodic wraparound."""

    BOUNDED = "bounded"
    TOROIDAL = "toroidal"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"boundary must be one of {[b.value for b in cls]}, got {value!r}")


@dataclass
class Grid:
    """Rectangular lattice of cell-state codes with a boundary mode.

    ``cells`` is a (height, width) uint8 array, built from any array whose
    values it holds exactly, bool masks included; row-major iteration order is
    the canonical cell order everywhere in this package. A (runs, height,
    width) array is a stack of equally shaped grids that
    :func:`newsca.engine.step` advances together; the other functions of
    this module take single grids. ``boundary`` may be given by its value,
    such as ``"toroidal"``.
    """

    cells: np.ndarray
    boundary: Boundary = Boundary.BOUNDED

    def __post_init__(self) -> None:
        if type(self.boundary) is not Boundary:  # the identity test is 10x cheaper than Boundary(member)
            self.boundary = Boundary(self.boundary)
        cells = np.asarray(self.cells)
        if cells.dtype == np.uint8:  # the run loop's case, which needs no check
            self.cells = np.ascontiguousarray(cells)
        else:
            with np.errstate(invalid="ignore"):  # NaN and inf cast to some code; the test below refuses them
                self.cells = np.ascontiguousarray(cells, dtype=np.uint8)
            if not np.array_equal(self.cells, cells):
                raise ValueError(f"cell codes must be integers in [0, 255], got {cells[self.cells != cells][0]}")
        if self.cells.ndim not in (2, 3):
            raise ValueError("cells must be a 2-D array or a 3-D stack of them")
        if 0 in self.cells.shape:
            raise ValueError("grid dimensions must be at least 1x1")

    @property
    def height(self) -> int:
        return self.cells.shape[-2]

    @property
    def width(self) -> int:
        return self.cells.shape[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.boundary is other.boundary and np.array_equal(self.cells, other.cells)


def render_rows(cells: np.ndarray, tokens: dict, sep: str = "") -> str:
    """The rows of a (height, width) code array as ASCII text.

    Each cell is written as ``tokens[code]``, the cells of a row are joined
    by ``sep`` and every row ends with a newline. The whole array goes
    through one byte lookup table at once; a code without a token raises
    ValueError naming it.
    """
    lead = len(sep)
    size = lead + max(len(token) for token in tokens.values())
    # Row ``code`` holds sep + token, padded with zero bytes that are dropped at the end.
    table = np.zeros((256, size), dtype=np.uint8)
    for code, token in tokens.items():
        raw = (sep + token).encode("ascii")
        table[int(code), :len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    h, w = cells.shape
    out = np.full((h, w * size + 1), ord("\n"), dtype=np.uint8)
    body = out[:, :-1].reshape(h, w, size)
    body[...] = np.take(table, cells, axis=0)
    missing = body[..., lead] == 0
    if missing.any():
        raise ValueError(f"cell code {cells[missing][0]} is not one of {sorted(map(int, tokens))}")
    body[:, 0, :lead] = 0  # no separator before the first cell of a row
    data = out.ravel()
    return (data[data != 0] if size > 1 else data).tobytes().decode("ascii")


def grid_to_text(grid: Grid, chars: dict) -> str:
    """Serialize a grid as ASCII: a "<width> <height> <boundary>" header line,
    then one row per line, each cell written as ``chars[code]``, its model's
    alphabet (``rule_params.chars``)."""
    return f"{grid.width} {grid.height} {grid.boundary.value}\n" + render_rows(grid.cells, chars)


def grid_from_text(text: str, chars: dict) -> Grid:
    """Parse the ASCII serialization :func:`grid_to_text` writes in the alphabet ``chars``."""
    rev = {v: int(k) for k, v in chars.items()}
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty grid text")
    header = lines[0].split()
    if len(header) != 3 or not all(n.isdecimal() and int(n) > 0 for n in header[:2]):
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
