"""Synchronous lattice stepper, full-run driver, and seeded ensemble executor.

Every cell's next state is computed from the current state of the whole
grid, then all cells switch at once. Randomness comes from one seeded
numpy PCG64 generator per run; exactly one uniform draw is consumed per
adoptable cell (white / not-adopted) per step, in row-major cell order,
so seeded runs are bit-reproducible regardless of how ensembles are
scheduled.

One kernel steps every run. The live runs of an ensemble are stacked as
one (runs, height, width) uint8 array, a single run being a stack of one.
Each state's census is taken once into the stack's buffer set
(:class:`_Buffers`), where both the fixed-point test and :func:`step` read
it: the count rows, the white mask and one 3x3 block sum, the cell itself
included, of a packed uint8 plane, ``16 * white + black`` for news and the
adopted mask for innovation. :func:`_block_sums` sums the flattened stack
at offsets of one cell, then of one row, and takes out again the terms
that crossed a row end or a grid's edge, or on toroidal grids swaps them
for the wrapped ones. At a code-0 cell the low four bits of the sum count
its seed-state neighbors; for news a sum below 16 marks a black or grey
cell with no white neighbor, which goes stale. Where every count of
seed-state neighbors can adopt, the fixed-point test reads most grids'
verdicts from their count rows alone (:func:`_fixed`).
Adoption, for either model, compares each draw with the model's exact
cutoff table, :func:`newsca.rules.cutoffs`, instead of evaluating its rule,
and only at code-0 cells with a seed-state neighbor, as no other can adopt.
Run ``r`` draws its ``n_r`` code-0 cells' doubles by one call,
``rngs[r].random((n_r,), out=...)``, and none if ``n_r`` is 0. The draws
are made in run order into one buffer and applied to the code-0 cells of
the flattened stack, which come run by run and row-major within each run,
so every run consumes and produces exactly what it would stepped alone.
A cell's next state reads only its 3x3 block, so at state ``t`` every cell
that is not code 0 lies within Chebyshev distance ``t`` of the seed cell.
While the cells within distance ``t + 1`` make up at most half of the field
and, on a torus, reach no edge, the census, the fixed-point test and the
step read and write only that crop (:func:`_light_cone`), in views of the
buffer set (:meth:`_Buffers.view`); the code-0 cells outside it are
counted, not scanned. Each run still draws one double for every code-0
cell, so a cell in the crop reads the draw at its index in the stack less
the cells before it that are not code 0, all in the crop before it.
The draws and the next cells go into the same buffer set, made once per
stack, so a step allocates little beyond the index of its code-0 cells.
The set also makes, once, every view of its arrays that a state reads:
flat, per-run and bool views, the count columns, and the calls of both
block-sum passes over fixed views. A state makes only the views that
depend on it: its slices of the draws and its prefixes as long as its
count of code-0 cells, its views of the old cells and of the new, which
swap every state, and while it is cropped a view of the set itself.
A run leaves the stack at its first fixed point or at ``max_steps``; then
:meth:`_Buffers.keep` moves the census of the runs that stay to the front
of the set. The count rows of every state go, in uint32, into blocks of
:data:`_BLOCK` states, a block appended when the last fills, so none is
copied to grow; when the stack ends, each run's rows are copied out of
them once, into its int64 counts, and a run keeps only those and the step
it converged at. A caller that needs the states passes an observer, which
sees each one as the loop passes it. The kernel is checked against the
per-cell oracle in :mod:`newsca.reference`.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .analytics import normalize
from .grid import Boundary, Grid
# Re-exported because benchmarks/workloads.py imports step_reference from here.
from .reference import step_reference  # noqa: F401
from .rules import MAX_DRAW, InnovationRuleParams, NewsRuleParams, cutoffs, require_number, shown, store_numbers

# Recorded in output manifests; changing the generator breaks reproducibility.
GENERATOR_NAME = "numpy-pcg64"

RuleParams = NewsRuleParams | InnovationRuleParams

# Most cells one run, or the stack of an ensemble's runs, may hold (8192^2);
# checked before anything is allocated.
MAX_CELLS = 2**26

# States per block of a stack's count rows (:func:`_run_stack`).
_BLOCK = 64


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation; equal configs give identical runs.

    ``seed_position=None`` places the initial seed cell at the grid center;
    a list is stored as a tuple. ``boundary`` may be given by its value,
    such as ``"toroidal"``. ``rule_params`` selects the model:
    NewsRuleParams for the three-state news automaton, InnovationRuleParams
    for the two-state adoption one. ``__post_init__`` checks the type of
    every field, then its range, and raises ValueError naming the field; a
    bool is no integer. A numpy scalar is stored as the Python number it holds.
    """

    width: int = 40
    height: int = 40
    seed_position: tuple[int, int] | None = None
    boundary: Boundary = Boundary.BOUNDED
    rng_seed: int = 0
    max_steps: int = 1000
    rule_params: RuleParams = field(default_factory=NewsRuleParams)

    def __post_init__(self) -> None:
        store_numbers(self, ("width", "height", "rng_seed", "max_steps"), integral=True)
        if self.seed_position is not None:
            if not isinstance(self.seed_position, list | tuple) or len(self.seed_position) != 2:
                raise ValueError("seed_position must be None or a pair of integers, got "
                                 + shown(self.seed_position))
            object.__setattr__(self, "seed_position", tuple(
                require_number(f"seed_position[{i}]", v, integral=True) for i, v in enumerate(self.seed_position)))
        if type(self.boundary) is not Boundary:
            object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not isinstance(self.rule_params, RuleParams):
            raise ValueError(f"rule_params must be a NewsRuleParams or InnovationRuleParams, got {shown(self.rule_params)}")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.width * self.height > MAX_CELLS:
            raise ValueError(f"a {shown(self.width)}x{shown(self.height)} field exceeds MAX_CELLS = {MAX_CELLS} cells")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {shown(self.rng_seed)}")
        if self.seed_position is not None:
            r, c = self.seed_position
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValueError(f"seed position {shown(self.seed_position)} out of bounds")

    @property
    def field_size(self) -> int:
        return self.width * self.height

    @property
    def seed_cell(self) -> tuple[int, int]:
        """(row, column) of the seed cell; ``__post_init__`` checked its place."""
        return (self.height // 2, self.width // 2) if self.seed_position is None else self.seed_position

    def initial_grid(self) -> Grid:
        """Code-0 cells (white / not adopted) and one seed cell."""
        r, c = self.seed_cell
        cells = np.zeros((self.height, self.width), dtype=np.uint8)
        cells[r, c] = int(self.rule_params.seed_state)
        return Grid(cells, self.boundary)


@dataclass
class Trajectory:
    """Observable record of one run.

    ``counts[t]`` holds the (white, grey, black) cell counts of step ``t``,
    starting from the initial state at ``t = 0``; every row sums to the
    field size. For innovation runs the columns carry (not adopted, 0,
    adopted). ``converged_at`` is the index of the first recorded state
    that is a fixed point, ``max_steps`` included (None if the state at
    ``max_steps`` is still live); the trajectory ends at that state.
    """

    counts: np.ndarray
    converged_at: int | None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def steps(self) -> int:
        return len(self.counts) - 1

    @property
    def black_extinct_at(self) -> int | None:
        """The first step with no black (adopted) cells, or None."""
        gone = np.flatnonzero(self.counts[:, 2] == 0)
        return int(gone[0]) if gone.size else None


@dataclass
class EnsembleResult:
    """Aggregate of independent seeded runs of one configuration.

    ``mean_fractions[t]`` is the across-run mean of (white, grey, black)
    fractions at step ``t``; runs that converge early hold their final
    fractions through the longest run's horizon. ``trajectories[i]`` is the
    run seeded with ``run_seeds[i]``; non-converged runs are flagged, never
    dropped.
    """

    config: SimulationConfig
    run_seeds: list[int]
    mean_fractions: np.ndarray
    trajectories: list[Trajectory]

    @property
    def converged_steps(self) -> list[int | None]:
        return [tr.converged_at for tr in self.trajectories]

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


# Weight of a code-0 cell in a news census plane. It exceeds the most
# seed-state cells a 3x3 block can hold (9), so a block sum carries both
# counts, and a sum is at most 9 * 16, which fits in uint8.
_WHITE = 16


# One call of the census's block sums: ``ufunc(*operands)``, the last operand its output.
_Call = tuple[np.ufunc, tuple[np.ndarray, ...]]


@dataclass(slots=True)
class _Buffers:
    """The arrays one state of a (runs, height, width) stack is written
    into, made once per stack and reused every step, so a step need not
    allocate and free arrays the size of the field.

    They hold the census, which the fixed-point test and :func:`step` both
    read: ``rows``, the (white, grey, black) count rows in uint32,
    ``white``, the code-0 mask, and ``block``, the block sums of the packed
    plane in ``plane``, summed along rows into ``across``
    (:func:`_block_sums`). The step reuses ``plane`` for the stale mask and
    the gathered sums of the code-0 cells, and ``across`` for the mask of
    those with a seed-state neighbor; it writes the draws into ``draws``,
    with room for one per cell, and the new cells into ``spare``, which the
    run loop swaps with the old cells. ``spare`` starts all code 0.

    ``box`` is the crop of the field, (rows, columns), that the census
    covers, or None for the whole field; :meth:`view` says what it holds.
    ``boundary`` is the grids' boundary mode, on which the block sums are
    taken; a crop's are taken as bounded.

    Every view a state reads of these arrays is made once, with the set
    (``__post_init__``, so by :meth:`new`, :meth:`view` and :meth:`keep`
    alike): the flat views of ``white``, ``plane``, ``across`` (as bool),
    ``block`` and ``draws``; ``plane`` as bool; the per-run (runs, cells)
    views of ``white`` (as uint8), ``plane`` and ``block``; the three
    columns of ``rows``; and ``sums``, the calls of both block-sum passes,
    each over fixed views of ``plane``, ``across`` and ``block``
    (:func:`_sum_of_three`). A state still makes the views that depend on
    it: its slice of the draws, the prefixes as long as its count of
    code-0 cells, its views of the old cells and of ``spare``, which the
    run loop swaps every state, and with a crop the set itself.
    """

    white: np.ndarray
    plane: np.ndarray
    rows: np.ndarray
    across: np.ndarray
    block: np.ndarray
    spare: np.ndarray
    draws: np.ndarray
    boundary: Boundary
    box: tuple[slice, slice] | None = None
    white_flat: np.ndarray = field(init=False)
    white_runs: np.ndarray = field(init=False)
    plane_bool: np.ndarray = field(init=False)
    plane_flat: np.ndarray = field(init=False)
    plane_runs: np.ndarray = field(init=False)
    across_flat: np.ndarray = field(init=False)
    block_flat: np.ndarray = field(init=False)
    block_runs: np.ndarray = field(init=False)
    draws_flat: np.ndarray = field(init=False)
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False)
    sums: list[_Call] = field(init=False)

    def __post_init__(self) -> None:
        runs = len(self.white)
        self.white_flat = self.white.reshape(-1)
        self.white_runs = self.white.view(np.uint8).reshape(runs, -1)
        self.plane_bool = self.plane.view(bool)
        self.plane_flat = self.plane.reshape(-1)
        self.plane_runs = self.plane.reshape(runs, -1)
        self.across_flat = self.across.reshape(-1).view(bool)
        self.block_flat = self.block.reshape(-1)
        self.block_runs = self.block.reshape(runs, -1)
        self.draws_flat = self.draws.reshape(-1)
        self.columns = self.rows[:, 0], self.rows[:, 1], self.rows[:, 2]
        # The crop is summed as if bounded: the cells beyond it are code 0,
        # so they hold no seed state, and a code-0 cell on its edge weighs
        # 16 on its own, so it never reads as stale.
        boundary = self.boundary if self.box is None else Boundary.BOUNDED
        _, h, w = self.plane.shape
        self.sums = (_sum_of_three(self.plane.reshape(runs * h, w, 1), self.across.reshape(runs * h, w, 1), boundary)
                     + _sum_of_three(self.across, self.block, boundary))

    @classmethod
    def new(cls, shape: tuple[int, int, int], boundary: Boundary) -> "_Buffers":
        runs, h, w = shape
        return cls(np.empty(shape, dtype=bool), np.empty(shape, dtype=np.uint8),
                   np.empty((runs, 3), dtype=np.uint32), np.empty(shape, dtype=np.uint8),
                   np.empty(shape, dtype=np.uint8), np.zeros(shape, dtype=np.uint8), np.empty((runs, h * w)),
                   boundary)

    def view(self, k: int, box: tuple[slice, slice] | None = None) -> "_Buffers":
        """Views of the first ``k`` slots of each buffer. With a crop ``box``
        of each grid, ``white``, ``plane``, ``across`` and ``block`` are
        crop-shaped views of the front of this set's, while ``rows``,
        ``spare`` and ``draws`` still cover whole grids; without one, all
        keep this set's shape.

        Every cell outside the crop must be code 0 in the old grids and in
        ``spare``; then :func:`_census`, :func:`_fixed` and :func:`step`
        read and write only the crop, and are exact.
        """
        h, w = self.white.shape[1:] if box is None else (box[0].stop - box[0].start, box[1].stop - box[1].start)
        white, plane, across, block = (a.reshape(-1)[:k * h * w].reshape(k, h, w)
                                       for a in (self.white, self.plane, self.across, self.block))
        return _Buffers(white, plane, self.rows[:k], across, block, self.spare[:k], self.draws[:k],
                        self.boundary, box)

    def keep(self, mask: np.ndarray) -> "_Buffers":
        """Move the census of the ``k`` grids ``mask`` keeps, in order, into
        the first ``k`` slots, and return views of those slots' buffers."""
        k = int(np.count_nonzero(mask))
        for a in (self.rows, self.white, self.block):
            a[:k] = a[mask]
        return self.view(k, self.box)


def _sum_of_three(src: np.ndarray, dst: np.ndarray, boundary: Boundary) -> list[_Call]:
    """The calls, in order, that set
    ``dst[o, i, j] = src[o, i - 1, j] + src[o, i, j] + src[o, i + 1, j]``
    for uint8 (outer, n, inner) arrays, ``i +- 1`` wrapping around on a toroidal
    ``boundary`` and dropped past an edge on a bounded one.

    Both arrays are summed flat, at offsets of +-inner, so a term from
    across an edge of axis 1, which lies in the next or previous ``o``, is
    subtracted again, and on a torus the wrapped term added instead. uint8
    arithmetic wraps modulo 256, so the result is exact while every true sum
    stays below 256. The calls read and write views of ``src`` and ``dst``
    only, so they may be made once and run on every state the arrays hold.
    """
    k, s, d = src.shape[2], src.reshape(-1), dst.reshape(-1)
    calls = [(np.add, (s[k:], s[:-k], d[k:])), (np.positive, (s[:k], d[:k])), (np.add, (d[:-k], s[k:], d[:-k]))]
    if len(src) > 1:  # a one-grid stack's column pass has no edge to take out
        calls += [(np.subtract, (dst[1:, 0], src[:-1, -1], dst[1:, 0])),
                  (np.subtract, (dst[:-1, -1], src[1:, 0], dst[:-1, -1]))]
    if boundary is Boundary.TOROIDAL:
        calls += [(np.add, (dst[:, 0], src[:, -1], dst[:, 0])), (np.add, (dst[:, -1], src[:, 0], dst[:, -1]))]
    return calls


def _block_sums(buffers: _Buffers) -> np.ndarray:
    """Per-cell sum of the 3x3 block of ``buffers.plane`` centred on the
    cell, the cell itself included, written into ``buffers.block`` and
    returned.

    The calls in ``buffers.sums`` sum the flattened stack along rows into
    ``buffers.across``, then along columns (:func:`_sum_of_three`), in
    uint8, so each sum must stay below 256.
    """
    for ufunc, operands in buffers.sums:
        ufunc(*operands)
    return buffers.block


def _census(cells: np.ndarray, params: RuleParams, buffers: _Buffers) -> None:
    """Take the census of the (runs, height, width) stack ``cells`` into ``buffers``.

    Rows are (white, grey, black) for news and (not adopted, 0, adopted) for
    innovation: the code-0 and seed-state cells counted from their masks,
    by one reduction each over the whole stack, and the rest of the field
    in between, all written into ``buffers.rows``. The counts are exact in
    uint32, as MAX_CELLS < 2**32, and are summed in uint16, which is faster,
    where a grid, or its crop, holds fewer than 2**16 cells. The seed state
    is compared as a plain int: numpy compares with an enum member through
    a loop many times slower. The block sums are taken on the set's
    boundary (:func:`_block_sums`).
    On a set :meth:`_Buffers.view` made with a crop, only the crop is read,
    and the code-0 cells outside it are added to the white column.
    """
    box, size = buffers.box, buffers.white_runs.shape[1]
    if box is not None:
        field, cells = cells[0].size, cells[:, box[0], box[1]]
    np.equal(cells, 0, out=buffers.white)
    np.equal(cells, int(params.seed_state), out=buffers.plane_bool)
    white, grey, seed = buffers.columns
    acc = np.uint16 if size < 2**16 else np.uint32
    np.add.reduce(buffers.white_runs, axis=1, dtype=acc, out=white)
    np.add.reduce(buffers.plane_runs, axis=1, dtype=acc, out=seed)
    np.subtract(size, white, out=grey)
    grey -= seed
    if box is not None:
        white += field - size
    if params.stale:
        plane = buffers.plane_runs
        plane += np.multiply(buffers.white_runs, _WHITE, out=buffers.block_runs)
    _block_sums(buffers)


def step(grid: Grid, rng: np.random.Generator | Sequence[np.random.Generator], params: RuleParams,
         buffers: _Buffers | None = None) -> Grid:
    """One synchronous update of a grid, or of a stack of grids, computed from the old cells.

    ``grid.cells`` is one (height, width) grid stepped with the generator
    ``rng``, or a (runs, height, width) stack with a sequence of one
    generator per grid. Every non-code-0 cell with no code-0 (white)
    neighbor goes one state staler if the model has stale states (black to
    grey, grey to white). Then every code-0 cell consumes one uniform draw
    from its grid's generator, in row-major order, and takes
    ``params.seed_state`` where the draw reaches the cutoff that
    :func:`newsca.rules.cutoffs` gives for its count of seed-state
    neighbors, which is exactly where ``params.adopts`` fires; so each grid
    of a stack consumes and changes exactly as if it were stepped alone.
    The run loop passes the stack's ``buffers``, which already hold the
    census of ``grid``; the new grid is written into their ``spare`` cells.
    If the set has a crop, only the crop of ``spare`` is written, and the
    rest of it must already be code 0. Without buffers the step takes the
    census of the whole field into a new set, so the new grid never shares
    memory with ``grid``.
    """
    cells = grid.cells
    stack, rngs = (cells, rng) if cells.ndim == 3 else (cells[None], (rng,))
    if buffers is None:
        buffers = _Buffers.new(stack.shape, grid.boundary)
        _census(stack, params, buffers)
    box, new = buffers.box, buffers.spare
    old, out = (stack, new) if box is None else (stack[:, box[0], box[1]], new[:, box[0], box[1]])
    if params.stale:
        # One state staler is one code lower: black (2) to grey (1), grey to white (0).
        np.subtract(old, np.less(buffers.block, _WHITE, out=buffers.plane_bool), out=out)
    else:
        np.copyto(out, old)
    where = buffers.white_flat.nonzero()[0]  # grid by grid, each in row-major order
    if where.size:
        draws = buffers.draws_flat
        a = 0
        for g, n in zip(rngs, buffers.columns[0].tolist()):
            if n:
                # A tuple size: numpy checks an int size given with ``out`` on a slower path.
                g.random((n,), out=draws[a:a + n])
                a += n
        # mode="clip" lets take write into ``out`` directly; every index is in range.
        seed_nb = buffers.block_flat.take(where, out=buffers.plane_flat[:where.size], mode="clip")
        seed_nb &= _WHITE - 1
        # Only cells with a seed-state neighbor can adopt. Rebinding ``where``
        # frees the index of every code-0 cell before the adoption test.
        near = np.not_equal(seed_nb, 0, out=buffers.across_flat[:where.size]).nonzero()[0]
        where, seed_nb = where[near], seed_nb[near]
        if box is not None:
            r, i, j = np.unravel_index(where, buffers.white.shape)
            cell = np.ravel_multi_index((r, i + box[0].start, j + box[1].start), stack.shape)
            # ``near`` ranks a cell among the crop's code-0 cells. The cells
            # before it in the stack that are not code 0 all lie in the crop,
            # before it in crop order, so its draw is its index in the stack
            # less that count, its crop index less that rank.
            near += cell - where
            where = cell
        fires = draws[near] >= cutoffs(params).take(seed_nb)
        new.reshape(-1)[where[fires]] = int(params.seed_state)
    return Grid(new.reshape(cells.shape), grid.boundary)


@lru_cache(maxsize=16)
def _adoptable(params: RuleParams) -> tuple[bool, np.ndarray]:
    """``(always, can)``: ``can[m]`` says whether a code-0 cell with ``m``
    seed-state neighbors, m = 0..8, adopts at some draw up to MAX_DRAW, and
    ``always`` whether every m from 1 to 8 does. Cached per parameter set,
    as :func:`_fixed` reads it at every state."""
    can = cutoffs(params) <= MAX_DRAW
    can.flags.writeable = False
    return bool(can[1:].all()), can


def _fixed(buffers: _Buffers, params: RuleParams) -> np.ndarray:
    """Which grids of a stack no step can change, from the census in its ``buffers``.

    No cell can change when every cell that would go stale has a code-0
    neighbor and no code-0 cell can adopt from its seed-state neighbors,
    even at the largest draw. Where every count of seed-state neighbors
    from 1 to 8 can adopt, the count rows decide most grids, with no pass
    over their cells. A news grid with a black cell can change: the black
    cell has a white neighbor, which can adopt, or goes stale. The Moore
    lattice is connected on either boundary, so an innovation grid, whose
    cells hold only two states, has a code-0 cell next to an adopted one
    unless it lacks either; it is fixed exactly then. Only news grids with
    no black cell, where nothing adopts, take the test of their cells;
    where some count can never adopt, every grid does.
    """
    always, can = _adoptable(params)
    white, _, seed = buffers.columns
    if always and not params.stale:
        return (white == 0) | (seed == 0)
    block = buffers.block_runs
    if always:
        test = seed == 0
        # np.count_nonzero, not ``any``, which numpy 2 runs through a Python wrapper.
        if not np.count_nonzero(test):
            return test
        fixed = np.zeros(len(test), dtype=bool)  # np.zeros_like takes a slower Python path
        # With no black cell, a block sum below 16 marks a grey cell with no white neighbor.
        fixed[test] = ~(block[test] < _WHITE).any(axis=1)
        return fixed
    seed_nb = block & (_WHITE - 1)  # count of seed-state neighbors at code-0 cells
    # Only code-0 cells read the table; clipping the other cells' counts, which
    # reach 9 where a whole block is seed-state, keeps their lookups in range.
    change = buffers.white_runs.view(bool) & can.take(seed_nb, mode="clip")
    if params.stale:
        change |= block < _WHITE
    return ~change.any(axis=1)


def _light_cone(config: SimulationConfig, t: int) -> tuple[slice, slice] | None:
    """The crop, (rows, columns), that state ``t`` of a run of ``config`` is
    stepped on, or None if it takes the whole field.

    A cell's next state reads only its 3x3 block, so at state ``t`` every
    cell that is not code 0 lies within Chebyshev distance ``t`` of the seed
    cell. The crop holds the rows and columns within distance ``t + 1``,
    clipped to a bounded field, so every cell outside it, and every cell on
    its edge, is code 0. It serves while it holds at most half of the
    field's cells and, on a toroidal field, reaches no edge, where it would
    wrap; as it only grows, it never serves again after that.
    """
    h, w = config.height, config.width
    (r, c), d = config.seed_cell, t + 1
    top, bottom, left, right = r - d, r + d + 1, c - d, c + d + 1
    if config.boundary is Boundary.TOROIDAL and (top < 0 or left < 0 or bottom > h or right > w):
        return None
    top, bottom, left, right = max(top, 0), min(bottom, h), max(left, 0), min(right, w)
    if 2 * (bottom - top) * (right - left) > h * w:
        return None
    return slice(top, bottom), slice(left, right)


def _run_stack(config: SimulationConfig, seeds: list[int],
               observe: Callable[[int, int, np.ndarray], None] | None = None) -> list[Trajectory]:
    """One run of ``config`` per seed, all stepped together as one stack.

    Every recorded state of every run, the initial one and the one at
    ``max_steps`` included, is tested for being a fixed point: a state no
    further step can change. A run leaves the stack at its first fixed
    point or at ``max_steps``, whichever comes first. Only the counts and
    ``converged_at`` of each run are kept. ``observe(t, r, cells)`` is
    called for every recorded state of every live run, step by step and
    within a step in run order, with ``r`` the run's index in ``seeds`` and
    ``cells`` a (height, width) view of its state in the stack, which the
    run loop overwrites once the call returns.

    While the seed's light cone covers little of the field
    (:func:`_light_cone`), a state's census, fixed-point test and step
    read and write only the crop, through a view of the stack's buffer
    set (:meth:`_Buffers.view`); every run still draws one double per
    code-0 cell. The set keeps the size of the first state until the stack
    ends: when runs leave, the loop views its first slots.
    """
    params, boundary = config.rule_params, config.boundary
    rngs = [make_rng(seed) for seed in seeds]
    cells = np.repeat(config.initial_grid().cells[None], len(seeds), axis=0)
    whole = _Buffers.new(cells.shape, boundary)
    live = np.arange(len(seeds))  # the run of each grid in the stack
    cols = slice(None)  # the block columns of the live runs; a slice, written faster, until one leaves
    # blocks[t // _BLOCK][t % _BLOCK, r] is the count row of run r's state t,
    # written while the run is live; the rows fit in uint32, as MAX_CELLS < 2**32.
    blocks: list[np.ndarray] = []
    converged_at: list[int | None] = [None] * len(seeds)

    t, box = 0, _light_cone(config, 0)
    while True:
        buffers = whole if box is None else whole.view(len(live), box)
        _census(cells, params, buffers)
        if t % _BLOCK == 0:
            blocks.append(np.empty((min(_BLOCK, config.max_steps + 1 - t), len(seeds), 3), dtype=np.uint32))
        blocks[-1][t % _BLOCK, cols] = buffers.rows
        if observe is not None:
            for k, r in enumerate(live.tolist()):
                observe(t, r, cells[k])
        fixed = _fixed(buffers, params)
        done = np.count_nonzero(fixed)  # not ``any`` or ``all``, which numpy 2 runs through a Python wrapper
        if done or t == config.max_steps:
            for r in live[fixed].tolist():
                converged_at[r] = t
            if done == len(live) or t == config.max_steps:
                break
            keep = ~fixed
            cells, live = cells[keep], live[keep]
            cols = live
            rngs = [g for g, f in zip(rngs, fixed) if not f]
            buffers = buffers.keep(keep)
            whole = buffers if box is None else whole.view(len(live))
        new = step(Grid(cells, boundary), rngs, params, buffers).cells
        cells, whole.spare = new, cells
        t += 1
        if box is not None:
            box = _light_cone(config, t)

    trajectories = []
    for r, c in enumerate(converged_at):
        # A run that is not converged left the stack at max_steps.
        counts = np.empty(((config.max_steps if c is None else c) + 1, 3), dtype=np.int64)
        for a in range(0, len(counts), _BLOCK):
            counts[a:a + _BLOCK] = blocks[a // _BLOCK][:len(counts) - a, r]
        trajectories.append(Trajectory(counts=counts, converged_at=c))
    return trajectories


def run(config: SimulationConfig, observe: Callable[[int, int, np.ndarray], None] | None = None) -> Trajectory:
    """Run one simulation until it reaches a fixed point or ``max_steps``.

    Every recorded state, the initial one and the one at ``max_steps``
    included, is tested for being a fixed point: a state no further step
    can change. No cell can change when no black or grey news cell lacks a
    white neighbor and no white or not-adopted cell can adopt, even at the
    largest draw. A run still live at ``max_steps`` is reported distinctly
    via ``converged_at=None``. ``observe(t, 0, cells)``, if given, sees each
    recorded state as :func:`_run_stack` describes; the last is the final grid.
    """
    return _run_stack(config, [config.rng_seed], observe)[0]


def check_runs(config: SimulationConfig, runs: int, jobs: int = 1) -> None:
    """Raise ValueError unless ``jobs`` and ``runs`` are integers of at least
    1 and ``runs`` fields of ``config`` hold at most MAX_CELLS cells together."""
    require_number("runs", runs, integral=True)
    require_number("jobs", jobs, integral=True)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {shown(jobs)}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {shown(runs)}")
    if runs * config.field_size > MAX_CELLS:
        raise ValueError(f"{shown(runs)} runs of a {shown(config.width)}x{shown(config.height)} field exceed "
                         f"MAX_CELLS = {MAX_CELLS} cells")


def run_ensemble(config: SimulationConfig, runs: int, jobs: int = 1) -> EnsembleResult:
    """Execute ``runs`` independent simulations and average their fractions.

    Per-run seeds come from :func:`derive_run_seeds` on ``config.rng_seed``;
    each run owns a private generator. The runs are stepped as one stack, or
    with ``jobs > 1`` as that many contiguous blocks of runs, each block a
    stack, on at most one thread per CPU. The mean is a running sum of the
    runs' fractions, each run's last held through the longest run's horizon,
    added in run-index order and divided by ``runs`` once: the result is
    identical for any ``jobs``, and to the bit the mean of the runs'
    fractions stacked. Beyond the stacks, the ensemble holds its runs'
    counts and one (horizon, 3) sum, not a (runs, horizon, 3) array.
    """
    check_runs(config, runs, jobs)
    seeds = derive_run_seeds(config.rng_seed, runs)
    blocks = min(jobs, runs)
    if blocks > 1:
        # Imported here, not at module level: only threaded runs need the
        # pool, and its import adds to every command's start-up.
        from concurrent.futures import ThreadPoolExecutor

        parts = [seeds[i * runs // blocks:(i + 1) * runs // blocks] for i in range(blocks)]
        with ThreadPoolExecutor(max_workers=min(blocks, os.cpu_count() or 1)) as pool:
            trajectories = [tr for part in pool.map(lambda p: _run_stack(config, p), parts) for tr in part]
    else:
        trajectories = _run_stack(config, seeds)

    # ``mean(axis=0)`` of the stacked fractions sums them in this order, then divides.
    total = np.zeros((max(len(tr.counts) for tr in trajectories), 3))
    for tr in trajectories:
        frac = normalize(tr.counts, config.field_size)
        total[:len(frac)] += frac
        total[len(frac):] += frac[-1]  # hold the fixed point
    return EnsembleResult(config=config, run_seeds=seeds, mean_fractions=total / runs, trajectories=trajectories)
