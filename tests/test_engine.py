import concurrent.futures
import itertools
import json
import math
import os
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from newsca import (
    AdoptionState,
    Boundary,
    CellState,
    Grid,
    InnovationRuleParams,
    NewsRuleParams,
    SimulationConfig,
    derive_run_seeds,
    make_rng,
    run,
    run_ensemble,
    step,
)
from newsca.analytics import normalize
from newsca.reference import count_adoption, count_states, neighbor_counts, step_reference
from newsca import engine
from newsca.cli import EXIT_OK, config_to_dict, main
from newsca.engine import _Buffers, _census, _fixed, check_runs
from newsca.rules import MAX_DRAW, cutoffs

news_cells = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 2),
)
adoption_cells = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 1),
)
boundaries = st.sampled_from([Boundary.BOUNDED, Boundary.TOROIDAL])


def _at_and_beside(products):
    """Each value and its two floating-point neighbors."""
    return st.sampled_from(sorted({float(np.nextafter(x, d)) for x in products for d in (0.0, x, np.inf)}))


# Thresholds at, or one ulp beside, the products the adoption tests compare
# at a draw of 1 and at the largest draw.
news_thresholds = st.one_of(
    _at_and_beside(p * g * m for p in (1.0, MAX_DRAW) for g in (1.0, 1.5) for m in range(1, 9)),
    st.floats(0.1, 12.0))
innovation_thresholds = st.one_of(_at_and_beside(p * m for p in (1.0, MAX_DRAW) for m in range(1, 9)),
                                  st.floats(0.1, 9.0))


def is_fixed(grid, params):
    """The run loop's fixed-point test, applied to one grid."""
    stack = grid.cells[None]
    buffers = _Buffers.new(stack.shape, grid.boundary)
    _census(stack, params, buffers)
    return bool(_fixed(buffers, params)[0])


class ScriptedDraws:
    """Generator stand-in whose draws are the given values, in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self, size=None, out=None):
        if size is None and out is None:
            return next(self._draws)
        values = np.fromiter(self._draws, float, size if out is None else out.size)
        if out is None:
            return values
        out[...] = values  # like Generator.random: fill ``out`` and return it
        return out


@pytest.fixture
def observed(monkeypatch):
    """Each run's recorded states, by seed: every ``run`` and ``run_ensemble``
    call records a copy of each state its run loop observes as a ``(t,
    Grid)`` pair, so ``observed[seed][-1][1]`` is the run's final grid. A
    later run of the same seed replaces the record."""
    states = {}
    run_stack = engine._run_stack

    def recording(config, seeds, observe=None):
        assert observe is None  # run and run_ensemble pass none of their own
        records = [[] for _ in seeds]
        states.update(zip(seeds, records))
        return run_stack(config, seeds,
                         lambda t, r, cells: records[r].append((t, Grid(cells.copy(), config.boundary))))

    monkeypatch.setattr(engine, "_run_stack", recording)
    return states


def packed_sums(cells, params, boundary):
    """The census block sums of a stack as the per-cell oracle counts them:
    the 3x3 sums of 16 * white + seed for news, of the seed-state mask for
    innovation."""
    white, seed = cells == 0, cells == params.seed_state
    expected = seed + neighbor_counts(seed, boundary).astype(int)
    if params.stale:
        expected += 16 * (white + neighbor_counts(white, boundary).astype(int))
    return expected


def max_draws():
    """Generator stand-in whose every draw is the largest ``rng.random()`` returns."""
    return ScriptedDraws(itertools.repeat(MAX_DRAW))


class TestStep:
    def test_all_white_is_inert(self):
        grid = Grid(np.zeros((3, 3), dtype=np.uint8))
        assert step(grid, make_rng(99), NewsRuleParams()) == grid

    def test_all_black_goes_all_grey(self):
        grid = Grid(np.full((3, 3), CellState.BLACK, dtype=np.uint8))
        out = step(grid, make_rng(1), NewsRuleParams())
        assert np.all(out.cells == CellState.GREY)

    def test_center_seed_adoption_pattern(self):
        # The 8 whites around a black center each see m=1 and adopt iff
        # their boosted draw clears the threshold: 1.5 p > 1, so p > 2/3.
        grid = SimulationConfig(width=3, height=3, seed_position=(1, 1)).initial_grid()
        seed = 1234
        out = step(grid, make_rng(seed), NewsRuleParams())
        draws = make_rng(seed).random(8)  # row-major over the white cells
        assert out.cells[1, 1] == CellState.BLACK  # white neighbors remain
        flat_expect = []
        k = 0
        for idx in range(9):
            if idx == 4:
                flat_expect.append(CellState.BLACK)
                continue
            flat_expect.append(
                CellState.BLACK if draws[k] * 1.5 > 1.0 else CellState.WHITE
            )
            k += 1
        assert list(out.cells.ravel()) == flat_expect

    # The kernel's cutoff-table adoption is cross-checked against the scalar
    # ``params.adopts`` that step_reference applies, at random draws and at
    # the largest one, with thresholds at and one ulp beside the products
    # they compare.
    @settings(max_examples=60, deadline=None)
    @given(cells=news_cells, boundary=boundaries, seed=st.integers(0, 2**32),
           threshold=news_thresholds, boost_below=st.integers(0, 8), largest=st.booleans())
    def test_vectorized_matches_reference_news(self, cells, boundary, seed, threshold, boost_below,
                                               largest):
        grid = Grid(cells, boundary)
        params = NewsRuleParams(adoption_threshold=threshold, boost_below=boost_below)
        rngs = (max_draws(), max_draws()) if largest else (make_rng(seed), make_rng(seed))
        fast = step(grid, rngs[0], params)
        slow = step_reference(grid, 0, rngs[1], params)
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32),
           threshold=innovation_thresholds, largest=st.booleans())
    def test_vectorized_matches_reference_innovation(self, cells, boundary, seed, threshold, largest):
        grid = Grid(cells, boundary)
        params = InnovationRuleParams(threshold=threshold)
        rngs = (max_draws(), max_draws()) if largest else (make_rng(seed), make_rng(seed))
        fast = step(grid, rngs[0], params)
        slow = step_reference(grid, 0, rngs[1], params)
        assert fast == slow

    # One batched step of a stack must equal stepping each grid alone through
    # the per-cell reference with its own generator: the draws of grid r
    # come from generator r only, and grids without a code-0 cell draw nothing.
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["news", "innovation"]), boundary=boundaries,
           shape=st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           st.sampled_from([(1, 7), (7, 1), (2, 2)])),
           runs=st.integers(1, 5), largest=st.booleans())
    def test_batched_step_matches_reference_per_grid(self, data, model, boundary, shape, runs, largest):
        if model == "news":
            params = NewsRuleParams(adoption_threshold=data.draw(news_thresholds),
                                    boost_below=data.draw(st.integers(0, 8)))
        else:
            params = InnovationRuleParams(threshold=data.draw(innovation_thresholds))
        codes = st.integers(0, int(params.seed_state))
        grids = data.draw(st.lists(st.one_of(
            arrays(np.uint8, shape, elements=codes),
            arrays(np.uint8, shape, elements=st.integers(1, int(params.seed_state))),  # no code 0
        ), min_size=runs, max_size=runs))
        seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=runs, max_size=runs))
        rngs = [max_draws() if largest else make_rng(s) for s in seeds]
        batched = step(Grid(np.stack(grids), boundary), rngs, params)
        for k, cells in enumerate(grids):
            rng = max_draws() if largest else make_rng(seeds[k])
            alone = step_reference(Grid(cells, boundary), 0, rng, params)
            assert Grid(batched.cells[k], boundary) == alone
            if not largest:  # both consumed the same number of draws
                assert rngs[k].random() == rng.random()

    # cutoffs(params)[m] is the least draw at which the scalar rule
    # ``params.adopts`` fires: it fires there and not one ulp below, the
    # cutoff is inf exactly when even the largest draw does not fire, and
    # ``p >= q[m]``, the kernel's test, agrees with the rule at random draws
    # and at the largest one.
    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["news", "innovation"]),
           draws=st.lists(st.floats(0.0, MAX_DRAW), max_size=4))
    def test_cutoffs_are_the_least_adopting_draws(self, data, model, draws):
        if model == "news":
            params = NewsRuleParams(data.draw(news_thresholds),
                                    data.draw(st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(1.0, 4.0))),
                                    data.draw(st.integers(0, 8)))
        else:
            params = InnovationRuleParams(data.draw(innovation_thresholds))
        q = cutoffs(params)
        for m in range(9):
            cutoff = float(q[m])
            assert math.isinf(cutoff) == (not params.adopts(m, MAX_DRAW))
            if not math.isinf(cutoff):
                assert params.adopts(m, cutoff)
                assert not params.adopts(m, float(np.nextafter(cutoff, 0.0)))
            for p in (*draws, MAX_DRAW):
                assert (p >= q[m]) == params.adopts(m, p)

    # End to end through both steppers: each code-0 cell draws the cutoff
    # for its count of seed-state neighbors (from the oracle) or one ulp
    # below it, and the largest draw where no draw adopts. A table entry one
    # ulp off flips such a cell in engine.step but not in the oracle, which
    # applies params.adopts itself.
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("model", ["news", "innovation"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_draws_at_and_below_each_cutoff_match_reference(self, data, model, boundary):
        if model == "news":
            params = NewsRuleParams(data.draw(news_thresholds), data.draw(st.sampled_from([1.0, 1.5, 2.0])),
                                    data.draw(st.integers(0, 8)))
            grid = Grid(data.draw(news_cells), boundary)
        else:
            params = InnovationRuleParams(data.draw(innovation_thresholds))
            grid = Grid(data.draw(adoption_cells), boundary)
        q = cutoffs(params)
        for t in range(3):
            counts = neighbor_counts(grid.cells == params.seed_state, boundary)[grid.cells == 0]
            below = data.draw(st.lists(st.booleans(), min_size=counts.size, max_size=counts.size))
            draws = [MAX_DRAW if math.isinf(q[m]) else float(np.nextafter(q[m], 0.0) if b else q[m])
                     for m, b in zip(counts.tolist(), below)]
            fast = step(grid, ScriptedDraws(draws), params)
            assert fast == step_reference(grid, t, ScriptedDraws(draws), params)
            grid = fast

    # The census block sum is the 3x3 sum of the packed plane, 16 * white +
    # seed for news and the seed-state mask for innovation, checked at every
    # cell against the per-cell oracle's neighbor counts. The rows count each
    # grid's states.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), params=st.sampled_from([NewsRuleParams(), InnovationRuleParams()]),
           boundary=boundaries, runs=st.integers(1, 4),
           shape=st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           st.sampled_from([(1, 1), (1, 7), (7, 1), (2, 2)])))
    def test_packed_census_matches_neighbor_counts(self, data, params, boundary, runs, shape):
        cells = data.draw(arrays(np.uint8, (runs, *shape), elements=st.integers(0, int(params.seed_state))))
        white, seed = cells == 0, cells == params.seed_state
        census = _Buffers.new(cells.shape, boundary)
        _census(cells, params, census)
        assert np.array_equal(census.white, white)
        assert np.array_equal(census.block, packed_sums(cells, params, boundary))
        per_grid = [[int(white[k].sum()), int((cells[k] == 1).sum()) if params.stale else 0,
                     int(seed[k].sum())] for k in range(runs)]
        assert census.rows.tolist() == per_grid

    # The rows are uint32 reductions written into the stack's buffer set. A
    # large field and large stacks are counted: of news on a bounded field,
    # and of innovation on a toroidal one, whose block sums add the wrapped
    # terms. When runs leave the stack, keep moves the census of those that
    # stay, here runs 3, 4 and 20, to the front of the set, in order, as a
    # fresh census of them would be. The kept set makes its own views of
    # those front slots: a census taken again through it, after every slot
    # of the old set is overwritten, matches the fresh one and the per-cell
    # oracle. The states at step 12 of a stack are counted on their light
    # cone's crop.
    news, innovation = (NewsRuleParams(), Boundary.BOUNDED), (InnovationRuleParams(threshold=0.9), Boundary.TOROIDAL)

    @pytest.mark.parametrize("runs,size,steps,model", [
        (1, 300, 120, news), (25, 40, 40, news), (25, 40, 12, news), (25, 40, 30, innovation), (25, 40, 12, innovation)],
        ids=["300x300-field", "25-run-40x40-stack", "25-run-40x40-light-cone", "25-run-40x40-torus-innovation",
             "25-run-40x40-torus-innovation-light-cone"])
    def test_census_rows_match_count_states(self, observed, runs, size, steps, model):
        params, boundary = model
        config = SimulationConfig(width=size, height=size, rng_seed=1, max_steps=steps, boundary=boundary,
                                  rule_params=params)
        cells = np.stack([observed[seed][-1][1].cells for seed in run_ensemble(config, runs).run_seeds])
        box = engine._light_cone(config, steps)
        assert (box is not None) == (steps == 12)

        def census_of(stack):
            buffers = _Buffers.new(stack.shape, boundary).view(len(stack), box)
            _census(stack, params, buffers)
            return buffers

        buffers = census_of(cells)
        census, stack = buffers, cells
        if runs > 1:
            mask = np.isin(np.arange(runs), [3, 4, 20])
            census, stack = buffers.keep(mask), cells[mask]
            fresh = census_of(stack)
            for name in ("rows", "white", "block"):
                kept = getattr(census, name)
                assert np.array_equal(kept, getattr(fresh, name)), name
                assert np.shares_memory(kept, getattr(buffers, name)), name
            for name in ("rows", "white", "plane", "across", "block"):
                getattr(buffers, name)[...] = 1
            _census(stack, params, census)
            for name in ("rows", "white", "block"):
                assert np.array_equal(getattr(census, name), getattr(fresh, name)), name
            # On the crop, the seed-state counts and the stale marks are the
            # whole field's: the step and the fixed-point test read only those.
            block, expected = census.block, packed_sums(stack, params, boundary)
            if box is None:
                assert np.array_equal(block, expected)
            else:
                expected = expected[:, box[0], box[1]]
                assert np.array_equal(block & 15, expected & 15) and np.array_equal(block < 16, expected < 16)
        rows = census.rows
        assert rows.dtype == np.uint32 and np.shares_memory(rows, buffers.rows)
        if params.stale:
            assert rows.tolist() == [list(count_states(Grid(c))) for c in stack]
        else:
            assert rows.tolist() == [[a, 0, b] for a, b in (count_adoption(Grid(c)) for c in stack)]
        assert (rows[:, 1 if params.stale else 0] > 0).all() and (rows[:, 2] > 0).all()  # mid-spread

    @settings(max_examples=40, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_news_fixed_point_test_matches_a_step(self, cells, boundary, seed):
        # Codes 0 and 1 are white and grey: with no black cell a news step is
        # deterministic, so the fixed-point test must agree with taking one.
        grid = Grid(cells, boundary)
        params = NewsRuleParams()
        fixed = is_fixed(grid, params)
        assert fixed == (step(grid, make_rng(seed), params) == grid)

    # Adoption is monotone in the draw, so a state is fixed exactly when a
    # step whose every draw is the largest possible changes nothing.
    @settings(max_examples=150, deadline=None)
    @given(cells=news_cells, boundary=boundaries, threshold=news_thresholds,
           boost_below=st.integers(0, 8))
    def test_news_fixed_iff_the_largest_draws_change_nothing(self, cells, boundary, threshold, boost_below):
        grid = Grid(cells, boundary)
        params = NewsRuleParams(adoption_threshold=threshold, boost_below=boost_below)
        fixed = is_fixed(grid, params)
        assert fixed == (step(grid, max_draws(), params) == grid)

    @settings(max_examples=100, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, threshold=innovation_thresholds)
    def test_innovation_frozen_iff_the_largest_draws_change_nothing(self, cells, boundary, threshold):
        grid = Grid(cells, boundary)
        params = InnovationRuleParams(threshold=threshold)
        frozen = is_fixed(grid, params)
        assert frozen == (step(grid, max_draws(), params) == grid)

    # A stack's fixed-point test decides most grids from their count rows
    # and tests the rest cell by cell, all at once; each grid must get the
    # verdict it gets alone, which is that of a step at the largest draws.
    # Each grid takes its cells from its own subset of the model's codes,
    # so a stack mixes grids with and without black (adopted) and code-0
    # cells. Under the second and fifth parameter sets some counts never
    # adopt (m = 1 and 2, and m = 1), so every grid is tested cell by cell.
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), params=st.sampled_from([
               NewsRuleParams(), NewsRuleParams(adoption_threshold=2.0, boost_below=0),
               InnovationRuleParams(), InnovationRuleParams(threshold=0.9), InnovationRuleParams(threshold=1.5)]),
           boundary=boundaries, runs=st.integers(1, 4),
           shape=st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           st.sampled_from([(1, 7), (7, 1), (2, 2)])))
    def test_stacked_fixed_point_test_matches_each_grid_alone(self, data, params, boundary, runs, shape):
        top = int(params.seed_state)
        grids = []
        for _ in range(runs):
            codes = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=top + 1, unique=True))
            grids.append(data.draw(arrays(np.uint8, shape, elements=st.sampled_from(codes))))
        cells = np.stack(grids)
        buffers = _Buffers.new(cells.shape, boundary)
        _census(cells, params, buffers)
        alone = [is_fixed(Grid(g, boundary), params) for g in grids]
        assert _fixed(buffers, params).tolist() == alone
        assert alone == [step(Grid(g, boundary), max_draws(), params) == Grid(g, boundary) for g in grids]

    @settings(max_examples=30, deadline=None)
    @given(cells=news_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_conservation_through_steps(self, cells, boundary, seed):
        grid = Grid(cells, boundary)
        rng = make_rng(seed)
        for _ in range(5):
            grid = step(grid, rng, NewsRuleParams())
            assert sum(count_states(grid)) == grid.cells.size

    @settings(max_examples=30, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_adoption_never_decreases(self, cells, boundary, seed):
        grid = Grid(cells, boundary)
        rng = make_rng(seed)
        adopted = int(np.count_nonzero(grid.cells == AdoptionState.ADOPTED))
        for _ in range(8):
            grid = step(grid, rng, InnovationRuleParams())
            now = int(np.count_nonzero(grid.cells == AdoptionState.ADOPTED))
            assert now >= adopted
            adopted = now


class TestRun:
    def test_single_cell_trace(self, observed):
        # black -> grey -> white through vacuous neighborhoods, then fixed
        tr = run(SimulationConfig(width=1, height=1, seed_position=(0, 0), rng_seed=0))
        assert tr.counts.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert tr.converged_at == 2
        assert tr.black_extinct_at == 1
        assert np.all(observed[0][-1][1].cells == CellState.WHITE)

    def test_initial_row_is_seeded_field(self):
        tr = run(SimulationConfig(width=9, height=7, rng_seed=3, max_steps=2))
        assert tr.counts[0].tolist() == [62, 0, 1]

    def test_deterministic_for_equal_configs(self, observed):
        cfg = SimulationConfig(width=15, height=15, rng_seed=77)
        a = run(cfg)
        first = observed[77]
        b = run(cfg)
        assert np.array_equal(a.counts, b.counts)
        assert a.converged_at == b.converged_at
        assert first == observed[77]  # every state, the final grid included

    # Black news goes stale and dies out; an adopted cell never leaves, so
    # an innovation run, whose seed is adopted, has no extinction step.
    def test_black_extinction_is_permanent(self):
        tr = run(SimulationConfig(width=20, height=20, rng_seed=11))
        black = tr.counts[:, 2]
        gone = np.nonzero(black == 0)[0]
        assert gone.size > 0
        assert np.all(black[gone[0]:] == 0)
        assert tr.black_extinct_at == gone[0] and type(tr.black_extinct_at) is int
        tr = run(SimulationConfig(width=20, height=20, rng_seed=11, rule_params=InnovationRuleParams()))
        assert (tr.counts[:, 2] > 0).all()
        assert tr.black_extinct_at is None

    def test_converged_fixed_point_characterization(self, observed):
        tr = run(SimulationConfig(width=20, height=20, rng_seed=4))
        assert tr.converged
        assert tr.counts[tr.converged_at, 2] == 0
        final = observed[4][-1][1]
        cells = final.cells
        assert not np.any(cells == CellState.BLACK)
        white_nb = neighbor_counts(cells == CellState.WHITE, final.boundary)
        grey = cells == CellState.GREY
        # any grey cell without a white neighbor would still be flipping
        assert np.all(white_nb[grey] >= 1)

    def test_non_convergence_reported(self):
        tr = run(SimulationConfig(rng_seed=0, max_steps=5))
        assert tr.converged_at is None
        assert not tr.converged
        assert len(tr.counts) == 6

    def test_fixed_point_reached_at_max_steps_is_converged(self, tmp_path):
        # This run's fixed point is its state 35, so capping it at 35 steps
        # must change nothing: not the verdict, not the series.
        cfg = SimulationConfig(width=12, height=12, rng_seed=3)
        free, capped = run(cfg), run(replace(cfg, max_steps=35))
        assert free.converged_at == 35
        assert capped.converged_at == 35
        np.testing.assert_array_equal(capped.counts, free.counts)
        args = ["simulate", "--width", "12", "--height", "12", "--seed", "3", "--outdir"]
        assert main(args + [str(tmp_path / "free")]) == EXIT_OK
        assert main(args + [str(tmp_path / "capped"), "--max-steps", "35"]) == EXIT_OK
        series = [(tmp_path / d / "series.csv").read_bytes() for d in ("free", "capped")]
        assert series[0] == series[1]

    def test_unspreadable_news_seed_is_fixed_at_step_0(self):
        # p * m never exceeds 8, so no white cell can adopt, and the black
        # seed keeps its white neighbors: no cell can ever change.
        params = NewsRuleParams(adoption_threshold=8)
        tr = run(SimulationConfig(width=5, height=5, max_steps=50, rule_params=params))
        assert tr.converged_at == 0
        assert tr.counts.tolist() == [[24, 0, 1]]

    # run hands its observer every recorded state, in step order, as a
    # (height, width) view.
    def test_observer_sees_every_state(self):
        config = SimulationConfig(width=9, height=7, rng_seed=2)
        seen = []

        def observe(t, r, cells):
            assert r == 0 and cells.shape == (7, 9)
            seen.append((t, count_states(Grid(cells.copy()))))

        tr = run(config, observe)
        assert [t for t, _ in seen] == list(range(tr.steps + 1))
        assert [list(c) for _, c in seen] == tr.counts.tolist()

    def test_innovation_frozen_single_seed(self):
        # threshold 1 needs two adopted neighbors; one seed can never spread
        cfg = SimulationConfig(
            width=8, height=8, rng_seed=1, rule_params=InnovationRuleParams()
        )
        tr = run(cfg)
        assert tr.converged_at == 0
        assert tr.steps == 0
        assert tr.counts[0].tolist() == [63, 0, 1]

    def test_innovation_spreads_and_converges(self):
        cfg = SimulationConfig(
            width=10,
            height=10,
            rng_seed=5,
            rule_params=InnovationRuleParams(threshold=0.5),
        )
        tr = run(cfg)
        assert tr.converged
        adopted = tr.counts[:, 2]
        assert np.all(np.diff(adopted) >= 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(width=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_steps=0)
        with pytest.raises(ValueError):
            SimulationConfig(seed_position=(40, 0))
        with pytest.raises(ValueError, match="rng_seed"):
            SimulationConfig(rng_seed=-1)
        with pytest.raises(ValueError, match="MAX_CELLS"):
            SimulationConfig(width=100_000, height=100_000)
        # How often simulate writes a snapshot is the CLI's setting, not the engine's.
        assert len(fields(SimulationConfig)) == 7
        with pytest.raises(TypeError):
            SimulationConfig(snapshot_every=5)


# A value of each kind a config field may be given wrongly: a bool is no
# integer, and a float is none either.
NOT_AN_INT = [True, 2.5, "2", None, [2], {"a": 2}]
NOT_A_NUMBER = [True, "2", None, [2], {"a": 2}]
FIELD_ERRORS = [
    *[(SimulationConfig, name, v) for name in ("width", "height", "rng_seed", "max_steps") for v in NOT_AN_INT],
    *[(SimulationConfig, "seed_position", v) for v in
      (True, 2, 2.5, "ab", [2], (1, 2, 3), (1, 2.5), (True, 1), [1, "2"], [None, 1], {"a": 1, "b": 2})],
    *[(SimulationConfig, "boundary", v) for v in (True, 2.5, "open", None, ["toroidal"], {"toroidal": 1})],
    *[(SimulationConfig, "rule_params", v) for v in (True, 2.5, "news", None, [], {"threshold": 1.0})],
    *[(NewsRuleParams, name, v) for name in ("adoption_threshold", "boost_factor") for v in NOT_A_NUMBER],
    *[(NewsRuleParams, "boost_below", v) for v in NOT_AN_INT],
    *[(InnovationRuleParams, "threshold", v) for v in NOT_A_NUMBER],
]


class TestFieldTypes:
    """Each config class checks the type of every field it defines, whoever builds it."""

    @pytest.mark.parametrize("cls,name,value", FIELD_ERRORS)
    def test_wrong_type_names_the_field(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name}"):
            cls(**{name: value})

    @pytest.mark.parametrize("name", ["runs", "jobs"])
    @pytest.mark.parametrize("value", NOT_AN_INT)
    def test_check_runs_wants_integers(self, name, value):
        counts = {"runs": 2, "jobs": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            check_runs(SimulationConfig(width=4, height=4), **counts)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_ensemble(SimulationConfig(width=4, height=4), **counts)

    def test_numpy_scalars_accepted(self):
        params = NewsRuleParams(adoption_threshold=np.float64(1.0), boost_factor=np.float32(1.5),
                                boost_below=np.int64(3))
        assert params == NewsRuleParams()
        assert InnovationRuleParams(threshold=np.float32(0.5)) == InnovationRuleParams(threshold=0.5)
        ints = dict(width=9, height=7, rng_seed=4, max_steps=60)
        cfg = SimulationConfig(seed_position=(np.int64(3), np.int64(2)), rule_params=params,
                               **{name: np.int64(v) for name, v in ints.items()})
        plain = SimulationConfig(seed_position=(3, 2), **ints)
        assert cfg == plain
        check_runs(cfg, np.int64(3), np.int64(1))
        np.testing.assert_array_equal(run(cfg).counts, run(plain).counts)

    @pytest.mark.parametrize("given,plain", [
        (NewsRuleParams(boost_factor=np.float32(1.5)), NewsRuleParams()),
        (NewsRuleParams(adoption_threshold=np.float32(0.75), boost_below=np.int8(2)),
         NewsRuleParams(adoption_threshold=0.75, boost_below=2)),
        (InnovationRuleParams(threshold=np.float32(0.5)), InnovationRuleParams(threshold=0.5)),
        (NewsRuleParams(boost_factor=np.float32(1.1)), NewsRuleParams(boost_factor=float(np.float32(1.1)))),
    ], ids=["news-boost", "news-threshold-and-int8", "innovation", "float32-value"])
    def test_numpy_scalars_stored_as_python_numbers(self, given, plain):
        # A float32 parameter once compared equal to its double but hashed
        # apart, and cutoffs computed its products in float32.
        assert given == plain and hash(given) == hash(plain)
        assert all(type(getattr(given, f)) is type(getattr(plain, f)) for f in vars(plain))
        np.testing.assert_array_equal(cutoffs.__wrapped__(given), cutoffs.__wrapped__(plain))

    def test_numpy_scalar_config_serialises_as_the_plain_one(self):
        ints = dict(width=12, height=9, rng_seed=4, max_steps=60)
        cfg = SimulationConfig(seed_position=(np.int64(3), np.int32(2)),
                               rule_params=NewsRuleParams(boost_factor=np.float64(2.0), boost_below=np.int64(2)),
                               **{name: np.int64(v) for name, v in ints.items()})
        plain = SimulationConfig(seed_position=(3, 2), rule_params=NewsRuleParams(boost_factor=2.0, boost_below=2),
                                 **ints)
        assert json.dumps(config_to_dict(cfg)) == json.dumps(config_to_dict(plain))
        assert hash(cfg) == hash(plain)

    def test_seed_position_list_stored_as_tuple(self):
        cfg = SimulationConfig(seed_position=[1, 2])
        assert cfg.seed_position == (1, 2) and type(cfg.seed_position) is tuple
        assert hash(cfg) == hash(SimulationConfig(seed_position=(1, 2)))

    def test_boundary_given_by_its_value(self):
        by_value = SimulationConfig(width=9, height=9, boundary="toroidal", rng_seed=2)
        by_member = SimulationConfig(width=9, height=9, boundary=Boundary.TOROIDAL, rng_seed=2)
        assert by_value.boundary is Boundary.TOROIDAL and by_value == by_member
        a, b = run(by_value), run(by_member)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.converged_at == b.converged_at


class TestLightCone:
    # While the seed's light cone, grown by one cell, covers at most half the
    # field and, on a torus, reaches no edge, the run loop takes each state's
    # census and step on that crop of the field (engine._light_cone). Each
    # field below is cropped for its first 10 states, except a torus seeded
    # on an edge or in a corner, where the crop would wrap at once; the 13
    # steps go on past the crop. Every observed state, of one run or of each
    # run of a stack, must be the per-cell oracle's replay of its seed.
    @pytest.mark.parametrize("size,seed_position", [((30, 30), None), ((22, 21), (10, 21)), ((16, 16), (15, 0))],
                             ids=["centre", "edge", "corner"])
    @pytest.mark.parametrize("params,boundary,runs", [
        (NewsRuleParams(), Boundary.BOUNDED, 5),
        (InnovationRuleParams(threshold=0.9), Boundary.BOUNDED, 1),
        (NewsRuleParams(), Boundary.TOROIDAL, 1),
        (InnovationRuleParams(threshold=0.9), Boundary.TOROIDAL, 5),
    ], ids=["news-bounded-5-runs", "innovation-bounded-1-run", "news-torus-1-run", "innovation-torus-5-runs"])
    def test_cropped_states_match_reference(self, observed, size, seed_position, params, boundary, runs):
        width, height = size
        config = SimulationConfig(width=width, height=height, seed_position=seed_position, boundary=boundary,
                                  rng_seed=6, max_steps=13, rule_params=params)
        wraps = boundary is Boundary.TOROIDAL and seed_position is not None
        assert [engine._light_cone(config, t) is not None for t in range(14)] == [not wraps] * 10 + [False] * 4
        for seed in run_ensemble(config, runs).run_seeds:
            assert [t for t, _ in observed[seed]] == list(range(14))
            grid, rng = config.initial_grid(), make_rng(seed)
            for t, state in observed[seed]:
                assert state == grid, (seed, t)
                grid = step_reference(grid, t, rng, params)

    # The fact the crop rests on: a cell's next state reads only its 3x3
    # block, so at state t every cell that is not code 0 lies within
    # Chebyshev distance t of the seed cell, measured around a torus.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), model=st.sampled_from([NewsRuleParams, InnovationRuleParams]), boundary=boundaries,
           shape=st.tuples(st.integers(1, 24), st.integers(1, 24)), runs=st.integers(1, 3),
           seed=st.integers(0, 2**32))
    def test_cells_stay_in_the_light_cone(self, data, model, boundary, shape, runs, seed):
        height, width = shape
        row, col = data.draw(st.integers(0, height - 1)), data.draw(st.integers(0, width - 1))
        # Low thresholds spread the news as fast as the rule allows.
        config = SimulationConfig(width=width, height=height, seed_position=(row, col), boundary=boundary,
                                  rng_seed=seed, max_steps=30, rule_params=model(data.draw(st.floats(0.01, 2.0))))
        dr, dc = np.abs(np.arange(height) - row)[:, None], np.abs(np.arange(width) - col)[None, :]
        if boundary is Boundary.TOROIDAL:
            dr, dc = np.minimum(dr, height - dr), np.minimum(dc, width - dc)
        distance = np.maximum(dr, dc)
        seen = []

        def observe(t, r, cells):
            assert (distance[cells != 0] <= t).all(), (t, r)
            seen.append(t)

        engine._run_stack(config, derive_run_seeds(seed, runs), observe)
        assert seen


class TestEnsemble:
    def test_single_run_mean_equals_that_run(self):
        cfg = SimulationConfig(width=12, height=12, rng_seed=5)
        ens = run_ensemble(cfg, 1)
        child = replace(cfg, rng_seed=derive_run_seeds(5, 1)[0])
        tr = run(child)
        np.testing.assert_array_equal(ens.mean_fractions, tr.counts / 144.0)

    def test_mean_fractions_sum_to_one(self):
        ens = run_ensemble(SimulationConfig(width=15, height=15, rng_seed=9), 10)
        sums = ens.mean_fractions.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_padding_holds_final_values(self):
        ens = run_ensemble(SimulationConfig(width=12, height=12, rng_seed=21), 6)
        horizon = len(ens.mean_fractions)
        shortest = min(ens.trajectories, key=lambda tr: len(tr.counts))
        assert len(shortest.counts) <= horizon

    # A batched ensemble must report each run exactly as a single run of its
    # seed does, also when max_steps cuts some runs but not others and when
    # every run is fixed at step 0 (p * m can never exceed 8).
    @pytest.mark.parametrize("cfg", [
        SimulationConfig(width=12, height=12, rng_seed=3, max_steps=70),
        SimulationConfig(width=9, height=7, rng_seed=8, boundary=Boundary.TOROIDAL, max_steps=50),
        SimulationConfig(width=8, height=8, rng_seed=4, max_steps=11,
                         rule_params=InnovationRuleParams(threshold=0.9)),
        SimulationConfig(width=6, height=6, rng_seed=5, rule_params=NewsRuleParams(adoption_threshold=8)),
    ], ids=["news-cut", "news-torus", "innovation-cut", "fixed-at-step-0"])
    def test_batched_runs_match_single_runs(self, observed, cfg):
        runs = 10
        ens = run_ensemble(cfg, runs)
        seeds = derive_run_seeds(cfg.rng_seed, runs)
        batched = {seed: observed[seed] for seed in seeds}
        for tr, seed in zip(ens.trajectories, seeds):
            alone = run(replace(cfg, rng_seed=seed))
            np.testing.assert_array_equal(tr.counts, alone.counts)
            assert tr.converged_at == alone.converged_at
            assert tr.black_extinct_at == alone.black_extinct_at
            assert [t for t, _ in batched[seed]] == list(range(tr.steps + 1))
            assert batched[seed] == observed[seed]
        if cfg.rule_params == NewsRuleParams(adoption_threshold=8):
            assert ens.converged_steps == [0] * runs
        else:  # max_steps cut some runs, not all
            assert 0 < len(ens.unconverged) < runs

    @pytest.mark.parametrize("runs,jobs", [(7, 3), (2, 4)], ids=["runs-not-divisible", "jobs-above-runs"])
    def test_jobs_split_does_not_change_results(self, observed, runs, jobs):
        cfg = SimulationConfig(width=12, height=12, rng_seed=17, max_steps=60)
        a = run_ensemble(cfg, runs, jobs=1)
        final = {seed: observed[seed][-1] for seed in a.run_seeds}
        b = run_ensemble(cfg, runs, jobs=jobs)
        np.testing.assert_array_equal(a.mean_fractions, b.mean_fractions)
        assert a.converged_steps == b.converged_steps
        assert [t.black_extinct_at for t in a.trajectories] == [t.black_extinct_at for t in b.trajectories]
        assert a.run_seeds == b.run_seeds
        for ta, tb, seed in zip(a.trajectories, b.trajectories, a.run_seeds):
            np.testing.assert_array_equal(ta.counts, tb.counts)
            assert final[seed] == observed[seed][-1]

    def test_parallelism_does_not_change_results(self):
        cfg = SimulationConfig(width=20, height=20, rng_seed=13)
        a = run_ensemble(cfg, 8, jobs=1)
        b = run_ensemble(cfg, 8, jobs=4)
        np.testing.assert_array_equal(a.mean_fractions, b.mean_fractions)
        assert a.converged_steps == b.converged_steps
        assert a.run_seeds == b.run_seeds

    # The mean is a running sum of the runs' fractions; it must equal, to
    # the bit, the mean of the runs' fractions stacked, each run held at its
    # last through the horizon, for any jobs, with runs cut at max_steps and
    # with one run. Each run's counts, copied out of the stack's count blocks
    # across block ends and after other runs left, are its states' counts,
    # in one C-contiguous int64 array.
    @pytest.mark.parametrize("config,runs,jobs", [
        (SimulationConfig(rng_seed=1), 100, 1),
        (SimulationConfig(rng_seed=1), 100, 2),
        (SimulationConfig(rng_seed=1), 100, 3),
        (SimulationConfig(width=12, height=12, rng_seed=3, max_steps=70), 10, 1),
        (SimulationConfig(rng_seed=1), 1, 1),
    ], ids=["jobs-1", "jobs-2", "jobs-3", "cut-at-max-steps", "one-run"])
    def test_mean_is_the_stacked_mean(self, observed, config, runs, jobs):
        ens = run_ensemble(config, runs, jobs)
        horizon = len(ens.mean_fractions)
        stacked = np.empty((runs, horizon, 3))
        for i, (tr, seed) in enumerate(zip(ens.trajectories, ens.run_seeds)):
            assert tr.counts.dtype == np.int64 and tr.counts.flags.c_contiguous
            assert tr.counts.tolist() == [list(count_states(grid)) for _, grid in observed[seed]]
            stacked[i, :len(tr.counts)] = normalize(tr.counts, config.field_size)
            stacked[i, len(tr.counts):] = stacked[i, len(tr.counts) - 1]
        assert horizon == max(len(tr.counts) for tr in ens.trajectories)
        assert np.array_equal(ens.mean_fractions, stacked.mean(axis=0))
        if runs > 1:
            assert horizon > engine._BLOCK
        if config.max_steps < SimulationConfig().max_steps:
            assert 0 < len(ens.unconverged) < runs

    def test_seed_derivation_prefix_stable(self):
        assert derive_run_seeds(7, 10)[:3] == derive_run_seeds(7, 3)
        assert derive_run_seeds(7, 3) != derive_run_seeds(8, 3)

    def test_unconverged_runs_flagged_not_dropped(self):
        ens = run_ensemble(SimulationConfig(rng_seed=0, max_steps=3), 4)
        assert ens.unconverged == [0, 1, 2, 3]
        assert ens.convergence_stats() is None
        assert len(ens.trajectories) == 4

    def test_convergence_stats(self):
        ens = run_ensemble(SimulationConfig(width=15, height=15, rng_seed=2), 12)
        stats = ens.convergence_stats()
        assert stats is not None
        lo, med, hi = stats
        assert lo <= med <= hi

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_ensemble(SimulationConfig(), 0)

    def test_runs_above_max_cells_rejected(self):
        # Refused before any run is allocated: 1000 stacked 1000^2 fields would take 1 GB.
        with pytest.raises(ValueError, match="MAX_CELLS"):
            run_ensemble(SimulationConfig(width=1000, height=1000), 1000)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_ensemble(SimulationConfig(width=8, height=8), 3, jobs=0)

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # Six blocks on two CPUs share two threads; the blocks, and so the results, stay the same.
        workers = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SimulationConfig(width=8, height=8, rng_seed=3)
        b = run_ensemble(cfg, 6, jobs=6)
        assert workers == [2]
        a = run_ensemble(cfg, 6, jobs=1)
        np.testing.assert_array_equal(a.mean_fractions, b.mean_fractions)
        assert a.converged_steps == b.converged_steps
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.counts, tb.counts)

    def test_default_field_median_convergence_window(self):
        # deterministic for the fixed base seed: median lands mid-window
        ens = run_ensemble(SimulationConfig(rng_seed=42), 100)
        _, median, _ = ens.convergence_stats()
        assert 80 <= median <= 150


class TestMemory:
    # A step that writes into its stack's buffers allocates at most the
    # index of the stack's code-0 cells (8 bytes each) and a little more:
    # small arrays, the near cells' adoption test and numpy's cast buffers.
    # The state at step 20 of a 300x300 field is stepped on its light cone's
    # crop, as the run loop steps it; its other code-0 cells are not indexed.
    @pytest.mark.parametrize("runs,size,steps", [(1, 300, 120), (1, 300, 20), (20, 40, 40)],
                             ids=["300x300-field", "300x300-light-cone", "20-run-40x40-stack"])
    def test_census_and_step_allocate_little(self, observed, runs, size, steps):
        config = SimulationConfig(width=size, height=size, rng_seed=1, max_steps=steps)
        cells = np.stack([observed[seed][-1][1].cells for seed in run_ensemble(config, runs).run_seeds])
        params, boundary = config.rule_params, config.boundary
        rngs = [make_rng(seed) for seed in range(runs)]
        box = engine._light_cone(config, steps)
        assert (box is not None) == (steps == 20)
        buffers = _Buffers.new(cells.shape, boundary).view(runs, box)
        _census(cells, params, buffers)
        step(Grid(cells, boundary), rngs, params, buffers)  # fills lazy caches
        tracemalloc.start()
        try:
            _census(cells, params, buffers)
            step(Grid(cells, boundary), rngs, params, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_white = int(buffers.rows[:, 0].sum())
        assert n_white > 10_000 // runs  # a state mid-spread, not an empty field
        assert peak <= 8 * n_white + 64 * 1024

    # Snapshots are written as the run passes them, so a run that writes one
    # per step holds a few fields, not one per step: holding all 222 of this
    # run's snapshots until it ends peaks at about 243 bytes per cell.
    def test_snapshots_are_not_held(self, tmp_path):
        argv = ["simulate", "--width", "200", "--height", "200", "--seed", "1", "--snapshot-every", "1"]
        assert main(argv + ["--outdir", str(tmp_path / "warm")]) == EXIT_OK  # fills lazy caches
        tracemalloc.start()
        try:
            assert main(argv + ["--outdir", str(tmp_path / "out")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "out").glob("snapshot_*.txt"))) > 200
        assert peak <= 48 * 200 * 200 + 256 * 1024

    # An ensemble holds its stack's buffers, its count rows in uint32 and its
    # runs' counts, not a table of every run's fractions: 300 default runs at
    # seed 1 (643 states) peak at about 23 bytes per cell of the stack, where
    # an int64 count table grown by doubling and a (runs, horizon, 3) array
    # of the runs' fractions took them to 43.
    def test_ensemble_holds_no_fractions_per_run_and_step(self):
        config, runs = SimulationConfig(rng_seed=1), 300
        run_ensemble(replace(config, width=10, height=10), 3)  # fills lazy caches
        tracemalloc.start()
        try:
            run_ensemble(config, runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * runs * config.field_size

    @pytest.mark.parametrize("shape", [(6, 7), (3, 6, 7)], ids=["grid", "stack"])
    def test_step_without_buffers_returns_new_cells(self, shape):
        cells = np.zeros(shape, dtype=np.uint8)
        cells[..., 3, 3] = CellState.BLACK
        grid = Grid(cells)
        rng = make_rng(0) if len(shape) == 2 else [make_rng(s) for s in range(shape[0])]
        out = step(grid, rng, NewsRuleParams())
        assert not np.shares_memory(out.cells, grid.cells)
        assert out.cells.shape == shape


class CountingRng:
    """Generator stand-in that counts the draws of each ``random`` call as
    the benchmark's tracer does, from its ``size`` argument, 1 when it is
    absent, and records the call in ``drawn`` as a (generator, count) pair,
    under ``lock``, as runs may draw on threads. The count must equal the
    doubles the call returns, so a call that fills ``out`` without giving its
    size fails."""

    def __init__(self, generator, drawn, lock):
        self._generator, self._drawn, self._lock = generator, drawn, lock

    def random(self, size=None, *args, **kwargs):
        out = self._generator.random(size, *args, **kwargs)
        n = 1 if size is None else size if isinstance(size, int) else math.prod(size)
        assert n == np.size(out), f"a call counted as {n} draws returned {np.size(out)} doubles"
        with self._lock:
            self._drawn.append((self, n))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def calls_by_generator(calls):
    """The draw counts of (generator, count) pairs, listed in order per generator."""
    out = {}
    for g, n in calls:
        out.setdefault(g, []).append(n)
    return out


class TestTracedBoundary:
    # The benchmark tracer wraps the module-global newsca.engine.step, reads
    # only the grid passed as its first argument, and counts draws through
    # a proxy that a patched newsca.engine.make_rng returns. Its counts hold
    # when the run loop steps every state but a run's last exactly once
    # through that name, drawing one double per code-0 cell of the grids it
    # passes from generators made by that name, and outputs are unchanged.
    # Each grid with code-0 cells is drawn for by one call of its own
    # generator, sized by those cells; a grid with none makes no call.
    each_way = pytest.mark.parametrize("how", ["run", "jobs=1", "jobs=2"])
    each_model = pytest.mark.parametrize("params,boundary", [(NewsRuleParams(), Boundary.BOUNDED),
                                                            (InnovationRuleParams(threshold=0.9), Boundary.TOROIDAL)],
                                         ids=["news", "innovation"])

    @staticmethod
    def check(observed, config, how):
        seeds = [config.rng_seed] if how == "run" else derive_run_seeds(config.rng_seed, 5)

        def execute():
            if how == "run":
                return [run(config)]
            return run_ensemble(config, 5, jobs=int(how[-1])).trajectories

        expected = execute()
        expected_states = {seed: observed[seed] for seed in seeds}
        lock = threading.Lock()
        stepped, fed, drawn = [], [], []
        real_step, real_make_rng = engine.step, engine.make_rng

        def recording_step(grid, rngs, *args, **kwargs):
            with lock:
                stepped.append(grid.cells.copy())
                fed.extend(zip(rngs, np.count_nonzero(grid.cells == 0, axis=(-2, -1)).tolist(), strict=True))
            return real_step(grid, rngs, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "step", recording_step)
            mp.setattr(engine, "make_rng", lambda seed: CountingRng(real_make_rng(seed), drawn, lock))
            traced = execute()

        for tr, alone, seed in zip(traced, expected, seeds, strict=True):
            assert np.array_equal(tr.counts, alone.counts)
            assert tr.converged_at == alone.converged_at
            assert observed[seed] == expected_states[seed]
        assert drawn
        assert calls_by_generator(drawn) == calls_by_generator((g, n) for g, n in fed if n)
        grids = sorted(g.tobytes() for cells in stepped for g in cells.reshape(-1, *cells.shape[-2:]))
        states = sorted(g.cells.tobytes() for tr, seed in zip(expected, seeds)
                        for t, g in expected_states[seed] if t < tr.steps)
        assert len(states) == sum(tr.steps for tr in expected) > 0
        assert grids == states

    # The news runs leave their stacks at different steps, some at a fixed
    # point and some at max_steps.
    @each_way
    @each_model
    def test_step_and_draws_are_seen_at_the_module_names(self, observed, params, boundary, how):
        self.check(observed, SimulationConfig(width=9, height=8, rng_seed=3, max_steps=60,
                                              boundary=boundary, rule_params=params), how)

    # Seeded off centre, this field is stepped on its light cone's crop for
    # its first 16 states when bounded, 10 on a torus; the tracer still sees
    # each of those states whole.
    @each_way
    @each_model
    def test_cropped_states_are_seen_whole(self, observed, params, boundary, how):
        config = SimulationConfig(width=41, height=37, seed_position=(10, 30), rng_seed=3, max_steps=60,
                                  boundary=boundary, rule_params=params)
        n = 16 if boundary is Boundary.BOUNDED else 10
        assert [engine._light_cone(config, t) is not None for t in range(20)] == [True] * n + [False] * (20 - n)
        self.check(observed, config, how)

    # The middle grid of this stack is all black and grey: its generator is
    # not called, and each other grid's is called once for its white cells.
    def test_grid_without_code_0_cells_makes_no_call(self):
        cells = np.zeros((3, 5, 6), dtype=np.uint8)
        cells[0, 2, 2] = cells[2, 0, 0] = CellState.BLACK
        cells[1] = CellState.GREY
        cells[1, 1::2] = CellState.BLACK
        drawn, lock = [], threading.Lock()
        rngs = [CountingRng(make_rng(s), drawn, lock) for s in range(3)]
        step(Grid(cells), rngs, NewsRuleParams())
        assert drawn == [(rngs[0], 29), (rngs[2], 29)]


class TestRngContract:
    # The RNG contract, stated by where each generator ends rather than by the
    # calls that took it there: a run leaves its generator exactly
    # ``counts[:-1, 0].sum()`` doubles past a fresh PCG64 of its seed, one per
    # code-0 cell of each state it stepped, the last recorded state never
    # being stepped. The run loop makes its generators by the module-global
    # newsca.engine.make_rng, which the test patches to keep them.
    each_way = pytest.mark.parametrize("how", ["run", "jobs=1", "jobs=2"])

    @staticmethod
    def check(config, how, runs=5):
        """Run ``config`` as ``how`` says and check the identity for each run."""
        made, real_make_rng = {}, engine.make_rng

        def keeping(seed):
            made[seed] = real_make_rng(seed)
            return made[seed]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "make_rng", keeping)
            if how == "run":
                trajectories, seeds = [run(config)], [config.rng_seed]
            else:
                result = run_ensemble(config, runs, jobs=int(how[-1]))
                trajectories, seeds = result.trajectories, result.run_seeds
        assert sorted(made) == sorted(seeds)
        for tr, seed in zip(trajectories, seeds, strict=True):
            drawn = int(tr.counts[:-1, 0].sum())
            assert made[seed].bit_generator.state == np.random.PCG64(seed).advance(drawn).state, seed
        return trajectories

    # Every run starts on its light cone's crop and leaves it for the whole
    # field; the 120x120 runs are all still live at max_steps.
    @each_way
    @pytest.mark.parametrize("config,converged", [
        (SimulationConfig(rng_seed=1), True),
        (SimulationConfig(width=120, height=120, rng_seed=1, max_steps=100), False),
        (SimulationConfig(width=41, height=17, seed_position=(0, 0), rng_seed=3), True),
        (SimulationConfig(width=30, height=20, boundary="toroidal", rng_seed=4), True),
        (SimulationConfig(width=30, height=20, boundary="toroidal", rng_seed=5,
                          rule_params=InnovationRuleParams(threshold=0.9)), True),
        (SimulationConfig(width=25, height=30, rng_seed=6, rule_params=InnovationRuleParams(threshold=0.9)), True),
    ], ids=["news-40", "news-120-max-steps", "news-corner-seed", "news-torus", "innovation-torus",
            "innovation-bounded"])
    def test_each_generator_ends_one_double_per_code_0_cell_stepped(self, config, converged, how):
        trajectories = self.check(config, how)
        assert engine._light_cone(config, 0) is not None
        assert all(engine._light_cone(config, tr.steps) is None for tr in trajectories)
        assert [tr.converged for tr in trajectories] == [converged] * len(trajectories)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["news", "innovation"]), boundary=boundaries,
           how=st.sampled_from(["run", "jobs=1", "jobs=2", "jobs=3"]))
    def test_small_configs(self, data, model, boundary, how):
        height, width = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        params = (NewsRuleParams() if model == "news"
                  else InnovationRuleParams(threshold=data.draw(st.floats(0.1, 3.0))))
        config = SimulationConfig(width=width, height=height, boundary=boundary, rule_params=params,
                                  seed_position=(data.draw(st.integers(0, height - 1)),
                                                 data.draw(st.integers(0, width - 1))),
                                  rng_seed=data.draw(st.integers(0, 2**32)), max_steps=data.draw(st.integers(1, 40)))
        self.check(config, how, runs=data.draw(st.integers(1, 4)))
