from dataclasses import replace

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
    adopts_innovation,
    adopts_news,
    count_states,
    derive_run_seeds,
    make_rng,
    neighbor_counts,
    new_grid,
    run,
    run_ensemble,
    step,
    step_reference,
)
from newsca.cli import EXIT_OK, main
from newsca.engine import _count_row, _fixed

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


MAX_DRAW = float(np.nextafter(1.0, 0.0))  # the largest value rng.random() returns


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


class MaxDraws:
    """Generator stand-in whose every draw is the largest ``rng.random()`` returns."""

    def random(self, size=None):
        return MAX_DRAW if size is None else np.full(size, MAX_DRAW)


class TestStep:
    def test_all_white_is_inert(self):
        grid = Grid(np.zeros((3, 3), dtype=np.uint8))
        assert step(grid, 0, make_rng(99), NewsRuleParams()) == grid

    def test_all_black_goes_all_grey(self):
        grid = Grid(np.full((3, 3), CellState.BLACK, dtype=np.uint8))
        out = step(grid, 0, make_rng(1), NewsRuleParams())
        assert np.all(out.cells == CellState.GREY)

    def test_center_seed_adoption_pattern(self):
        # The 8 whites around a black center each see m=1 and adopt iff
        # their boosted draw clears the threshold: 1.5 p > 1, so p > 2/3.
        grid = new_grid(3, 3, (1, 1))
        seed = 1234
        out = step(grid, 0, make_rng(seed), NewsRuleParams())
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

    # The kernel's vectorized ``params.adopts`` is cross-checked against the
    # scalar adopts_news / adopts_innovation that step_reference applies, at
    # random draws and at the largest one, with thresholds at and one ulp
    # beside the products they compare.
    @settings(max_examples=60, deadline=None)
    @given(cells=news_cells, boundary=boundaries, seed=st.integers(0, 2**32),
           threshold=news_thresholds, boost_below=st.integers(0, 8), largest=st.booleans())
    def test_vectorized_matches_reference_news(self, cells, boundary, seed, threshold, boost_below,
                                               largest):
        grid = Grid(cells, boundary)
        params = NewsRuleParams(adoption_threshold=threshold, boost_below=boost_below)
        rngs = (MaxDraws(), MaxDraws()) if largest else (make_rng(seed), make_rng(seed))
        fast = step(grid, 0, rngs[0], params)
        slow = step_reference(grid, 0, rngs[1], params)
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32),
           threshold=innovation_thresholds, largest=st.booleans())
    def test_vectorized_matches_reference_innovation(self, cells, boundary, seed, threshold, largest):
        grid = Grid(cells, boundary)
        params = InnovationRuleParams(threshold=threshold)
        rngs = (MaxDraws(), MaxDraws()) if largest else (make_rng(seed), make_rng(seed))
        fast = step(grid, 0, rngs[0], params)
        slow = step_reference(grid, 0, rngs[1], params)
        assert fast == slow

    @settings(max_examples=100, deadline=None)
    @given(threshold=news_thresholds, boost_below=st.integers(0, 8),
           boost_factor=st.sampled_from([1.0, 1.5, 2.0]),
           draws=st.lists(st.floats(0.0, MAX_DRAW), max_size=4))
    def test_news_adopts_matches_scalar_reference(self, threshold, boost_below, boost_factor, draws):
        params = NewsRuleParams(threshold, boost_factor, boost_below)
        p, m = np.meshgrid(np.array([*draws, MAX_DRAW]), np.arange(9))
        expected = [[adopts_news(int(mi), float(pi), params) for pi, mi in zip(*row)]
                    for row in zip(p, m)]
        assert params.adopts(p, m).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(threshold=innovation_thresholds, draws=st.lists(st.floats(0.0, MAX_DRAW), max_size=4))
    def test_innovation_adopts_matches_scalar_reference(self, threshold, draws):
        params = InnovationRuleParams(threshold=threshold)
        p, m = np.meshgrid(np.array([*draws, MAX_DRAW]), np.arange(9))
        expected = [[adopts_innovation(int(mi), float(pi), params) for pi, mi in zip(*row)]
                    for row in zip(p, m)]
        assert params.adopts(p, m).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_news_fixed_point_test_matches_a_step(self, cells, boundary, seed):
        # Codes 0 and 1 are white and grey: with no black cell a news step is
        # deterministic, so the fixed-point test must agree with taking one.
        grid = Grid(cells, boundary)
        params = NewsRuleParams()
        fixed = _fixed(grid, count_states(grid), params)
        assert fixed == (step(grid, 0, make_rng(seed), params) == grid)

    # Adoption is monotone in the draw, so a state is fixed exactly when a
    # step whose every draw is the largest possible changes nothing.
    @settings(max_examples=150, deadline=None)
    @given(cells=news_cells, boundary=boundaries, threshold=news_thresholds,
           boost_below=st.integers(0, 8))
    def test_news_fixed_iff_the_largest_draws_change_nothing(self, cells, boundary, threshold, boost_below):
        grid = Grid(cells, boundary)
        params = NewsRuleParams(adoption_threshold=threshold, boost_below=boost_below)
        fixed = _fixed(grid, count_states(grid), params)
        assert fixed == (step(grid, 0, MaxDraws(), params) == grid)

    @settings(max_examples=100, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, threshold=innovation_thresholds)
    def test_innovation_frozen_iff_the_largest_draws_change_nothing(self, cells, boundary, threshold):
        grid = Grid(cells, boundary)
        params = InnovationRuleParams(threshold=threshold)
        frozen = _fixed(grid, _count_row(grid, params), params)
        assert frozen == (step(grid, 0, MaxDraws(), params) == grid)

    @settings(max_examples=30, deadline=None)
    @given(cells=news_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_conservation_through_steps(self, cells, boundary, seed):
        grid = Grid(cells, boundary)
        rng = make_rng(seed)
        for t in range(5):
            grid = step(grid, t, rng, NewsRuleParams())
            assert sum(count_states(grid)) == grid.field_size

    @settings(max_examples=30, deadline=None)
    @given(cells=adoption_cells, boundary=boundaries, seed=st.integers(0, 2**32))
    def test_adoption_never_decreases(self, cells, boundary, seed):
        grid = Grid(cells, boundary)
        rng = make_rng(seed)
        adopted = int(np.count_nonzero(grid.cells == AdoptionState.ADOPTED))
        for t in range(8):
            grid = step(grid, t, rng, InnovationRuleParams())
            now = int(np.count_nonzero(grid.cells == AdoptionState.ADOPTED))
            assert now >= adopted
            adopted = now


class TestRun:
    def test_single_cell_trace(self):
        # black -> grey -> white through vacuous neighborhoods, then fixed
        tr = run(SimulationConfig(width=1, height=1, seed_position=(0, 0), rng_seed=0))
        assert tr.counts.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert tr.converged_at == 2
        assert tr.black_extinct_at == 1
        assert np.all(tr.final_grid.cells == CellState.WHITE)

    def test_initial_row_is_seeded_field(self):
        tr = run(SimulationConfig(width=9, height=7, rng_seed=3, max_steps=2))
        assert tr.counts[0].tolist() == [62, 0, 1]

    def test_deterministic_for_equal_configs(self):
        cfg = SimulationConfig(width=15, height=15, rng_seed=77)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.counts, b.counts)
        assert a.converged_at == b.converged_at
        assert a.final_grid == b.final_grid

    def test_black_extinction_is_permanent(self):
        tr = run(SimulationConfig(width=20, height=20, rng_seed=11))
        black = tr.counts[:, 2]
        gone = np.nonzero(black == 0)[0]
        assert gone.size > 0
        assert np.all(black[gone[0]:] == 0)
        assert tr.black_extinct_at == gone[0]

    def test_converged_fixed_point_characterization(self):
        tr = run(SimulationConfig(width=20, height=20, rng_seed=4))
        assert tr.converged
        assert tr.counts[tr.converged_at, 2] == 0
        cells = tr.final_grid.cells
        assert not np.any(cells == CellState.BLACK)
        white_nb = neighbor_counts(cells == CellState.WHITE, tr.final_grid.boundary)
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

    def test_snapshots_at_multiples(self):
        tr = run(SimulationConfig(width=9, height=9, rng_seed=2, snapshot_every=5))
        steps = [s for s, _ in tr.snapshots]
        assert steps[0] == 0
        assert all(s % 5 == 0 for s in steps)
        assert steps == sorted(steps)

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
        with pytest.raises(ValueError):
            SimulationConfig(snapshot_every=0)


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

    def test_parallelism_does_not_change_results(self):
        cfg = SimulationConfig(width=20, height=20, rng_seed=13)
        a = run_ensemble(cfg, 8, jobs=1)
        b = run_ensemble(cfg, 8, jobs=4)
        np.testing.assert_array_equal(a.mean_fractions, b.mean_fractions)
        assert a.converged_steps == b.converged_steps
        assert a.run_seeds == b.run_seeds

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

    def test_default_field_median_convergence_window(self):
        # deterministic for the fixed base seed: median lands mid-window
        ens = run_ensemble(SimulationConfig(rng_seed=42), 100)
        _, median, _ = ens.convergence_stats()
        assert 80 <= median <= 150
