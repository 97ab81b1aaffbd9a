import inspect
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from newsca import (
    ADOPTION_CHARS,
    NEWS_CHARS,
    AdoptionState,
    Boundary,
    CellState,
    Grid,
    InnovationRuleParams,
    NewsRuleParams,
    SimulationConfig,
    grid_from_text,
    grid_to_text,
    make_rng,
    step,
)
from newsca.engine import _block_sums, _Buffers
from newsca.reference import MOORE_OFFSETS, count_adoption, count_states, neighborhood

news_grids = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 2),
)
boundaries = st.sampled_from([Boundary.BOUNDED, Boundary.TOROIDAL])


def initial_grid(width, height, seed_position=None, **config):
    """The initial field of a ``width`` x ``height`` config, news unless ``config`` says otherwise."""
    return SimulationConfig(width=width, height=height, seed_position=seed_position, **config).initial_grid()


class TestNewGrid:
    """The new field a config starts from: code 0 everywhere but one seed cell."""

    def test_default_field(self):
        grid = initial_grid(40, 40, (20, 20))
        assert count_states(grid) == (1599, 0, 1)
        assert grid.cells[20, 20] == CellState.BLACK

    def test_default_seed_is_center(self):
        grid = initial_grid(40, 40)
        assert grid.cells[20, 20] == CellState.BLACK

    def test_degenerate_single_cell(self):
        grid = initial_grid(1, 1, (0, 0))
        assert count_states(grid) == (0, 0, 1)

    def test_three_by_three_center(self):
        grid = initial_grid(3, 3, (1, 1))
        assert count_states(grid) == (8, 0, 1)
        assert grid.cells[1, 1] == CellState.BLACK

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (0, 0), (-1, 3)])
    def test_zero_dimension_rejected(self, width, height):
        with pytest.raises(ValueError):
            initial_grid(width, height, (0, 0))

    @pytest.mark.parametrize("pos", [(-1, 0), (0, -1), (3, 0), (0, 3), (40, 40)])
    def test_out_of_bounds_seed_rejected(self, pos):
        with pytest.raises(ValueError):
            initial_grid(3, 3, pos)

    @given(
        w=st.integers(1, 20),
        h=st.integers(1, 20),
        data=st.data(),
    )
    def test_initial_counts_property(self, w, h, data):
        r = data.draw(st.integers(0, h - 1))
        c = data.draw(st.integers(0, w - 1))
        assert count_states(initial_grid(w, h, (r, c))) == (w * h - 1, 0, 1)

    def test_adoption_grid(self):
        grid = initial_grid(5, 4, (2, 3), rule_params=InnovationRuleParams())
        assert count_adoption(grid) == (19, 1)
        assert grid.cells[2, 3] == AdoptionState.ADOPTED


class TestNeighborhood:
    def test_bounded_corner_has_three(self):
        grid = initial_grid(3, 3, (1, 1))
        assert len(neighborhood(grid, (0, 0))) == 3

    def test_bounded_edge_has_five(self):
        grid = initial_grid(3, 3, (1, 1))
        assert len(neighborhood(grid, (0, 1))) == 5

    def test_toroidal_corner_has_eight(self):
        grid = initial_grid(3, 3, (1, 1), boundary=Boundary.TOROIDAL)
        assert len(neighborhood(grid, (0, 0))) == 8

    def test_interior_fixed_offset_order(self):
        grid = initial_grid(3, 3, (1, 1))
        grid.cells[0, 1] = CellState.GREY
        grid.cells[2, 2] = CellState.BLACK
        grid.cells[1, 1] = CellState.WHITE
        nb = neighborhood(grid, (1, 1))
        # MOORE_OFFSETS order: (-1,-1) (-1,0) (-1,1) (0,-1) (0,1) (1,-1) (1,0) (1,1)
        assert list(nb) == [0, 1, 0, 0, 0, 0, 0, 2]

    def test_toroidal_wraparound_positions(self):
        grid = initial_grid(3, 3, (1, 1), boundary=Boundary.TOROIDAL)
        grid.cells[:] = CellState.WHITE
        grid.cells[2, 2] = CellState.BLACK  # wraps to the (-1,-1) slot of (0,0)
        nb = neighborhood(grid, (0, 0))
        assert nb[0] == CellState.BLACK
        assert np.count_nonzero(nb == CellState.BLACK) == 1

    def test_out_of_bounds_position_raises(self):
        grid = initial_grid(3, 3, (1, 1))
        with pytest.raises(IndexError):
            neighborhood(grid, (3, 0))
        with pytest.raises(IndexError):
            neighborhood(grid, (0, -1))

    @given(cells=news_grids, data=st.data())
    def test_bounded_length_matches_in_bounds_offsets(self, cells, data):
        grid = Grid(cells, Boundary.BOUNDED)
        r = data.draw(st.integers(0, grid.height - 1))
        c = data.draw(st.integers(0, grid.width - 1))
        expected = sum(
            1
            for dr, dc in MOORE_OFFSETS
            if 0 <= r + dr < grid.height and 0 <= c + dc < grid.width
        )
        assert len(neighborhood(grid, (r, c))) == expected

    @given(cells=news_grids, boundary=boundaries, data=st.data())
    def test_matches_vectorized_counts(self, cells, boundary, data):
        grid = Grid(cells, boundary)
        r = data.draw(st.integers(0, grid.height - 1))
        c = data.draw(st.integers(0, grid.width - 1))
        nb = neighborhood(grid, (r, c))
        mask = (grid.cells == CellState.BLACK)[None]
        counts = (_block_sums(mask, boundary, _Buffers.new(mask.shape)) - mask)[0]
        assert np.count_nonzero(nb == CellState.BLACK) == counts[r, c]


class TestCounting:
    def test_all_white(self):
        grid = Grid(np.zeros((2, 2), dtype=np.uint8))
        assert count_states(grid) == (4, 0, 0)

    @given(cells=news_grids)
    def test_counts_sum_to_field_size(self, cells):
        grid = Grid(cells)
        assert sum(count_states(grid)) == grid.cells.size

    def test_code_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError, match="cell code 3"):
            count_states(Grid(np.full((2, 2), 3, dtype=np.uint8)))
        with pytest.raises(ValueError, match="cell code 2"):
            count_adoption(Grid(np.array([[0, 1], [2, 1]], dtype=np.uint8)))


class TestAsciiSerialization:
    def test_header_and_chars(self):
        grid = initial_grid(3, 2, (0, 2))
        grid.cells[1, 0] = CellState.GREY
        text = grid_to_text(grid, NEWS_CHARS)
        assert text == "3 2 bounded\n..#\no..\n"

    @given(cells=news_grids, boundary=boundaries)
    def test_round_trip(self, cells, boundary):
        grid = Grid(cells, boundary)
        assert grid_from_text(grid_to_text(grid, NEWS_CHARS), NEWS_CHARS) == grid

    def test_adoption_round_trip(self):
        grid = initial_grid(4, 3, (1, 1), boundary=Boundary.TOROIDAL, rule_params=InnovationRuleParams())
        text = grid_to_text(grid, ADOPTION_CHARS)
        assert text.splitlines()[0] == "4 3 toroidal"
        assert grid_from_text(text, ADOPTION_CHARS) == grid

    @pytest.mark.parametrize("text,match", [
        ("", "empty grid text"),
        ("3 2\n...\n...\n", "malformed grid header: '3 2'"),
        ("0 0 bounded\n", "malformed grid header: '0 0 bounded'"),
        ("-1 0 bounded\n", "malformed grid header: '-1 0 bounded'"),
        ("2 x bounded\n..\n", "malformed grid header: '2 x bounded'"),
        ("3 2 bounded\n...\n", "grid body does not match header dimensions"),
        ("2 2 bounded\n...\n..\n", "grid body does not match header dimensions"),
        ("2 1 bounded\n.x\n", "unknown cell character 'x'"),
    ], ids=["empty", "two-fields", "zero-size", "negative-size", "size-not-a-number", "missing-row", "long-row",
            "unknown-char"])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            grid_from_text(text, NEWS_CHARS)


    # The lattice knows no model, so the caller names the alphabet every time.
    @pytest.mark.parametrize("codec", [grid_to_text, grid_from_text])
    def test_alphabet_has_no_default(self, codec):
        assert inspect.signature(codec).parameters["chars"].default is inspect.Parameter.empty


class TestGridType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Grid(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            Grid(np.zeros((0, 3), dtype=np.uint8))

    def test_equality_includes_boundary(self):
        a = initial_grid(3, 3, (1, 1), boundary=Boundary.BOUNDED)
        b = initial_grid(3, 3, (1, 1), boundary=Boundary.TOROIDAL)
        assert a != b
        assert a == Grid(a.cells.copy(), a.boundary)
        assert a.__eq__(object()) is NotImplemented and a != object()

    # The uint8 cast would turn 300 into 44, -1 into 255 and 2.7 into 2, and
    # NaN and inf into some code, with a warning; a bool mask casts exactly.
    @pytest.mark.parametrize("cells,kept", [
        (np.array([[300, 0], [0, 0]]), False),
        (np.array([[-1, 0], [0, 0]]), False),
        (np.array([[2.7, 0], [0, 0]]), False),
        (np.array([[np.nan, 0], [0, 0]]), False),
        (np.array([[np.inf, 0], [0, 0]]), False),
        (np.array([[True, False], [False, True]]), True),
    ], ids=["300", "-1", "2.7", "nan", "inf", "bool"])
    def test_only_codes_the_uint8_cast_keeps_accepted(self, cells, kept):
        if kept:
            np.testing.assert_array_equal(Grid(cells).cells, cells)
        else:
            with pytest.raises(ValueError, match=r"cell codes must be integers in \[0, 255\]"):
                Grid(cells)

    def test_boundary_given_by_its_value(self):
        # A black corner cell reaches the opposite edges only on a torus.
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[0, 0] = CellState.BLACK
        by_value = Grid(cells, "toroidal")
        assert by_value.boundary is Boundary.TOROIDAL
        assert by_value == Grid(cells, Boundary.TOROIDAL)
        assert grid_to_text(by_value, NEWS_CHARS).startswith("5 5 toroidal\n")
        assert (step(by_value, make_rng(3), NewsRuleParams())
                == step(Grid(cells, Boundary.TOROIDAL), make_rng(3), NewsRuleParams()))

    @pytest.mark.parametrize("boundary", ["open", None, True, 0, ["toroidal"], {"toroidal": 1}])
    def test_unknown_boundary_rejected(self, boundary):
        with pytest.raises(ValueError, match=r"^boundary must be one of \['bounded', 'toroidal'\]"):
            Grid(np.zeros((2, 2), dtype=np.uint8), boundary)
