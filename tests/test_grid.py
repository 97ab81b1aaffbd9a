import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from newsca import (
    ADOPTION_CHARS,
    MOORE_OFFSETS,
    AdoptionState,
    Boundary,
    CellState,
    Grid,
    count_adoption,
    count_states,
    grid_from_text,
    grid_to_text,
    neighbor_counts,
    neighborhood,
    new_grid,
)

news_grids = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 2),
)
boundaries = st.sampled_from([Boundary.BOUNDED, Boundary.TOROIDAL])


class TestNewGrid:
    def test_default_field(self):
        grid = new_grid(40, 40, (20, 20))
        assert count_states(grid) == (1599, 0, 1)
        assert grid.cells[20, 20] == CellState.BLACK

    def test_default_seed_is_center(self):
        grid = new_grid(40, 40)
        assert grid.cells[20, 20] == CellState.BLACK

    def test_degenerate_single_cell(self):
        grid = new_grid(1, 1, (0, 0))
        assert count_states(grid) == (0, 0, 1)

    def test_three_by_three_center(self):
        grid = new_grid(3, 3, (1, 1))
        assert count_states(grid) == (8, 0, 1)
        assert grid.cells[1, 1] == CellState.BLACK

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (0, 0), (-1, 3)])
    def test_zero_dimension_rejected(self, width, height):
        with pytest.raises(ValueError):
            new_grid(width, height, (0, 0))

    @pytest.mark.parametrize("pos", [(-1, 0), (0, -1), (3, 0), (0, 3), (40, 40)])
    def test_out_of_bounds_seed_rejected(self, pos):
        with pytest.raises(ValueError):
            new_grid(3, 3, pos)

    @given(
        w=st.integers(1, 20),
        h=st.integers(1, 20),
        data=st.data(),
    )
    def test_initial_counts_property(self, w, h, data):
        r = data.draw(st.integers(0, h - 1))
        c = data.draw(st.integers(0, w - 1))
        assert count_states(new_grid(w, h, (r, c))) == (w * h - 1, 0, 1)

    def test_adoption_grid(self):
        grid = new_grid(5, 4, (2, 3), seed_state=AdoptionState.ADOPTED)
        assert count_adoption(grid) == (19, 1)
        assert grid.cells[2, 3] == AdoptionState.ADOPTED


class TestNeighborhood:
    def test_bounded_corner_has_three(self):
        grid = new_grid(3, 3, (1, 1))
        assert len(neighborhood(grid, (0, 0))) == 3

    def test_bounded_edge_has_five(self):
        grid = new_grid(3, 3, (1, 1))
        assert len(neighborhood(grid, (0, 1))) == 5

    def test_toroidal_corner_has_eight(self):
        grid = new_grid(3, 3, (1, 1), boundary=Boundary.TOROIDAL)
        assert len(neighborhood(grid, (0, 0))) == 8

    def test_interior_fixed_offset_order(self):
        grid = new_grid(3, 3, (1, 1))
        grid.cells[0, 1] = CellState.GREY
        grid.cells[2, 2] = CellState.BLACK
        grid.cells[1, 1] = CellState.WHITE
        nb = neighborhood(grid, (1, 1))
        # MOORE_OFFSETS order: (-1,-1) (-1,0) (-1,1) (0,-1) (0,1) (1,-1) (1,0) (1,1)
        assert list(nb) == [0, 1, 0, 0, 0, 0, 0, 2]

    def test_toroidal_wraparound_positions(self):
        grid = new_grid(3, 3, (1, 1), boundary=Boundary.TOROIDAL)
        grid.cells[:] = CellState.WHITE
        grid.cells[2, 2] = CellState.BLACK  # wraps to the (-1,-1) slot of (0,0)
        nb = neighborhood(grid, (0, 0))
        assert nb[0] == CellState.BLACK
        assert np.count_nonzero(nb == CellState.BLACK) == 1

    def test_out_of_bounds_position_raises(self):
        grid = new_grid(3, 3, (1, 1))
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
        counts = neighbor_counts(grid.cells == CellState.BLACK, boundary)
        assert np.count_nonzero(nb == CellState.BLACK) == counts[r, c]


class TestCounting:
    def test_all_white(self):
        grid = Grid(np.zeros((2, 2), dtype=np.uint8))
        assert count_states(grid) == (4, 0, 0)

    @given(cells=news_grids)
    def test_counts_sum_to_field_size(self, cells):
        grid = Grid(cells)
        assert sum(count_states(grid)) == grid.field_size

    def test_code_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError, match="cell code 3"):
            count_states(Grid(np.full((2, 2), 3, dtype=np.uint8)))
        with pytest.raises(ValueError, match="cell code 2"):
            count_adoption(Grid(np.array([[0, 1], [2, 1]], dtype=np.uint8)))


class TestAsciiSerialization:
    def test_header_and_chars(self):
        grid = new_grid(3, 2, (0, 2))
        grid.cells[1, 0] = CellState.GREY
        text = grid_to_text(grid)
        assert text == "3 2 bounded\n..#\no..\n"

    @given(cells=news_grids, boundary=boundaries)
    def test_round_trip(self, cells, boundary):
        grid = Grid(cells, boundary)
        assert grid_from_text(grid_to_text(grid)) == grid

    def test_adoption_round_trip(self):
        grid = new_grid(4, 3, (1, 1), boundary=Boundary.TOROIDAL, seed_state=AdoptionState.ADOPTED)
        text = grid_to_text(grid, ADOPTION_CHARS)
        assert text.splitlines()[0] == "4 3 toroidal"
        assert grid_from_text(text, ADOPTION_CHARS) == grid

    @pytest.mark.parametrize(
        "text",
        ["", "3 2\n...\n...\n", "3 2 bounded\n...\n", "2 2 bounded\n...\n..\n", "2 1 bounded\n.x\n"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            grid_from_text(text)


class TestGridType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Grid(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            Grid(np.zeros((0, 3), dtype=np.uint8))

    def test_equality_includes_boundary(self):
        a = new_grid(3, 3, (1, 1), Boundary.BOUNDED)
        b = new_grid(3, 3, (1, 1), Boundary.TOROIDAL)
        assert a != b
        assert a == a.copy()
