import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsca import (
    cross_point,
    normalize,
    reference_model,
    stabilization_ratio,
)
from shapes import is_unimodal, moving_average


class TestNormalize:
    def test_initial_field(self):
        out = normalize(np.array([[1599, 0, 1]]), 1600)
        assert out[0].tolist() == [0.999375, 0.0, 0.000625]

    def test_simple_fractions(self):
        out = normalize(np.array([[0, 1200, 400]]), 1600)
        assert out[0].tolist() == [0.0, 0.75, 0.25]

    def test_conservation_violation_rejected(self):
        with pytest.raises(ValueError, match="step 1"):
            normalize(np.array([[1599, 0, 1], [1598, 0, 1]]), 1600)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_not_count_rows_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(rows, 3\) count array"):
            normalize(np.zeros(shape, dtype=np.int64), 0)

    @given(
        data=st.data(),
        field=st.integers(1, 500),
        steps=st.integers(1, 10),
    )
    def test_round_trip_recovers_counts(self, data, field, steps):
        rows = []
        for _ in range(steps):
            w = data.draw(st.integers(0, field))
            g = data.draw(st.integers(0, field - w))
            rows.append([w, g, field - w - g])
        counts = np.array(rows)
        back = normalize(counts, field) * field
        assert np.array_equal(np.rint(back).astype(np.int64), counts)


class TestStabilizationRatio:
    def test_returns_grey_white_black_order(self):
        series = np.array([[0.5, 0.4, 0.1], [0.25, 0.75, 0.0]])
        assert stabilization_ratio(series) == (0.75, 0.25, 0.0)

    def test_single_step_series(self):
        assert stabilization_ratio(np.array([[0.1, 0.2, 0.7]])) == (0.2, 0.1, 0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stabilization_ratio(np.empty((0, 3)))


class TestCrossPoint:
    def test_reference_curves_cross_near_one_third(self):
        # brute-force verified: the minimax step of the built-in model over
        # t in [0, 120] is 28, where all three curves sit near 1/3
        grey, white, black = reference_model().curves(np.arange(121))
        series = np.column_stack([white, grey, black])
        cp = cross_point(series)
        assert cp.step == 28
        assert abs(cp.level - 1.0 / 3.0) < 1e-6
        assert cp.spread == pytest.approx(0.02226158370090031, abs=1e-12)

    def test_constant_equal_series(self):
        series = np.full((5, 3), 1.0 / 3.0)
        cp = cross_point(series)
        assert (cp.step, cp.spread) == (0, 0.0)
        assert cp.level == pytest.approx(1.0 / 3.0)

    def test_ties_break_earlier(self):
        series = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        assert cross_point(series).step == 0

    def test_total_even_when_curves_never_meet(self):
        series = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]])
        cp = cross_point(series)
        assert cp.step == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cross_point(np.empty((0, 3)))

    @given(
        data=st.data(),
        n=st.integers(1, 12),
    )
    def test_permutation_invariant(self, data, n):
        rows = [
            [data.draw(st.floats(0, 1)) for _ in range(3)]
            for _ in range(n)
        ]
        series = np.array(rows)
        base = cross_point(series)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            cp = cross_point(series[:, perm])
            assert cp.step == base.step
            assert cp.spread == pytest.approx(base.spread, abs=1e-15)


class TestShapeHelpers:
    def test_moving_average(self):
        out = moving_average([0.0, 3.0, 6.0, 3.0], 3)
        assert out.tolist() == [3.0, 4.0]
        assert moving_average([1.0, 2.0], 1).tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_unimodal_accepts_bell(self):
        assert is_unimodal([0, 1, 3, 7, 4, 2, 0])
        assert is_unimodal([0, 1, 1, 2, 2, 1, 0])  # plateaus allowed
        assert is_unimodal([1.0])
        assert is_unimodal([0.0, 1.0])

    def test_unimodal_rejects_second_bump(self):
        assert not is_unimodal([0, 2, 1, 2, 0])
        assert not is_unimodal([3, 2, 3])

    def test_tolerance_absorbs_small_jitter(self):
        series = [0.0, 0.5, 1.0, 0.6, 0.6004, 0.2]
        assert not is_unimodal(series)
        assert is_unimodal(series, tol=1e-3)
