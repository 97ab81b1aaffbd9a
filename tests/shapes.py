"""Shape checks on fraction series, and a strategy drawing such series, that the tests share."""
import numpy as np
from hypothesis import strategies as st


@st.composite
def extreme_series(draw):
    """(steps, grey, white): 4 to 30 strictly increasing steps within +-1.79e308,
    so that differences of steps may pass the double range, with fractions in [0, 1]."""
    steps = sorted(draw(st.lists(st.floats(-1.79e308, 1.79e308), min_size=4, max_size=30, unique=True)))
    fractions = st.lists(st.floats(0.0, 1.0), min_size=len(steps), max_size=len(steps))
    return steps, draw(fractions), draw(fractions)


def moving_average(values, window: int) -> np.ndarray:
    """Centered moving average ('valid' mode: output is len - window + 1)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    return np.convolve(values, np.ones(window) / window, mode="valid")


def is_unimodal(values, tol: float = 0.0) -> bool:
    """Whether a series rises (non-strictly) to a single peak then falls.

    ``tol`` sets the largest counter-movement still treated as a tie, e.g.
    the one-cell resolution of a count-derived series.
    """
    values = np.asarray(values, dtype=float)
    if values.size <= 2:
        return True
    peak = int(np.argmax(values))
    d = np.diff(values)
    return bool(np.all(d[:peak] >= -tol) and np.all(d[peak:] <= tol))
