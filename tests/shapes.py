"""Shape checks on fraction series that the acceptance and model tests share."""
import numpy as np


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
