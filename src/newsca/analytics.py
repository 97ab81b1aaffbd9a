"""Trajectory post-processing: normalization, stabilization ratios, cross points.

A fraction series is a (steps, 3) float array with columns (white, grey,
black), each row summing to 1. All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CrossPoint:
    """Step where the three fraction curves are mutually closest.

    ``level`` is the mean of the three fractions there and ``spread`` the
    largest pairwise absolute difference.
    """

    step: int
    level: float
    spread: float


def normalize(counts: np.ndarray, field_size: int) -> np.ndarray:
    """Divide (white, grey, black) count rows by the field size.

    The only place counts become fractions. ``counts`` is a (rows, 3)
    array. Raises ValueError if any row does not sum exactly to
    ``field_size``: counts are conserved by construction, so a violation
    signals an engine bug upstream.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != 3:
        raise ValueError("expected a (rows, 3) count array")
    sums = counts.sum(axis=1)
    bad = np.nonzero(sums != field_size)[0]
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"conservation violated at step {t}: counts sum to {int(sums[t])}, "
            f"field size is {field_size}"
        )
    return counts / float(field_size)


def stabilization_ratio(series: np.ndarray) -> tuple[float, float, float]:
    """Final (grey, white, black) fractions of a series, in that ratio order."""
    series = np.asarray(series)
    if series.size == 0:
        raise ValueError("empty series")
    white, grey, black = series[-1]
    return float(grey), float(white), float(black)


def cross_point(series: np.ndarray) -> CrossPoint:
    """Step minimizing the maximum pairwise distance of the three curves.

    Ties break toward the earlier step. Total on any non-empty series; the
    caller decides whether the reported spread is small enough to call the
    curves crossed.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    w, g, b = series[:, 0], series[:, 1], series[:, 2]
    spread = np.maximum(np.abs(w - g), np.maximum(np.abs(w - b), np.abs(g - b)))
    k = int(np.argmin(spread))
    return CrossPoint(step=k, level=float(series[k].mean()), spread=float(spread[k]))
