"""Machine-speed yardsticks: frozen work timed around every measured command.

The box the benchmark runs on is shared. Other tenants slow the CPU itself,
in phases of seconds to minutes (the cost of a 40x40 step is about 120 us in
quiet phases and about 190 us in busy ones), so neither wall time nor CPU
time of a single run holds still. A yardstick is a fixed piece of work of
the same kind as a workload's command, frozen in this file so that no change
to the package moves it. Timed right before and after a command, it tells
how much the box was slowed while the command ran, and dividing the
command's time by that slowdown gives its time at the reference box's quiet
speed.

Slowdowns differ with the kind of work, so each workload has its own
yardstick: a copy of the seed's news stepper on a 40x40 grid (bounded or
toroidal) for the ensembles, on a 300x300 grid for the large field, and a
Nelder-Mead logistic fit for the fits; a fresh interpreter importing numpy
tracks a fresh interpreter importing the package. A yardstick of another
kind tracked a command's slowdown worse than no correction at all.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy.optimize import minimize

# Each yardstick's time per iteration on the reference box (Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), about the 5th
# percentile over 20 seconds. They only convert slowdowns into seconds; any
# fixed values would rank two versions of the package alike.
REFERENCE_S = {
    "step-40": 1.4e-4,
    "step-40-torus": 3.3e-4,
    "step-300": 4.2e-3,
    "fit": 6.0e-3,
    "interpreter": 1.5e-1,
}
# Time each yardstick for about this share of the command it brackets.
SHARE = 0.05
# A timing this recent still describes the box.
FRESH_S = 0.5


def _neighbors_bounded(mask: np.ndarray) -> np.ndarray:
    p = np.pad(mask.astype(np.int64), 1)
    return (p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:] + p[1:-1, :-2] + p[1:-1, 2:]
            + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:])


def _neighbors_torus(mask: np.ndarray) -> np.ndarray:
    m = mask.astype(np.int64)
    total = np.zeros_like(m)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                total += np.roll(np.roll(m, dy, axis=0), dx, axis=1)
    return total


class Yardstick:
    """One kind of frozen work; ``measure`` times a callable between two runs of it."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        if kind == "fit":
            t = np.arange(121.0)
            self._fit_data = (t, 0.8 / (1.0 + np.exp(-0.15 * (t - 30.0))))
        elif kind != "interpreter":
            size = 300 if kind == "step-300" else 40
            self._cells = rng.integers(0, 3, (size, size)).astype(np.uint8)
            self._neighbors = _neighbors_torus if kind == "step-40-torus" else _neighbors_bounded
        self.slowdowns: list[float] = []
        self._last: tuple[float, float] | None = None  # (when, seconds) of the latest timing
        self.seconds(1)  # untimed, so that no timing includes a cold first iteration

    def _step(self, rng: np.random.Generator) -> None:
        """One news step of the fixed grid, as the seed's stepper does it."""
        cells = self._cells
        white, grey, black = cells == 0, cells == 1, cells == 2
        white_nb = self._neighbors(white)
        new = cells.copy()
        new[black & (white_nb == 0)] = 1
        new[grey & (white_nb == 0)] = 0
        rows, cols = np.nonzero(white)
        draws = rng.random(rows.size)
        m = self._neighbors(black)[rows, cols]
        fires = np.where(m < 2, draws * 2.0, draws) * m > 0.5
        new[rows[fires], cols[fires]] = 2
        np.bincount(new.ravel(), minlength=3)
        bool((new == cells).all())

    def _fit(self) -> None:
        t, target = self._fit_data

        def sse(p: np.ndarray) -> float:
            return float(np.sum((p[0] / (1.0 + np.exp(-p[2] * (t - p[1]))) - target) ** 2))

        minimize(sse, [0.5, 20.0, 0.1], method="Nelder-Mead",
                 options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})

    @staticmethod
    def _interpreter() -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)

    def seconds(self, iterations: int) -> float:
        """Mean time of one iteration over ``iterations`` back-to-back ones."""
        rng = np.random.default_rng(1)
        t0 = perf_counter()
        for _ in range(iterations):
            if self.kind == "interpreter":
                self._interpreter()
            elif self.kind == "fit":
                self._fit()
            else:
                self._step(rng)
        return (perf_counter() - t0) / iterations

    def measure(self, fn, expect_s: float):
        """``(fn(), seconds, slowdown)``: the slowdown is the yardstick's time
        around the call over its reference time; ``expect_s`` sizes it. The
        timing after one call serves as the timing before the next when that
        follows within ``FRESH_S``."""
        iterations = max(1, round(SHARE * expect_s / self.reference_s))
        t0 = perf_counter()
        if self._last is not None and t0 - self._last[0] < FRESH_S:
            before = self._last[1]
        else:
            before = self.seconds(iterations)
            t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        after = self.seconds(iterations)
        self._last = (perf_counter(), after)
        slowdown = (before + after) / 2 / self.reference_s
        self.slowdowns.append(slowdown)
        return result, seconds, slowdown
