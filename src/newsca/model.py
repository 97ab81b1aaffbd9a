"""Closed-form logistic model of the diffusion curves, plus least-squares fitting.

The grey fraction follows an increasing sigmoid C / (1 + e^(-gamma (t - tau))),
the white fraction the complement of another, and the black fraction is
their normalized difference, so the three curves sum to 1 identically.
Fitting recovers (C, tau, gamma) per curve from sampled series via a
data-derived initial guess refined by Nelder-Mead simplex search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

FIT_MAX_ITERATIONS = 10_000
FIT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LogisticParams:
    """Sigmoid parameters: plateau ``c``, midpoint step ``tau``, slope ``gamma``.

    Increasing-sigmoid convention: ``gamma > 0`` and the curve rises from 0
    to ``c``, crossing ``c / 2`` at ``t = tau``. Falling curves are expressed
    as ``1 - logistic`` rather than via negative slopes.
    """

    c: float
    tau: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.c <= 1:
            raise ValueError(f"plateau c must be in (0, 1], got {self.c}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class AnalyticModel:
    """Grey and white sigmoid parameters; the black curve carries no free
    parameters of its own, it is the difference the other two leave."""

    grey: LogisticParams
    white: LogisticParams


@dataclass(frozen=True)
class FitResult:
    """Outcome of one curve fit; ``params`` is None when the fit failed."""

    params: LogisticParams | None
    rmse: float
    iterations: int
    converged: bool
    message: str = ""


@dataclass(frozen=True)
class ModelFit:
    """Joint grey + white fit with the implied black curve's residual."""

    model: AnalyticModel | None
    grey: FitResult
    white: FitResult
    black_rmse: float | None


def _sigmoid(t: np.ndarray, c, tau, gamma) -> np.ndarray:
    # Unvalidated parameters: the fit's simplex probes points LogisticParams rejects.
    z = gamma * (t - tau)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, c / (1.0 + e), c * e / (1.0 + e))


def logistic(t, params: LogisticParams):
    """Evaluate ``c / (1 + exp(-gamma (t - tau)))`` at scalar or array ``t``.

    Never overflows: the exponential is only ever taken of a non-positive
    argument, saturating cleanly to 0 or ``c`` for extreme ``t``.
    """
    out = _sigmoid(np.asarray(t, dtype=float), params.c, params.tau, params.gamma)
    return float(out) if out.ndim == 0 else out


def eval_grey(t, model: AnalyticModel):
    """Grey (stale news) fraction: the rising sigmoid."""
    return logistic(t, model.grey)


def eval_white(t, model: AnalyticModel):
    """White (uninformed) fraction: complement of its own sigmoid."""
    return 1.0 - logistic(t, model.white)


def eval_black(t, model: AnalyticModel):
    """Black (fresh news) fraction: what normalization leaves over.

    Equals ``1 - grey - white`` identically, i.e. the difference of the two
    sigmoids. Signed by design: some parameterizations dip slightly below
    zero near the origin, and the value is reported as computed.
    """
    return logistic(t, model.white) - logistic(t, model.grey)


def reference_model() -> AnalyticModel:
    """The built-in reference parameterization of the 40x40 dynamics:
    grey (0.75, 30, 0.15), white (0.75, 20, 0.25)."""
    return AnalyticModel(
        grey=LogisticParams(c=0.75, tau=30.0, gamma=0.15),
        white=LogisticParams(c=0.75, tau=20.0, gamma=0.25),
    )


def _failure(message: str) -> FitResult:
    return FitResult(params=None, rmse=math.inf, iterations=0, converged=False, message=message)


def _initial_guess(t: np.ndarray, y: np.ndarray) -> list[float]:
    # Plateau from the data maximum, midpoint from the half-plateau crossing,
    # slope from the steepest observed rise (max slope of a sigmoid is c*gamma/4).
    c0 = min(max(float(y.max()), 1e-6), 1.0)
    crossing = np.nonzero(y >= c0 / 2.0)[0]
    tau0 = float(t[crossing[0]]) if crossing.size else float(t[len(t) // 2])
    slope = float(np.max(np.gradient(y, t)))
    gamma0 = max(4.0 * slope / c0, 1e-3)
    return [c0, tau0, gamma0]


def fit_logistic(t, values, shape: str = "rising") -> FitResult:
    """Least-squares fit of a sigmoid (``shape="rising"``) or its complement
    (``shape="falling"``) to samples ``values`` at steps ``t``.

    Degenerate input (fewer than 4 points, or a constant series) yields a
    failure result rather than an exception; values outside [0, 1] are a
    caller error and raise.
    """
    if shape not in ("rising", "falling"):
        raise ValueError(f"shape must be 'rising' or 'falling', got {shape!r}")
    t = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and values must be 1-D arrays of equal length")
    if np.any((y < 0) | (y > 1)):
        raise ValueError("values must lie in [0, 1]")
    if len(y) < 4:
        return _failure(f"need at least 4 points, got {len(y)}")
    if np.ptp(y) == 0.0:
        return _failure("constant series carries no sigmoid information")

    target = y if shape == "rising" else 1.0 - y

    def sse(p: np.ndarray) -> float:
        return float(np.sum((_sigmoid(t, *p) - target) ** 2))

    res = minimize(
        sse,
        _initial_guess(t, target),
        method="Nelder-Mead",
        options={
            "maxiter": FIT_MAX_ITERATIONS,
            "maxfev": 3 * FIT_MAX_ITERATIONS,
            "fatol": FIT_TOLERANCE,
            "xatol": 1e-10,
        },
    )
    c, tau, gamma = (float(v) for v in res.x)
    rmse = math.sqrt(res.fun / len(y))
    if not 0 < c <= 1 + 1e-9 or gamma <= 0 or not math.isfinite(tau):
        return FitResult(
            params=None,
            rmse=rmse,
            iterations=int(res.nit),
            converged=False,
            message="search left the valid parameter domain",
        )
    params = LogisticParams(c=min(c, 1.0), tau=tau, gamma=gamma)
    return FitResult(
        params=params,
        rmse=rmse,
        iterations=int(res.nit),
        converged=bool(res.success),
        message=str(res.message),
    )


def fit_model(t, grey_values, white_values) -> ModelFit:
    """Fit grey (rising) and white (falling) independently; imply black.

    The black curve of the fitted model is compared against the residual
    series ``1 - grey - white``, giving ``black_rmse``. Per-curve failures
    propagate into the result without blocking the other curve.
    """
    t = np.asarray(t, dtype=float)
    grey_values = np.asarray(grey_values, dtype=float)
    white_values = np.asarray(white_values, dtype=float)
    if not (t.shape == grey_values.shape == white_values.shape):
        raise ValueError("t, grey and white series must be aligned")
    grey_fit = fit_logistic(t, grey_values, shape="rising")
    white_fit = fit_logistic(t, white_values, shape="falling")
    if grey_fit.params is None or white_fit.params is None:
        return ModelFit(model=None, grey=grey_fit, white=white_fit, black_rmse=None)
    model = AnalyticModel(grey=grey_fit.params, white=white_fit.params)
    black_series = 1.0 - grey_values - white_values
    residual = eval_black(t, model) - black_series
    black_rmse = float(np.sqrt(np.mean(residual**2)))
    return ModelFit(model=model, grey=grey_fit, white=white_fit, black_rmse=black_rmse)
