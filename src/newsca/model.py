"""Closed-form logistic model of the diffusion curves, plus least-squares fitting.

The grey fraction follows an increasing sigmoid C / (1 + e^(-gamma (t - tau))),
the white fraction the complement of another, and the black fraction is
their normalized difference, so the three curves sum to 1 identically;
``AnalyticModel.curves`` builds all three from one evaluation of each sigmoid.
Fitting recovers (C, tau, gamma) per curve from sampled series: a
data-derived initial guess is refined by Levenberg-Marquardt least squares
on the residuals (MINPACK's lmder, called through scipy's leastsq), with the
sigmoid's closed-form Jacobian, and the Jacobian at the solution gives each
parameter's standard error.

Residual and Jacobian at one parameter point share one exponential:
MINPACK asks for the Jacobian at the point of its last residual, and both
are built from the sigmoid parts (t - tau, mask, exp(-|z|), 1 + exp(-|z|))
the fit keeps for that point. The Jacobian at the solution then serves both
the plateau check and the standard errors, so a fit takes at most one
``np.exp`` per residual evaluation plus one, when the search ends on a
rejected step. A joint fit's black residual and fitted curves share one
more evaluation of each fitted sigmoid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rules import store_numbers

# Relative tolerance on the step, the residual reduction and the gradient.
FIT_TOLERANCE = 1e-12
# A fit this close to the data (fractions) reproduces it, even one flat at every sample.
EXACT_RMSE = 1e-9
# Residual evaluations a fit may take: 100 per parameter, MINPACK's budget for lmder.
MAX_NFEV = 300
# (success, message) of each exit code ``ier`` of MINPACK's lmder that these
# tolerances can produce; the messages are those scipy's least_squares reports.
_MINPACK_STOPS = {
    0: (False, "Improper input parameters status returned from `leastsq`"),
    1: (True, "`ftol` termination condition is satisfied."),
    2: (True, "`xtol` termination condition is satisfied."),
    3: (True, "Both `ftol` and `xtol` termination conditions are satisfied."),
    4: (True, "`gtol` termination condition is satisfied."),
    5: (False, "The maximum number of function evaluations is exceeded."),
}


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
        store_numbers(self, ("c", "tau", "gamma"))
        if not 0 < self.c <= 1:
            raise ValueError(f"plateau c must be in (0, 1], got {self.c}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class AnalyticModel:
    """Grey and white sigmoid parameters; the black curve carries no free
    parameters of its own, it is the difference the other two leave."""

    grey: LogisticParams
    white: LogisticParams

    def curves(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grey, white, black) fractions at scalar or array ``t``, from one
        evaluation of each sigmoid: ``g``, ``1 - w`` and ``w - g``.

        Black is signed by design: it dips slightly below zero near the
        origin for some parameterizations, and is reported as computed.
        """
        g, w = logistic(t, self.grey), logistic(t, self.white)
        return g, 1.0 - w, w - g


@dataclass(frozen=True)
class FitResult:
    """Outcome of one curve fit; ``params`` is None when the fit failed.

    ``iterations`` counts Jacobian evaluations and ``nfev`` residual
    evaluations. ``stderr`` holds the standard errors of (c, tau, gamma),
    or None when they are undefined: no fit, a singular Jacobian, or a
    non-finite value.
    """

    params: LogisticParams | None
    rmse: float
    iterations: int
    converged: bool
    message: str = ""
    nfev: int = 0
    stderr: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class ModelFit:
    """Joint grey + white fit with the implied black curve's residual; ``curves``
    holds the model's (grey, white, black) at the fitted steps, None without a model."""

    model: AnalyticModel | None
    grey: FitResult
    white: FitResult
    black_rmse: float | None
    curves: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)


def _sigmoid_parts(t: np.ndarray, tau, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every sigmoid at (tau, gamma) is built from: d = t - tau and, with
    z = gamma d, the mask ``z >= 0``, e = exp(-|z|) and 1 + e."""
    # Unvalidated parameters: the fit's search probes points LogisticParams rejects.
    # Extreme steps or a steep curve may pass the double range; as +-inf they saturate cleanly.
    with np.errstate(over="ignore"):
        d = t - tau
        z = gamma * d
    e = np.exp(-np.abs(z))
    return d, z >= 0, e, 1.0 + e


def _scaled_sigmoid(c, parts) -> np.ndarray:
    """The sigmoid of plateau ``c`` built from the parts at its (tau, gamma)."""
    _, rising, e, denominator = parts
    return np.where(rising, c, c * e) / denominator


def _jacobian(c, gamma, parts) -> np.ndarray:
    """(len(t), 3) partial derivatives of the sigmoid by (c, tau, gamma),
    built from the parts at (tau, gamma)."""
    s = _scaled_sigmoid(1.0, parts)
    slope = c * s * (1.0 - s)
    # An infinite t - tau meets a zero slope only where the curve is flat; the product is NaN.
    with np.errstate(invalid="ignore"):
        return np.column_stack((s, -gamma * slope, parts[0] * slope))


def logistic(t, params: LogisticParams):
    """Evaluate ``c / (1 + exp(-gamma (t - tau)))`` at scalar or array ``t``.

    Never overflows: the exponential is only ever taken of a non-positive
    argument, saturating cleanly to 0 or ``c`` for extreme ``t``.
    """
    t = np.asarray(t, dtype=float)
    out = _scaled_sigmoid(params.c, _sigmoid_parts(t, params.tau, params.gamma))
    return float(out) if out.ndim == 0 else out


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
    # Steps near the float limits under- or overflow the differences; a non-finite guess is refused.
    with np.errstate(all="ignore"):
        slope = float(np.max(np.gradient(y, t)))
    gamma0 = max(4.0 * slope / c0, 1e-3)
    return [c0, tau0, gamma0]


def fit_logistic(t, values) -> FitResult:
    """Least-squares fit of a rising sigmoid to samples ``values`` at steps
    ``t``; :func:`fit_model` fits the falling white curve through its complement.

    Starts from a guess read off the data and refines it by
    Levenberg-Marquardt (MINPACK's ``lmder`` through ``scipy.optimize.leastsq``)
    with the closed-form Jacobian: step bound factor 100, variables scaled by
    the Jacobian's column norms and at most ``MAX_NFEV`` residual
    evaluations. That is the call ``least_squares(method="lm",
    x_scale="jac")`` makes, less its wrapper layer (about 130 µs a curve),
    and fits match it bit for bit. Each setting is passed, as the package
    allows scipy from 1.9 and the default ``x_scale`` of ``least_squares``
    changed from 1.0 to ``"jac"`` in scipy 1.16.

    Degenerate input (fewer than 4 points, or a constant series) yields a
    failure result rather than an exception, and so does a saturated fit:
    one that misses the data while fewer than 3 samples lie off its
    plateaus. Non-finite steps and values outside [0, 1], NaN included, are
    a caller error and raise.
    """
    t = np.asarray(t, dtype=float)
    y = _fractions(values)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and values must be 1-D arrays of equal length")
    if not np.all(np.isfinite(t)):
        raise ValueError("steps must be finite")
    if len(y) < 4:
        return _failure(f"need at least 4 points, got {len(y)}")
    if np.ptp(y) == 0.0:
        return _failure("constant series carries no sigmoid information")

    guess = _initial_guess(t, y)
    if not all(map(math.isfinite, guess)):
        return _failure("step spacing too extreme for a finite initial guess")
    # Imported here, not at module level: scipy.optimize takes most of the
    # package's import time, and only a fit needs it.
    from scipy.optimize import leastsq

    # MINPACK takes the Jacobian at the point of its last residual; both build
    # on the sigmoid parts of the last (tau, gamma) evaluated, kept here.
    last_point = last_parts = None

    def parts(p):
        nonlocal last_point, last_parts
        point = (float(p[1]), float(p[2]))
        if point != last_point:
            last_point, last_parts = point, _sigmoid_parts(t, *point)
        return last_parts

    # leastsq also forms the covariance of its solution, which the fit discards;
    # under an extreme slope that product may overflow or turn invalid.
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, info, _, ier = leastsq(
            lambda p: _scaled_sigmoid(p[0], parts(p)) - y,
            guess,
            Dfun=lambda p: _jacobian(p[0], p[2], parts(p)),
            full_output=True,
            ftol=FIT_TOLERANCE,
            xtol=FIT_TOLERANCE,
            gtol=FIT_TOLERANCE,
            maxfev=MAX_NFEV,
        )
    cost = 0.5 * float(np.dot(info["fvec"], info["fvec"]))
    success, message = _MINPACK_STOPS[ier]
    c, tau, gamma = (float(v) for v in x)
    rmse = math.sqrt(2.0 * cost / len(y))
    problem = jac = None
    if not 0 < c <= 1 + 1e-9 or not 0 < gamma < math.inf or not math.isfinite(tau):
        problem = "search left the valid parameter domain"
    else:
        jac = _jacobian(c, gamma, parts(x))
        if rmse > EXACT_RMSE and (off := _samples_off_plateaus(jac[:, 0])) < 3:
            problem = (f"fitted curve saturated: {off} of {len(y)} samples lie off its plateaus, "
                       f"too few for its 3 parameters, and it misses the data (rmse {rmse:.3g})")
    ok = problem is None
    return FitResult(
        params=LogisticParams(c=min(c, 1.0), tau=tau, gamma=gamma) if ok else None,
        rmse=rmse,
        iterations=int(info["njev"]),
        converged=ok and success,
        message=problem or message,
        nfev=int(info["nfev"]),
        stderr=_standard_errors(jac, cost, len(y)) if ok else None,
    )


def _fractions(values) -> np.ndarray:
    """``values`` as a float array; ValueError unless each lies in [0, 1]."""
    y = np.asarray(values, dtype=float)
    if not np.all((y >= 0) & (y <= 1)):
        raise ValueError("values must lie in [0, 1]")
    return y


def _samples_off_plateaus(s: np.ndarray) -> int:
    """How many samples tau and gamma act on: those at which the unit-plateau
    sigmoid ``s``, the Jacobian's first column, is not within rounding of 0 or 1."""
    return int(np.count_nonzero(s * (1.0 - s) > np.finfo(float).eps))


def _standard_errors(jac: np.ndarray, cost: float, n: int) -> tuple[float, float, float] | None:
    """sqrt(diag(s2 (J^T J)^-1)) with s2 = 2 cost / (n - 3), from the SVD of
    ``jac``; None when J^T J is numerically singular or a value is not finite."""
    if not np.all(np.isfinite(jac)):
        return None
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * max(jac.shape) * sv[0]:
        return None
    variance = 2.0 * cost / (n - 3) * np.sum((vt / sv[:, None]) ** 2, axis=0)
    if not np.all(np.isfinite(variance)):
        return None
    return tuple(float(v) for v in np.sqrt(variance))


def fit_model(t, grey_values, white_values) -> ModelFit:
    """Fit grey (rising) and white (falling, through its complement
    ``1 - white``) independently; imply black.

    The black one of the fitted model's ``curves`` at ``t`` is compared against
    the residual series ``1 - grey - white``, giving ``black_rmse``. Per-curve
    failures propagate into the result without blocking the other curve.
    """
    t = np.asarray(t, dtype=float)
    grey_values, white_values = _fractions(grey_values), _fractions(white_values)
    if not (t.shape == grey_values.shape == white_values.shape):
        raise ValueError("t, grey and white series must be aligned")
    grey_fit = fit_logistic(t, grey_values)
    white_fit = fit_logistic(t, 1.0 - white_values)
    if grey_fit.params is None or white_fit.params is None:
        return ModelFit(model=None, grey=grey_fit, white=white_fit, black_rmse=None)
    model = AnalyticModel(grey=grey_fit.params, white=white_fit.params)
    curves = model.curves(t)
    residual = curves[2] - (1.0 - grey_values - white_values)
    black_rmse = float(np.sqrt(np.mean(residual**2)))
    return ModelFit(model=model, grey=grey_fit, white=white_fit, black_rmse=black_rmse, curves=curves)
