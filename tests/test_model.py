import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsca import (
    AnalyticModel,
    LogisticParams,
    fit_logistic,
    fit_model,
    logistic,
    reference_model,
)
from newsca import SimulationConfig, run_ensemble
from newsca.model import (
    FIT_TOLERANCE,
    _initial_guess,
    _jacobian,
    _scaled_sigmoid,
    _sigmoid_parts,
    _standard_errors,
)
from shapes import extreme_series, is_unimodal

mp.mp.dps = 50


def oracle_sigmoid(t, c, tau, gamma):
    """Independent high-precision evaluation of c / (1 + e^(-gamma (t - tau)))."""
    c, tau, gamma, t = (mp.mpf(v) for v in (c, tau, gamma, t))
    return c / (1 + mp.e ** (-gamma * (t - tau)))


def oracle_grey(t):
    return oracle_sigmoid(t, "0.75", "30", "0.15")


def oracle_white(t):
    return 1 - oracle_sigmoid(t, "0.75", "20", "0.25")


def oracle_black(t):
    return oracle_sigmoid(t, "0.75", "20", "0.25") - oracle_sigmoid(t, "0.75", "30", "0.15")


params_strategy = st.builds(
    LogisticParams,
    c=st.floats(0.01, 1.0),
    tau=st.floats(-100, 100),
    gamma=st.floats(0.01, 5.0),
)


class TestLogistic:
    def test_midpoint_is_half_plateau(self):
        assert logistic(30, LogisticParams(0.75, 30, 0.15)) == 0.375

    def test_upper_asymptote(self):
        assert logistic(1e6, LogisticParams(0.75, 30, 0.15)) == pytest.approx(0.75, abs=1e-12)

    def test_origin_against_oracle(self):
        value = logistic(0, LogisticParams(0.75, 30, 0.15))
        assert value == pytest.approx(0.0082402, abs=1e-7)
        assert abs(value - float(oracle_grey(0))) <= 1e-12

    def test_saturates_without_overflow(self):
        p = LogisticParams(0.75, 0.0, 1.0)
        with np.errstate(over="raise"):
            assert logistic(-1e6, p) == 0.0
            assert logistic(1e6, p) == 0.75
            assert logistic(-700.0, p) >= 0.0
            assert logistic(700.0, p) <= 0.75

    def test_array_input(self):
        p = LogisticParams(0.5, 10, 0.3)
        t = np.array([0.0, 10.0, 20.0])
        out = logistic(t, p)
        assert out.shape == (3,)
        assert out[1] == 0.25
        assert np.all(np.diff(out) > 0)

    @given(params=params_strategy, d=st.floats(-50, 50))
    def test_point_symmetry_about_midpoint(self, params, d):
        total = logistic(params.tau + d, params) + logistic(params.tau - d, params)
        assert abs(total - params.c) <= 1e-12

    @given(params=params_strategy, data=st.data())
    def test_strictly_increasing_where_not_saturated(self, params, data):
        # keep the exponent well inside the representable range
        lo = data.draw(st.floats(-20, 19))
        hi = data.draw(st.floats(lo + 0.01, 20))
        t1 = params.tau + lo / params.gamma
        t2 = params.tau + hi / params.gamma
        v1, v2 = logistic(t1, params), logistic(t2, params)
        assert v1 < v2
        assert 0.0 < v1 and v2 < params.c

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LogisticParams(0.0, 10, 0.1)
        with pytest.raises(ValueError):
            LogisticParams(1.5, 10, 0.1)
        with pytest.raises(ValueError):
            LogisticParams(0.5, 10, 0.0)
        with pytest.raises(ValueError):
            LogisticParams(0.5, math.inf, 0.1)
        for c, gamma in ((math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError):
                LogisticParams(c, 10, gamma)
        # Each field's type is checked before its range: a bool or a string is no number.
        for args in ((True, 1.0, 1.0), ("0.5", 1, 1), (0.5, False, 1.0), (0.5, 1.0, "1")):
            with pytest.raises(ValueError, match="must be a number"):
                LogisticParams(*args)
        stored = LogisticParams(np.float32(0.5), np.int64(3), np.float64(0.25))
        assert [type(v) for v in (stored.c, stored.tau, stored.gamma)] == [float, int, float]
        assert stored == LogisticParams(0.5, 3, 0.25)


class TestReferenceModel:
    def test_parameter_values(self):
        model = reference_model()
        assert (model.grey.c, model.grey.tau, model.grey.gamma) == (0.75, 30.0, 0.15)
        assert (model.white.c, model.white.tau, model.white.gamma) == (0.75, 20.0, 0.25)

    @pytest.mark.parametrize("t", [0, 20, 25, 30])
    def test_curves_match_oracle(self, t):
        model = reference_model()
        for got, oracle in zip(model.curves(t), (oracle_grey, oracle_white, oracle_black)):
            assert abs(got - float(oracle(t))) <= 1e-12

    def test_documented_values(self):
        model = reference_model()
        assert model.curves(0)[1] == pytest.approx(0.994980, abs=1e-6)
        assert model.curves(25)[2] == pytest.approx(0.342358, abs=1e-6)
        # the model dips slightly negative at the origin; reported as computed
        assert model.curves(0)[2] == pytest.approx(-0.0032205, abs=1e-6)
        assert model.curves(30)[0] == 0.375
        assert model.curves(20)[1] == 0.625

    def test_long_run_limits(self):
        grey, white, black = reference_model().curves(1e6)
        assert grey == pytest.approx(0.75, abs=1e-12)
        assert white == pytest.approx(0.25, abs=1e-12)
        assert black == pytest.approx(0.0, abs=1e-12)

    def test_curve_shapes(self):
        grey, white, black = reference_model().curves(np.arange(121))
        assert np.all(np.diff(grey) > 0)
        assert np.all(np.diff(white) < 0)
        assert is_unimodal(black, tol=1e-12)

    @given(
        grey=params_strategy,
        white=params_strategy,
        t=st.floats(-1000, 1000),
    )
    def test_normalization_identity(self, grey, white, t):
        assert abs(sum(AnalyticModel(grey=grey, white=white).curves(t)) - 1.0) <= 1e-12


class TestFitLogistic:
    def test_recovers_rising_curve(self):
        t = np.arange(121, dtype=float)
        true = LogisticParams(0.75, 30.0, 0.15)
        fit = fit_logistic(t, logistic(t, true))
        assert fit.converged
        for got, want in [(fit.params.c, 0.75), (fit.params.tau, 30.0), (fit.params.gamma, 0.15)]:
            assert abs(got - want) / want <= 1e-3
        assert fit.rmse <= 1e-6

    def test_recovers_falling_curve(self):
        # A falling curve is fitted as fit_model fits white: through its complement.
        t = np.arange(121, dtype=float)
        true = LogisticParams(0.75, 20.0, 0.25)
        white = 1.0 - logistic(t, true)
        fit = fit_logistic(t, 1.0 - white)
        assert fit.converged
        for got, want in [(fit.params.c, 0.75), (fit.params.tau, 20.0), (fit.params.gamma, 0.25)]:
            assert abs(got - want) / want <= 1e-3

    def test_constant_series_fails_cleanly(self):
        t = np.arange(20, dtype=float)
        fit = fit_logistic(t, np.full(20, 0.5))
        assert not fit.converged
        assert fit.params is None
        assert "constant" in fit.message

    def test_too_few_points_fails_cleanly(self):
        fit = fit_logistic([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        assert not fit.converged
        assert fit.params is None

    @pytest.mark.parametrize("value", [1.2, -1e-300, math.nan])
    def test_out_of_range_values_rejected(self, value):
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            fit_logistic([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, value, 1.0])

    @pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan])
    def test_non_finite_steps_rejected(self, step):
        with pytest.raises(ValueError, match="steps must be finite"):
            fit_logistic([0.0, 1.0, step, 3.0], [0.0, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize("t", [[0.0, 1.0, 2.0], [[0.0, 1.0], [2.0, 3.0]]], ids=["shorter", "2-D"])
    def test_misshapen_steps_rejected(self, t):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            fit_logistic(t, [0.0, 0.1, 0.2, 0.3])

    def test_fit_is_idempotent(self):
        t = np.arange(0, 90, dtype=float)
        first = fit_logistic(t, logistic(t, LogisticParams(0.6, 40.0, 0.2)))
        second = fit_logistic(t, logistic(t, first.params))
        assert abs(second.params.c - first.params.c) / first.params.c <= 1e-6
        assert abs(second.params.tau - first.params.tau) / first.params.tau <= 1e-6
        assert abs(second.params.gamma - first.params.gamma) / first.params.gamma <= 1e-6


class TestFitUncertainty:
    @settings(max_examples=200, deadline=None)
    @given(params=params_strategy, t=st.lists(st.floats(0, 200), min_size=1, max_size=30))
    def test_jacobian_matches_central_difference(self, params, t):
        t = np.array(t)
        p = np.array([params.c, params.tau, params.gamma])
        jac = _jacobian(p[0], p[2], _sigmoid_parts(t, p[1], p[2]))
        assert jac.shape == (len(t), 3)
        for k in range(3):
            h = np.zeros(3)
            h[k] = 1e-7 * max(1.0, abs(p[k]))
            up, down = p + h, p - h
            central = (_scaled_sigmoid(up[0], _sigmoid_parts(t, up[1], up[2]))
                       - _scaled_sigmoid(down[0], _sigmoid_parts(t, down[1], down[2]))) / (2 * h[k])
            np.testing.assert_allclose(jac[:, k], central, rtol=1e-6, atol=1e-6)

    def test_stderr_vanishes_on_noiseless_curves(self):
        rng = np.random.default_rng(11)
        t = np.arange(121, dtype=float)
        model = reference_model()
        # Each falling curve is fitted as fit_model fits white: through its complement.
        curves = [(model.grey, False), (model.white, True)]
        curves += [(LogisticParams(rng.uniform(0.6, 0.9), rng.uniform(12.0, 40.0), rng.uniform(0.1, 0.35)),
                    falling) for falling in (False, True) for _ in range(4)]
        for true, falling in curves:
            y = logistic(t, true)
            fit = fit_logistic(t, 1.0 - (1.0 - y) if falling else y)
            assert fit.converged and fit.nfev >= fit.iterations >= 1
            assert fit.stderr is not None and max(fit.stderr) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_true_parameters_within_five_stderr_of_noisy_fit(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(121, dtype=float)
        true = LogisticParams(rng.uniform(0.6, 0.9), rng.uniform(20.0, 40.0), rng.uniform(0.1, 0.2))
        y = np.clip(logistic(t, true) + rng.normal(0.0, 0.01, t.size), 0.0, 1.0)
        fit = fit_logistic(t, y)
        assert fit.converged and fit.stderr is not None
        for got, want, err in zip((fit.params.c, fit.params.tau, fit.params.gamma),
                                  (true.c, true.tau, true.gamma), fit.stderr):
            assert 0 < err and abs(got - want) <= 5 * err

    def test_step_series_has_no_stderr(self):
        # A step is fitted exactly by an arbitrarily steep sigmoid, whose
        # tau and gamma columns vanish at every sample: J^T J is singular.
        t = np.arange(121, dtype=float)
        fit = fit_logistic(t, np.where(t >= 60, 0.7, 0.0))
        assert fit.params is not None and fit.rmse < 1e-9
        assert fit.stderr is None

    def test_failed_fit_has_no_stderr(self):
        assert fit_logistic(np.arange(20.0), np.full(20, 0.5)).stderr is None

    # A non-finite Jacobian entry, or a cost that makes the variance infinite.
    @pytest.mark.parametrize("bad,cost", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)],
                             ids=["nan-jacobian", "inf-jacobian", "inf-variance"])
    def test_non_finite_gives_no_stderr(self, bad, cost):
        jac = np.eye(5, 3)
        jac[0, 0] = bad
        assert _standard_errors(jac, cost, 5) is None


def _old_sigmoid(t, c, tau, gamma):
    """The sigmoid as first written, one division per branch."""
    with np.errstate(over="ignore"):
        z = gamma * (t - tau)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, c / (1.0 + e), c * e / (1.0 + e))


@settings(max_examples=300, deadline=None)
@given(c=st.floats(-2.0, 2.0), tau=st.floats(-1e300, 1e300), gamma=st.floats(-1e300, 1e300),
       t=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20))
def test_sigmoid_is_bit_identical_to_the_first_formula(c, tau, gamma, t):
    t = np.array(t)
    with np.errstate(invalid="ignore"):  # gamma 0 times an infinite difference
        np.testing.assert_array_equal(_scaled_sigmoid(c, _sigmoid_parts(t, tau, gamma)),
                                      _old_sigmoid(t, c, tau, gamma))


def _capped_series():
    """The early tail of a curve whose midpoint lies beyond the last sample:
    the search creeps along a flat valley until its evaluation budget ends."""
    t = np.arange(121.0)
    return t, logistic(t, LogisticParams(0.6, 300.0, 0.05))


def _ensemble_mean_series():
    mean = run_ensemble(SimulationConfig(width=16, height=16, rng_seed=3), 8).mean_fractions
    return np.arange(len(mean), dtype=float), mean[:, 1]


class TestMinpackCall:
    """fit_logistic calls MINPACK's lmder through leastsq, as
    least_squares(method="lm", x_scale="jac") does through its wrappers; the
    two agree bit for bit. The linear ramp and the capped tail also end
    elsewhere under ``x_scale=1.0``, so they pin the scaling too. The falling
    curves are fitted as fit_model fits white: through their complement."""

    CURVES = {
        "clean-rising": lambda: (np.arange(121.0), logistic(np.arange(121.0), reference_model().grey)),
        "clean-falling": lambda: (np.arange(121.0), 1.0 - reference_model().curves(np.arange(121.0))[1]),
        "noisy": lambda: (np.arange(121.0), np.clip(
            logistic(np.arange(121.0), LogisticParams(0.7, 35.0, 0.2))
            + np.random.default_rng(5).normal(0.0, 0.02, 121), 0.0, 1.0)),
        "fractional-steps": lambda: (np.arange(40) * 1.5, 1.0 - (1.0 - logistic(
            np.arange(40) * 1.5, LogisticParams(0.8, 25.0, 0.3)))),
        "ensemble-mean": _ensemble_mean_series,
        "linear-ramp": lambda: (np.arange(121.0), np.arange(121.0) / 200),
        "capped-at-maxfev": _capped_series,
    }

    @pytest.mark.parametrize("name", CURVES)
    def test_matches_least_squares(self, name):
        from scipy.optimize import least_squares

        t, y = self.CURVES[name]()
        res = least_squares(lambda p: _scaled_sigmoid(p[0], _sigmoid_parts(t, p[1], p[2])) - y,
                            _initial_guess(t, y),
                            jac=lambda p: _jacobian(p[0], p[2], _sigmoid_parts(t, p[1], p[2])),
                            method="lm", x_scale="jac",
                            ftol=FIT_TOLERANCE, xtol=FIT_TOLERANCE, gtol=FIT_TOLERANCE)
        fit = fit_logistic(t, y)
        c, tau, gamma = res.x
        assert (fit.params.c, fit.params.tau, fit.params.gamma) == (min(c, 1.0), tau, gamma)
        assert fit.rmse == np.sqrt(2.0 * res.cost / len(t))
        assert (fit.nfev, fit.iterations) == (res.nfev, res.njev)
        assert fit.stderr == _standard_errors(res.jac, res.cost, len(t))
        assert (fit.converged, fit.message) == (res.success, res.message)
        if name == "capped-at-maxfev":
            assert fit.nfev == 300 and not fit.converged

    @pytest.mark.parametrize("name", CURVES)
    def test_each_point_takes_one_exponential(self, name, monkeypatch):
        # A residual and the Jacobian at its point share one np.exp; only the
        # solution may need one more, when the search ends on a rejected step.
        t, y = self.CURVES[name]()
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: calls.append(1) or exp(x))
        fit = fit_logistic(t, y)
        assert 0 < len(calls) <= fit.nfev + 1


class TestFitModel:
    def test_joint_recovery_of_reference_model(self):
        model = reference_model()
        t = np.arange(121, dtype=float)
        grey, white, _ = model.curves(t)
        result = fit_model(t, grey, white)
        assert result.model is not None
        for got, want in [
            (result.model.grey.c, 0.75),
            (result.model.grey.tau, 30.0),
            (result.model.grey.gamma, 0.15),
            (result.model.white.c, 0.75),
            (result.model.white.tau, 20.0),
            (result.model.white.gamma, 0.25),
        ]:
            assert abs(got - want) / want <= 1e-3
        assert result.black_rmse <= 1e-6

    def test_per_curve_failure_isolation(self):
        model = reference_model()
        t = np.arange(121, dtype=float)
        result = fit_model(t, np.zeros(121), model.curves(t)[1])
        assert result.model is None
        assert not result.grey.converged
        assert result.white.converged
        assert result.black_rmse is None

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            fit_model([0.0, 1.0], [0.1, 0.2], [0.1, 0.2, 0.3])

    def test_curves_are_those_of_the_fitted_model(self):
        t = np.arange(121, dtype=float)
        grey, white, _ = reference_model().curves(t)
        result = fit_model(t, grey, white)
        for got, want in zip(result.curves, result.model.curves(t)):
            np.testing.assert_array_equal(got, want)
        assert fit_model(t, np.zeros(121), white).curves is None

    @pytest.mark.parametrize("name", TestMinpackCall.CURVES)
    def test_white_is_fitted_through_its_complement(self, name):
        t, y = TestMinpackCall.CURVES[name]()
        white = 1.0 - y
        assert fit_model(t, y, white).white == fit_logistic(t, 1.0 - white)

    def test_white_whose_complement_rounds_to_a_constant(self):
        # Distinct white values below 1e-16 all leave 1.0 as complement: nothing to fit.
        t = np.arange(20.0)
        white = np.linspace(1e-18, 5e-17, 20)
        assert np.ptp(white) > 0 and np.ptp(1.0 - white) == 0
        fit = fit_model(t, logistic(t, LogisticParams(0.5, 10.0, 0.5)), white).white
        assert (fit.params, fit.iterations, fit.nfev, fit.converged) == (None, 0, 0, False)
        assert fit.rmse == math.inf and fit.message == "constant series carries no sigmoid information"

    def test_out_of_range_white_rejected(self):
        # 1 - w rounds a tiny negative w to 1; the white series is checked as given.
        t = np.arange(4.0)
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            fit_model(t, [0.0, 0.1, 0.2, 0.3], [1.0, 0.5, 0.0, -1e-17])

    # Differences of such steps overflow; RuntimeWarnings are errors under pytest.
    # The example's steep slope overflowed the covariance leastsq forms and the fit discards.
    @settings(max_examples=200, deadline=None)
    @given(series=extreme_series())
    @example(series=([0.0, 1.545744395379427e-170, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]))
    def test_quiet_at_extreme_steps(self, series):
        result = fit_model(*series)
        assert (result.model is None) == (result.curves is None)
