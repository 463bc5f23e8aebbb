import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import resizedboot.signal_strength as ss
from resizedboot import (
    CurveNotBracketingError,
    estimate_gamma,
    fit_mle,
    invert_monotone_curve,
    isotonic_non_decreasing,
    loess_smooth,
    sd_linear_predictor,
)

from conftest import simulate_logistic


# ------------------------------------------------------- sd_linear_predictor

def test_sd_zero_vector():
    X = np.random.default_rng(0).standard_normal((10, 3))
    assert sd_linear_predictor(X, np.zeros(3)) == 0.0


def test_sd_arithmetic_sequence():
    X = np.array([[1.0], [2.0], [3.0]])
    assert sd_linear_predictor(X, np.array([1.0])) == pytest.approx(1.0)


@given(
    c=st.floats(-8, 8),
    seed=st.integers(0, 1000),
)
def test_sd_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, 4))
    beta = rng.standard_normal(4)
    assert sd_linear_predictor(X, c * beta) == pytest.approx(
        abs(c) * sd_linear_predictor(X, beta), rel=1e-9, abs=1e-12
    )


def test_sd_ignores_intercept_coordinate():
    rng = np.random.default_rng(1)
    X = np.hstack([np.ones((20, 1)), rng.standard_normal((20, 2))])
    beta = np.array([57.0, 1.0, -2.0])
    with_icpt = sd_linear_predictor(X, beta, has_intercept=True)
    beta0 = beta.copy()
    beta0[0] = 0.0
    assert with_icpt == pytest.approx(sd_linear_predictor(X, beta0), rel=1e-12)


# ----------------------------------------------------------- smoothing bits

def test_loess_exact_on_affine_data():
    x = np.linspace(0, 5, 40)
    y = 2.0 * x + 1.0
    out = loess_smooth(x, y, np.array([0.7, 2.3, 4.9]))
    np.testing.assert_allclose(out, 2.0 * np.array([0.7, 2.3, 4.9]) + 1.0, atol=1e-9)


def test_isotonic_pools_violators():
    np.testing.assert_allclose(
        isotonic_non_decreasing(np.array([1.0, 3.0, 2.0, 4.0])),
        [1.0, 2.5, 2.5, 4.0],
    )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
def test_isotonic_output_is_monotone_and_mean_preserving(xs):
    v = np.array(xs)
    out = isotonic_non_decreasing(v)
    assert np.all(np.diff(out) >= -1e-12)
    assert out.mean() == pytest.approx(v.mean(), rel=1e-9, abs=1e-9)


def test_invert_interpolates_linearly():
    g = np.array([0.0, 1.0, 2.0])
    e = np.array([1.0, 2.0, 4.0])
    assert invert_monotone_curve(g, e, 3.0) == pytest.approx(1.5)
    assert invert_monotone_curve(g, e, 1.0) == pytest.approx(0.0)


def test_invert_clamps_below_first_knot():
    assert invert_monotone_curve(np.array([0.0, 1.0]), np.array([2.0, 3.0]), 1.0) == 0.0


def test_invert_refuses_extrapolation():
    with pytest.raises(CurveNotBracketingError):
        invert_monotone_curve(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 2.5)


# ------------------------------------------------------------ estimate_gamma

@pytest.fixture(scope="module")
def gamma_case():
    data, _ = simulate_logistic(400, 15, seed=14, scale=2.0)
    fit = fit_mle(data)
    curve = estimate_gamma(data, fit, grid_size=8, reps=2, seed=99)
    return data, fit, curve


def test_grid_endpoints_and_homogeneity(gamma_case):
    _, _, curve = gamma_case
    assert curve.s_grid[0] == 0.0 and curve.s_grid[-1] == 1.0
    assert np.all(np.diff(curve.s_grid) > 0)
    assert curve.gamma_grid[0] == 0.0
    np.testing.assert_array_equal(curve.gamma_grid, curve.s_grid * curve.gamma_grid[-1])


def test_null_knot_eta_positive(gamma_case):
    # responses at s=0 are pure noise, yet dimensionality inflates eta above 0
    _, _, curve = gamma_case
    first = curve.eta_samples[0]
    assert np.all(np.isfinite(first)) and np.all(first > 0)


def test_smooth_is_monotone(gamma_case):
    _, _, curve = gamma_case
    assert np.all(np.diff(curve.smooth_eta) >= -1e-12)


def test_inversion_consistency(gamma_case):
    _, _, curve = gamma_case
    if curve.gamma_hat > curve.smooth_gamma[0]:
        back = float(np.interp(curve.gamma_hat, curve.smooth_gamma, curve.smooth_eta))
        assert back == pytest.approx(curve.eta_tilde, abs=1e-9)


def test_identical_seed_identical_curve(gamma_case):
    data, fit, curve = gamma_case
    again = estimate_gamma(data, fit, grid_size=8, reps=2, seed=99)
    np.testing.assert_array_equal(curve.eta_samples, again.eta_samples)
    np.testing.assert_array_equal(curve.smooth_eta, again.smooth_eta)
    assert curve.gamma_hat == again.gamma_hat
    assert curve.eta_tilde == again.eta_tilde


def test_different_seed_perturbs_samples(gamma_case):
    data, fit, curve = gamma_case
    other = estimate_gamma(data, fit, grid_size=8, reps=2, seed=100)
    assert not np.array_equal(curve.eta_samples, other.eta_samples)


def test_curve_not_bracketing_end_to_end(monkeypatch):
    data, _ = simulate_logistic(150, 6, seed=3)
    fit = fit_mle(data)
    real = ss.sloe_estimate

    def inflated(d, f, **kw):
        est = real(d, f, **kw)
        if f is fit:  # only the original-data estimate
            est.eta_hat = 1e3
        return est

    monkeypatch.setattr(ss, "sloe_estimate", inflated)
    with pytest.raises(CurveNotBracketingError):
        estimate_gamma(data, fit, grid_size=5, reps=1, seed=0)


def test_parameter_validation(gamma_case):
    data, fit, _ = gamma_case
    with pytest.raises(ValueError):
        estimate_gamma(data, fit, grid_size=3)
    with pytest.raises(ValueError):
        estimate_gamma(data, fit, reps=0)


def test_knot_with_all_failed_replicates_is_dropped(monkeypatch):
    # replicates are laid out knot-major, so failing one knot's refits
    # exercises the drop-and-continue path deterministically
    data, _ = simulate_logistic(200, 10, seed=8)
    fit = fit_mle(data)
    grid_size, reps = 6, 2
    real = ss.refit_many

    def flaky(X, family, beta0, m, draw, *, on_converged, **kw):
        # the curve learns of a converged replicate only through the callback
        def report(b, t, chol):
            if b // reps != 2:  # every replicate of knot 2 fails
                on_converged(b, t, chol)

        return real(X, family, beta0, m, draw, on_converged=report, **kw)

    monkeypatch.setattr(ss, "refit_many", flaky)
    curve = estimate_gamma(data, fit, grid_size=grid_size, reps=reps, seed=77)
    assert curve.n_failed == reps
    assert curve.smooth_gamma.shape == (grid_size - 1,)
    assert curve.gamma_grid[2] not in curve.smooth_gamma
    assert np.all(np.isnan(curve.eta_samples[2]))


@pytest.mark.slow
def test_gamma_recovery_on_heavy_tailed_design():
    # 20 fresh covariate/response draws at fixed coefficients: the mean
    # estimate recovers each draw's realised sd(X beta) within 10%
    from resizedboot import gen_coefficients, gen_covariates, gen_response, named_design
    from resizedboot.fitting import Dataset
    from resizedboot.rng import substream

    spec = named_design("pareto-small", seed=7)
    beta = gen_coefficients(spec, substream(spec.seed, 0))
    ratios = []
    for seed in range(20):
        X = gen_covariates(spec, substream(seed, 1))
        y = gen_response(X, beta, "logistic", substream(seed, 2))
        truth = sd_linear_predictor(X, beta)
        data = Dataset(X=X, y=y, family="logistic")
        curve = estimate_gamma(data, fit_mle(data), grid_size=10, reps=3, seed=seed)
        ratios.append(curve.gamma_hat / truth)
    assert float(np.mean(ratios)) == pytest.approx(1.0, abs=0.10)
