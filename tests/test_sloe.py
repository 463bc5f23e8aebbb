import numpy as np
import pytest

from resizedboot import (
    Dataset,
    FitFailedError,
    LeverageDegenerateError,
    fit_mle,
    loo_oracle,
    sloe_estimate,
)

from conftest import simulate_logistic


def _zero_mle_dataset():
    # symmetric design with sum(y_i x_i) = 0 forces beta_hat = 0 exactly
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return Dataset(X=X, y=y, family="logistic")


def test_zero_mle_degeneration_exact():
    # H = I/2, w_i = 2, q_i = 2/(1 - 2/4) = 4, S_i = -+ 2, eta = 2
    data = _zero_mle_dataset()
    fit = fit_mle(data)
    np.testing.assert_allclose(fit.beta_hat, 0.0, atol=1e-12)
    est = sloe_estimate(data, fit)
    np.testing.assert_allclose(est.s_values, [-2.0, -2.0, 2.0, 2.0], atol=1e-10)
    assert est.eta_hat == pytest.approx(2.0, abs=1e-10)
    assert np.all(est.w_values > 0)


def test_eta_non_negative_and_finite(rng):
    data, _ = simulate_logistic(120, 8, seed=5)
    est = sloe_estimate(data, fit_mle(data))
    assert np.isfinite(est.eta_hat) and est.eta_hat >= 0
    assert np.all(np.isfinite(est.s_values))


def test_column_rescaling_leaves_s_values_invariant():
    data, _ = simulate_logistic(150, 6, seed=9)
    est = sloe_estimate(data, fit_mle(data))
    c = np.array([2.0, 0.5, 4.0, 1.0, 0.25, 8.0])  # powers of two: exact floats
    scaled = Dataset(X=data.X / c, y=data.y, family="logistic")
    est_scaled = sloe_estimate(scaled, fit_mle(scaled))
    np.testing.assert_allclose(est_scaled.s_values, est.s_values, rtol=1e-7)
    assert est_scaled.eta_hat == pytest.approx(est.eta_hat, rel=1e-7)


def test_loo_oracle_intercept_only_closed_form():
    # leaving out a +1 gives logit(1/3), leaving out a -1 gives logit(2/3)
    data = Dataset(
        X=np.ones((4, 1)), y=np.array([1.0, 1.0, -1.0, -1.0]),
        family="logistic", has_intercept=True,
    )
    assert loo_oracle(data) == pytest.approx(np.log(2.0), abs=1e-8)


def test_loo_oracle_errors_on_separable_subfit():
    # dropping the lone -1 leaves an all-positive response: no MLE
    data = Dataset(
        X=np.ones((3, 1)), y=np.array([1.0, 1.0, -1.0]),
        family="logistic", has_intercept=True,
    )
    with pytest.raises(FitFailedError):
        loo_oracle(data)


def test_loo_oracle_poisson_positive():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((50, 2)) / np.sqrt(2)
    y = rng.poisson(np.exp(X @ np.array([0.5, -0.3]))).astype(float)
    data = Dataset(X=X, y=y, family="poisson-log")
    value = loo_oracle(data)
    assert np.isfinite(value) and value > 0


def test_sloe_tracks_exact_loo_closely():
    data, _ = simulate_logistic(200, 20, seed=0, scale=2.0)
    fit = fit_mle(data)
    est = sloe_estimate(data, fit)
    oracle = loo_oracle(data)
    assert abs(est.eta_hat - oracle) / oracle < 0.02


def test_leverage_guard_triggers():
    data, _ = simulate_logistic(100, 5, seed=2)
    fit = fit_mle(data)
    # the factor of the Hessian / 1e4: inflates w_i so 1 - w f'' goes negative
    fit.chol = fit.chol / 1e2
    with pytest.raises(LeverageDegenerateError):
        sloe_estimate(data, fit)


def test_requires_converged_fit():
    data = Dataset(
        X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]), family="logistic"
    )
    fit = fit_mle(data)
    with pytest.raises(ValueError):
        sloe_estimate(data, fit)


@pytest.mark.slow
def test_eta_at_gamma_two_at_dimensionality_ratio_point_two():
    # at dimensionality ratio 0.2 the corrupted signal strength at gamma = 2
    # sits near 3.49; at ratio 0.1 the identity eta^2 = a^2 g^2 + k s^2 caps
    # it near 2.6, so the 3.49 pairing pins the ratio itself
    from resizedboot import (DesignSpec, MixtureCoefficients, MvtCovariates,
                             gen_coefficients, gen_covariates, gen_response,
                             scaled_to_gamma)
    from resizedboot.rng import substream

    spec = DesignSpec(
        n=1000, p=200, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=25, mu=5.0, sd=1.0),
        family="logistic", seed=123,
    )
    beta = scaled_to_gamma(spec, gen_coefficients(spec, substream(spec.seed, 0)), 2.0)
    etas = []
    for seed in range(4):
        X = gen_covariates(spec, substream(seed, 1))
        y = gen_response(X, beta, "logistic", substream(seed, 2))
        data = Dataset(X=X, y=y, family="logistic")
        etas.append(sloe_estimate(data, fit_mle(data)).eta_hat)
    assert np.mean(etas) == pytest.approx(3.49, rel=0.10)
