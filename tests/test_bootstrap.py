import numpy as np
import pytest
from scipy import stats

import resizedboot.bootstrap as bootstrap
import resizedboot.fitting as fitting
from resizedboot import (
    Dataset,
    ResizedCoefficients,
    TooManyFailuresError,
    ZeroMleError,
    fit_mle,
    resize,
    run_bootstrap,
    sd_linear_predictor,
    summarize_bootstrap,
)

from conftest import simulate_logistic
from oracles import monte_carlo_mles

# The suite turns every RuntimeWarning into an error (pyproject.toml): the
# engine silences only the overflow of trial steps, and any other floating
# point warning from a fit is a fault.


@pytest.fixture(scope="module")
def small_fit():
    data, beta = simulate_logistic(200, 5, seed=17, scale=1.5)
    return data, beta, fit_mle(data)


# ---------------------------------------------------------------- resize

def test_resize_null_target(small_fit):
    data, _, fit = small_fit
    rz = resize(fit, 0.0, data.X)
    assert rz.scale_s == 0.0
    np.testing.assert_array_equal(rz.beta_star, np.zeros(data.p))


def test_resize_identity(small_fit):
    data, _, fit = small_fit
    base = sd_linear_predictor(data.X, fit.beta_hat)
    rz = resize(fit, base, data.X)
    assert rz.scale_s == pytest.approx(1.0)
    np.testing.assert_allclose(rz.beta_star, fit.beta_hat)


def test_resize_shrinks_strictly(small_fit):
    # an estimated gamma below sd(X beta_hat) forces scale < 1
    data, _, fit = small_fit
    base = sd_linear_predictor(data.X, fit.beta_hat)
    rz = resize(fit, 0.6 * base, data.X)
    assert 0.0 < rz.scale_s < 1.0
    assert sd_linear_predictor(data.X, rz.beta_star) == pytest.approx(
        rz.gamma_target, abs=1e-9
    )


def test_resize_never_inflates(small_fit):
    data, _, fit = small_fit
    base = sd_linear_predictor(data.X, fit.beta_hat)
    rz = resize(fit, 10.0 * base, data.X)
    assert rz.scale_s == 1.0
    assert rz.gamma_target == pytest.approx(base)


def test_resize_keeps_intercept_unscaled():
    rng = np.random.default_rng(3)
    X = np.hstack([np.ones((150, 1)), rng.standard_normal((150, 3))])
    beta = np.array([-0.7, 1.0, -1.0, 0.5])
    y = np.where(rng.random(150) < 1 / (1 + np.exp(-X @ beta)), 1.0, -1.0)
    data = Dataset(X=X, y=y, family="logistic", has_intercept=True)
    fit = fit_mle(data)
    rz = resize(fit, 0.5 * sd_linear_predictor(X, fit.beta_hat, has_intercept=True),
                X, has_intercept=True)
    assert rz.beta_star[0] == fit.beta_hat[0]
    np.testing.assert_allclose(rz.beta_star[1:], rz.scale_s * fit.beta_hat[1:])


def test_resize_zero_mle_unsatisfiable():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    data = Dataset(X=X, y=y, family="logistic")
    fit = fit_mle(data)  # beta_hat = 0 exactly
    with pytest.raises(ZeroMleError):
        resize(fit, 1.0, data.X)


# ------------------------------------------------------------- summaries

def test_alpha_exact_under_proportional_means():
    beta_star = np.array([1.0, -2.0, 0.5, 3.0])
    centre = 1.15 * beta_star
    spread = np.array([0.1, 0.4, 0.2, 0.3])
    boot = np.vstack([centre + spread, centre - spread])  # mean exactly centre
    s = summarize_bootstrap(boot, beta_star, n_failed=0)
    assert s.alpha_hat == pytest.approx(1.15, rel=1e-12)
    np.testing.assert_allclose(s.beta_bar, centre)


def test_alpha_reduces_to_projection_under_equal_sigmas():
    rng = np.random.default_rng(8)
    beta_star = rng.standard_normal(6)
    centre = rng.standard_normal(6)
    boot = np.vstack([centre + 0.25, centre - 0.25])  # every sigma_j equal
    s = summarize_bootstrap(boot, beta_star, n_failed=0)
    assert s.alpha_hat == pytest.approx(
        float(centre @ beta_star / (beta_star @ beta_star)), rel=1e-9
    )


def test_sigma_uses_unbiased_divisor():
    boot = np.array([[1.0], [3.0]])
    s = summarize_bootstrap(boot, np.array([1.0]), n_failed=0)
    assert s.sigma_hat[0] == pytest.approx(np.sqrt(2.0))  # (B-1) divisor


# ---------------------------------------------------------- run_bootstrap

def test_bootstrap_determinism_and_shape(small_fit):
    data, _, fit = small_fit
    rz = resize(fit, 0.8 * sd_linear_predictor(data.X, fit.beta_hat), data.X)
    a = run_bootstrap(data, rz, B=40, seed=5)
    b = run_bootstrap(data, rz, B=40, seed=5)
    np.testing.assert_array_equal(a.boot_mles, b.boot_mles)
    assert a.alpha_hat == b.alpha_hat
    assert a.boot_mles.shape == (40 - a.n_failed, data.p)
    assert np.all(a.sigma_hat > 0)
    assert a.alpha_hat > 0


def test_bootstrap_replicates_do_not_depend_on_b_or_blocking(small_fit, monkeypatch):
    # replicate b's MLE is the same whether B is 31 or 24, and whether the
    # replicates are refitted in one lockstep block or in blocks of 1 or 7,
    # simulated in one chunk or in chunks of 5
    data, _, fit = small_fit
    rz = resize(fit, 0.8 * sd_linear_predictor(data.X, fit.beta_hat), data.X)
    whole = run_bootstrap(data, rz, B=31, seed=11)
    assert whole.n_failed == 0
    monkeypatch.setattr(bootstrap, "_RESPONSE_BYTES", 5 * 8 * data.n)
    for rows in (1, 7):
        monkeypatch.setattr(fitting, "_lockstep_rows", lambda n, p: rows)
        part = run_bootstrap(data, rz, B=24, seed=11)
        assert part.n_failed == 0
        np.testing.assert_allclose(
            part.boot_mles, whole.boot_mles[:24], rtol=0, atol=1e-10
        )


def test_bootstrap_rejects_tiny_b(small_fit):
    data, _, fit = small_fit
    rz = resize(fit, 0.0, data.X)
    with pytest.raises(ValueError):
        run_bootstrap(data, rz, B=1, seed=0)


def test_bootstrap_aborts_when_most_replicates_separate(small_fit):
    data, _, fit = small_fit
    huge = ResizedCoefficients(
        beta_star=50.0 * np.ones(data.p), scale_s=1.0, gamma_target=1.0
    )
    with pytest.raises(TooManyFailuresError):
        run_bootstrap(data, huge, B=20, seed=0)


def test_bootstrap_matches_direct_monte_carlo(small_fit):
    # replicates are i.i.d. MLE draws under the resized truth by construction;
    # check both moments and the KS distance against an independent sampler
    data, _, fit = small_fit
    rz = resize(fit, 0.9 * sd_linear_predictor(data.X, fit.beta_hat), data.X)
    summary = run_bootstrap(data, rz, B=400, seed=2)
    direct = monte_carlo_mles(
        data.X, rz.beta_star, data.family, 400, np.random.default_rng(77)
    )
    for j in range(data.p):
        ks = stats.ks_2samp(summary.boot_mles[:, j], direct[:, j])
        assert ks.pvalue > 1e-3
    np.testing.assert_allclose(
        summary.sigma_hat, direct.std(axis=0, ddof=1), rtol=0.25
    )
