import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from resizedboot import (
    BootstrapSummary,
    Dataset,
    FitStatus,
    InsufficientBootstrapError,
    boot_g_ci,
    boot_t_ci,
    classical_wald_ci,
    empirical_quantile,
    fit_mle,
)
from resizedboot.fitting import FitResult

Z975 = float(special.ndtri(0.975))


def _fit_stub(beta, hessian):
    beta = np.asarray(beta, dtype=float)
    hessian = np.asarray(hessian, dtype=float)
    return FitResult(
        beta_hat=beta,
        status=FitStatus.CONVERGED,
        n_iter=0,
        grad_norm=0.0,
        chol=np.linalg.cholesky(hessian),
    )


def _summary(boot_mles, sigma, alpha, beta_bar=None):
    boot_mles = np.asarray(boot_mles, dtype=float)
    return BootstrapSummary(
        boot_mles=boot_mles,
        sigma_hat=np.asarray(sigma, dtype=float),
        alpha_hat=float(alpha),
        beta_bar=boot_mles.mean(axis=0) if beta_bar is None else np.asarray(beta_bar),
        n_failed=0,
    )


# ---------------------------------------------------------------- quantile

def test_quantile_median_odd():
    assert empirical_quantile(np.array([1, 2, 3, 4, 5]), 0.5) == 3.0


def test_quantile_median_interpolated():
    assert empirical_quantile(np.array([1, 2, 3, 4]), 0.5) == 2.5


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_quantile_boundaries(xs):
    a = np.array(xs)
    assert empirical_quantile(a, 0.0) == a.min()
    assert empirical_quantile(a, 1.0) == a.max()


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    st.floats(0, 1),
)
def test_quantile_matches_numpy_linear(xs, q):
    a = np.array(xs)
    assert empirical_quantile(a, q) == pytest.approx(
        float(np.quantile(a, q, method="linear")), rel=1e-12, abs=1e-9
    )


def test_quantile_errors():
    with pytest.raises(ValueError):
        empirical_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        empirical_quantile(np.array([1.0]), 1.5)


# ---------------------------------------------------------------- classical

def test_wald_unit_hessian():
    ci = classical_wald_ci(_fit_stub(np.zeros(2), np.eye(2)), 0.95)
    np.testing.assert_allclose(ci.lo, [-Z975, -Z975])
    np.testing.assert_allclose(ci.hi, [Z975, Z975])
    assert np.all(ci.width > 0)


def test_wald_requires_convergence():
    fit = _fit_stub(np.zeros(1), np.eye(1))
    fit.status = FitStatus.SEPARABLE
    with pytest.raises(ValueError):
        classical_wald_ci(fit, 0.95)


def test_wald_poisson_intercept_closed_form():
    rng = np.random.default_rng(4)
    y = rng.poisson(2.0, 50).astype(float)
    data = Dataset(np.ones((50, 1)), y, "poisson-log", has_intercept=True)
    fit = fit_mle(data)
    ci = classical_wald_ci(fit, 0.95)
    se_closed = 1.0 / np.sqrt(50 * np.exp(fit.beta_hat[0]))
    assert ci.width[0] / 2.0 == pytest.approx(Z975 * se_closed, rel=1e-8)


# ------------------------------------------------------------------- boot-g

def test_boot_g_standard_normal_case():
    fit = _fit_stub([0.0], np.eye(1))
    ci = boot_g_ci(fit, _summary(np.zeros((5, 1)), [1.0], 1.0), 0.95)
    assert ci.lo[0] == pytest.approx(-Z975)
    assert ci.hi[0] == pytest.approx(Z975)


def test_boot_g_recentring_by_alpha():
    fit = _fit_stub([4.0], np.eye(1))
    ci = boot_g_ci(fit, _summary(np.zeros((5, 1)), [1.0], 2.0), 0.95)
    assert ci.lo[0] == pytest.approx((4.0 - Z975) / 2.0)
    assert ci.hi[0] == pytest.approx((4.0 + Z975) / 2.0)
    assert (ci.lo[0], ci.hi[0]) == pytest.approx((1.02, 2.98), abs=5e-3)


def test_boot_g_width_formula():
    sigma = np.array([0.5, 2.0, 3.7])
    fit = _fit_stub(np.zeros(3), np.eye(3))
    ci = boot_g_ci(fit, _summary(np.zeros((5, 3)), sigma, 1.3), 0.95)
    np.testing.assert_allclose(ci.width, 2 * Z975 * sigma / 1.3, rtol=1e-12)


def test_boot_g_rejects_nonpositive_alpha():
    fit = _fit_stub([0.0], np.eye(1))
    with pytest.raises(ValueError):
        boot_g_ci(fit, _summary(np.zeros((5, 1)), [1.0], 0.0), 0.95)


# ------------------------------------------------------------------- boot-t

def test_boot_t_degenerates_to_boot_g_under_normal_pivots():
    # pivot samples on an exact standard normal quantile grid
    B = 4001
    grid = special.ndtri((np.arange(1, B + 1) - 0.5) / B)
    boot = np.column_stack([grid, 2.0 + 0.5 * grid])
    sigma = np.array([1.0, 0.5])
    beta_star = np.array([0.0, 2.0])
    summary = _summary(boot, sigma, 1.0)
    fit = _fit_stub([0.3, -0.2], np.eye(2))
    g = boot_g_ci(fit, summary, 0.95)
    t = boot_t_ci(fit, summary, beta_star, 0.95)
    np.testing.assert_allclose(t.lo, g.lo, atol=0.01)
    np.testing.assert_allclose(t.hi, g.hi, atol=0.01)


def test_boot_t_symmetric_pivots_symmetric_interval():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(5000)
    boot = np.concatenate([u, -u]).reshape(-1, 1)  # exactly symmetric
    summary = _summary(boot, [1.0], 1.25)
    fit = _fit_stub([2.0], np.eye(1))
    ci = boot_t_ci(fit, summary, np.array([0.0]), 0.90)
    centre = 2.0 / 1.25
    assert ci.hi[0] - centre == pytest.approx(centre - ci.lo[0], rel=1e-9)


def test_boot_t_insufficient_replicates():
    fit = _fit_stub([0.0], np.eye(1))
    summary = _summary(np.random.default_rng(0).standard_normal((100, 1)), [1.0], 1.0)
    with pytest.raises(InsufficientBootstrapError):
        boot_t_ci(fit, summary, np.array([0.0]), 0.95)  # needs B >= 800


@pytest.mark.parametrize("maker", ["boot_g", "boot_t"])
def test_nesting_of_levels(maker):
    rng = np.random.default_rng(3)
    boot = rng.standard_normal((2000, 4)) * np.array([1.0, 2.0, 0.5, 1.5])
    summary = _summary(boot, boot.std(axis=0, ddof=1), 1.1)
    fit = _fit_stub([0.5, -1.0, 2.0, 0.0], np.eye(4))
    bstar = np.zeros(4)
    if maker == "boot_g":
        narrow = boot_g_ci(fit, summary, 0.80)
        wide = boot_g_ci(fit, summary, 0.95)
    else:
        narrow = boot_t_ci(fit, summary, bstar, 0.80)
        wide = boot_t_ci(fit, summary, bstar, 0.95)
    assert np.all(wide.lo <= narrow.lo) and np.all(narrow.hi <= wide.hi)


def test_interval_set_rejects_crossed_bounds():
    from resizedboot import IntervalSet

    with pytest.raises(ValueError):
        IntervalSet(lo=np.array([1.0]), hi=np.array([0.0]), level=0.9, method="x")


@pytest.mark.slow
def test_classical_se_of_null_coordinate_at_full_scale():
    # large multivariate-t logistic design: the classical standard error of a
    # null coordinate averages near 1.232 (and understates the true spread)
    from resizedboot import DesignSpec, MixtureCoefficients, MvtCovariates
    from resizedboot.designs import gen_coefficients, gen_covariates, gen_response
    from resizedboot.intervals import classical_se
    from resizedboot.rng import substream

    spec = DesignSpec(
        n=4000, p=400, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=50, mu=5.0, sd=1.0),
        family="logistic", seed=5,
    )
    beta = gen_coefficients(spec, substream(spec.seed, 0))
    means = []
    for seed in (0, 1):
        X = gen_covariates(spec, substream(seed, 1))
        y = gen_response(X, beta, "logistic", substream(seed, 2))
        fit = fit_mle(Dataset(X=X, y=y, family="logistic"))
        means.append(classical_se(fit)[beta == 0].mean())
    assert np.mean(means) == pytest.approx(1.232, rel=0.05)


def test_interval_equivariance_under_column_rescaling():
    # doubling column j divides beta_hat_j, beta_star_j and sigma_j by two,
    # leaves alpha_hat unchanged, and scales interval j by 1/2; powers of two
    # keep the whole pipeline exact under a shared seed
    from resizedboot import resize, run_bootstrap, sd_linear_predictor
    from conftest import simulate_logistic

    data, _ = simulate_logistic(150, 4, seed=13)
    j, c = 1, 2.0
    X2 = data.X.copy()
    X2[:, j] *= c
    scaled = Dataset(X=X2, y=data.y, family="logistic")
    results = {}
    for tag, d in (("base", data), ("scaled", scaled)):
        fit = fit_mle(d)
        gamma = 0.8 * sd_linear_predictor(d.X, fit.beta_hat)
        coef = resize(fit, gamma, d.X)
        summary = run_bootstrap(d, coef, B=250, seed=21)
        results[tag] = (fit, coef, summary)
    fit_b, coef_b, sum_b = results["base"]
    fit_s, coef_s, sum_s = results["scaled"]
    assert fit_s.beta_hat[j] == pytest.approx(fit_b.beta_hat[j] / c, rel=1e-10)
    assert coef_s.beta_star[j] == pytest.approx(coef_b.beta_star[j] / c, rel=1e-10)
    assert sum_s.sigma_hat[j] == pytest.approx(sum_b.sigma_hat[j] / c, rel=1e-10)
    assert sum_s.alpha_hat == pytest.approx(sum_b.alpha_hat, rel=1e-10)
    scale = np.ones(4)
    scale[j] = 1.0 / c
    for make in (
        lambda f, s, bs: classical_wald_ci(f, 0.9),
        lambda f, s, bs: boot_g_ci(f, s, 0.9),
        lambda f, s, bs: boot_t_ci(f, s, bs, 0.8),
    ):
        ci_b = make(fit_b, sum_b, coef_b.beta_star)
        ci_s = make(fit_s, sum_s, coef_s.beta_star)
        np.testing.assert_allclose(ci_s.lo, ci_b.lo * scale, rtol=1e-7, atol=1e-10)
        np.testing.assert_allclose(ci_s.hi, ci_b.hi * scale, rtol=1e-7, atol=1e-10)


def test_boot_t_reflects_pivot_skewness_on_heavy_tails():
    # Pareto covariates at n=400 leave the MLE visibly skewed; the boot-t
    # interval shifts opposite the pivot skew while boot-g stays symmetric
    from scipy import stats

    from resizedboot import (generate_dataset, named_design, resize,
                             run_bootstrap)

    data, beta_true, gamma_obs = generate_dataset(named_design("pareto-small", seed=3))
    fit = fit_mle(data)
    coef = resize(fit, gamma_obs, data.X)
    summary = run_bootstrap(data, coef, 2000, seed=8)
    j = int(np.argmax(np.abs(beta_true)))
    pivots = (summary.boot_mles[:, j] - summary.alpha_hat * coef.beta_star[j]) \
        / summary.sigma_hat[j]
    skew = float(stats.skew(pivots))
    assert abs(skew) > 4 * np.sqrt(6.0 / summary.n_replicates)
    centre = fit.beta_hat[j] / summary.alpha_hat
    t_ci = boot_t_ci(fit, summary, coef.beta_star, 0.95)
    offset = (t_ci.lo[j] + t_ci.hi[j]) / 2.0 - centre
    assert abs(offset) > 0.02 * (t_ci.hi[j] - t_ci.lo[j])
    assert offset * skew < 0
    g_ci = boot_g_ci(fit, summary, 0.95)
    assert (g_ci.lo[j] + g_ci.hi[j]) / 2.0 == pytest.approx(centre, abs=1e-12)
