import numpy as np
import pytest

import resizedboot.fitting as fitting
from resizedboot import (
    Dataset,
    DatasetError,
    FitOptions,
    FitResult,
    FitStatus,
    find_separating_direction,
    fit_mle,
    get_family,
    newton_fit,
    refit_many,
)

from conftest import simulate_logistic
from oracles import first_order_minimize, reference_newton_fit

# the engine silences only the overflow of trial steps; any other floating
# point warning from a fit is a fault
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_intercept_only_logistic_balanced():
    data = Dataset(
        X=np.ones((4, 1)), y=np.array([1.0, 1.0, -1.0, -1.0]),
        family="logistic", has_intercept=True,
    )
    fit = fit_mle(data)
    assert fit.status is FitStatus.CONVERGED
    assert fit.beta_hat[0] == pytest.approx(0.0, abs=1e-12)


def test_intercept_only_poisson_log_mean():
    data = Dataset(
        X=np.ones((4, 1)), y=np.array([1.0, 2.0, 3.0, 2.0]),
        family="poisson-log", has_intercept=True,
    )
    fit = fit_mle(data)
    assert fit.status is FitStatus.CONVERGED
    assert fit.beta_hat[0] == pytest.approx(np.log(2.0), abs=1e-10)


def test_two_point_separated_dataset():
    data = Dataset(
        X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]), family="logistic"
    )
    assert fit_mle(data).status is FitStatus.SEPARABLE


def test_matches_first_order_oracle():
    data, _ = simulate_logistic(200, 10, seed=7)
    fit = fit_mle(data)
    assert fit.status is FitStatus.CONVERGED
    reference = first_order_minimize(data.X, data.y, data.family)
    np.testing.assert_allclose(fit.beta_hat, reference, atol=1e-6)


def test_objective_trace_non_increasing():
    # non-increasing up to the float resolution of the objective (the final
    # iterations may sit at the rounding floor)
    data, _ = simulate_logistic(300, 8, seed=3, scale=2.0)
    fit = reference_newton_fit(data.X, data.y, data.family)
    trace = fit.objective_trace
    tol = 4 * np.finfo(float).eps * np.abs(trace[:-1])
    assert np.all(np.diff(trace) <= tol)


def test_permutation_equivariance():
    data, _ = simulate_logistic(150, 6, seed=11)
    fit = fit_mle(data)
    perm = np.random.default_rng(5).permutation(data.n)
    fit_p = fit_mle(Dataset(X=data.X[perm], y=data.y[perm], family="logistic"))
    np.testing.assert_allclose(fit.beta_hat, fit_p.beta_hat, atol=1e-10)


def test_lp_oracle_implies_separable_status():
    # mixture of clearly separated and plainly random binary designs
    rng = np.random.default_rng(42)
    n_checked = 0
    for trial in range(30):
        n, p = 40, 3
        X = rng.standard_normal((n, p))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if trial % 3 == 0:  # force strict separation along a random direction
            w = rng.standard_normal(p)
            margin = X @ w
            y = np.where(margin - np.median(margin) > 0, 1.0, -1.0)
            X = X + 0.5 * y[:, None] * w[None, :] / np.linalg.norm(w)
        if find_separating_direction(X, y) is not None:
            n_checked += 1
            status = fit_mle(Dataset(X=X, y=y, family="logistic")).status
            assert status is FitStatus.SEPARABLE
    assert n_checked >= 5  # the sweep actually exercised separated designs


def test_separating_direction_really_separates():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 2))
    y = np.where(X[:, 0] + 0.2 > 0, 1.0, -1.0)
    X[:, 0] += y  # widen the margin
    w = find_separating_direction(X, y)
    assert w is not None
    assert np.min(y * (X @ w)) > 0


def test_max_iter_budget_respected():
    data, _ = simulate_logistic(200, 10, seed=2, scale=3.0)
    fit = fit_mle(data, FitOptions(max_iter=1, tol=1e-14))
    assert fit.status is FitStatus.MAX_ITER
    assert fit.n_iter == 1


def test_duplicate_column_reports_singular_hessian():
    rng = np.random.default_rng(9)
    col = rng.standard_normal(80)
    X = np.column_stack([col, col])
    y = np.where(rng.random(80) < 0.5, 1.0, -1.0)
    fit = fit_mle(Dataset(X=X, y=y, family="logistic"))
    assert fit.status is FitStatus.SINGULAR_HESSIAN


def test_warm_start_agrees_with_cold_start():
    data, beta = simulate_logistic(250, 5, seed=21)
    cold = fit_mle(data)
    warm = fit_mle(data, beta0=beta)
    np.testing.assert_allclose(cold.beta_hat, warm.beta_hat, atol=1e-9)


@pytest.mark.parametrize(
    "bad",
    [
        dict(X=np.ones((3, 3)), y=np.array([1.0, -1.0, 1.0])),          # n < p+1
        dict(X=np.array([[1.0], [np.inf]]), y=np.array([1.0, -1.0])),   # non-finite
        dict(X=np.ones((2, 1)), y=np.array([1.0, 2.0])),                # bad binary y
    ],
)
def test_dataset_validation(bad):
    with pytest.raises(DatasetError):
        Dataset(family="logistic", **bad)


def test_dataset_intercept_column_checked():
    with pytest.raises(DatasetError):
        Dataset(
            X=np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 0.0]]),
            y=np.array([1.0, -1.0, 1.0]),
            family="logistic",
            has_intercept=True,
        )


def test_poisson_fit_matches_oracle():
    rng = np.random.default_rng(31)
    n, p = 300, 6
    X = rng.standard_normal((n, p)) / np.sqrt(p)
    beta = 0.8 * rng.standard_normal(p)
    y = rng.poisson(np.exp(X @ beta)).astype(float)
    data = Dataset(X=X, y=y, family="poisson-log")
    fit = fit_mle(data)
    assert fit.status is FitStatus.CONVERGED
    reference = first_order_minimize(X, y, get_family("poisson-log"))
    np.testing.assert_allclose(fit.beta_hat, reference, atol=1e-6)


# ---------------------------------- lockstep engine vs the reference Newton loop

def _engine_cases(family_name):
    """(X, Y, beta0, opts) cases whose replicates end in every status:
    converged, separable (binary), max_iter, and a duplicate column's
    singular Hessian. Tight separability thresholds make the coefficient
    norm and objective rules fire on binary replicates that are not
    separated. The last case starts far below an intercept, where Poisson
    line-search steps overflow exp(). beta0 has one row per replicate."""
    family = get_family(family_name)
    rng = np.random.default_rng(12)
    n, p = 60, 4
    X = rng.standard_normal((n, p)) / np.sqrt(p)
    beta = np.array([1.5, -1.0, 0.5, 0.0])
    if family.is_binary:
        beta = 2.0 * beta
    Y = np.array([family.simulate(X @ beta, rng) for _ in range(24)])
    if family.is_binary:
        Y[::5] = np.where(X[:, 0] > 0, 1.0, -1.0)  # strictly separated
    else:
        Y[::5] = 0.0  # the MLE runs off to -infinity
    beta0 = np.array([s * beta for s in np.linspace(0.0, 1.5, Y.shape[0])])
    dup = np.column_stack([X[:, :2], X[:, 1]])
    X1 = np.column_stack([np.ones(n), X[:, 1:]])
    Y1 = np.array([family.simulate(X1 @ beta, rng) for _ in range(6)])
    far = np.tile([-20.0, 0.0, 0.0, 0.0], (6, 1))
    return [
        (X, Y, beta0, FitOptions()),
        (X, Y, beta0, FitOptions(max_iter=2)),
        (X, Y, beta0, FitOptions(separable_beta_norm=5.0, separable_objective=0.4)),
        (dup, Y, beta0[:, :3], FitOptions()),
        (X1, Y1, far, FitOptions()),
    ]


def _ends_at_float_floor(ref):
    """Whether the reference's last iteration changed its objective by no
    more than rounding. From there, rounding decides how many polish steps
    it takes to pass the gradient test, so two correct fitters may differ
    in their iteration counts and final gradient norms."""
    trace = ref.objective_trace
    if trace.size < 2:
        return False
    return abs(trace[-1] - trace[-2]) <= 4 * np.finfo(float).eps * abs(trace[-2])


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "per-replicate"])
@pytest.mark.parametrize("family_name", ["logistic", "probit", "poisson-log"])
def test_refit_many_matches_newton_fit(family_name, stacked, monkeypatch):
    # each replicate of a lockstep block, and its response fitted alone by
    # newton_fit, against the reference loop
    if not stacked:
        monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    family = get_family(family_name)
    seen = set()
    counted = total = 0
    for X, Y, beta0, opts in _engine_cases(family_name):
        factors = {}
        fits = refit_many(
            X, Y, family, beta0, opts,
            on_converged=lambda b, t, chol: factors.setdefault(b, (t, chol)),
        )
        for b in range(Y.shape[0]):
            ref = reference_newton_fit(X, Y[b], family, opts, beta0=beta0[b])
            in_block = FitResult(
                fits.betas[b], fits.statuses[b], fits.n_iter[b], fits.grad_norm[b],
                *factors.pop(b, (None, None)),
            )
            alone = newton_fit(X, Y[b], family, opts, beta0=beta0[b])
            at_floor = _ends_at_float_floor(ref)
            for fit in (in_block, alone):
                assert fit.status is ref.status, (b, fit.status, ref.status)
                if not at_floor:
                    assert fit.n_iter == ref.n_iter, (b, fit.n_iter, ref.n_iter)
                    # a gradient norm far below tol is itself rounding
                    assert fit.grad_norm == pytest.approx(
                        ref.grad_norm, rel=1e-6, abs=1e-4 * opts.tol
                    ), b
                if ref.status is FitStatus.CONVERGED:
                    np.testing.assert_allclose(
                        fit.beta_hat, ref.beta_hat, rtol=0, atol=1e-6
                    )
                    np.testing.assert_allclose(fit.eta_lin, ref.eta_lin, rtol=0, atol=1e-6)
                    np.testing.assert_allclose(fit.chol, ref.chol, rtol=1e-6, atol=1e-9)
                else:
                    assert fit.eta_lin is None and fit.chol is None
            seen.add(ref.status)
            total += 1
            counted += not at_floor
    assert 2 * counted > total  # the counts are checked on most replicates
    expected = {FitStatus.CONVERGED, FitStatus.MAX_ITER, FitStatus.SINGULAR_HESSIAN}
    if family.is_binary:
        expected.add(FitStatus.SEPARABLE)
    assert seen == expected


def test_refit_many_does_not_depend_on_blocking():
    data, beta = simulate_logistic(200, 5, seed=4, scale=1.5)
    rng = np.random.default_rng(6)
    Y = np.array([data.family.simulate(data.X @ beta, rng) for _ in range(23)])
    whole = refit_many(data.X, Y, data.family, beta)
    assert all(s is FitStatus.CONVERGED for s in whole.statuses)
    for size in (1, 7):
        parts = [
            refit_many(data.X, Y[lo:lo + size], data.family, beta).betas
            for lo in range(0, Y.shape[0], size)
        ]
        np.testing.assert_allclose(np.vstack(parts), whole.betas, rtol=0, atol=1e-10)


def test_fit_keeps_its_cholesky_factor():
    data, _ = simulate_logistic(150, 6, seed=13)
    fit = fit_mle(data)
    t = data.X @ fit.beta_hat
    np.testing.assert_allclose(fit.eta_lin, t, rtol=0, atol=1e-12)
    hessian = data.X.T @ (data.family.d2(data.y, t)[:, None] * data.X)
    np.testing.assert_allclose(fit.chol @ fit.chol.T, hessian, atol=1e-12)
    assert np.all(np.triu(fit.chol, 1) == 0.0)
    separated = fit_mle(
        Dataset(X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]), family="logistic")
    )
    assert separated.chol is None and separated.eta_lin is None


def test_one_response_builds_no_pair_table(monkeypatch):
    # at pareto-small size a block of replicates stacks its Hessians from
    # the column-pair table; a single fit forms its own Hessian instead
    data, _ = simulate_logistic(400, 40, seed=5)
    assert fitting._stacks_hessians(data.n, data.p)

    def no_table(X):
        raise AssertionError("a single fit built the column-pair table")

    monkeypatch.setattr(fitting, "_column_pairs", no_table)
    fit = fit_mle(data)
    assert fit.status is FitStatus.CONVERGED
    assert fit.n_iter > 0
