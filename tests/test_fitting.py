import numpy as np
import pytest

import resizedboot.fitting as fitting
from resizedboot import (
    Dataset,
    DatasetError,
    FitOptions,
    FitResult,
    FitStatus,
    fit_mle,
    get_family,
    newton_fit,
    refit_many,
)

from conftest import simulate_logistic
from oracles import (
    find_separating_direction,
    first_order_minimize,
    reference_newton_fit,
)

# The suite turns every RuntimeWarning into an error (pyproject.toml): the
# engine silences only the overflow of trial steps, and any other floating
# point warning from a fit is a fault.


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
    # newton_fit, against the reference loop. Per replicate, exact Newton
    # steps are a test configuration: a Hessian at every iteration
    if not stacked:
        monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
        monkeypatch.setattr(fitting, "_REFRESH", 1)
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


# ------------------------------- weighted replicates vs refits of the resamples

def _resample_cases(family_name):
    """(X, y, idx, beta0, opts): pairs resamples ``X[idx[b]], y[idx[b]]``.
    Row 0 of X is an outlier that no resample draws: the predictor there
    grows far past where exp() overflows, which every trial step of a
    Poisson fit evaluates. Binary cases put it on the wrong side of the
    truth and add resamples drawn only from the rows the truth classifies
    correctly, which are separable although the whole dataset is not."""
    family = get_family(family_name)
    rng = np.random.default_rng(17)
    n, p = 60, 4
    X = rng.standard_normal((n, p)) / np.sqrt(p)
    beta = np.array([1.5, -1.0, 0.5, 0.0])
    if family.is_binary:
        beta = 2.0 * beta
    y = np.concatenate([
        [-1.0 if family.is_binary else 0.0], family.simulate(X @ beta, rng)
    ])
    X = np.vstack([[600.0, 0.0, 0.0, 0.0], X])
    idx = rng.integers(1, n + 1, (16, n + 1))
    if family.is_binary:
        right = 1 + np.flatnonzero(y[1:] * (X[1:] @ beta) > 0)
        idx[::4] = rng.choice(right, (4, n + 1))
    beta0 = np.zeros(p)
    return [(X, y, idx, beta0, FitOptions()), (X, y, idx, beta0, FitOptions(max_iter=2))]


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "per-replicate"])
@pytest.mark.parametrize("family_name", ["logistic", "probit", "poisson-log"])
def test_weighted_refit_many_matches_resampled_fits(family_name, stacked, monkeypatch):
    # a replicate weighted by its row counts against the reference loop on
    # the resampled rows themselves
    if not stacked:
        monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
        monkeypatch.setattr(fitting, "_REFRESH", 1)
    family = get_family(family_name)
    seen = set()
    far = 0.0
    for X, y, idx, beta0, opts in _resample_cases(family_name):
        counts = np.array([np.bincount(i, minlength=X.shape[0]) for i in idx])
        assert not counts[:, 0].any()
        fits = refit_many(
            X, np.broadcast_to(y, counts.shape), family, beta0, opts, weights=counts
        )
        for b, rows in enumerate(idx):
            ref = reference_newton_fit(X[rows], y[rows], family, opts, beta0=beta0)
            assert fits.statuses[b] is ref.status, (b, fits.statuses[b], ref.status)
            if ref.status is FitStatus.CONVERGED:
                np.testing.assert_allclose(fits.betas[b], ref.beta_hat, rtol=0, atol=1e-6)
                far = max(far, X[0] @ ref.beta_hat)
            seen.add(ref.status)
    assert far > 710.0  # exp() overflows at the outlier
    assert FitStatus.CONVERGED in seen and FitStatus.MAX_ITER in seen
    if family.is_binary:
        assert FitStatus.SEPARABLE in seen
        X, y, idx, _, _ = _resample_cases(family_name)[0]
        assert find_separating_direction(X, y) is None
        assert find_separating_direction(X[idx[0]], y[idx[0]]) is not None


@pytest.mark.parametrize("family_name", ["logistic", "probit", "poisson-log"])
def test_unit_weights_change_no_bit(family_name):
    # the resized bootstrap and the curve refit with the default weights
    family = get_family(family_name)
    for X, Y, beta0, opts in _engine_cases(family_name):
        plain = refit_many(X, Y, family, beta0, opts)
        unit = refit_many(X, Y, family, beta0, opts, weights=np.ones(Y.shape))
        assert np.array_equal(unit.betas, plain.betas)
        assert unit.statuses == plain.statuses
        assert np.array_equal(unit.n_iter, plain.n_iter)


def test_refit_many_rejects_bad_weights():
    data, beta = simulate_logistic(50, 3, seed=8)
    Y = np.stack([data.y, data.y])
    for weights in (np.ones((2, 49)), -np.ones((2, 50))):
        with pytest.raises(ValueError, match="weights"):
            refit_many(data.X, Y, data.family, beta, weights=weights)


# ------------------------------------------ lazy Hessian refresh vs the reference

def _replicate_cases(family_name):
    """The engine and resample cases as (X, Y, beta0, opts, weights, own),
    ``own(b)`` giving replicate b's (X, y, beta0) for the reference loop."""
    for X, Y, beta0, opts in _engine_cases(family_name):
        yield X, Y, beta0, opts, None, lambda b, X=X, Y=Y, beta0=beta0: (X, Y[b], beta0[b])
    for X, y, idx, beta0, opts in _resample_cases(family_name):
        counts = np.array([np.bincount(i, minlength=X.shape[0]) for i in idx])
        yield (
            X, np.broadcast_to(y, counts.shape), beta0, opts, counts,
            lambda b, X=X, y=y, idx=idx, beta0=beta0: (X[idx[b]], y[idx[b]], beta0),
        )


@pytest.mark.parametrize("family_name", ["logistic", "probit", "poisson-log"])
def test_lazy_refit_many_matches_newton_fit(family_name, monkeypatch):
    # replicates that hold their Hessian factor for up to three Newton
    # steps, in a block and fitted alone by newton_fit, end where the exact
    # Newton reference does
    monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    family = get_family(family_name)
    restarted = set()
    for case, (X, Y, beta0, opts, weights, own) in enumerate(_replicate_cases(family_name)):
        assert not fitting._stacks_hessians(*X.shape)
        factors = {}
        fits = refit_many(
            X, Y, family, beta0, opts, weights=weights,
            on_converged=lambda b, t, chol: factors.setdefault(b, chol),
        )
        for b in range(Y.shape[0]):
            Xb, yb, beta0_b = own(b)
            in_block = FitResult(
                fits.betas[b], fits.statuses[b], fits.n_iter[b], fits.grad_norm[b],
                chol=factors.get(b),
            )
            alone = newton_fit(Xb, yb, family, opts, beta0=beta0_b)
            for fit in (in_block, alone):
                if opts.max_iter == 2:
                    assert fit.n_iter <= 2
                    continue
                ref = reference_newton_fit(Xb, yb, family, opts, beta0=beta0_b)
                if ref.status is FitStatus.MAX_ITER and ref.n_iter <= 1 and fit.converged:
                    # a far start where exact Newton stalls at once; the held
                    # factor's steps get through to the fit from zero
                    ref = reference_newton_fit(Xb, yb, family, opts)
                    restarted.add((case, b))
                assert fit.status is ref.status, (b, fit.status, ref.status)
                if fit.converged:
                    np.testing.assert_allclose(fit.beta_hat, ref.beta_hat, rtol=0, atol=1e-6)
                    np.testing.assert_allclose(fit.chol, ref.chol, rtol=1e-6, atol=1e-9)
    assert len(restarted) <= 2


def _count_hessians(monkeypatch):
    calls = []
    real = fitting._hessian

    def counted(X, w, rows=None):
        calls.append(X.shape[0] if rows is None else len(rows))
        return real(X, w, rows)

    monkeypatch.setattr(fitting, "_hessian", counted)
    return calls


@pytest.mark.parametrize("family_name, formed", [("logistic", 1), ("probit", 9)])
def test_lazy_block_shares_its_start_hessian(family_name, formed, monkeypatch):
    # logistic curvature does not depend on y, so nine replicates that start
    # together form one Hessian in their first pass; probit's does
    monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    family = get_family(family_name)
    data, beta = simulate_logistic(200, 5, seed=4)
    rng = np.random.default_rng(6)
    Y = np.array([family.simulate(data.X @ beta, rng) for _ in range(9)])
    calls = _count_hessians(monkeypatch)
    for rows in (None, 3):
        if rows is not None:
            # the start Hessian carries across blocks as well
            monkeypatch.setattr(fitting, "_lockstep_rows", lambda n, p: rows)
        calls.clear()
        fits = refit_many(data.X, Y, family, beta, FitOptions(max_iter=1))
        assert set(fits.statuses) == {FitStatus.MAX_ITER}
        assert len(calls) == formed


def test_newton_fit_refreshes_where_hessians_are_not_stacked(monkeypatch):
    # one response follows the step rule of a block at the same size: exact
    # steps and a check at convergence where Hessians would be stacked, a
    # held factor between refreshes elsewhere
    data, _ = simulate_logistic(200, 5, seed=4, scale=1.5)
    calls = _count_hessians(monkeypatch)
    fit = fit_mle(data)
    assert fit.converged and len(calls) == fit.n_iter + 1
    monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    calls.clear()
    fit = fit_mle(data)
    assert fit.converged and fit.n_iter > fitting._REFRESH
    assert len(calls) < fit.n_iter + 1


def test_weighted_hessians_skip_undrawn_rows(monkeypatch):
    monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    data, beta = simulate_logistic(200, 5, seed=4)
    counts = np.random.default_rng(3).multinomial(200, np.full(200, 1 / 200), size=4)
    calls = _count_hessians(monkeypatch)
    refit_many(
        data.X, np.broadcast_to(data.y, counts.shape), data.family, beta,
        FitOptions(max_iter=1), weights=counts,
    )
    assert calls == [int((c > 0).sum()) for c in counts]
    assert max(calls) < 200


def test_lazy_refit_many_does_not_depend_on_blocking(monkeypatch):
    # a replicate's held factor and its shared start Hessian follow it
    # through blocks of any size. Not to the bit: a block's products turn
    # into matrix-vector products, which round differently, once one row is
    # left in it, and a held factor carries such a difference further than
    # an exact Newton step does (up to 1.7e-9 here)
    monkeypatch.setattr(fitting, "_PAIRS_BYTES", 0)
    data, beta = simulate_logistic(200, 5, seed=4, scale=1.5)
    rng = np.random.default_rng(6)
    Y = np.array([data.family.simulate(data.X @ beta, rng) for _ in range(23)])
    whole = refit_many(data.X, Y, data.family, beta)
    assert all(s is FitStatus.CONVERGED for s in whole.statuses)
    assert whole.n_iter.max() > 3  # some replicates refresh their factor
    for rows in (1, 5, 7):
        monkeypatch.setattr(fitting, "_lockstep_rows", lambda n, p: rows)
        part = refit_many(data.X, Y, data.family, beta)
        assert part.statuses == whole.statuses
        np.testing.assert_allclose(part.betas, whole.betas, rtol=0, atol=1e-8)
