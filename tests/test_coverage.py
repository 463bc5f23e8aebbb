import dataclasses
import multiprocessing
import time

import numpy as np
import pytest

import resizedboot.coverage as cov
import resizedboot.fitting as fitting
from resizedboot import (
    CurveNotBracketingError,
    DesignSpec,
    FitStatus,
    GaussianCovariates,
    InsufficientBootstrapError,
    IntervalSet,
    MixtureCoefficients,
    TooManyFailuresError,
    baseline_bootstraps,
    fit_mle,
    generate_dataset,
    infer,
    newton_fit,
    run_bias_sd_study,
    run_coverage,
    run_bootstrap,
)
from resizedboot.bootstrap import ResizedCoefficients
from resizedboot.cli import write_json
from resizedboot.coverage import pairs_indices
from resizedboot.signal_strength import sd_linear_predictor

from conftest import simulate_logistic


def _tiny_design(seed=0, n=120, p=4, k=2, family="logistic"):
    return DesignSpec(
        n=n, p=p, covariates=GaussianCovariates(),
        coefficients=MixtureCoefficients(k=k, mu=2.0, sd=0.5),
        family=family, seed=seed,
    )


@pytest.fixture(scope="module")
def small_report():
    return run_coverage(
        _tiny_design(), methods=("classical", "boot-g"), levels=(0.95, 0.8),
        n_reps=6, B=60, seed=3, gamma_mode="known",
    )


def test_tally_identity(small_report):
    r = small_report
    for m in r.methods:
        for l in r.levels:
            lhs = r.q_j(m, l).sum() * r.n_reps
            rhs = r.qbar_i(m, l).sum() * r.design.p
            assert lhs == pytest.approx(rhs)


def test_coverage_values_are_proportions(small_report):
    r = small_report
    for m in r.methods:
        for l in r.levels:
            assert np.all((0.0 <= r.q_j(m, l)) & (r.q_j(m, l) <= 1.0))
            assert np.all((0.0 <= r.qbar_i(m, l)) & (r.qbar_i(m, l) <= 1.0))
            assert r.qbar(m, l) == pytest.approx(r.qbar_i(m, l).mean())


def test_whole_line_intervals_cover_everything(monkeypatch):
    p = 4

    def everything(inference, method, level):
        return IntervalSet(
            lo=np.full(p, -np.inf), hi=np.full(p, np.inf),
            level=level, method=method,
        )

    monkeypatch.setattr(cov.Inference, "interval", everything)
    r = run_coverage(
        _tiny_design(), methods=("classical",), levels=(0.95,),
        n_reps=2, B=10, seed=0, gamma_mode="known",
    )
    np.testing.assert_array_equal(r.q_j("classical", 0.95), 1.0)
    assert r.qbar("classical", 0.95) == 1.0


def test_report_is_seed_deterministic():
    kw = dict(methods=("boot-g",), levels=(0.9,), n_reps=3, B=40,
              seed=12, gamma_mode="known")
    a = run_coverage(_tiny_design(), **kw)
    b = run_coverage(_tiny_design(), **kw)
    np.testing.assert_array_equal(
        a.covered["boot-g"][0.9], b.covered["boot-g"][0.9]
    )
    np.testing.assert_array_equal(a.mle_mean, b.mle_mean)
    assert a.alpha_hats.tolist() == b.alpha_hats.tolist()


def test_fix_x_holds_covariates_fixed():
    r = run_coverage(
        _tiny_design(), methods=("classical",), levels=(0.95,),
        n_reps=3, B=10, seed=5, gamma_mode="known", fix_x=True,
    )
    # known gamma is sd(X beta): constant across repetitions iff X is fixed
    assert np.ptp(r.gamma_used) == 0.0


def test_estimated_gamma_mode_runs():
    # estimation needs enough dimensionality for the curve to bracket eta
    r = run_coverage(
        _tiny_design(n=150, p=15, k=5), methods=("boot-g",), levels=(0.9,),
        n_reps=2, B=40, seed=1, gamma_mode="estimated", grid_size=6, reps=2,
    )
    assert r.gamma_estimates is not None and r.gamma_estimates.shape == (2,)
    assert np.all(r.gamma_estimates >= 0)


def test_estimated_gamma_without_resized_methods_runs_no_curve(monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("the curve ran")

    monkeypatch.setattr(cov, "estimate_gamma", no_curve)
    r = run_coverage(
        _tiny_design(n=150, p=15, k=5), methods=("classical",), levels=(0.9,),
        n_reps=2, B=40, seed=1, gamma_mode="estimated",
    )
    assert r.n_reps == 2
    assert r.gamma_used is None and r.gamma_estimates is None
    assert r.to_json_dict()["gamma"] == {
        "mode": "estimated", "used": None, "estimates": None,
    }


def test_bias_sd_study_self_consistent():
    study = run_bias_sd_study(
        _tiny_design(n=150, p=4), n_reps=12, seed=4, resized_reps=3, B=40,
    )
    # the reported slope must equal the through-origin regression recomputed
    # from the study's own averages
    slope = float(
        study.mle_mean @ study.beta_true / (study.beta_true @ study.beta_true)
    )
    assert study.alpha_empirical == pytest.approx(slope, rel=1e-12)
    per_coord = study.empirical_alpha_per_coordinate
    assert np.all(np.isnan(per_coord[study.beta_true == 0]))
    assert np.all(np.isfinite(per_coord[study.beta_true != 0]))
    assert 0.5 < study.alpha_resized_mean < 2.0
    assert len(study.alpha_hats) == 3
    assert "bias" in study.format_bias_sd_table()


_HOPELESS = DesignSpec(
    n=60, p=25, covariates=GaussianCovariates(),
    coefficients=MixtureCoefficients(k=12, mu=20.0, sd=1.0),
    family="logistic", seed=0,
)


def test_coverage_aborts_at_phase_transition():
    with pytest.raises(TooManyFailuresError):
        run_coverage(
            _HOPELESS, methods=("classical",), levels=(0.95,),
            n_reps=4, B=10, seed=0, gamma_mode="known",
        )


def test_pairs_baseline_aborts_at_phase_transition():
    data = generate_dataset(_HOPELESS)[0]
    with pytest.raises(TooManyFailuresError, match="pairs bootstrap") as err:
        baseline_bootstraps(data, fit_mle(data), B=10, mode="pairs", seed=0)
    assert (err.value.n_failed, err.value.n_total) == (10, 10)


def test_parametric_baseline_is_run_bootstrap_at_scale_one():
    data = simulate_logistic(150, 4, seed=6)[0]
    fit = fit_mle(data)
    base = baseline_bootstraps(data, fit, B=30, mode="parametric", seed=9)
    at_mle = ResizedCoefficients(
        beta_star=fit.beta_hat.copy(), scale_s=1.0,
        gamma_target=sd_linear_predictor(data.X, fit.beta_hat),
    )
    direct = run_bootstrap(data, at_mle, B=30, seed=9)
    np.testing.assert_array_equal(base.boot_mles, direct.boot_mles)
    assert base.alpha_hat == direct.alpha_hat


def test_pairs_baseline_runs_and_differs_from_parametric():
    data = simulate_logistic(150, 4, seed=6)[0]
    fit = fit_mle(data)
    pairs = baseline_bootstraps(data, fit, B=30, mode="pairs", seed=9)
    par = baseline_bootstraps(data, fit, B=30, mode="parametric", seed=9)
    assert pairs.boot_mles.shape[1] == data.p
    assert not np.array_equal(pairs.boot_mles, par.boot_mles)
    with pytest.raises(ValueError):
        baseline_bootstraps(data, fit, B=10, mode="wild", seed=0)


def test_pairs_baseline_refits_the_resampled_rows(monkeypatch):
    # replicate b is the fit of the rows pairs_indices draws, started at
    # beta_hat, and no replicate is fitted on its own
    data = simulate_logistic(150, 4, seed=6)[0]
    fit = fit_mle(data)
    alone = [
        newton_fit(data.X[idx], data.y[idx], data.family, beta0=fit.beta_hat)
        for idx in (pairs_indices(9, b, data.n) for b in range(30))
    ]

    def no_single_fit(*args, **kwargs):
        raise AssertionError("a pairs replicate was fitted on its own")

    monkeypatch.setattr(fitting, "newton_fit", no_single_fit)
    monkeypatch.setattr(cov, "newton_fit", no_single_fit, raising=False)
    pairs = baseline_bootstraps(data, fit, B=30, mode="pairs", seed=9)
    kept = [r.beta_hat for r in alone if r.status is FitStatus.CONVERGED]
    assert pairs.n_failed == 30 - len(kept)
    np.testing.assert_allclose(pairs.boot_mles, kept, rtol=0, atol=1e-6)


def test_pairs_resample_unique_rows_rate():
    # unique rows per resample average about n * (1 - 1/e)
    n = 50
    counts = [np.unique(pairs_indices(0, b, n)).size for b in range(300)]
    assert np.mean(counts) == pytest.approx(n * (1 - np.exp(-1)), abs=1.0)


def test_report_serialisation_and_table(small_report):
    d = small_report.to_json_dict()
    assert d["schema_version"] == 1
    assert set(d["qbar"]) == {"classical", "boot-g"}
    rows = small_report.summary_rows()
    assert len(rows) == 4  # 2 methods x 2 levels
    table = small_report.format_table()
    assert "classical" in table and "boot-g" in table


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_coverage(_tiny_design(), methods=("magic",), n_reps=2, B=10)


# (study, design, keywords): coverage with known and estimated gamma, a fixed
# X, and a design on which repetition 1 of 6 ends separable; bias/sd studies
# with known and estimated gamma
_COVERAGE = dict(methods=("classical", "boot-g"), levels=(0.9, 0.8), B=40)
POOL_CASES = {
    "known": (run_coverage, _tiny_design(), dict(gamma_mode="known", n_reps=4, seed=3)),
    "estimated": (
        run_coverage,
        _tiny_design(n=150, p=15, k=5),
        dict(gamma_mode="estimated", n_reps=3, seed=1, grid_size=6, reps=2),
    ),
    "fix_x": (
        run_coverage, _tiny_design(), dict(gamma_mode="known", n_reps=4, seed=5, fix_x=True)
    ),
    "failed_rep": (
        run_coverage,
        DesignSpec(
            n=50, p=8, covariates=GaussianCovariates(),
            coefficients=MixtureCoefficients(k=4, mu=4.0, sd=0.5),
            family="logistic", seed=0,
        ),
        dict(gamma_mode="known", n_reps=6, seed=3),
    ),
    "bias_sd_known": (
        run_bias_sd_study,
        _tiny_design(n=150),
        dict(gamma_mode="known", n_reps=5, seed=4, resized_reps=3, B=40),
    ),
    "bias_sd_estimated": (
        run_bias_sd_study,
        _tiny_design(n=150, p=15, k=5),
        dict(gamma_mode="estimated", n_reps=4, seed=1, resized_reps=2, B=40,
             grid_size=6, reps=2),
    ),
}


@pytest.mark.parametrize("case", POOL_CASES)
def test_report_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, case):
    study, design, kw = POOL_CASES[case]
    if study is run_coverage:
        kw = {**_COVERAGE, **kw}
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cov, "_usable_cpus", lambda: workers)
        report = study(design, **kw)
        path = tmp_path / f"coverage-{workers}.json"
        write_json(path, report.to_json_dict())
        outputs.append(path.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert report.n_rep_failed == (1 if case == "failed_rep" else 0)
    if study is run_bias_sd_study:
        # the resized bootstrap runs in repetitions 0..resized_reps-1 only
        assert report.alpha_hats.shape == (kw["resized_reps"],)


def test_error_in_a_repetition_reaches_the_caller(monkeypatch, tmp_path):
    real = cov._repetition

    def repetition(run, rep):
        (tmp_path / str(rep)).touch()
        if rep == 0:
            raise CurveNotBracketingError(24.7, 20.0)
        time.sleep(0.2)
        return real(run, rep)

    monkeypatch.setattr(cov, "_repetition", repetition)
    monkeypatch.setattr(cov, "_usable_cpus", lambda: 2)
    with pytest.raises(CurveNotBracketingError) as info:
        run_coverage(
            _tiny_design(), methods=("classical",), n_reps=40, B=10,
            gamma_mode="known",
        )
    assert str(info.value) == str(CurveNotBracketingError(24.7, 20.0))
    assert (info.value.eta_tilde, info.value.eta_max) == (24.7, 20.0)
    # only the repetitions already handed to a worker ran
    assert len(list(tmp_path.iterdir())) < 10
    assert multiprocessing.active_children() == []


def test_boot_t_with_too_small_b_fails_before_any_repetition(monkeypatch):
    def no_repetitions(run, n_reps):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(cov, "_run_repetitions", no_repetitions)
    with pytest.raises(
        InsufficientBootstrapError,
        match="boot-t at level 0.95 needs at least 800 replicates; have 300",
    ):
        run_coverage(
            _tiny_design(), methods=("boot-g", "boot-t"), levels=(0.8, 0.95),
            n_reps=4, B=300, gamma_mode="known",
        )


def test_boot_t_with_too_few_surviving_replicates_reaches_the_caller(monkeypatch):
    # B passes the check before any repetition, but one replicate of each
    # bootstrap fails, which leaves too few for boot-t at the 95% level
    real = cov.run_bootstrap

    def one_failed(*args, **kwargs):
        s = real(*args, **kwargs)
        return dataclasses.replace(s, boot_mles=s.boot_mles[1:], n_failed=1)

    monkeypatch.setattr(cov, "run_bootstrap", one_failed)
    with pytest.raises(
        InsufficientBootstrapError,
        match="boot-t at level 0.95 needs at least 800 replicates; have 799",
    ):
        run_coverage(
            _tiny_design(), methods=("boot-t",), levels=(0.95,),
            n_reps=2, B=800, gamma_mode="known",
        )


def test_infer_rejects_a_bad_request_before_fitting(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the data were fitted")

    monkeypatch.setattr(cov, "fit_mle", no_fit)
    data = simulate_logistic(150, 4, seed=6)[0]
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        infer(data, methods=("classical", "magic"), levels=(0.95,), B=100, seed=0)
    with pytest.raises(
        InsufficientBootstrapError,
        match="boot-t at level 0.95 needs at least 800 replicates; have 300",
    ):
        infer(data, methods=("boot-t",), levels=(0.8, 0.95), B=300, seed=0)
    monkeypatch.undo()
    inference = infer(data, methods=("classical",), levels=(0.95,), B=10, seed=0)
    with pytest.raises(ValueError, match="method 'boot-g' was not requested"):
        inference.interval("boot-g", 0.95)
