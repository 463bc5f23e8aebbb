"""Acceptance suite: every gate runs at its stated tolerance and prints one
PASS line (run with -s to see them while green; they also appear in the
captured output of failures)."""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from resizedboot import (
    Dataset,
    DesignSpec,
    FitStatus,
    MixtureCoefficients,
    MvtCovariates,
    baseline_bootstraps,
    estimate_gamma,
    fit_mle,
    gen_coefficients,
    gen_covariates,
    gen_response,
    generate_dataset,
    get_family,
    named_design,
    resize,
    run_bias_sd_study,
    run_bootstrap,
    run_coverage,
    scaled_to_gamma,
    sd_linear_predictor,
    sloe_estimate,
)
from resizedboot.cli import main
from resizedboot.rng import child_seed, substream

from oracles import first_order_minimize, loo_oracle, monte_carlo_mles

FIXTURE = Path(__file__).parent / "fixtures" / "logistic_n200_p5.csv"


def test_criterion_1_fitter_matches_first_order_oracle():
    # 50 random small designs across all three families: converged gradients
    # at most 1e-8 and coordinates within 1e-5 of a gradient-only reference
    start = time.time()
    rng = np.random.default_rng(2024)
    families = ["logistic", "probit", "poisson-log"]
    n_converged = 0
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(50, 501))
        p = int(rng.integers(2, 21))
        n = max(n, 4 * p)
        name = families[k % 3]
        family = get_family(name)
        X = rng.standard_normal((n, p)) / np.sqrt(p)
        beta = rng.standard_normal(p) * (0.8 if name == "poisson-log" else 1.5)
        y = family.simulate(X @ beta, rng)
        fit = fit_mle(Dataset(X=X, y=y, family=name))
        if fit.status is not FitStatus.CONVERGED:
            continue
        n_converged += 1
        assert fit.grad_norm <= 1e-8
        reference = first_order_minimize(X, y, family)
        worst = max(worst, float(np.max(np.abs(fit.beta_hat - reference))))
    elapsed = time.time() - start
    assert n_converged >= 45, f"only {n_converged}/50 designs converged"
    assert worst <= 1e-5, f"worst coordinate gap {worst:.2e}"
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1: PASS - {n_converged}/50 converged, max |beta - oracle| "
        f"= {worst:.2e} <= 1e-5, {elapsed:.1f}s"
    )


def test_criterion_2_sloe_tracks_exact_leave_one_out():
    start = time.time()
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, p = 200, 20
        X = rng.standard_normal((n, p)) / np.sqrt(p)
        beta = 2.0 * rng.standard_normal(p)
        y = np.where(rng.random(n) < 1 / (1 + np.exp(-X @ beta)), 1.0, -1.0)
        data = Dataset(X=X, y=y, family="logistic")
        est = sloe_estimate(data, fit_mle(data))
        oracle = loo_oracle(data)
        errors.append(abs(est.eta_hat - oracle) / oracle)
    elapsed = time.time() - start
    median = float(np.median(errors))
    assert median <= 0.05, f"median relative error {median:.4f}"
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 2: PASS - median |eta - loo|/loo = {median:.4f} <= 0.05 "
        f"over 20 seeds, {elapsed:.1f}s"
    )


def test_criterion_3_signal_strength_recovery_at_gamma_2():
    # reduced scale n=1000, p=100 with the proportionally relaxed band
    start = time.time()
    spec = DesignSpec(
        n=1000, p=100, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=12, mu=5.0, sd=1.0),
        family="logistic", seed=123,
    )
    beta = scaled_to_gamma(spec, gen_coefficients(spec, substream(spec.seed, 0)), 2.0)
    estimates = []
    for seed in range(10):
        X = gen_covariates(spec, substream(seed, 1))
        y = gen_response(X, beta, "logistic", substream(seed, 2))
        data = Dataset(X=X, y=y, family="logistic")
        curve = estimate_gamma(data, fit_mle(data), grid_size=10, reps=3, seed=seed)
        estimates.append(curve.gamma_hat)
    elapsed = time.time() - start
    mean = float(np.mean(estimates))
    assert 1.7 <= mean <= 2.3, f"mean gamma_hat {mean:.3f} outside [1.7, 2.3]"
    assert elapsed < 900.0
    print(
        f"ACCEPTANCE 3: PASS - mean gamma_hat = {mean:.3f} in [1.7, 2.3] "
        f"(truth 2.0, 10 seeds), {elapsed:.1f}s"
    )


def test_criterion_6_standard_bootstraps_overshoot_resized():
    # the intro comparison at reduced scale: both standard bootstraps centre
    # a non-null coordinate at least 25% above the resized bootstrap
    start = time.time()
    spec = DesignSpec(
        n=1000, p=100, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=12, mu=5.0, sd=1.0),
        family="logistic", seed=3,
    )
    data, beta_true, _ = generate_dataset(spec)
    fit = fit_mle(data)
    curve = estimate_gamma(data, fit, grid_size=10, reps=3, seed=child_seed(11, 1))
    resized_coef = resize(fit, curve.gamma_hat, data.X)
    resized = run_bootstrap(data, resized_coef, 200, child_seed(11, 2))
    parametric = baseline_bootstraps(
        data, fit, 200, "parametric", child_seed(11, 3)
    )
    pairs = baseline_bootstraps(data, fit, 200, "pairs", child_seed(11, 4))
    j = int(np.argmax(np.abs(beta_true)))
    m_resized = abs(resized.beta_bar[j])
    ratio_parametric = abs(parametric.beta_bar[j]) / m_resized
    ratio_pairs = abs(pairs.beta_bar[j]) / m_resized
    elapsed = time.time() - start
    assert ratio_parametric >= 1.25, f"parametric ratio {ratio_parametric:.3f}"
    assert ratio_pairs >= 1.25, f"pairs ratio {ratio_pairs:.3f}"
    print(
        f"ACCEPTANCE 6: PASS - parametric/resized = {ratio_parametric:.2f}, "
        f"pairs/resized = {ratio_pairs:.2f} (both >= 1.25), {elapsed:.1f}s"
    )


def test_criterion_7_bootstrap_distribution_matches_direct_monte_carlo():
    start = time.time()
    data = Dataset(
        X=np.loadtxt(FIXTURE, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5)),
        y=np.loadtxt(FIXTURE, delimiter=",", skiprows=1, usecols=0),
        family="logistic",
    )
    fit = fit_mle(data)
    resized_coef = resize(
        fit, 0.85 * sd_linear_predictor(data.X, fit.beta_hat), data.X
    )
    summary = run_bootstrap(data, resized_coef, 2000, seed=33)
    direct = monte_carlo_mles(
        data.X, resized_coef.beta_star, data.family, 2000, np.random.default_rng(44)
    )
    p_values = [
        stats.ks_2samp(summary.boot_mles[:, j], direct[:, j]).pvalue
        for j in range(data.p)
    ]
    elapsed = time.time() - start
    assert min(p_values) > 1e-3, f"min KS p-value {min(p_values):.2e}"
    np.testing.assert_allclose(
        summary.sigma_hat, direct.std(axis=0, ddof=1), rtol=0.05
    )
    print(
        f"ACCEPTANCE 7: PASS - min two-sample KS p = {min(p_values):.3f} > 0.001 "
        f"(5 coords, 2000 v 2000 draws); sigma within 5% of direct MC, {elapsed:.1f}s"
    )


def test_criterion_8_cli_commands_are_byte_deterministic(tmp_path):
    start = time.time()
    fixture = str(FIXTURE)
    commands = {
        "fit": ["fit", "--data", fixture, "--family", "logistic", "--seed", "7"],
        "infer": ["infer", "--data", fixture, "--family", "logistic",
                  "--seed", "7", "--B", "120", "--method", "boot-g",
                  "--method", "classical", "--dump-boot"],
        "simulate": ["simulate", "--design", "pareto-small", "--seed", "7"],
        "coverage": ["coverage", "--design", "pareto-small", "--seed", "7",
                     "--n-reps", "3", "--B", "40", "--gamma-mode", "known",
                     "--method", "classical", "--method", "boot-g",
                     "--level", "0.9"],
        "curve": ["curve", "--data", fixture, "--family", "logistic",
                  "--seed", "7", "--grid", "6", "--reps", "2"],
    }
    for name, argv in commands.items():
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        assert main(argv + ["--out", str(out_a)]) == 0, name
        assert main(argv + ["--out", str(out_b)]) == 0, name
        names_a = sorted(f.name for f in out_a.iterdir())
        names_b = sorted(f.name for f in out_b.iterdir())
        assert names_a == names_b and names_a, name
        for fname in names_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), (
                f"{name}/{fname} differs between identically seeded runs"
            )
    elapsed = time.time() - start
    print(
        f"ACCEPTANCE 8: PASS - fit/infer/simulate/coverage/curve byte-identical "
        f"across repeated runs, {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_4_pareto_small_coverage_replication():
    # the paper's own small design: N=500 repetitions, B=1000, boot-t with the
    # known signal strength; single-experiment coverage vs the published table
    start = time.time()
    report = run_coverage(
        named_design("pareto-small", seed=7),
        methods=("boot-t",),
        levels=(0.95, 0.80),
        n_reps=500,
        B=1000,
        seed=101,
        gamma_mode="known",
    )
    q95 = report.qbar("boot-t", 0.95)
    q80 = report.qbar("boot-t", 0.80)
    elapsed = time.time() - start
    assert 0.930 <= q95 <= 0.965, f"95% single-experiment coverage {q95:.4f}"
    assert 0.77 <= q80 <= 0.82, f"80% single-experiment coverage {q80:.4f}"
    assert elapsed < 1800.0
    print(
        f"ACCEPTANCE 4: PASS - boot-t single-experiment coverage "
        f"{100 * q95:.1f}% (target band [93.0, 96.5], published 94.8) and "
        f"{100 * q80:.1f}% (band [77, 82], published 79.2), "
        f"N=500, B=1000, {elapsed / 60:.1f} min"
    )


@pytest.mark.slow
def test_criterion_5_poisson_bias_and_sd_accuracy():
    start = time.time()
    design = DesignSpec(
        n=1000, p=100, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=12, mu=3.0, sd=1.0),
        family="poisson-log", seed=5,
    )
    study = run_bias_sd_study(
        design, n_reps=200, seed=9, resized_reps=25, B=100, gamma_mode="known"
    )
    bias_gap = abs(study.alpha_resized_mean - study.alpha_empirical)
    # the published table tracks a typical non-null (magnitude near the
    # mixture centre), not the most extreme coefficient
    nonnull = np.flatnonzero(study.beta_true != 0)
    j = int(nonnull[np.argmin(np.abs(np.abs(study.beta_true[nonnull]) - 3.0))])
    sd_ratio = float(study.sigma_hat_mean[j] / study.mle_sd[j])
    elapsed = time.time() - start
    assert bias_gap <= 0.03, (
        f"resized bias {study.alpha_resized_mean:.4f} vs empirical "
        f"{study.alpha_empirical:.4f}"
    )
    assert 0.9 <= sd_ratio <= 1.1, f"sd ratio {sd_ratio:.3f}"
    print(
        f"ACCEPTANCE 5: PASS - bias {study.alpha_resized_mean:.3f} "
        f"(empirical {study.alpha_empirical:.3f}, gap {bias_gap:.3f} <= 0.03); "
        f"sd ratio {sd_ratio:.3f} in [0.9, 1.1] at beta = "
        f"{study.beta_true[j]:.2f}, {elapsed / 60:.1f} min"
    )
