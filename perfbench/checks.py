"""Correctness checks on the program's output files.

Every expected value is formed here with numpy from the benchmark's own
inputs, or follows from a property the method must have; none is a copy of
an earlier output. Results move in their last digits with the BLAS thread
count, so each comparison carries a tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

from inputs import Inputs, Workload

# gamma_hat / gamma must lie within a factor of GAMMA_FACTOR: the curve
# inversion is a noisy estimate; on 650 pareto-small datasets the ratio
# ranged over [0.68, 1.48]
GAMMA_FACTOR = 2.0
# binomial standard errors allowed between coverage and its nominal level,
# counting every (repetition, coordinate) pair as one trial. Coordinates of
# one repetition share its fit, so coverage spreads wider than binomial:
# over 106 two-repetition commands its sd was 1.3 binomial SEs, and 8
# binomial SEs are about 6 of its own.
COVERAGE_SE = 8.0


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _z(level: float) -> float:
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def read_intervals(out: Path) -> dict[tuple[str, float], tuple[np.ndarray, np.ndarray]]:
    rows = [r for r in (out / "intervals.csv").read_text().splitlines() if not r.startswith("#")]
    table: dict[tuple[str, float], list] = {}
    for rec in csv.DictReader(rows):
        table.setdefault((rec["method"], float(rec["level"])), []).append(
            (int(rec["coordinate"]), float(rec["lo"]), float(rec["hi"]))
        )
    out_table = {}
    for key, recs in table.items():
        recs.sort()
        _require([r[0] for r in recs] == list(range(len(recs))), f"{key}: coordinates not 0..p-1")
        out_table[key] = (np.array([r[1] for r in recs]), np.array([r[2] for r in recs]))
    return out_table


def _design_matrix(inputs: Inputs, intercept: bool) -> np.ndarray:
    X = inputs.X
    return np.hstack([np.ones((X.shape[0], 1)), X]) if intercept else X


def _mean_and_weight(family: str, y: np.ndarray, t: np.ndarray):
    """Mean response and GLM weight at linear predictor t (canonical links)."""
    if family == "logistic":
        mu = 1.0 / (1.0 + np.exp(-t))
        return mu, mu * (1.0 - mu)
    mu = np.exp(t)
    return mu, mu


def check_stationary(X, y, family, beta_hat) -> None:
    """The score X'(y - mu) vanishes at the MLE. The fitter stops at a
    gradient norm of 1e-8; summing in another order moves it by far less
    than the 1e-6 allowed here."""
    mu, _ = _mean_and_weight(family, y, X @ beta_hat)
    grad = X.T @ (mu - y)
    _require(
        float(np.linalg.norm(grad)) <= 1e-6,
        f"beta_hat is not stationary: |gradient| = {np.linalg.norm(grad):.3e}",
    )


def check_classical(X, y, family, beta_hat, intervals) -> None:
    """Wald intervals from the observed information formed here."""
    _, w = _mean_and_weight(family, y, X @ beta_hat)
    H = (X * w[:, None]).T @ X
    se = np.sqrt(np.diag(np.linalg.inv(H)))
    for (method, level), (lo, hi) in intervals.items():
        if method != "classical":
            continue
        z = _z(level)
        _require(
            np.allclose(lo, beta_hat - z * se, rtol=0, atol=1e-6 * se.max())
            and np.allclose(hi, beta_hat + z * se, rtol=0, atol=1e-6 * se.max()),
            f"classical {level}: intervals differ from beta_hat -/+ z*se",
        )


def check_resized(summary, boot: np.ndarray, B: int, intervals) -> None:
    """boot-g and boot-t recomputed from the dumped bootstrap MLEs."""
    beta_hat = np.asarray(summary["beta_hat"])
    beta_star = summary["scale_s"] * beta_hat
    _require(boot.shape[0] + summary["n_failed"] == B, "bootstrap rows + failures != B")
    sigma = boot.std(axis=0, ddof=1)
    w = 1.0 / sigma**2
    alpha = float(np.sum(w * boot.mean(axis=0) * beta_star) / np.sum(w * beta_star**2))
    _require(np.allclose(sigma, summary["sigma_hat"], rtol=1e-8), "sigma_hat != column sd")
    _require(math.isclose(alpha, summary["alpha_hat"], rel_tol=1e-8), "alpha_hat != weighted slope")
    tol = 1e-8 * float(sigma.max()) / alpha
    for (method, level), (lo, hi) in intervals.items():
        if method == "boot-g":
            z = _z(level)
            want_lo, want_hi = (beta_hat - z * sigma) / alpha, (beta_hat + z * sigma) / alpha
        elif method == "boot-t":
            pivots = (boot - alpha * beta_star) / sigma
            q = 1.0 - level
            t_lo = np.quantile(pivots, q / 2.0, axis=0, method="linear")
            t_hi = np.quantile(pivots, 1.0 - q / 2.0, axis=0, method="linear")
            want_lo, want_hi = (beta_hat - t_hi * sigma) / alpha, (beta_hat - t_lo * sigma) / alpha
        else:
            continue
        _require(
            np.allclose(lo, want_lo, rtol=0, atol=tol)
            and np.allclose(hi, want_hi, rtol=0, atol=tol),
            f"{method} {level}: intervals differ from the bootstrap recomputation",
        )


def check_gamma(gamma_hat: float, gamma: float) -> None:
    _require(
        1.0 / GAMMA_FACTOR <= gamma_hat / gamma <= GAMMA_FACTOR,
        f"gamma_hat {gamma_hat:.4f} not within a factor {GAMMA_FACTOR:g} of the true {gamma:.4f}",
    )


def check_baselines(beta_hat, intervals) -> None:
    """Baseline intervals are beta_hat/alpha -/+ z*sigma/alpha with one alpha
    per method: midpoint/beta_hat is the same for every coordinate."""
    for method in ("parametric", "pairs"):
        alphas = []
        for (m, level), (lo, hi) in intervals.items():
            if m != method:
                continue
            mid = (lo + hi) / 2.0
            slope = float(mid @ beta_hat / (beta_hat @ beta_hat))
            _require(
                np.allclose(mid, slope * beta_hat, rtol=0, atol=1e-9 * float(np.max(hi - lo))),
                f"{method} {level}: midpoints are not one multiple of beta_hat",
            )
            alphas.append(slope)
        _require(bool(alphas), f"{method}: no intervals written")
        _require(
            np.allclose(alphas, alphas[0], rtol=1e-9),
            f"{method}: levels disagree on alpha",
        )


def check_infer(workload: Workload, inputs: Inputs, out: Path) -> None:
    args = workload.args
    methods = {args[i + 1] for i, a in enumerate(args) if a == "--method"}
    levels = {float(args[i + 1]) for i, a in enumerate(args) if a == "--level"}
    B = int(args[args.index("--B") + 1])
    intercept = "--intercept" in args
    family = workload.design.family
    summary = json.loads((out / "summary.json").read_text())
    intervals = read_intervals(out)
    _require(
        set(intervals) == {(m, lv) for m in methods for lv in levels},
        f"intervals.csv holds {sorted(intervals)}",
    )
    X = _design_matrix(inputs, intercept)
    beta_hat = np.asarray(summary["beta_hat"], dtype=np.float64)
    _require(beta_hat.shape == (X.shape[1],), "beta_hat has the wrong length")
    check_stationary(X, inputs.y, family, beta_hat)
    check_classical(X, inputs.y, family, beta_hat, intervals)
    if {"boot-g", "boot-t"} & methods:
        boot = np.loadtxt(out / "boot_mles.csv", delimiter=",", comments="#", skiprows=2, ndmin=2)
        check_resized(summary, boot, B, intervals)
        check_gamma(summary["gamma_hat"], inputs.gamma)
    if {"parametric", "pairs"} & methods:
        check_baselines(beta_hat, intervals)


def check_coverage(workload: Workload, out: Path) -> None:
    """Nested levels give nested intervals; coverage near its nominal level."""
    report = json.loads((out / "coverage.json").read_text())
    args = workload.args
    n_reps = int(args[args.index("--n-reps") + 1])
    p = workload.design.p
    _require(report["n_reps"] + report["n_rep_failed"] == n_reps, "repetitions lost")
    _require(report["n_reps"] >= 2, "fewer than two repetitions succeeded")
    for method, by_level in report["qbar_i"].items():
        levels = sorted(by_level, key=float)
        for lo_level, hi_level in zip(levels, levels[1:]):
            inner, outer = np.asarray(by_level[lo_level]), np.asarray(by_level[hi_level])
            _require(
                bool(np.all(inner <= outer)),
                f"{method}: {lo_level} coverage exceeds {hi_level} coverage in a repetition",
            )
        for level, qbar_i in by_level.items():
            nominal = float(level)
            qbar = float(np.mean(qbar_i))
            se = math.sqrt(nominal * (1.0 - nominal) / (len(qbar_i) * p))
            _require(
                abs(qbar - nominal) <= COVERAGE_SE * se,
                f"{method} {level}: coverage {qbar:.3f} outside "
                f"{nominal} +/- {COVERAGE_SE * se:.3f}",
            )
            _require(
                math.isclose(qbar, report["qbar"][method][level], rel_tol=1e-12),
                f"{method} {level}: qbar is not the mean of qbar_i",
            )


def check(workload: Workload, inputs: Inputs | None, out: Path) -> None:
    if workload.command == "coverage":
        check_coverage(workload, out)
    else:
        check_infer(workload, inputs, out)
