"""Signal-strength estimation by simulating along the shrinkage path.

The true signal strength gamma = sd(X beta) is recovered from a single
dataset by exploiting the monotone map gamma -> eta: place knots
``beta^s = s * beta_hat`` for s in [0, 1], simulate responses at each knot,
re-fit, estimate eta at each knot with the leave-one-out estimator, smooth
the resulting cloud, and invert the smoothed curve at the observed eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CurveNotBracketingError, FitFailedError, ResizedBootError
from .fitting import Dataset, FitResult, FitStatus, refit_many
from .rng import substream
from .sloe import sloe_estimate, sloe_from_factor

_KNOT_STREAM = 17  # spawn-key namespace for knot/replicate substreams
_LOESS_SPAN = 0.75  # share of the curve's points in each local fit


def sd_linear_predictor(
    X: np.ndarray, beta: np.ndarray, *, has_intercept: bool = False
) -> float:
    """Sample standard deviation (1/(n-1)) of the n linear predictors.

    The intercept coordinate is excluded when present: an intercept shifts
    the linear predictor but does not spread it.
    """
    b = np.asarray(beta, dtype=np.float64)
    if has_intercept:
        b = b.copy()
        b[0] = 0.0
    return float(np.std(np.asarray(X) @ b, ddof=1))


@dataclass
class GammaCurve:
    """Simulated eta-versus-gamma curve and its inversion at eta_tilde.

    ``eta_samples[i, j]`` is the j-th replicate estimate at knot i (NaN for
    replicates whose refit failed). ``smooth_gamma``/``smooth_eta`` are the
    monotone interpolation knots actually used for the inversion.
    """

    s_grid: np.ndarray
    gamma_grid: np.ndarray
    eta_samples: np.ndarray
    smooth_gamma: np.ndarray
    smooth_eta: np.ndarray
    eta_tilde: float
    gamma_hat: float
    n_failed: int
    seed: int


def loess_smooth(x: np.ndarray, y: np.ndarray, x_eval: np.ndarray) -> np.ndarray:
    """Local linear regression with tricube weights over the nearest
    ``ceil(_LOESS_SPAN * len(x))`` points, evaluated at ``x_eval``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = x.size
    q = max(2, min(m, int(np.ceil(_LOESS_SPAN * m))))
    out = np.empty(np.size(x_eval))
    for k, x0 in enumerate(np.asarray(x_eval, dtype=np.float64)):
        d = np.abs(x - x0)
        idx = np.argpartition(d, q - 1)[:q]
        h = float(d[idx].max())
        if h <= 0.0:
            out[k] = float(y[idx].mean())
            continue
        w = np.clip(1.0 - (d[idx] / h) ** 3, 0.0, None) ** 3
        sw = w.sum()
        if sw <= 0.0:
            out[k] = float(y[idx].mean())
            continue
        xc = x[idx] - x0
        xbar = float((w * xc).sum() / sw)
        ybar = float((w * y[idx]).sum() / sw)
        sxx = float((w * (xc - xbar) ** 2).sum())
        if sxx <= 1e-12 * max(1.0, xbar * xbar):
            out[k] = ybar
            continue
        slope = float((w * (xc - xbar) * (y[idx] - ybar)).sum()) / sxx
        out[k] = ybar - slope * xbar  # prediction at xc = 0
    return out


def isotonic_non_decreasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    vals: list[float] = []
    counts: list[int] = []
    for v in np.asarray(values, dtype=np.float64):
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            total = counts[-1] + counts[-2]
            merged = (vals[-1] * counts[-1] + vals[-2] * counts[-2]) / total
            vals.pop()
            counts.pop()
            vals[-1] = merged
            counts[-1] = total
    return np.repeat(vals, counts)


def invert_monotone_curve(
    gammas: np.ndarray, etas: np.ndarray, target: float
) -> float:
    """Solve etas(gamma) = target by linear interpolation between knots.

    ``etas`` must be non-decreasing. Targets below the first knot clamp to
    the first gamma; targets above the last knot raise instead of
    extrapolating.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    etas = np.asarray(etas, dtype=np.float64)
    if target > etas[-1]:
        raise CurveNotBracketingError(target, float(etas[-1]))
    idx = int(np.searchsorted(etas, target, side="left"))
    if idx == 0:
        return float(gammas[0])
    e0, e1 = etas[idx - 1], etas[idx]
    g0, g1 = gammas[idx - 1], gammas[idx]
    return float(g0 + (target - e0) / (e1 - e0) * (g1 - g0))


def estimate_gamma(
    data: Dataset,
    fit: FitResult,
    grid_size: int = 10,
    reps: int = 3,
    seed: int = 0,
) -> GammaCurve:
    """Estimate gamma by inverting the simulated eta(gamma) curve.

    Knots sit at ``s_i * beta_hat`` for I equally spaced s in [0, 1] (the
    intercept coordinate, when present, is carried along unscaled so the
    case/control mix is preserved). Each knot gets ``reps`` simulated
    response vectors; replicates whose refit fails are dropped, and a knot
    survives as long as one replicate does.
    """
    if grid_size < 4:
        raise ValueError("grid_size must be at least 4")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if fit.status is not FitStatus.CONVERGED:
        raise ValueError(f"estimate_gamma requires a converged fit, got {fit.status.value}")

    eta_tilde = sloe_estimate(data, fit).eta_hat
    gamma_full = sd_linear_predictor(data.X, fit.beta_hat, has_intercept=data.has_intercept)
    s_grid = np.linspace(0.0, 1.0, grid_size)
    gamma_grid = s_grid * gamma_full

    # knot-major: replicate j of knot i is row i * reps + j
    Y = np.empty((grid_size * reps, data.n))
    beta0 = np.empty((grid_size * reps, data.p))
    for i, s in enumerate(s_grid):
        beta_s = s * fit.beta_hat
        if data.has_intercept:
            beta_s[0] = fit.beta_hat[0]
        t_s = data.X @ beta_s
        for j in range(reps):
            Y[i * reps + j] = data.family.simulate(t_s, substream(seed, _KNOT_STREAM, i, j))
            beta0[i * reps + j] = beta_s

    etas = np.full(grid_size * reps, np.nan)

    def record(b, t, chol):
        try:
            etas[b] = sloe_from_factor(data.X, Y[b], data.family, t, chol).eta_hat
        except ResizedBootError:
            pass

    refit_many(data.X, Y, data.family, beta0, on_converged=record)
    eta_samples = etas.reshape(grid_size, reps)

    keep = ~np.isnan(eta_samples)
    n_failed = int((~keep).sum())
    knot_alive = keep.any(axis=1)
    if knot_alive.sum() < 2:
        raise FitFailedError(
            f"only {int(knot_alive.sum())} of {grid_size} knots produced a "
            "usable replicate; cannot build the eta(gamma) curve"
        )
    pts_gamma = np.repeat(gamma_grid, reps)[keep.ravel()]
    pts_eta = eta_samples.ravel()[keep.ravel()]
    smooth_gamma = gamma_grid[knot_alive]
    smooth_eta = isotonic_non_decreasing(
        loess_smooth(pts_gamma, pts_eta, smooth_gamma)
    )
    gamma_hat = invert_monotone_curve(smooth_gamma, smooth_eta, eta_tilde)
    return GammaCurve(
        s_grid=s_grid,
        gamma_grid=gamma_grid,
        eta_samples=eta_samples,
        smooth_gamma=smooth_gamma,
        smooth_eta=smooth_eta,
        eta_tilde=eta_tilde,
        gamma_hat=gamma_hat,
        n_failed=n_failed,
        seed=int(seed),
    )
