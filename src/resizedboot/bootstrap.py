"""Resized parametric bootstrap: shrink the MLE, resample, refit, summarise.

``resize`` rescales the MLE so the linear predictor's spread matches the
estimated signal strength (never inflating: the scale is clamped at 1).
``run_bootstrap`` holds X fixed, simulates B response vectors at the resized
coefficients, refits each, and reduces the surviving replicates to the
per-coordinate spread sigma_hat and the common inflation factor alpha_hat.
``refit_replicates`` is that refit-and-reduce step, which the pairs
bootstrap shares with weighted replicates: one ``refit_many`` call for all
B replicates, which draws each lockstep block's responses as it reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import TooManyFailuresError, ZeroMleError
from .fitting import Dataset, FitResult, FitStatus, refit_many
from .rng import substream
from .signal_strength import sd_linear_predictor

_BOOT_STREAM = 29  # spawn-key namespace for per-replicate substreams


@dataclass(frozen=True)
class ResizedCoefficients:
    """The shrunk coefficient vector beta_star = scale_s * beta_hat.

    ``gamma_target`` is the linear-predictor sd actually achieved, which
    equals the requested value whenever no clamping occurred.
    """

    beta_star: np.ndarray
    scale_s: float
    gamma_target: float


@dataclass
class BootstrapSummary:
    """Reduction of the B refits: surviving MLEs, their spread and bias."""

    boot_mles: np.ndarray      # (B_surviving, p)
    sigma_hat: np.ndarray      # per-coordinate sd, (B_surviving - 1) divisor
    alpha_hat: float
    beta_bar: np.ndarray
    n_failed: int

    @property
    def n_replicates(self) -> int:
        return self.boot_mles.shape[0]


def resize(
    fit: FitResult,
    gamma_hat: float,
    X: np.ndarray,
    *,
    has_intercept: bool = False,
) -> ResizedCoefficients:
    """Rescale the MLE so sd(X beta_star) equals gamma_hat, clamped to [0, 1].

    The intercept coordinate is copied unscaled: shrinking it would distort
    the case/control mix.
    """
    if gamma_hat < 0:
        raise ValueError(f"gamma_hat must be non-negative; got {gamma_hat}")
    base = sd_linear_predictor(X, fit.beta_hat, has_intercept=has_intercept)
    if base == 0.0:
        if gamma_hat > 0:
            raise ZeroMleError(
                "beta_hat has zero linear-predictor spread; cannot rescale "
                f"to gamma = {gamma_hat:g}"
            )
        scale = 0.0
    else:
        scale = min(max(gamma_hat / base, 0.0), 1.0)
    beta_star = scale * fit.beta_hat
    if has_intercept:
        beta_star[0] = fit.beta_hat[0]
    return ResizedCoefficients(
        beta_star=beta_star, scale_s=scale, gamma_target=scale * base
    )


def weighted_origin_slope(
    response: np.ndarray, predictor: np.ndarray, sigma: np.ndarray
) -> float:
    """Weighted least squares through the origin with weights 1/sigma^2.

    Falls back to 1.0 when the predictor is identically zero (no bias factor
    is identifiable at the null).
    """
    w = 1.0 / np.square(sigma)
    denom = float(np.sum(w * predictor * predictor))
    if denom <= 0.0:
        return 1.0
    return float(np.sum(w * response * predictor) / denom)


def summarize_bootstrap(
    boot_mles: np.ndarray,
    reference: np.ndarray,
    n_failed: int,
    *,
    has_intercept: bool = False,
) -> BootstrapSummary:
    """Reduce a stack of bootstrap MLEs against the coefficients that
    generated them (the intercept coordinate never enters the regression)."""
    beta_bar = boot_mles.mean(axis=0)
    sigma_hat = boot_mles.std(axis=0, ddof=1)
    sl = slice(1, None) if has_intercept else slice(None)
    alpha_hat = weighted_origin_slope(beta_bar[sl], reference[sl], sigma_hat[sl])
    return BootstrapSummary(
        boot_mles=boot_mles,
        sigma_hat=sigma_hat,
        alpha_hat=alpha_hat,
        beta_bar=beta_bar,
        n_failed=n_failed,
    )


def run_bootstrap(
    data: Dataset,
    resized: ResizedCoefficients,
    B: int,
    seed: int = 0,
    *,
    fail_fraction: float = 0.2,
) -> BootstrapSummary:
    """Simulate B datasets at beta_star, refit each, and summarise.

    Replicate b draws its responses from its own substream, so its MLE
    depends neither on B nor on the lockstep blocks of ``refit_many``, which
    draws them a block at a time; ``refit_replicates`` refits them and
    reduces the survivors.
    """
    beta_star = np.asarray(resized.beta_star, dtype=np.float64)
    t_star = data.X @ beta_star

    def draw(idx):
        Y = np.array([
            data.family.simulate(t_star, substream(seed, _BOOT_STREAM, b)) for b in idx
        ])
        return Y, None

    return refit_replicates(
        data, beta_star, B, draw, fail_fraction=fail_fraction, context="bootstrap"
    )


def refit_replicates(
    data: Dataset,
    beta0: np.ndarray,
    B: int,
    draw,
    *,
    fail_fraction: float,
    context: str,
) -> BootstrapSummary:
    """Refit B bootstrap replicates from ``beta0`` and summarise them
    against it.

    ``draw(idx)`` gives the responses and the weights (None for unit
    weights) of the replicates ``idx``, as ``refit_many`` takes them. All B
    are refitted in one call, which draws them a lockstep block at a time,
    so each bootstrap builds its column-pair table, its float32 copy of
    ``X`` and its shared start factor once. No Hessian is factored at
    convergence, so a converged replicate is one whose gradient norm
    reached the tolerance. Failed replicates (separable or non-converged)
    are discarded and counted, never retried. More than
    ``fail_fraction`` failures raises ``TooManyFailuresError`` naming
    ``context``: that many non-existent bootstrap MLEs signal a design at or
    over the phase boundary.
    """
    if B < 2:
        raise ValueError("B must be at least 2")
    fits = refit_many(data.X, data.family, beta0, B, draw)
    kept = fits.betas[[status is FitStatus.CONVERGED for status in fits.statuses]]
    n_failed = B - kept.shape[0]
    if n_failed > fail_fraction * B:
        raise TooManyFailuresError(n_failed, B, context=context)
    return summarize_bootstrap(kept, beta0, n_failed, has_intercept=data.has_intercept)
