"""Confidence-interval construction: classical Wald, boot-g and boot-t.

All three interval flavours share the IntervalSet container so coverage
evaluation is method-agnostic. The bootstrap variants recentre by the common
inflation factor alpha_hat and scale by the per-coordinate bootstrap
standard deviations sigma_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from scipy import linalg, special

from .exceptions import InsufficientBootstrapError
from .fitting import FitResult, FitStatus

if TYPE_CHECKING:
    from .bootstrap import BootstrapSummary


@dataclass(frozen=True)
class IntervalSet:
    """Per-coordinate interval bounds at one nominal level for one method."""

    lo: np.ndarray
    hi: np.ndarray
    level: float
    method: str

    def __post_init__(self):
        if np.any(self.lo > self.hi):
            raise ValueError("interval lower bounds exceed upper bounds")

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, beta: np.ndarray) -> np.ndarray:
        b = np.asarray(beta, dtype=np.float64)
        return (self.lo <= b) & (b <= self.hi)


def _check_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1); got {level}")
    return float(level)


def empirical_quantile(samples: np.ndarray, q: float) -> float:
    """Linear-interpolation order-statistic quantile.

    With m sorted samples and h = (m - 1) * q, returns
    ``x[floor(h)] + (h - floor(h)) * (x[floor(h)+1] - x[floor(h)])``.
    """
    a = np.asarray(samples, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValueError("empirical_quantile requires a non-empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1]; got {q}")
    return float(_quantile_sorted(np.sort(a), q))


def _quantile_sorted(sorted_samples: np.ndarray, q: float) -> np.ndarray:
    """Same convention as empirical_quantile, on pre-sorted data.

    ``sorted_samples`` may be 2-d (sorted along axis 0); the quantile is then
    taken column-wise.
    """
    m = sorted_samples.shape[0]
    h = (m - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, m - 1)
    frac = h - lo
    return sorted_samples[lo] + frac * (sorted_samples[hi] - sorted_samples[lo])


def classical_wald_ci(fit: FitResult, level: float) -> IntervalSet:
    """Wald interval beta_hat_j +/- z * sqrt((H^-1)_jj) from the converged fit."""
    level = _check_level(level)
    if fit.status is not FitStatus.CONVERGED:
        raise ValueError(f"classical_wald_ci requires a converged fit, got {fit.status.value}")
    se = classical_se(fit)
    z = float(special.ndtri(0.5 + level / 2.0))
    return IntervalSet(
        lo=fit.beta_hat - z * se,
        hi=fit.beta_hat + z * se,
        level=level,
        method="classical",
    )


def classical_se(fit: FitResult) -> np.ndarray:
    """sqrt of the diagonal of the inverse Hessian H^-1 = L^-T L^-1, from
    the converged fit's Cholesky factor L: column norms of L^-1. Only the
    diagonal is needed, so the one triangular inverse is enough; ``dpotri``
    would go on to form all of H^-1."""
    if fit.chol is None:
        raise ValueError(f"classical_se requires a converged fit, got {fit.status.value}")
    L_inv, _ = linalg.lapack.dtrtri(fit.chol, lower=1)
    return np.sqrt(np.einsum("ij,ij->j", L_inv, L_inv))


def boot_g_ci(fit: FitResult, summary: "BootstrapSummary", level: float) -> IntervalSet:
    """Gaussian-pivot bootstrap interval:
    [(beta_hat - z_{1-q/2} sigma) / alpha, (beta_hat - z_{q/2} sigma) / alpha].
    """
    level = _check_level(level)
    if summary.alpha_hat <= 0:
        raise ValueError(f"alpha_hat must be positive; got {summary.alpha_hat}")
    q = 1.0 - level
    z = float(special.ndtri(1.0 - q / 2.0))
    lo = (fit.beta_hat - z * summary.sigma_hat) / summary.alpha_hat
    hi = (fit.beta_hat + z * summary.sigma_hat) / summary.alpha_hat
    return IntervalSet(lo=lo, hi=hi, level=level, method="boot-g")


def check_boot_t_replicates(n_boot: int, level: float) -> None:
    """Raise ``InsufficientBootstrapError`` unless ``n_boot`` replicates leave
    at least 40 in the tails of a boot-t interval at ``level``, so that its
    pivot quantiles are interior order statistics: n_boot * (1 - level) >= 40,
    with ``level`` exactly the decimal it prints as (in floats 200 * (1 - 0.8)
    is 39.99999999999999)."""
    need = math.ceil(40 / (1 - Fraction(repr(_check_level(level)))))
    if n_boot < need:
        raise InsufficientBootstrapError(
            f"boot-t at level {level} needs at least {need} replicates; have {n_boot}"
        )


def boot_t_ci(
    fit: FitResult,
    summary: "BootstrapSummary",
    beta_star: np.ndarray,
    level: float,
) -> IntervalSet:
    """Bootstrap-t interval from empirical pivot quantiles.

    The pivots are ``u_j^b = (beta_j^b - alpha_hat * beta_star_j) / sigma_j``;
    sigma_j is held fixed across replicates (no per-replicate studentising).
    """
    level = _check_level(level)
    if summary.alpha_hat <= 0:
        raise ValueError(f"alpha_hat must be positive; got {summary.alpha_hat}")
    bs = np.asarray(beta_star, dtype=np.float64)
    q = 1.0 - level
    check_boot_t_replicates(summary.boot_mles.shape[0], level)
    pivots = (summary.boot_mles - summary.alpha_hat * bs) / summary.sigma_hat
    pivots = np.sort(pivots, axis=0)
    t_hi = _quantile_sorted(pivots, 1.0 - q / 2.0)
    t_lo = _quantile_sorted(pivots, q / 2.0)
    lo = (fit.beta_hat - t_hi * summary.sigma_hat) / summary.alpha_hat
    hi = (fit.beta_hat - t_lo * summary.sigma_hat) / summary.alpha_hat
    return IntervalSet(lo=lo, hi=hi, level=level, method="boot-t")
