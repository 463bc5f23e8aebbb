"""Single-fit estimation of the corrupted signal strength eta.

``sloe_estimate`` approximates each leave-one-out linear predictor from the
full fit via one Newton correction, then takes the spread of those values:

    w_i = x_i' H^{-1} x_i
    q_i = w_i / (1 - w_i * f''_{y_i}(t_i))
    S_i = x_i' beta_hat + q_i * f'_{y_i}(t_i)
    eta_hat^2 = mean(S^2) - mean(S)^2        (1/n normalisation)

``loo_oracle`` is the brute-force counterpart (n full refits); it exists for
validation and tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .exceptions import FitFailedError, LeverageDegenerateError
from .families import Family
from .fitting import Dataset, FitOptions, FitResult, FitStatus, fit_mle

# a leave-one-out denominator 1 - w_i f''_i at or below this is degenerate
_LEVERAGE_GUARD = 1e-8


@dataclass
class SloeEstimate:
    eta_hat: float
    s_values: np.ndarray
    w_values: np.ndarray


def sloe_estimate(data: Dataset, fit: FitResult) -> SloeEstimate:
    """Leave-one-out estimate of eta = sd of a new observation's x' beta_hat."""
    if fit.status is not FitStatus.CONVERGED:
        raise ValueError(f"sloe_estimate requires a converged fit, got {fit.status.value}")
    return sloe_from_factor(data.X, data.y, data.family, fit.eta_lin, fit.chol)


def sloe_from_factor(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    t: np.ndarray,
    chol: np.ndarray,
) -> SloeEstimate:
    """``sloe_estimate`` from a converged fit's linear predictor ``t`` and
    the lower Cholesky factor ``chol`` of its Hessian."""
    d1 = family.d1(y, t)
    d2 = family.d2(y, t)
    # Z = L^-1 X' through the inverted triangle and one matrix product
    # rather than a triangular solve against n right-hand sides: with SciPy's
    # OpenBLAS on one thread, on 2 vCPUs, this took 0.05 ms against 0.19 ms
    # for ``solve_triangular`` at p=40, n=400, and 16 ms against 47 ms at
    # p=400, n=4000
    L_inv, _ = linalg.lapack.dtrtri(chol, lower=1)
    Z = L_inv @ X.T
    w = np.einsum("ij,ij->j", Z, Z)  # x_i' H^-1 x_i without forming H^-1
    denom = 1.0 - w * d2
    if np.any(denom <= _LEVERAGE_GUARD):
        worst = int(np.argmin(denom))
        raise LeverageDegenerateError(
            f"observation {worst} has 1 - w*f'' = {denom[worst]:.3e} <= "
            f"{_LEVERAGE_GUARD:g}; the leave-one-out approximation is unreliable"
        )
    q = w / denom
    s = t + q * d1
    eta_sq = float(np.var(s))
    return SloeEstimate(eta_hat=float(np.sqrt(max(eta_sq, 0.0))), s_values=s, w_values=w)


def loo_oracle(data: Dataset, opts: FitOptions = FitOptions()) -> float:
    """Exact leave-one-out sd of x_i' beta_(i), by n full refits."""
    n = data.n
    preds = np.empty(n)
    for i in range(n):
        sub = Dataset(
            X=np.delete(data.X, i, axis=0),
            y=np.delete(data.y, i),
            family=data.family,
            has_intercept=data.has_intercept,
        )
        res = fit_mle(sub, opts)
        if res.status is not FitStatus.CONVERGED:
            raise FitFailedError(
                f"leave-one-out refit without observation {i} ended with "
                f"status {res.status.value}"
            )
        preds[i] = data.X[i] @ res.beta_hat
    return float(np.std(preds))
