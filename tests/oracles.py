"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they validate: the minimizer below
is first-order (gradients only, no Hessian, no Newton machinery), and
``reference_newton_fit`` is a frozen one-response Newton loop that shares
only the Hessian and Cholesky helpers with the lockstep engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from resizedboot.fitting import FitOptions, FitStatus, _cholesky, _hessian


def first_order_minimize(X, y, family, *, tol=1e-8, max_iter=500_000):
    """Long-run gradient-only minimization of the GLM objective.

    Barzilai-Borwein step lengths with the usual non-monotone (Grippo-style)
    backtracking safeguard. Returns the iterate once the gradient norm falls
    below ``tol``; raises if the budget runs out, so a test can never
    silently compare against an unconverged reference.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.zeros(X.shape[1])

    def value_grad(b):
        t = X @ b
        return float(np.sum(family.nll(y, t))), X.T @ family.d1(y, t)

    obj, grad = value_grad(beta)
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    recent = [obj]
    prev_beta = prev_grad = None
    for _ in range(max_iter):
        gn = float(np.linalg.norm(grad))
        if gn <= tol:
            return beta
        if prev_beta is not None:
            s = beta - prev_beta
            z = grad - prev_grad
            sz = float(s @ z)
            step = float(s @ s) / sz if sz > 0 else 1.0 / gn
        step = min(max(step, 1e-12), 1e12)
        reference = max(recent)
        trial = step
        for _ in range(100):
            cand = beta - trial * grad
            cand_obj, cand_grad = value_grad(cand)
            if cand_obj <= reference - 1e-4 * trial * gn * gn:
                break
            trial *= 0.5
        else:
            if gn <= 1e3 * tol:  # progress stalled at float precision
                return beta
            raise RuntimeError(f"oracle stalled at gradient norm {gn:.3e}")
        prev_beta, prev_grad = beta, grad
        beta, obj, grad = cand, cand_obj, cand_grad
        recent.append(obj)
        if len(recent) > 10:
            recent.pop(0)
    raise RuntimeError(f"oracle did not reach tol={tol} in {max_iter} iterations")


def monte_carlo_mles(X, beta_truth, family, n_draws, rng):
    """Direct Monte Carlo of the MLE distribution at known coefficients:
    fresh responses at X @ beta_truth each draw, plain refits."""
    from resizedboot import FitStatus, newton_fit

    t = X @ beta_truth
    out = []
    for _ in range(n_draws):
        y = family.simulate(t, rng)
        res = newton_fit(X, y, family)
        if res.status is FitStatus.CONVERGED:
            out.append(res.beta_hat)
    return np.asarray(out)


@dataclass
class ReferenceFit:
    beta_hat: np.ndarray
    eta_lin: np.ndarray
    hessian: np.ndarray
    status: FitStatus
    grad_norm: float
    objective: float
    n_iter: int
    objective_trace: np.ndarray
    chol: np.ndarray | None


def reference_newton_fit(X, y, family, opts=FitOptions(), beta0=None) -> ReferenceFit:
    """Damped Newton on one response vector, one iterate at a time: the
    separability rules, ``tol`` and ``max_iter``, the ridge retry, step
    halving, the polish steps, a stall ending as MAX_ITER, and the
    post-convergence Hessian check that ``refit_many`` must follow."""
    n, p = X.shape
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=np.float64).copy()
    trace = []
    status = FitStatus.MAX_ITER
    grad_norm = np.inf
    obj = np.inf
    polish_left = 3
    for it in range(opts.max_iter + 1):
        t = X @ beta
        obj = float(np.sum(family.nll(y, t)))
        grad = X.T @ family.d1(y, t)
        grad_norm = float(np.linalg.norm(grad))
        trace.append(obj)
        if family.is_binary and (
            float(np.min(y * t)) > 0.0
            or float(np.linalg.norm(beta)) > opts.separable_beta_norm
            or obj < n * opts.separable_objective
        ):
            status = FitStatus.SEPARABLE
            break
        if grad_norm <= opts.tol:
            status = FitStatus.CONVERGED
            break
        if it == opts.max_iter:
            break
        H = _hessian(X, family.d2(y, t))
        chol = _cholesky(H, opts.ridge)
        if chol is None:
            status = FitStatus.SINGULAR_HESSIAN
            break
        direction = linalg.lapack.dpotrs(chol, -grad, lower=1)[0]
        step = 1.0
        accepted = None
        with np.errstate(over="ignore"):
            for _ in range(opts.max_halvings + 1):
                cand = beta + step * direction
                cand_obj = float(np.sum(family.nll(y, X @ cand)))
                if cand_obj < obj:  # accept any decrease; NaN/inf fail
                    accepted = cand
                    break
                step *= 0.5
        if accepted is None:
            # no decrease at any step length: up to three full steps from
            # inside the quadratic basin, else a stall
            with np.errstate(over="ignore"):
                small_step = float(np.linalg.norm(direction)) <= 1e-2 * (
                    1.0 + float(np.linalg.norm(beta))
                )
            if polish_left > 0 and grad_norm < 1e-3 and small_step:
                polish_left -= 1
                beta = beta + direction
                continue
            break
        beta = accepted

    t = X @ beta
    H = _hessian(X, family.d2(y, t))
    L = None
    if status is FitStatus.CONVERGED:
        L = _cholesky(H)
        if L is None:
            status = FitStatus.SINGULAR_HESSIAN
    return ReferenceFit(
        beta_hat=beta,
        eta_lin=t,
        hessian=H,
        status=status,
        grad_norm=grad_norm,
        objective=obj,
        n_iter=len(trace) - 1,
        objective_trace=np.asarray(trace),
        chol=L,
    )
