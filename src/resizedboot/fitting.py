"""Damped-Newton maximum-likelihood fitting with separability detection.

The fitter minimises ``sum_i f_{y_i}(x_i @ beta)`` by Newton steps with a
step-halving line search, so the objective trace is non-increasing (up to
the rounding floor of the objective in the final iterations). Binary fits
are flagged ``separable`` instead of ``converged`` when an iterate strictly
separates the data, i.e. every margin ``y_i * (x_i @ beta)`` is positive: a
non-separable dataset keeps at least one observation on the wrong side of
every hyperplane (objective at least log 2), so the certificate can never
misfire; runaway coefficient norms and near-zero objectives stay in as
backstops for quasi-separation.

``newton_fit`` fits one response vector. ``refit_many`` fits many response
vectors against one shared ``X`` in lockstep blocks, following
``newton_fit`` rule for rule; the bootstrap and the signal-strength curve
refit through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import linalg, optimize

from .exceptions import DatasetError
from .families import Family, get_family


class FitStatus(str, Enum):
    CONVERGED = "converged"
    SEPARABLE = "separable"
    MAX_ITER = "max_iter"
    SINGULAR_HESSIAN = "singular_hessian"


@dataclass
class Dataset:
    """An n x p covariate matrix, response vector and family tag.

    ``has_intercept`` marks the first column of ``X`` as the constant-1
    column; the column must actually be constant. Binary responses are
    normalised to the {-1, +1} encoding on construction.
    """

    X: np.ndarray
    y: np.ndarray
    family: Family
    has_intercept: bool = False

    def __post_init__(self):
        self.family = get_family(self.family)
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        if X.ndim != 2:
            raise DatasetError("X must be a 2-d array")
        n, p = X.shape
        if n < p + 1:
            raise DatasetError(f"n >= p+1 required; got n={n}, p={p}")
        if not np.all(np.isfinite(X)):
            raise DatasetError("X contains non-finite entries")
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if y.shape[0] != n:
            raise DatasetError(f"y has length {y.shape[0]}, expected {n}")
        if not np.all(np.isfinite(y)):
            raise DatasetError("y contains non-finite entries")
        if self.has_intercept and not np.all(X[:, 0] == 1.0):
            raise DatasetError("has_intercept requires X[:, 0] to be all ones")
        self.X = X
        self.y = self.family.validate_y(y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitOptions:
    """Newton solver controls. Defaults follow standard GLM practice."""

    tol: float = 1e-8                 # gradient-norm stopping rule
    max_iter: int = 100
    max_halvings: int = 30
    ridge: float = 1e-10              # scale of the one-shot Cholesky fallback
    separable_beta_norm: float = 1e6
    separable_objective: float = 1e-10  # per observation; binary families only


@dataclass
class FitResult:
    """MLE output. ``hessian`` is the negative log-likelihood Hessian at
    ``beta_hat`` and ``chol`` its lower Cholesky factor from the
    post-convergence check (None unless converged); treat the instance as
    immutable once constructed."""

    beta_hat: np.ndarray
    eta_lin: np.ndarray
    hessian: np.ndarray
    status: FitStatus
    grad_norm: float
    objective: float
    n_iter: int
    objective_trace: np.ndarray = field(repr=False, default=None)
    chol: np.ndarray | None = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.status is FitStatus.CONVERGED


def _hessian(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X' diag(w) X as the symmetric rank-n product Xw' Xw, Xw = X sqrt(w).

    The curvature is positive; far in the probit tails rounding can push a
    weight below zero, and such a weight counts as zero.
    """
    Xw = X * np.sqrt(np.maximum(w, 0.0))[:, None]
    return Xw.T @ Xw


# A Cholesky pivot L_jj^2 at or below this fraction of H_jj is rounding
# noise: an exactly duplicated column leaves a pivot of up to about
# n * eps * H_jj, of either sign, so whether the factorisation fails would
# depend on the order of summation. Such a Hessian counts as singular.
_PIVOT_RTOL = 1e-11


def _factor(H: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of H, or None if H is not numerically positive
    definite. LAPACK is called directly: at small p the scipy wrappers cost
    more than the factorisation (at p=40, 12-14 us for ``dpotrf`` against
    22-45 us for ``linalg.cholesky``/``cho_factor``, SciPy's OpenBLAS on
    one thread)."""
    L, info = linalg.lapack.dpotrf(H, lower=1, clean=1)
    d = L.diagonal()
    if info != 0 or (d * d <= _PIVOT_RTOL * H.diagonal()).any():
        return None
    return L


def _cholesky(H: np.ndarray, ridge: float | None = None) -> np.ndarray | None:
    """``_factor``, retried once with a tiny ridge when ``ridge`` is given."""
    L = _factor(H)
    if L is None and ridge is not None:
        p = H.shape[0]
        bump = ridge * np.trace(H) / p
        L = _factor(H + bump * np.eye(p))
    return L


def newton_fit(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    opts: FitOptions = FitOptions(),
    beta0: np.ndarray | None = None,
) -> FitResult:
    """Low-level fitter on raw arrays (no Dataset validation)."""
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
        # A non-separable binary dataset keeps some margin y*t <= 0 at every
        # beta, so an iterate with all margins positive is itself a strictly
        # separating direction; the norm and objective rules catch the
        # quasi-separable escapes to infinity.
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
        # overshooting trial steps may overflow exp() to inf; such candidates
        # simply fail the decrease test, so the warning carries no signal
        with np.errstate(over="ignore"):
            for _ in range(opts.max_halvings + 1):
                cand = beta + step * direction
                cand_obj = float(np.sum(family.nll(y, X @ cand)))
                if cand_obj < obj:  # accept any decrease; NaN/inf fail
                    accepted = cand
                    break
                step *= 0.5
        if accepted is None:
            # No measurable decrease: the objective is at its float floor.
            # Inside the quadratic basin a full Newton step still contracts
            # the gradient, so take it (bounded number of times) and let the
            # gradient test decide. A direction whose norm overflows is not
            # small either.
            with np.errstate(over="ignore"):
                small_step = float(np.linalg.norm(direction)) <= 1e-2 * (
                    1.0 + float(np.linalg.norm(beta))
                )
            if polish_left > 0 and grad_norm < 1e-3 and small_step:
                polish_left -= 1
                beta = beta + direction
                continue
            break  # stalled at numerical precision without meeting tol
        beta = accepted

    t = X @ beta
    H = _hessian(X, family.d2(y, t))
    L = None
    if status is FitStatus.CONVERGED:
        L = _cholesky(H)
        if L is None:
            status = FitStatus.SINGULAR_HESSIAN
    return FitResult(
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


def fit_mle(
    data: Dataset,
    opts: FitOptions = FitOptions(),
    *,
    beta0: np.ndarray | None = None,
) -> FitResult:
    """Maximum-likelihood fit of ``data``; see FitStatus for outcomes."""
    return newton_fit(data.X, data.y, data.family, opts, beta0)


# Replicates that share X are refitted in lockstep blocks whose working
# arrays take about _BLOCK_BYTES. Where the products of every column pair of
# X (n p (p+1)/2 floats) fit in _PAIRS_BYTES, a block's Hessians come from
# one matrix product of its weights with those products; otherwise each
# replicate forms its own, as newton_fit does.
_BLOCK_BYTES = 1 << 20
_PAIRS_BYTES = 4 << 20


def _stacks_hessians(n: int, p: int) -> bool:
    return 8 * n * p * (p + 1) // 2 <= _PAIRS_BYTES


def _lockstep_rows(n: int, p: int) -> int:
    """Replicates per lockstep block of ``refit_many`` at an n x p design."""
    floats = 6 * n + (p * (p + 1) // 2 + p * p if _stacks_hessians(n, p) else 0)
    return max(1, _BLOCK_BYTES // (8 * floats))


def _column_pairs(X: np.ndarray):
    """The products x_a * x_b of every column pair a <= b of X, one pair
    per row, formed in place; and for each entry (a, b) of a p x p matrix
    the row holding its pair."""
    n, p = X.shape
    a, b = np.triu_indices(p)
    Xt = np.ascontiguousarray(X.T)
    XX = np.empty((a.size, n))
    lo = 0
    for j in range(p):
        np.multiply(Xt[j], Xt[j:], out=XX[lo:lo + p - j])
        lo += p - j
    where = np.empty((p, p), dtype=np.intp)
    where[a, b] = where[b, a] = np.arange(a.size)
    return XX, where.ravel()


def _hessians(X: np.ndarray, pairs, W: np.ndarray):
    """The Hessian X' diag(w) X of each row w of W, in order."""
    if pairs is None:
        return (_hessian(X, w) for w in W)
    XX, where = pairs
    p = X.shape[1]
    return (np.maximum(W, 0.0) @ XX.T)[:, where].reshape(-1, p, p)


def refit_many(
    X: np.ndarray,
    Y: np.ndarray,
    family: Family,
    beta0: np.ndarray,
    opts: FitOptions = FitOptions(),
    *,
    on_converged=None,
) -> tuple[np.ndarray, list[FitStatus]]:
    """Fit every row of ``Y`` against the shared ``X``.

    Returns the final coefficients (one row per replicate) and the status of
    each replicate. ``beta0`` is one start for all or one row each.
    Replicates run in lockstep blocks of about ``_BLOCK_BYTES`` of working
    arrays and leave their block as they finish. Each follows ``newton_fit``
    rule for rule: the separability rules, ``tol`` and ``max_iter``, the
    ridge retry, step halving, the polish steps, a stall ending as MAX_ITER,
    and the post-convergence Hessian check; results agree with it to
    rounding.
    ``on_converged(b, t, chol)`` is called for each converged replicate b
    with its linear predictor and the lower Cholesky factor of its Hessian.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n, p = X.shape
    m = Y.shape[0]
    betas = np.array(np.broadcast_to(np.asarray(beta0, dtype=np.float64), (m, p)))
    statuses = [FitStatus.MAX_ITER] * m
    pairs = _column_pairs(X) if _stacks_hessians(n, p) else None
    rows = _lockstep_rows(n, p)
    for lo in range(0, m, rows):
        idx = np.arange(lo, min(lo + rows, m))
        _refit_block(X, Y, family, opts, pairs, betas, statuses, idx, on_converged)
    return betas, statuses


def _refit_block(X, Y, family, opts, pairs, betas, statuses, idx, on_converged):
    """Lockstep Newton over replicates ``idx``; writes their results back."""
    n, p = X.shape
    beta = betas[idx]
    y = Y[idx]
    T = beta @ X.T
    obj = family.nll(y, T).sum(axis=1)
    polish_left = np.full(idx.size, 3)
    halvings = 0.5 ** np.arange(1, opts.max_halvings + 1)
    for it in range(opts.max_iter + 1):
        G = family.d1(y, T) @ X
        grad_norm = np.linalg.norm(G, axis=1)
        sep = np.zeros(idx.size, dtype=bool)
        if family.is_binary:
            sep = (
                (np.min(y * T, axis=1) > 0.0)
                | (np.linalg.norm(beta, axis=1) > opts.separable_beta_norm)
                | (obj < n * opts.separable_objective)
            )
        conv = ~sep & (grad_norm <= opts.tol)
        stepping = ~sep & ~conv & (it < opts.max_iter)
        done = dict.fromkeys(np.flatnonzero(sep).tolist(), FitStatus.SEPARABLE)
        done.update(dict.fromkeys(
            np.flatnonzero(~(sep | conv | stepping)).tolist(), FitStatus.MAX_ITER
        ))

        # the Newton system of each stepping row, the post-convergence
        # check of each converged one
        direction = np.zeros((idx.size, p))
        need = np.flatnonzero(conv | stepping)
        hessians = _hessians(X, pairs, family.d2(y[need], T[need]))
        for r, H in zip(need.tolist(), hessians):
            L = _cholesky(H, None if conv[r] else opts.ridge)
            if L is None:
                done[r] = FitStatus.SINGULAR_HESSIAN
            elif conv[r]:
                done[r] = FitStatus.CONVERGED
                if on_converged is not None:
                    on_converged(int(idx[r]), T[r], L)
            else:
                direction[r] = linalg.lapack.dpotrs(L, -G[r], lower=1)[0]

        # Line search: every row tries the full step, and a row that fails
        # it tries all its halvings at once and takes the longest that
        # decreases the objective. The accepted predictor and objective
        # carry over to the next pass, where newton_fit recomputes them.
        trial = np.array(
            [r for r in np.flatnonzero(stepping).tolist() if r not in done], dtype=int
        )
        # as in newton_fit: an overflowing trial step fails the decrease test
        with np.errstate(over="ignore"):
            cand = beta[trial] + direction[trial]
            T_cand = cand @ X.T
            obj_cand = family.nll(y[trial], T_cand).sum(axis=1)
            ok = obj_cand < obj[trial]
            beta[trial[ok]], T[trial[ok]], obj[trial[ok]] = cand[ok], T_cand[ok], obj_cand[ok]
            for r in trial[~ok].tolist():
                cand = beta[r] + halvings[:, None] * direction[r]
                T_cand = cand @ X.T
                obj_cand = family.nll(y[r], T_cand).sum(axis=1)
                hit = np.flatnonzero(obj_cand < obj[r])
                if hit.size:
                    h = hit[0]
                    beta[r], T[r], obj[r] = cand[h], T_cand[h], obj_cand[h]
                    continue
                # no decrease at any step length: newton_fit's polish rule
                small_step = float(np.linalg.norm(direction[r])) <= 1e-2 * (
                    1.0 + float(np.linalg.norm(beta[r]))
                )
                if polish_left[r] > 0 and grad_norm[r] < 1e-3 and small_step:
                    polish_left[r] -= 1
                    beta[r] = beta[r] + direction[r]
                    T[r] = X @ beta[r]
                    obj[r] = family.nll(y[r], T[r]).sum()
                else:
                    done[r] = FitStatus.MAX_ITER

        if done:
            rows = np.fromiter(done, dtype=int, count=len(done))
            betas[idx[rows]] = beta[rows]
            for r, status in done.items():
                statuses[idx[r]] = status
            keep = np.ones(idx.size, dtype=bool)
            keep[rows] = False
            if not keep.any():
                return
            beta, y, T, obj = beta[keep], y[keep], T[keep], obj[keep]
            idx, polish_left = idx[keep], polish_left[keep]


def find_separating_direction(
    X: np.ndarray, y: np.ndarray, *, margin_tol: float = 1e-7
) -> np.ndarray | None:
    """LP feasibility check for strict linear separation of a binary dataset.

    Maximises the margin eps subject to ``y_i * (x_i @ w) >= eps`` with
    ``|w|_inf <= 1``. Returns a separating direction if the optimal margin
    exceeds ``margin_tol``, else None. Diagnostic only; the fitter itself
    detects separability from the Newton iterates.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    # variables z = (w_1..w_p, eps); maximise eps
    c = np.zeros(p + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-(y[:, None] * X), np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(-1.0, 1.0)] * p + [(0.0, 1.0)]
    res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 0 and res.x is not None and res.x[-1] > margin_tol:
        return res.x[:-1]
    return None
