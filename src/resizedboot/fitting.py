"""Damped-Newton maximum-likelihood fitting with separability detection.

The fitter minimises ``sum_i f_{y_i}(x_i @ beta)`` by Newton steps with a
step-halving line search, so the objective is non-increasing (up to its
rounding floor in the final iterations). Binary fits are flagged
``separable`` instead of ``converged`` when an iterate strictly separates
the data, i.e. every margin ``y_i * (x_i @ beta)`` is positive: a
non-separable dataset keeps at least one observation on the wrong side of
every hyperplane (objective at least log 2), so the certificate can never
misfire; runaway coefficient norms and near-zero objectives stay in as
backstops for quasi-separation.

There is one Newton engine: ``refit_many`` fits many response vectors
against one shared ``X`` in lockstep blocks, and reports each replicate's
status, Newton iteration count and final gradient norm. The parametric,
resized and pairs bootstraps and the signal-strength curve refit through
it; a pairs replicate is a fit of ``X`` with each row weighted by the
number of times it was drawn. ``newton_fit`` (so ``fit_mle``) is its
one-response case. One response never builds the column-pair table that
stacks a block's Hessians, and it tries its step halvings one at a time
where a block tries all of a row's halvings in one product.

How a fit steps is keyed to the size of ``X`` alone. Where a block can
stack its Hessians (``_stacks_hessians``), every fit takes exact Newton
steps. Elsewhere every fit, ``newton_fit`` included, re-forms its Hessian
only every third iteration and steps on the factor it holds in between
(Shamanskii's modified Newton method). A Hessian is factored at convergence
only for a caller that reads the factor. Adjacent replicates whose
curvature rows are equal share one Hessian, as logistic and Poisson
replicates do at their common start, and a weighted replicate's Hessian
sums only its rows of positive weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import linalg

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
    """MLE output: ``n_iter`` Newton iterations, and ``grad_norm`` the
    gradient norm at ``beta_hat``. ``eta_lin`` is the linear predictor
    ``X @ beta_hat`` and ``chol`` the lower Cholesky factor of the negative
    log-likelihood Hessian there, from the post-convergence check; both are
    None unless converged. Treat the instance as immutable once
    constructed."""

    beta_hat: np.ndarray
    status: FitStatus
    n_iter: int
    grad_norm: float
    eta_lin: np.ndarray | None = field(repr=False, default=None)
    chol: np.ndarray | None = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.status is FitStatus.CONVERGED


def _hessian(X: np.ndarray, w: np.ndarray, rows=None) -> np.ndarray:
    """X' diag(w) X as the symmetric rank-n product Xw' Xw, Xw = X sqrt(w),
    over the rows of X that ``rows`` selects (all by default).

    The curvature is positive; far in the probit tails rounding can push a
    weight below zero, and such a weight counts as zero.
    """
    if rows is None:
        Xw = X * np.sqrt(np.maximum(w, 0.0))[:, None]
    else:
        Xw = X[rows]
        Xw *= np.sqrt(np.maximum(w[rows], 0.0))[:, None]
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
    """Fit one response vector on raw arrays (no Dataset validation): the
    one-row case of ``refit_many``, from ``beta0`` or zero."""
    end = {}
    fits = refit_many(
        X, y, family, np.zeros(np.shape(X)[1]) if beta0 is None else beta0, opts,
        on_converged=lambda b, t, chol: end.update(eta_lin=t, chol=chol),
    )
    return FitResult(
        beta_hat=fits.betas[0],
        status=fits.statuses[0],
        n_iter=int(fits.n_iter[0]),
        grad_norm=float(fits.grad_norm[0]),
        **end,
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
# one matrix product of its weights with those products; otherwise, and
# always for a single response, each replicate forms its own.
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


def _stacked_hessians(X: np.ndarray, pairs, W: np.ndarray) -> np.ndarray:
    """The Hessian X' diag(w) X of each row w of W, from the pair table."""
    XX, where = pairs
    p = X.shape[1]
    return (np.maximum(W, 0.0) @ XX.T)[:, where].reshape(-1, p, p)


# Where Hessians are not stacked, a fit re-forms its Hessian at iterations
# _REFRESH, 2 _REFRESH, ... and steps on the factor it holds in between.
_REFRESH = 3


class Refits(NamedTuple):
    """What ``refit_many`` found, one entry per replicate."""

    betas: np.ndarray         # (m, p) final coefficients
    statuses: list[FitStatus]
    n_iter: np.ndarray        # Newton iterations
    grad_norm: np.ndarray     # gradient norm at the final coefficients


def refit_many(
    X: np.ndarray,
    Y: np.ndarray,
    family: Family,
    beta0: np.ndarray,
    opts: FitOptions = FitOptions(),
    *,
    weights: np.ndarray | None = None,
    on_converged=None,
) -> Refits:
    """Fit every row of ``Y`` against the shared ``X`` by damped Newton.

    ``beta0`` is one start for all or one row each. ``weights``, an (m, n)
    array of non-negative weights with one row per replicate, scales each
    observation's term in that replicate's objective, gradient and Hessian:
    integer weights c_i fit each row of ``X`` c_i times over, as a
    pairs-bootstrap resample does. A row of weight 0 adds exactly 0, even
    where its term would overflow, and stays out of the Hessian products.
    By default every weight is 1.

    Replicates run in lockstep blocks of about ``_BLOCK_BYTES`` of working
    arrays and leave their block as they finish. Each one ends as SEPARABLE
    (binary families: every margin of a row of positive weight is positive,
    a coefficient norm above ``separable_beta_norm``, or an objective below
    ``separable_objective`` times the total weight), CONVERGED (gradient
    norm at most ``tol``), SINGULAR_HESSIAN (no factor even after the ridge
    retry), or else MAX_ITER: after ``max_iter`` iterations, or when no step
    halving decreases the objective and no polish step is left. Only with
    ``on_converged`` is a Hessian factored at convergence: without a ridge,
    or the replicate ends SINGULAR_HESSIAN. ``on_converged(b, t, chol)`` is
    called for each converged replicate b with its linear predictor (held
    at 0 on rows of weight 0) and that lower Cholesky factor.

    Where ``_stacks_hessians(n, p)`` holds, as at n=400, p=40, every step
    is an exact Newton step, for one response too. Elsewhere, as at
    n=1000, p=100, a replicate forms a fresh Hessian only at iterations 0,
    ``_REFRESH``, 2 ``_REFRESH``, ... and steps on the Cholesky factor it
    holds in between: the Shamanskii modified Newton method. When no step
    length along a held factor's direction decreases the objective, the
    replicate takes its next pass with a fresh Hessian at the same iterate;
    a stall or a polish step happens only on a fresh factor.

    Where each replicate forms its own Hessians, a replicate whose
    curvature row equals that of the replicate before it shares that one's
    Hessian and factor; in the first pass this carries across blocks.
    Logistic and Poisson curvature does not depend on the response, so
    replicates that start together share their first one.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n, p = X.shape
    m = Y.shape[0]
    if weights is None:
        # times 1.0 is exact, so unit weights keep the unweighted bits; a full
        # array multiplies about twice as fast as a broadcast (m, 1) column
        weights = np.ones((m, n))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (m, n) or not (weights >= 0.0).all():
            raise ValueError(f"weights must be a non-negative ({m}, {n}) array")
    fits = Refits(
        betas=np.array(np.broadcast_to(np.asarray(beta0, dtype=np.float64), (m, p))),
        statuses=[FitStatus.MAX_ITER] * m,
        n_iter=np.zeros(m, dtype=int),
        grad_norm=np.full(m, np.inf),
    )
    # A row that fails the full Newton step tries its step halvings in one
    # product. A single response builds no pair table, which would cost more
    # than its few Hessians save, and tries its halvings one at a time,
    # longest first, as the reference loop in tests/oracles.py does; where
    # its steps are exact, its results then match that loop's to the bit.
    halvings = 0.5 ** np.arange(1, opts.max_halvings + 1)
    if m == 1:
        pairs, halvings = None, halvings[:, None]
    else:
        pairs = _column_pairs(X) if _stacks_hessians(n, p) else None
        halvings = halvings[None]
    # Where a block stacks its Hessians, refresh costs more in Newton passes
    # than it saves in Hessians: a pareto-small infer took 1.46 s with it
    # and 1.27 s without.
    refresh = 1 if _stacks_hessians(n, p) else _REFRESH
    rows = _lockstep_rows(n, p)
    start = [None, None]  # key and factor of the last first-pass Hessian
    for lo in range(0, m, rows):
        idx = np.arange(lo, min(lo + rows, m))
        _refit_block(
            X, Y, weights, family, opts, pairs, halvings, fits, idx, on_converged,
            refresh, start,
        )
    return fits


def _refit_block(
    X, Y, C, family, opts, pairs, halvings, fits, idx, on_converged, refresh, start
):
    """Lockstep Newton over replicates ``idx``; writes their results back.
    ``C`` holds the replicates' weights. Each row of ``halvings`` holds step
    lengths below 1 that are tried in one product, longest first. A
    stepping replicate forms a fresh factor at iterations divisible by
    ``refresh``, and after a step on its held factor failed; a converged
    one forms one for ``on_converged``. ``start`` carries the key and
    factor of the last first-pass Hessian from block to block."""
    n, p = X.shape
    beta = fits.betas[idx]
    y = Y[idx]
    c = C[idx]
    # A row of weight 0 adds c * f = 0 to every sum as long as f is finite,
    # so its predictor is held at 0, where no family term overflows; its
    # margin is lifted to +inf, out of the separability certificate's way.
    dead = c == 0.0
    lift = np.where(dead, np.inf, 0.0)
    T = beta @ X.T
    np.copyto(T, 0.0, where=dead)
    obj = (c * family.nll(y, T)).sum(axis=1)
    polish_left = np.full(idx.size, 3)
    held = [None] * idx.size  # each refreshing replicate's latest Cholesky factor
    retry = np.zeros(idx.size, dtype=bool)  # a step on the held factor failed
    for it in range(opts.max_iter + 1):
        G = (c * family.d1(y, T)) @ X
        grad_norm = np.linalg.norm(G, axis=1)
        sep = np.zeros(idx.size, dtype=bool)
        if family.is_binary:
            sep = (
                (np.min(y * T + lift, axis=1) > 0.0)
                | (np.linalg.norm(beta, axis=1) > opts.separable_beta_norm)
                | (obj < c.sum(axis=1) * opts.separable_objective)
            )
        conv = ~sep & (grad_norm <= opts.tol)
        stepping = ~sep & ~conv & (it < opts.max_iter)
        done = dict.fromkeys(np.flatnonzero(sep).tolist(), FitStatus.SEPARABLE)
        done.update(dict.fromkeys(
            np.flatnonzero(~(sep | conv | stepping)).tolist(), FitStatus.MAX_ITER
        ))

        # Fresh factors: the Newton system of each stepping row due one, the
        # post-convergence check of each converged one if the caller reads
        # it. A stacked product keeps the unchecked converged rows too, so
        # that its other rows round as they do in a checked fit.
        fresh = stepping & (retry | (it % refresh == 0)) | conv & (on_converged is not None)
        need = np.flatnonzero(fresh | conv & (pairs is not None))
        W = c[need] * family.d2(y[need], T[need])
        if pairs is not None:
            stacked = _stacked_hessians(X, pairs, W)
        last, L = start if it == 0 else (None, None)
        direction = np.zeros((idx.size, p))
        for k, r in enumerate(need.tolist()):
            if not fresh[r]:
                continue
            ridge = None if conv[r] else opts.ridge
            if pairs is not None:
                L = _cholesky(stacked[k], ridge)
            elif (key := (ridge, W[k].tobytes())) != last:
                # a row equal to the one before shares its factor, as the
                # replicates of a chunk or a knot do at their common start
                last = key
                rows = np.flatnonzero(~dead[r]) if dead[r].any() else None
                L = _cholesky(_hessian(X, W[k], rows), ridge)
            if L is None:
                done[r] = FitStatus.SINGULAR_HESSIAN
            elif conv[r]:
                done[r] = FitStatus.CONVERGED
                if on_converged is not None:
                    on_converged(int(idx[r]), T[r], L)
            else:
                direction[r] = linalg.lapack.dpotrs(L, -G[r], lower=1)[0]
                if refresh > 1:
                    held[r] = L
        if it == 0:
            start[:] = last, L
        retry[fresh] = False
        if on_converged is None:
            done.update(dict.fromkeys(np.flatnonzero(conv).tolist(), FitStatus.CONVERGED))
        trial = np.array(
            [r for r in np.flatnonzero(stepping).tolist() if r not in done], dtype=int
        )
        for r in trial[~fresh[trial]].tolist():
            direction[r] = linalg.lapack.dpotrs(held[r], -G[r], lower=1)[0]

        # Line search: every row tries the full step, and a row that fails
        # it tries its halvings and takes the longest that decreases the
        # objective; the accepted predictor and objective carry over to the
        # next pass. An overflowing trial step fails the decrease test, so
        # the overflow warning carries no signal.
        with np.errstate(over="ignore"):
            cand = beta[trial] + direction[trial]
            T_cand = cand @ X.T
            np.copyto(T_cand, 0.0, where=dead[trial])
            obj_cand = (c[trial] * family.nll(y[trial], T_cand)).sum(axis=1)
            ok = obj_cand < obj[trial]
            beta[trial[ok]], T[trial[ok]], obj[trial[ok]] = cand[ok], T_cand[ok], obj_cand[ok]
            for r in trial[~ok].tolist():
                for steps in halvings:
                    cand = beta[r] + steps[:, None] * direction[r]
                    T_cand = cand @ X.T
                    np.copyto(T_cand, 0.0, where=dead[r])
                    obj_cand = (c[r] * family.nll(y[r], T_cand)).sum(axis=1)
                    hit = np.flatnonzero(obj_cand < obj[r])
                    if hit.size:
                        h = hit[0]
                        beta[r], T[r], obj[r] = cand[h], T_cand[h], obj_cand[h]
                        break
                else:
                    # No decrease at any step length. On a held factor, try
                    # again from here with a fresh one.
                    if not fresh[r]:
                        retry[r] = True
                        continue
                    # On a fresh one the objective is at its float floor.
                    # Inside the quadratic basin a full Newton step still
                    # contracts the gradient, so take it (at most three
                    # times) and let the gradient test decide; else a stall.
                    small_step = float(np.linalg.norm(direction[r])) <= 1e-2 * (
                        1.0 + float(np.linalg.norm(beta[r]))
                    )
                    if polish_left[r] > 0 and grad_norm[r] < 1e-3 and small_step:
                        polish_left[r] -= 1
                        beta[r] = beta[r] + direction[r]
                        T[r] = X @ beta[r]
                        np.copyto(T[r], 0.0, where=dead[r])
                        obj[r] = (c[r] * family.nll(y[r], T[r])).sum()
                    else:
                        done[r] = FitStatus.MAX_ITER

        if done:
            rows = np.fromiter(done, dtype=int, count=len(done))
            fits.betas[idx[rows]] = beta[rows]
            fits.n_iter[idx[rows]] = it
            fits.grad_norm[idx[rows]] = grad_norm[rows]
            for r, status in done.items():
                fits.statuses[idx[r]] = status
            keep = np.ones(idx.size, dtype=bool)
            keep[rows] = False
            if not keep.any():
                return
            beta, y, T, obj = beta[keep], y[keep], T[keep], obj[keep]
            c, dead, lift = c[keep], dead[keep], lift[keep]
            idx, polish_left, retry = idx[keep], polish_left[keep], retry[keep]
            held = [L for L, k in zip(held, keep.tolist()) if k]
