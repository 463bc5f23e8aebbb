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

The solver has no options: its tolerance ``_TOL``, budgets ``_MAX_ITER``
and ``_MAX_HALVINGS``, ``_RIDGE`` and separability thresholds are constants.

There is one Newton engine: ``refit_many`` fits many response vectors
against one shared ``X`` in lockstep blocks, drawing each block's responses
as it reaches it, and reports each replicate's status, Newton iteration
count, final gradient norm and the number of step lengths it tried beyond
its full steps. The parametric, resized and pairs bootstraps and the
signal-strength curve refit through it; a pairs replicate is a fit of ``X``
with each row weighted by the number of times it was drawn. ``newton_fit``
(so ``fit_mle``) is its one-response case, which builds no column-pair
table to stack Hessians; every other rule is the same for one response and
for a block.

How a fit steps is keyed to the size of ``X`` alone. Where a block can
stack its Hessians (``_stacks_hessians``), every fit takes exact Newton
steps. Elsewhere every fit, ``newton_fit`` included, re-forms its Hessian
only every third iteration and steps on the factor it holds in between
(Shamanskii's modified Newton method). There, once a fit has accepted a
full step, it forms those Hessians and their factors in float32 until one
such factor is dropped: they only set a direction, and the gradient, the
objective, the line search and every test stay float64. A Hessian is
factored at convergence only for a caller that reads the factor, and always
in float64. Adjacent replicates whose curvature rows are equal share one
Hessian, as logistic and Poisson replicates do at their common start, and a
weighted replicate's Hessian sums only its rows of positive weight.

A fit whose full step fails to decrease the objective tries its step
halvings one at a time, longest first, except where the step's predicted
decrease is below what the float sum of the objective resolves, and what
follows no decrease would not end the fit.
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


# Newton solver constants, read at call time; defaults of standard GLM practice.
_TOL = 1e-8                    # gradient-norm stopping rule
_MAX_ITER = 100
_MAX_HALVINGS = 30
_RIDGE = 1e-10                 # scale of the one-shot Cholesky fallback
_SEPARABLE_BETA_NORM = 1e6
_SEPARABLE_OBJECTIVE = 1e-10   # per observation; binary families only


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
    over the rows of X that ``rows`` selects (all by default), in the
    precision of X: a float32 copy of X gives a float32 Hessian.

    The curvature is positive; far in the probit tails rounding can push a
    weight below zero, and such a weight counts as zero.
    """
    if rows is None:
        Xw = X * np.sqrt(np.maximum(w, 0.0)).astype(X.dtype, copy=False)[:, None]
    else:
        Xw = X[rows]
        Xw *= np.sqrt(np.maximum(w[rows], 0.0)).astype(X.dtype, copy=False)[:, None]
    return Xw.T @ Xw


# A Cholesky pivot L_jj^2 at or below this fraction of H_jj is rounding
# noise: an exactly duplicated column leaves a pivot of up to about
# n * eps * H_jj, of either sign, so whether the factorisation fails would
# depend on the order of summation. Such a Hessian counts as singular.
_PIVOT_RTOL = 1e-11
# The same for a float32 Hessian, whose eps is 6e-8: a pivot this small
# leaves a direction with few correct digits, so the factor is dropped and
# the Hessian formed again in float64, which alone decides singularity. A
# fit then ends at the gradient test along a direction float32 barely
# resolves: with two logistic columns 2e-3 apart the smallest ratio was
# 1.6e-5, and float32 steps ended 2.2e-5 from exact Newton's coefficients;
# 2e-2 apart it was 1.6e-3, and they ended 5.9e-9 from them.
_PIVOT_RTOL32 = 1e-3


def _factor(H: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of H, in float64 whatever the precision of H,
    or None if H is not numerically positive definite. LAPACK is called
    directly: at small p the scipy wrappers cost more than the factorisation
    (at p=40, 12-14 us for ``dpotrf`` against 22-45 us for
    ``linalg.cholesky``/``cho_factor``, SciPy's OpenBLAS on one thread)."""
    if H.dtype == np.float32:
        L, info = linalg.lapack.spotrf(H, lower=1, clean=1)
        rtol = _PIVOT_RTOL32
    else:
        L, info = linalg.lapack.dpotrf(H, lower=1, clean=1)
        rtol = _PIVOT_RTOL
    d = L.diagonal()
    if info != 0 or (d * d <= rtol * H.diagonal()).any():
        return None
    return L.astype(np.float64, copy=False)


def _cholesky(H: np.ndarray, ridge: float | None = None) -> np.ndarray | None:
    """``_factor``, retried once with a tiny ridge when ``ridge`` is given."""
    L = _factor(H)
    if L is None and ridge is not None:
        p = H.shape[0]
        bump = ridge * np.trace(H) / p
        L = _factor(H + bump * np.eye(p))
    return L


def newton_fit(
    X: np.ndarray, y: np.ndarray, family: Family, beta0: np.ndarray | None = None
) -> FitResult:
    """Fit one response vector on raw arrays (no Dataset validation): the
    one-row case of ``refit_many``, from ``beta0`` or zero."""
    end = {}
    fits = refit_many(
        X, family, np.zeros(np.shape(X)[1]) if beta0 is None else beta0,
        1, lambda idx: (np.atleast_2d(y), None),
        on_converged=lambda b, t, chol: end.update(eta_lin=t, chol=chol),
    )
    return FitResult(
        beta_hat=fits.betas[0],
        status=fits.statuses[0],
        n_iter=int(fits.n_iter[0]),
        grad_norm=float(fits.grad_norm[0]),
        **end,
    )


def fit_mle(data: Dataset) -> FitResult:
    """Maximum-likelihood fit of ``data``; see FitStatus for outcomes."""
    return newton_fit(data.X, data.y, data.family)


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
    halvings: np.ndarray      # step lengths tried beyond the full steps


def refit_many(
    X: np.ndarray,
    family: Family,
    beta0: np.ndarray,
    m: int,
    draw,
    *,
    on_converged=None,
) -> Refits:
    """Fit m replicates against the shared ``X`` by damped Newton.

    ``beta0`` is one start for all or one row each. Replicates run in
    lockstep blocks of ``_lockstep_rows(n, p)``, about ``_BLOCK_BYTES`` of
    working arrays, the one bound on the replicates held at once:
    ``draw(idx)`` is called once per block of replicates ``idx`` and gives
    their (len(idx), n) responses and non-negative weights, None for unit
    weights. A weight scales its observation's term in the replicate's
    objective, gradient and Hessian: integer weights c_i fit each row of
    ``X`` c_i times over, as a pairs-bootstrap resample does. A row of
    weight 0 adds exactly 0, even where its term would overflow, and stays
    out of the Hessian products.

    Replicates leave their block as they finish. Each one ends as SEPARABLE
    (binary families: every margin of a row of positive weight is positive,
    a coefficient norm above ``_SEPARABLE_BETA_NORM``, or an objective below
    ``_SEPARABLE_OBJECTIVE`` times the total weight), CONVERGED (gradient
    norm at most ``_TOL``), SINGULAR_HESSIAN (no factor even after the
    ``_RIDGE`` retry), or else MAX_ITER: after ``_MAX_ITER`` iterations, or
    when no step halving decreases the objective and no polish step is
    left. Only with ``on_converged`` is a Hessian factored at convergence:
    in float64, without a ridge, or the replicate ends SINGULAR_HESSIAN.
    ``on_converged(b, t, chol)`` is called for each converged replicate b
    with its linear predictor (held at 0 on rows of weight 0) and that
    lower Cholesky factor.

    Where ``_stacks_hessians(n, p)`` holds, as at n=400, p=40, every step
    is an exact Newton step in float64, for one response too. Elsewhere, as
    at n=1000, p=100, a replicate forms a fresh Hessian only at iterations
    0, ``_REFRESH``, 2 ``_REFRESH``, ... and steps on the Cholesky factor it
    holds in between: the Shamanskii modified Newton method. Once it has
    accepted a full step it is inside the quadratic basin, and its fresh
    Hessians are formed and factored in float32 from a float32 copy of
    ``X``; the direction is solved, and every objective, gradient and test
    evaluated, in float64. A float32 factor that fails, or has a pivot at
    or below ``_PIVOT_RTOL32`` of its diagonal, is replaced by the float64
    one, and that replicate forms no float32 Hessian again. When no step
    length along a held or float32 factor's direction decreases the
    objective, the replicate takes its next pass with a fresh Hessian at the
    same iterate, in float64 after a float32 factor; a stall happens only on
    a fresh float64 factor.

    A replicate that fails its full step tries its step halvings one at a
    time, longest first, as the reference loop in tests/oracles.py does,
    and takes the first that decreases the objective. It skips that scan
    when the step's predicted decrease is below what the float sum of its
    objective resolves, and what follows no decrease (a fresh factor, or a
    polish step) would not end its fit. ``Refits.halvings`` counts the step
    lengths each replicate tried beyond its full steps.

    A replicate whose curvature row equals that of the replicate before it
    shares that one's Hessian and factor, whether Hessians are stacked or
    not; in the first pass this carries across blocks. Logistic and Poisson
    curvature does not depend on the response, so replicates that start
    together share their first one.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    fits = Refits(
        betas=np.array(np.broadcast_to(np.asarray(beta0, dtype=np.float64), (m, p))),
        statuses=[FitStatus.MAX_ITER] * m,
        n_iter=np.zeros(m, dtype=int),
        grad_norm=np.full(m, np.inf),
        halvings=np.zeros(m, dtype=int),
    )
    # A single response builds no pair table, which would cost more than its
    # few Hessians save.
    stacks = _stacks_hessians(n, p)
    pairs = _column_pairs(X) if stacks and m > 1 else None
    # Where a block stacks its Hessians, refresh costs more in Newton passes
    # than it saves in Hessians: a pareto-small infer took 1.46 s with it
    # and 1.27 s without. Only refreshing fits form float32 Hessians, from
    # one float32 copy of X per call.
    refresh = 1 if stacks else _REFRESH
    X32 = X.astype(np.float32) if refresh > 1 else None
    rows = _lockstep_rows(n, p)
    start = [None, None]  # key and factor of the last first-pass Hessian
    for lo in range(0, m, rows):
        idx = np.arange(lo, min(lo + rows, m))
        y, c = draw(idx)
        y = np.asarray(y, dtype=np.float64)
        if c is None:
            # times 1.0 is exact, so unit weights keep the unweighted bits; a full
            # array multiplies about twice as fast as a broadcast (rows, 1) column
            c = np.ones((idx.size, n))
        else:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (idx.size, n) or not (c >= 0.0).all():
                raise ValueError(f"weights must be a non-negative ({idx.size}, {n}) array")
        _refit_block(X, X32, y, c, family, pairs, fits, idx, on_converged, refresh, start)
    return fits


# The objective is a float sum of N terms, N the total weight (n unweighted).
# Summed in any order, its rounding error is at most about N eps times the
# sum of the terms' magnitudes, which is at least N eps |objective|. Along a
# direction d from a Hessian H, a step of length s predicts the decrease
# (s - s^2 / 2) (-G d) on the quadratic model, at most -G d / 2. So once
# -G d is at most N eps |objective|, no step length predicts a decrease that
# the sum resolves: a halving that passes the decrease test then passes by
# rounding, and the scan is not worth its 30 objectives.
_EPS = float(np.finfo(np.float64).eps)


def _refit_block(X, X32, y, c, family, pairs, fits, idx, on_converged, refresh, start):
    """Lockstep Newton over replicates ``idx``, with responses ``y`` and
    weights ``c``, one row each; writes their results back. A stepping
    replicate forms a fresh factor at iterations divisible by ``refresh``,
    and after a step on its held or float32 factor failed; a converged one
    forms one for ``on_converged``. Given ``X32``, a float32 copy of ``X``, a replicate
    inside the basin forms float32 step Hessians until one is dropped.
    ``pairs`` stacks the Hessians that are not shared, and ``start`` carries
    the key and factor of the last first-pass Hessian from block to block."""
    n, p = X.shape
    beta = fits.betas[idx]
    terms = c.sum(axis=1)
    # A row of weight 0 adds c * f = 0 to every sum as long as f is finite,
    # so its predictor is held at 0, where no family term overflows; its
    # margin is lifted to +inf, out of the separability certificate's way.
    dead = c == 0.0
    lift = np.where(dead, np.inf, 0.0)
    T = beta @ X.T
    np.copyto(T, 0.0, where=dead)
    obj = (c * family.nll(y, T)).sum(axis=1)
    halvings = 0.5 ** np.arange(1, _MAX_HALVINGS + 1)
    polish_left = np.full(idx.size, 3)
    held = np.empty(idx.size, dtype=object)  # each replicate's latest Cholesky factor
    retry = np.zeros(idx.size, dtype=bool)  # a step on a held or float32 factor failed
    basin = np.zeros(idx.size, dtype=bool)  # a full step was accepted
    only64 = np.zeros(idx.size, dtype=bool)  # a float32 factor was dropped
    for it in range(_MAX_ITER + 1):
        G = (c * family.d1(y, T)) @ X
        grad_norm = np.linalg.norm(G, axis=1)
        sep = np.zeros(idx.size, dtype=bool)
        if family.is_binary:
            sep = (
                (np.min(y * T + lift, axis=1) > 0.0)
                | (np.linalg.norm(beta, axis=1) > _SEPARABLE_BETA_NORM)
                | (obj < terms * _SEPARABLE_OBJECTIVE)
            )
        conv = ~sep & (grad_norm <= _TOL)
        stepping = ~sep & ~conv & (it < _MAX_ITER)
        end = np.full(idx.size, None, dtype=object)  # the status of each row that ends
        end[sep] = FitStatus.SEPARABLE
        end[~(sep | conv | stepping)] = FitStatus.MAX_ITER

        # Fresh factors: the Newton system of each stepping row due one, the
        # post-convergence check of each converged one if the caller reads it.
        fresh = stepping & (retry | (it % refresh == 0)) | conv & (on_converged is not None)
        need = np.flatnonzero(fresh)
        held[need] = None  # replaced below; a block holds one factor per row
        W = c[need] * family.d2(y[need], T[need])
        # a step Hessian inside the basin is formed in float32
        f32 = stepping[need] & basin[need] & ~only64[need] & (X32 is not None)
        # A row whose key (ridge or not, float32 or not, curvature row)
        # equals the one before shares its factor, as the replicates of a
        # bootstrap or a knot do at their common start.
        flags = stepping[need] + 2 * f32
        shared = np.zeros(need.size, dtype=bool)
        shared[1:] = (flags[1:] == flags[:-1]) & (W[1:] == W[:-1]).all(axis=1)
        last, L = start if it == 0 else (None, None)
        if need.size and last is not None:
            shared[0] = flags[0] == last[0] and np.array_equal(W[0], last[1])
        if pairs is not None:
            stacked = iter(_stacked_hessians(X, pairs, W[~shared]))
        rough = np.zeros(idx.size, dtype=bool)  # stepping on a float32 factor
        single = False  # whether L came from a float32 Hessian
        direction = np.zeros((idx.size, p))
        for k, r in enumerate(need.tolist()):
            if not shared[k]:
                ridge = _RIDGE if stepping[r] else None
                if pairs is not None:
                    L = _cholesky(next(stacked), ridge)
                else:
                    rows = np.flatnonzero(~dead[r]) if dead[r].any() else None
                    L = _factor(_hessian(X32, W[k], rows)) if f32[k] else None
                    single = L is not None
                    if L is None:
                        L = _cholesky(_hessian(X, W[k], rows), ridge)
            if f32[k]:
                only64[r] = not single
            if L is None:
                end[r] = FitStatus.SINGULAR_HESSIAN
            elif conv[r]:
                end[r] = FitStatus.CONVERGED
                on_converged(int(idx[r]), T[r], L)
            else:
                direction[r] = linalg.lapack.dpotrs(L, -G[r], lower=1)[0]
                rough[r] = single
                held[r] = L
        if it == 0 and need.size:
            start[:] = (flags[-1], W[-1].copy()), L
        retry[fresh] = False
        if on_converged is None:
            end[conv] = FitStatus.CONVERGED
        trial = np.flatnonzero(stepping & np.equal(end, None))
        for r in trial[~fresh[trial]].tolist():
            direction[r] = linalg.lapack.dpotrs(held[r], -G[r], lower=1)[0]

        # Line search: every row tries the full step, and a row that fails
        # it tries its halvings, longest first, and takes the first that
        # decreases the objective; the accepted predictor and objective carry
        # over to the next pass. An overflowing trial step fails the decrease
        # test, so the overflow warning carries no signal.
        with np.errstate(over="ignore"):
            cand = beta[trial] + direction[trial]
            T_cand = cand @ X.T
            np.copyto(T_cand, 0.0, where=dead[trial])
            obj_cand = (c[trial] * family.nll(y[trial], T_cand)).sum(axis=1)
            ok = obj_cand < obj[trial]
            beta[trial[ok]], T[trial[ok]], obj[trial[ok]] = cand[ok], T_cand[ok], obj_cand[ok]
            basin[trial[ok]] = True
            for r in trial[~ok].tolist():
                # Inside the quadratic basin a full Newton step still
                # contracts the gradient even where the objective can no
                # longer resolve a decrease, so a fresh factor without one
                # takes it (at most three times) and lets the gradient test
                # decide.
                polish = (
                    polish_left[r] > 0 and grad_norm[r] < 1e-3
                    and float(np.linalg.norm(direction[r]))
                    <= 1e-2 * (1.0 + float(np.linalg.norm(beta[r])))
                )
                # Below the objective's float floor (see _EPS) the scan is
                # skipped, unless finding no decrease would end the fit.
                ends = fresh[r] and not rough[r] and not polish
                scan = ends or -G[r] @ direction[r] > _EPS * terms[r] * abs(obj[r])
                for step in halvings if scan else ():
                    fits.halvings[idx[r]] += 1
                    cand = beta[r] + step * direction[r]
                    T_cand = X @ cand
                    np.copyto(T_cand, 0.0, where=dead[r])
                    obj_cand = (c[r] * family.nll(y[r], T_cand)).sum()
                    if obj_cand < obj[r]:
                        beta[r], T[r], obj[r] = cand, T_cand, obj_cand
                        break
                else:
                    # No decrease at any step length. On a held factor, try
                    # again from here with a fresh one.
                    if not fresh[r]:
                        retry[r] = True
                    elif polish:
                        polish_left[r] -= 1
                        beta[r] = beta[r] + direction[r]
                        T[r] = X @ beta[r]
                        np.copyto(T[r], 0.0, where=dead[r])
                        obj[r] = (c[r] * family.nll(y[r], T[r])).sum()
                    elif rough[r]:
                        # a float32 factor never decides a stall: try again
                        # from here with a float64 one
                        retry[r], basin[r] = True, False
                    else:
                        end[r] = FitStatus.MAX_ITER

        keep = np.equal(end, None)
        if not keep.all():
            rows = np.flatnonzero(~keep)
            fits.betas[idx[rows]] = beta[rows]
            fits.n_iter[idx[rows]] = it
            fits.grad_norm[idx[rows]] = grad_norm[rows]
            for b, status in zip(idx[rows].tolist(), end[rows].tolist()):
                fits.statuses[b] = status
            if not keep.any():
                return
            beta, y, T, obj = beta[keep], y[keep], T[keep], obj[keep]
            c, terms, dead, lift = c[keep], terms[keep], dead[keep], lift[keep]
            idx, polish_left, retry = idx[keep], polish_left[keep], retry[keep]
            held, basin, only64 = held[keep], basin[keep], only64[keep]
