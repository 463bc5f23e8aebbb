"""The inference pipeline, Monte Carlo coverage experiments and bias/sd
studies.

``infer`` runs the method on one dataset: fit, signal strength, resize,
resized bootstrap and the requested baselines, and its ``Inference`` builds
each method's intervals. ``run_coverage`` repeats it over freshly simulated
datasets (coefficients drawn once and held fixed) and tallies, per method and
level, the per-coordinate coverage frequency q_j and the per-repetition
fraction of covered coordinates qbar_i. ``run_bias_sd_study`` reduces the
same repetitions to the bias and sd of the MLE. ``baseline_bootstraps``
supplies the pairs and parametric-at-the-MLE comparison modes.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from ._blas import hold_single_thread
from .bootstrap import (
    BootstrapSummary,
    ResizedCoefficients,
    refit_replicates,
    resize,
    run_bootstrap,
)
from .designs import (
    _COEF_STREAM,
    _X_STREAM,
    _Y_STREAM,
    DesignSpec,
    gen_coefficients,
    gen_covariates,
    gen_response,
)
from .exceptions import ResizedBootError, TooManyFailuresError
from .fitting import Dataset, FitResult, FitStatus, fit_mle
from .intervals import (
    IntervalSet,
    boot_g_ci,
    boot_t_ci,
    check_boot_t_replicates,
    classical_se,
    classical_wald_ci,
)
from .rng import child_seed, substream
from .serialize import SCHEMA_VERSION
from .signal_strength import GammaCurve, estimate_gamma, sd_linear_predictor

# stage k of infer draws from child_seed(seed, k, *key)
_GAMMA_KEY, _BOOT_KEY, _PARAM_KEY, _PAIRS_KEY = 3, 4, 5, 6
_PAIRS_STREAM = 31
# a baseline bootstrap aborts when more than this share of its refits fail
_BASELINE_FAIL_FRACTION = 0.5
# a coverage run or bias/sd study aborts when more than this share of its
# repetitions fail
_REP_FAIL_FRACTION = 0.2

METHODS = ("classical", "boot-g", "boot-t", "parametric", "pairs")
_RESIZED = {"boot-g", "boot-t"}


def check_methods(methods, levels, B: int) -> None:
    """Raise ``ValueError`` for a method outside ``METHODS``, and
    ``InsufficientBootstrapError`` when boot-t is requested with too few
    replicates ``B`` for one of ``levels``."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected subset of {METHODS}")
    if "boot-t" in methods:
        for l in levels:
            check_boot_t_replicates(B, l)


def fit_or_fail(data: Dataset) -> FitResult:
    """The maximum-likelihood fit of ``data``; ``ResizedBootError`` unless it
    converged."""
    fit = fit_mle(data)
    if fit.status is not FitStatus.CONVERGED:
        raise ResizedBootError(
            f"maximum-likelihood fit failed with status '{fit.status.value}'"
        )
    return fit


def pairs_indices(seed: int, b: int, n: int) -> np.ndarray:
    """Row indices (with replacement) for pairs-bootstrap replicate b."""
    return substream(seed, _PAIRS_STREAM, b).integers(0, n, n)


def baseline_bootstraps(
    data: Dataset,
    fit: FitResult,
    B: int,
    mode: str,
    seed: int = 0,
) -> BootstrapSummary:
    """Standard bootstraps for comparison; both over-disperse in high
    dimensions (the parametric one inflates the signal strength, the pairs
    one the dimensionality ratio), which is what the resized method fixes.

    ``mode``: 'parametric' simulates responses at beta_hat itself; 'pairs'
    resamples rows with replacement, and refits each resample as a fit of
    the whole dataset with every row weighted by the number of times it was
    drawn. Both refit their replicates from beta_hat with
    ``refit_replicates``, as the resized bootstrap does, and reduce them by
    regressing against beta_hat. More than half of the B refits failing
    aborts.
    """
    if mode == "parametric":
        at_mle = ResizedCoefficients(
            beta_star=fit.beta_hat.copy(),
            scale_s=1.0,
            gamma_target=sd_linear_predictor(
                data.X, fit.beta_hat, has_intercept=data.has_intercept
            ),
        )
        return run_bootstrap(
            data, at_mle, B, seed, fail_fraction=_BASELINE_FAIL_FRACTION
        )
    if mode != "pairs":
        raise ValueError(f"unknown baseline mode {mode!r}")

    def draw(idx):
        counts = np.array(
            [np.bincount(pairs_indices(seed, b, data.n), minlength=data.n) for b in idx],
            dtype=np.float64,
        )
        return np.broadcast_to(data.y, counts.shape), counts

    return refit_replicates(
        data, fit.beta_hat, B, draw,
        fail_fraction=_BASELINE_FAIL_FRACTION, context="pairs bootstrap",
    )


@dataclass(frozen=True)
class Inference:
    """What ``infer`` found on one dataset. ``gamma_hat``, ``resized`` and
    the resized bootstrap's ``summary`` are None unless boot-g or boot-t was
    requested; ``eta_tilde`` is None also when gamma was given."""

    methods: tuple[str, ...]
    fit: FitResult
    gamma_hat: float | None
    eta_tilde: float | None
    resized: ResizedCoefficients | None
    summary: BootstrapSummary | None
    baselines: dict  # 'parametric' / 'pairs' -> BootstrapSummary

    def interval(self, method: str, level: float) -> IntervalSet:
        """The intervals of ``method``, one of the requested methods, at
        ``level``. The baselines take the Gaussian-pivot interval of their own
        bootstrap summaries."""
        if method not in self.methods:
            raise ValueError(f"method {method!r} was not requested from infer")
        if method == "classical":
            return classical_wald_ci(self.fit, level)
        if method == "boot-g":
            return boot_g_ci(self.fit, self.summary, level)
        if method == "boot-t":
            return boot_t_ci(self.fit, self.summary, self.resized.beta_star, level)
        ci = boot_g_ci(self.fit, self.baselines[method], level)
        return IntervalSet(lo=ci.lo, hi=ci.hi, level=ci.level, method=method)


def signal_curve(
    data: Dataset, fit: FitResult, *, seed: int, key: tuple[int, ...] = (),
    grid_size: int = 10, reps: int = 3,
) -> GammaCurve:
    """The eta(gamma) curve from which ``infer`` estimates gamma, drawn from
    its stage of ``child_seed(seed, stage, *key)``."""
    return estimate_gamma(
        data, fit, grid_size=grid_size, reps=reps,
        seed=child_seed(seed, _GAMMA_KEY, *key),
    )


def infer(
    data: Dataset,
    *,
    methods,
    levels,
    B: int,
    seed: int,
    key: tuple[int, ...] = (),
    gamma: float | None = None,
    grid_size: int = 10,
    reps: int = 3,
) -> Inference:
    """The resized-bootstrap pipeline on one dataset: fit, then (for boot-g
    or boot-t only) the signal strength ``gamma``, or its estimate from the
    eta(gamma) curve, the resize and B refits; then the requested baselines.

    ``levels`` are the levels whose intervals will be asked for: boot-t with
    too few replicates for one of them is rejected before the fit. Each
    stage draws from ``child_seed(seed, stage, *key)``.
    """
    methods = tuple(methods)
    check_methods(methods, levels, B)
    fit = fit_or_fail(data)
    gamma_hat = eta_tilde = resized = summary = None
    if _RESIZED.intersection(methods):
        if gamma is not None:
            gamma_hat = float(gamma)
        else:
            curve = signal_curve(
                data, fit, seed=seed, key=key, grid_size=grid_size, reps=reps
            )
            gamma_hat, eta_tilde = curve.gamma_hat, curve.eta_tilde
        resized = resize(fit, gamma_hat, data.X, has_intercept=data.has_intercept)
        summary = run_bootstrap(data, resized, B, child_seed(seed, _BOOT_KEY, *key))
    baselines = {
        m: baseline_bootstraps(
            data, fit, B, m,
            child_seed(seed, _PARAM_KEY if m == "parametric" else _PAIRS_KEY, *key),
        )
        for m in ("parametric", "pairs")
        if m in methods
    }
    return Inference(
        methods, fit, gamma_hat, eta_tilde, resized, summary, baselines
    )


@dataclass
class CoverageReport:
    """Tally of a coverage experiment or a bias/sd study (which has no
    levels), with the bias/sd side tables."""

    design: DesignSpec
    methods: tuple[str, ...]
    levels: tuple[float, ...]
    n_reps_requested: int
    n_reps: int
    n_rep_failed: int
    beta_true: np.ndarray
    covered: dict  # method -> level -> (n_reps, p) bool array
    mle_mean: np.ndarray
    mle_sd: np.ndarray
    classical_se_mean: np.ndarray
    alpha_hats: np.ndarray
    sigma_hat_mean: np.ndarray | None
    gamma_mode: str
    gamma_used: np.ndarray | None  # None when no repetition used a gamma
    gamma_estimates: np.ndarray | None
    n_boot_failed: int
    B: int
    seed: int

    # -- coverage metrics ------------------------------------------------
    def q_j(self, method: str, level: float) -> np.ndarray:
        """Per-coordinate coverage frequency across repetitions."""
        return self.covered[method][level].mean(axis=0)

    def qbar_i(self, method: str, level: float) -> np.ndarray:
        """Per-repetition fraction of covered coordinates."""
        return self.covered[method][level].mean(axis=1)

    def qbar(self, method: str, level: float) -> float:
        return float(self.qbar_i(method, level).mean())

    def qbar_se(self, method: str, level: float) -> float:
        qs = self.qbar_i(method, level)
        return float(qs.std(ddof=1) / np.sqrt(qs.shape[0]))

    def q_j_se(self, method: str, level: float) -> np.ndarray:
        """Binomial Monte Carlo standard error of each q_j."""
        q = self.q_j(method, level)
        return np.sqrt(q * (1.0 - q) / self.n_reps)

    # -- bias / sd tables --------------------------------------------------
    @property
    def nonnull_index(self) -> int:
        return int(np.argmax(np.abs(self.beta_true)))

    @property
    def null_index(self) -> int | None:
        nulls = np.flatnonzero(self.beta_true == 0)
        return int(nulls[0]) if nulls.size else None

    @property
    def empirical_alpha_per_coordinate(self) -> np.ndarray:
        """mean(beta_hat_j) / beta_j for non-nulls, NaN for nulls."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.beta_true != 0, self.mle_mean / self.beta_true, np.nan
            )

    @property
    def alpha_empirical(self) -> float:
        """Through-origin slope of the mean MLE on the true coefficients."""
        den = float(self.beta_true @ self.beta_true)
        if den == 0:
            return float("nan")
        return float(self.mle_mean @ self.beta_true / den)

    @property
    def alpha_resized_mean(self) -> float:
        return float(self.alpha_hats.mean()) if self.alpha_hats.size else float("nan")

    def to_json_dict(self) -> dict:
        lv = [float(x) for x in self.levels]
        return {
            "schema_version": SCHEMA_VERSION,
            "design": self.design.to_json_dict(),
            "methods": list(self.methods),
            "levels": lv,
            "n_reps_requested": self.n_reps_requested,
            "n_reps": self.n_reps,
            "n_rep_failed": self.n_rep_failed,
            "B": self.B,
            "seed": self.seed,
            "gamma": {
                "mode": self.gamma_mode,
                "used": self.gamma_used,
                "estimates": self.gamma_estimates,
            },
            "beta_true": self.beta_true,
            "q_j": {
                m: {str(l): self.q_j(m, l) for l in self.levels} for m in self.methods
            },
            "qbar_i": {
                m: {str(l): self.qbar_i(m, l) for l in self.levels}
                for m in self.methods
            },
            "qbar": {
                m: {str(l): self.qbar(m, l) for l in self.levels}
                for m in self.methods
            },
            "qbar_se": {
                m: {str(l): self.qbar_se(m, l) for l in self.levels}
                for m in self.methods
            },
            "bias": {
                "per_coordinate": self.empirical_alpha_per_coordinate,
                "alpha_empirical": self.alpha_empirical,
                "alpha_resized_mean": self.alpha_resized_mean,
            },
            "sd": {
                "empirical": self.mle_sd,
                "classical_mean": self.classical_se_mean,
                "resized_mean": self.sigma_hat_mean,
            },
            "n_boot_failed": self.n_boot_failed,
        }

    def summary_rows(self) -> list[dict]:
        """One row per method x level, for the CSV artifact and the printer."""
        rows = []
        jn = self.null_index
        jnn = self.nonnull_index
        for m in self.methods:
            for l in self.levels:
                qj = self.q_j(m, l)
                qse = self.q_j_se(m, l)
                rows.append(
                    {
                        "method": m,
                        "level": float(l),
                        "qbar": self.qbar(m, l),
                        "qbar_se": self.qbar_se(m, l),
                        "qj_nonnull": float(qj[jnn]),
                        "qj_nonnull_se": float(qse[jnn]),
                        "qj_null": float(qj[jn]) if jn is not None else float("nan"),
                        "qj_null_se": float(qse[jn]) if jn is not None else float("nan"),
                    }
                )
        return rows

    def format_table(self) -> str:
        """Human-readable method x level table; percentages, se in parens."""
        lines = [
            f"coverage over {self.n_reps} repetitions "
            f"(gamma: {self.gamma_mode}, B={self.B})",
            f"{'method':<12}{'level':>7}{'single-experiment':>21}"
            f"{'single non-null':>18}{'single null':>15}",
        ]
        for r in self.summary_rows():
            lines.append(
                f"{r['method']:<12}{100 * r['level']:>7.0f}"
                f"{100 * r['qbar']:>14.1f} ({100 * r['qbar_se']:.1f})"
                f"{100 * r['qj_nonnull']:>12.1f} ({100 * r['qj_nonnull_se']:.1f})"
                f"{100 * r['qj_null']:>9.1f} ({100 * r['qj_null_se']:.1f})"
            )
        return "\n".join(lines)

    def format_bias_sd_table(self) -> str:
        """Bias and sd of a designated null and the largest non-null
        coordinate; nulls show '-' in the bias columns."""
        lines = [
            f"bias/sd study over {self.n_reps} repetitions "
            f"(resized estimates from {len(self.alpha_hats)} runs, B={self.B})",
            f"{'':<18}{'bias(resized)':>14}{'bias(empirical)':>16}"
            f"{'sd(classical)':>14}{'sd(resized)':>12}{'sd(empirical)':>14}",
        ]

        def row(label, j, is_null):
            bias_r = "-" if is_null else f"{self.alpha_resized_mean:.3f}"
            bias_e = "-" if is_null else f"{self.empirical_alpha_per_coordinate[j]:.3f}"
            sd_r = (
                f"{self.sigma_hat_mean[j]:.3f}"
                if self.sigma_hat_mean is not None
                else "-"
            )
            return (
                f"{label:<18}{bias_r:>14}{bias_e:>16}"
                f"{self.classical_se_mean[j]:>14.3f}{sd_r:>12}{self.mle_sd[j]:>14.3f}"
            )

        if self.null_index is not None:
            lines.append(row("beta = 0", self.null_index, True))
        jnn = self.nonnull_index
        lines.append(row(f"beta = {self.beta_true[jnn]:.3f}", jnn, False))
        return "\n".join(lines)


def run_coverage(
    design: DesignSpec,
    methods=("classical", "boot-g", "boot-t"),
    levels=(0.95,),
    n_reps: int = 100,
    B: int = 100,
    seed: int = 0,
    *,
    gamma_mode: str = "estimated",
    grid_size: int = 8,
    reps: int = 2,
    fix_x: bool = False,
) -> CoverageReport:
    """Coverage experiment over ``n_reps`` fresh datasets from ``design``.

    Coefficients are drawn once (from ``design.seed``) and held fixed; X and
    Y are redrawn each repetition unless ``fix_x``. ``gamma_mode`` 'known'
    uses sd(X beta_true) of each repetition's realised X; 'estimated' runs
    the signal-strength estimator with reduced defaults per repetition, and
    only when boot-g or boot-t is among ``methods``.

    The repetitions run in a pool of worker processes, one per usable CPU
    and at most ``n_reps``, each with both bundled OpenBLAS pools held at
    one thread (see ``_blas``). Every repetition draws from its own seeded
    streams, and the records are reduced in repetition order, so the report
    does not depend on the number of workers. More than a fifth of the
    repetitions failing aborts. An error that a repetition does not count
    as a failure cancels the repetitions not yet started and is raised here.
    """
    methods = tuple(methods)
    levels = tuple(float(l) for l in levels)
    check_methods(methods, levels, B)
    run = _Run(
        design=design,
        beta_true=gen_coefficients(design, substream(design.seed, _COEF_STREAM)),
        methods=methods,
        levels=levels,
        B=B,
        seed=seed,
        gamma_mode=gamma_mode,
        grid_size=grid_size,
        reps=reps,
        x_fixed=(
            gen_covariates(design, substream(seed, _X_STREAM, 0)) if fix_x else None
        ),
        method_reps=n_reps,
    )
    return _report(run, n_reps, "coverage repetition")


def run_bias_sd_study(
    design: DesignSpec,
    n_reps: int = 200,
    seed: int = 0,
    *,
    resized_reps: int = 25,
    B: int = 100,
    gamma_mode: str = "known",
    grid_size: int = 8,
    reps: int = 2,
) -> CoverageReport:
    """Empirical bias and sd of the MLE over ``n_reps`` repetitions, with
    resized-bootstrap estimates averaged over the first ``resized_reps``
    repetitions, 0 to ``resized_reps - 1``, less those that failed (running
    the bootstrap on every repetition would dominate the cost without
    changing the average). The repetitions run as in ``run_coverage``; the
    report has no levels, and ``format_bias_sd_table`` prints it."""
    run = _Run(
        design=design,
        beta_true=gen_coefficients(design, substream(design.seed, _COEF_STREAM)),
        methods=("boot-g",),
        levels=(),
        B=B,
        seed=seed,
        gamma_mode=gamma_mode,
        grid_size=grid_size,
        reps=reps,
        x_fixed=None,
        method_reps=resized_reps,
    )
    return _report(run, n_reps, "bias/sd repetition")


@dataclass(frozen=True)
class _Run:
    """What every repetition of one coverage run or bias/sd study shares. A
    worker process receives it once, when it starts; a task carries only its
    repetition."""

    design: DesignSpec
    beta_true: np.ndarray
    methods: tuple[str, ...]
    levels: tuple[float, ...]
    B: int
    seed: int
    gamma_mode: str
    grid_size: int
    reps: int
    x_fixed: np.ndarray | None
    method_reps: int  # repetitions from this index on only fit


@dataclass(frozen=True)
class _Record:
    """What one repetition that did not fail adds to the report."""

    covered: dict  # (method, level) -> (p,) bool array
    beta_hat: np.ndarray
    se: np.ndarray  # classical standard errors
    alpha: float | None  # resized-bootstrap alpha_hat, if boot-g/boot-t ran
    sigma: np.ndarray | None  # resized-bootstrap sigma_hat, likewise
    n_boot_failed: int
    gamma: float | None  # the known gamma, or the estimate if the curve ran


def _report(run: _Run, n_reps: int, context: str) -> CoverageReport:
    """Run repetitions 0..n_reps-1 of ``run`` and reduce their records."""
    if run.gamma_mode not in ("known", "estimated"):
        raise ValueError("gamma_mode must be 'known' or 'estimated'")
    if n_reps < 2:
        raise ValueError("n_reps must be at least 2")
    done = [r for r in _run_repetitions(run, n_reps) if r is not None]
    n_done = len(done)
    n_failed = n_reps - n_done
    if n_failed > _REP_FAIL_FRACTION * n_reps:
        raise TooManyFailuresError(n_failed, n_reps, context=context)

    # sums in repetition order, as a serial loop would add them
    zeros = np.zeros(run.design.p)
    mle_mean = sum((r.beta_hat for r in done), zeros) / n_done
    beta_sq = sum((r.beta_hat**2 for r in done), zeros)
    mle_var = np.maximum(beta_sq / n_done - mle_mean**2, 0.0) * n_done / (n_done - 1)
    resized = [r for r in done if r.alpha is not None]
    gammas = [r.gamma for r in done if r.gamma is not None]
    gamma_used = np.asarray(gammas) if gammas else None
    return CoverageReport(
        design=run.design,
        methods=run.methods,
        levels=run.levels,
        n_reps_requested=n_reps,
        n_reps=n_done,
        n_rep_failed=n_failed,
        beta_true=run.beta_true,
        covered={
            m: {l: np.asarray([r.covered[m, l] for r in done]) for l in run.levels}
            for m in run.methods
        },
        mle_mean=mle_mean,
        mle_sd=np.sqrt(mle_var),
        classical_se_mean=sum((r.se for r in done), zeros) / n_done,
        alpha_hats=np.asarray([r.alpha for r in resized]),
        sigma_hat_mean=(
            sum((r.sigma for r in resized), zeros) / len(resized) if resized else None
        ),
        gamma_mode=run.gamma_mode,
        gamma_used=gamma_used,
        gamma_estimates=gamma_used if run.gamma_mode == "estimated" else None,
        n_boot_failed=sum(r.n_boot_failed for r in done),
        B=run.B,
        seed=run.seed,
    )


def _repetition(run: _Run, rep: int) -> _Record | None:
    """Repetition ``rep``: draw the data, run ``infer`` on them (only the
    fit from ``run.method_reps`` on) and check each interval. None when the
    fit, the curve or a bootstrap fails."""
    design, seed = run.design, run.seed
    X = (
        run.x_fixed
        if run.x_fixed is not None
        else gen_covariates(design, substream(seed, _X_STREAM, rep))
    )
    y = gen_response(X, run.beta_true, design.family, substream(seed, _Y_STREAM, rep))
    data = Dataset(X=X, y=y, family=design.family)
    methods = run.methods if rep < run.method_reps else ()
    gamma = sd_linear_predictor(X, run.beta_true) if run.gamma_mode == "known" else None
    try:
        inference = infer(
            data, methods=methods, levels=run.levels, B=run.B, seed=seed,
            key=(rep,), gamma=gamma, grid_size=run.grid_size, reps=run.reps,
        )
    except ResizedBootError:
        return None

    # outside the try: an interval that cannot be built is not a failed
    # repetition, and its error reaches the caller
    boot = inference.summary
    return _Record(
        covered={
            (m, l): inference.interval(m, l).contains(run.beta_true)
            for m in methods
            for l in run.levels
        },
        beta_hat=inference.fit.beta_hat,
        se=classical_se(inference.fit),
        alpha=boot.alpha_hat if boot else None,
        sigma=boot.sigma_hat if boot else None,
        n_boot_failed=boot.n_failed if boot else 0,
        gamma=inference.gamma_hat if gamma is None else gamma,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity off Linux
        return os.cpu_count() or 1


def _run_repetitions(run: _Run, n_reps: int) -> list[_Record | None]:
    """The records of repetitions 0..n_reps-1, in order, from worker
    processes. Forked workers inherit the imported package, where a spawned
    one would import it anew (about 0.9 s)."""
    # imported here, as only coverage needs them: at import they would add
    # about 8 ms and 0.85 MB to every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    with ProcessPoolExecutor(
        min(_usable_cpus(), n_reps),
        mp_context=multiprocessing.get_context("fork" if fork else None),
        initializer=_start_worker,
        initargs=(run, os.getpid()),
    ) as pool:
        # on an error, map cancels the repetitions that have not started
        return list(pool.map(_worker_repetition, range(n_reps)))


_worker_run: _Run | None = None  # set in each worker process, never in the caller's


def _start_worker(run: _Run, caller: int) -> None:
    global _worker_run
    _exit_with_caller(caller)
    _worker_run = run
    hold_single_thread()


_PR_SET_PDEATHSIG = 1


def _exit_with_caller(caller: int) -> None:
    """Have the kernel kill this worker when the thread that started it
    ends, as when the caller is killed: a worker whose caller is gone would
    otherwise wait for work for ever. The pool starts its workers from the
    thread that calls ``run_coverage`` or ``run_bias_sd_study``, which
    outlives the pool. Linux only."""
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    libc.prctl(ctypes.c_int(_PR_SET_PDEATHSIG), ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != caller:  # the caller ended before prctl took effect
        os._exit(1)


def _worker_repetition(rep: int) -> _Record | None:
    return _repetition(_worker_run, rep)
