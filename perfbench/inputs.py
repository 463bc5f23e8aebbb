"""Workload definitions and seeded input generation.

The inputs are drawn here, with numpy alone, from the same design recipes as
the program's named designs (covariates standardised to variance 1/p, a
sparse two-sided normal mixture of coefficients). Drawing them apart from the
program keeps the inputs identical on every commit, and keeps the true
coefficients and signal strength known only to the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Design:
    n: int
    p: int
    covariates: str          # "pareto" (shape 5, scale 1) or "mvt" (nu 8, rho 0.5)
    k: int                   # non-null coefficients
    mu: float                # mixture centre; mixture sd is 1
    family: str              # "logistic" or "poisson-log"


PARETO_SMALL = Design(n=400, p=40, covariates="pareto", k=20, mu=5.0, family="logistic")
MVT_LARGE = Design(n=4000, p=400, covariates="mvt", k=50, mu=5.0, family="logistic")
POISSON_MID = Design(n=1000, p=100, covariates="mvt", k=12, mu=3.0, family="poisson-log")


@dataclass(frozen=True)
class Workload:
    name: str
    design: Design
    command: str             # "infer" or "coverage"
    args: tuple[str, ...]    # CLI arguments besides the input, --seed and --out
    tag: int                 # keeps the input streams of the workloads apart
    datasets: int            # inputs drawn per run; successive commands cycle through them
    known_gamma: bool = False  # pass the true signal strength instead of estimating it


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "infer-pareto-small", PARETO_SMALL, "infer",
            ("--family", "logistic", "--method", "classical", "--method", "boot-g",
             "--method", "boot-t", "--level", "0.95", "--level", "0.8",
             "--B", "1000", "--dump-boot"),
            tag=1, datasets=12,
        ),
        Workload(
            "infer-mvt-large", MVT_LARGE, "infer",
            ("--family", "logistic", "--method", "classical", "--method", "boot-g",
             "--level", "0.95", "--level", "0.8", "--B", "10", "--dump-boot"),
            tag=2, datasets=1,
        ),
        Workload(
            "coverage-pareto-small", PARETO_SMALL, "coverage",
            ("--n-reps", "2", "--B", "1000", "--gamma-mode", "known",
             "--method", "boot-t", "--level", "0.95", "--level", "0.8"),
            tag=3, datasets=6,
        ),
        Workload(
            "baselines-poisson-mid", POISSON_MID, "infer",
            ("--family", "poisson", "--intercept", "--method", "classical",
             "--method", "parametric", "--method", "pairs",
             "--level", "0.95", "--level", "0.8", "--B", "100"),
            tag=4, datasets=16,
            # No baseline uses gamma, yet without this the CLI still runs the
            # gamma curve, which fails on some datasets of this design.
            known_gamma=True,
        ),
    )
}


@dataclass
class Inputs:
    X: np.ndarray            # covariates as written (no intercept column)
    y: np.ndarray            # responses as written ({0,1} or counts)
    beta: np.ndarray         # true coefficients
    gamma: float             # true signal strength sd(X beta), ddof=1


def _circulant(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    d = np.abs(idx[:, None] - idx[None, :])
    return rho ** np.minimum(d, p - d)


def draw(design: Design, coef_rng: np.random.Generator, rng: np.random.Generator) -> Inputs:
    """Coefficients from ``coef_rng``; covariates and responses from ``rng``."""
    n, p = design.n, design.p
    beta = np.zeros(p)
    pos = coef_rng.choice(p, size=design.k, replace=False)
    signs = np.where(coef_rng.integers(0, 2, design.k) == 1, 1.0, -1.0)
    beta[pos] = signs * design.mu + coef_rng.standard_normal(design.k)
    if design.covariates == "pareto":
        shape = 5.0
        raw = rng.random((n, p)) ** (-1.0 / shape)
        mean = shape / (shape - 1.0)
        var = shape / ((shape - 1.0) ** 2 * (shape - 2.0))
        X = (raw - mean) / np.sqrt(var * p)
    else:
        nu = 8.0
        L = np.linalg.cholesky(_circulant(p, 0.5))
        Z = rng.standard_normal((n, p)) @ L.T
        w = rng.chisquare(nu, n)
        X = Z / np.sqrt(w / nu)[:, None] / np.sqrt(p * nu / (nu - 2.0))
    t = X @ beta
    if design.family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(np.float64)
    else:
        y = rng.poisson(np.exp(t)).astype(np.float64)
    return Inputs(X=X, y=y, beta=beta, gamma=float(np.std(t, ddof=1)))


def write_csv(path: Path, inputs: Inputs) -> None:
    """Shortest round-trip decimals, so the program reads exactly ``X``."""
    p = inputs.X.shape[1]
    lines = ["y," + ",".join(f"x{j}" for j in range(p))]
    lines.extend(
        ",".join(map(repr, [yi, *row]))
        for yi, row in zip(inputs.y.tolist(), inputs.X.tolist())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_design_json(path: Path, design: Design, seed: int) -> None:
    """The program's design-file format; only ``coverage`` reads it."""
    covariates = (
        {"shape": 5.0, "scale": 1.0, "kind": "pareto"}
        if design.covariates == "pareto"
        else {"nu": 8.0, "rho": 0.5, "kind": "mvt"}
    )
    spec = {
        "schema_version": 1, "n": design.n, "p": design.p,
        "covariates": covariates,
        "coefficients": {"k": design.k, "mu": design.mu, "sd": 1.0, "kind": "mixture"},
        "family": design.family, "seed": seed,
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def prepare(workload: Workload, seed: int, work: Path) -> list[tuple[list[str], Inputs | None]]:
    """Write the workload's inputs under ``work``. Returns, per dataset, the
    full CLI argv and, for CSV workloads, the drawn inputs the checks need."""
    runs = []
    if workload.command == "coverage":
        design_path = work / "design.json"
        write_design_json(design_path, workload.design, seed)  # --seed overrides its seed
    for k in range(workload.datasets):
        out = ["--out", str(work / f"program-{k}")]
        if workload.command == "coverage":
            # the program draws the data itself; its --seed is the input
            prog_seed = int(np.random.SeedSequence([seed, workload.tag, k]).generate_state(1)[0])
            argv = ["coverage", "--design", str(design_path), "--seed", str(prog_seed),
                    *workload.args]
            runs.append((argv + out, None))
            continue
        # The coefficients are part of the workload and stay fixed across
        # seeds, as in the coverage harness; the seed draws the datasets.
        inputs = draw(
            workload.design,
            np.random.default_rng(workload.tag),
            np.random.default_rng([seed, workload.tag, k]),
        )
        path = work / f"data-{k}.csv"
        write_csv(path, inputs)
        argv = ["infer", "--data", str(path), "--seed", str(seed), *workload.args]
        if workload.known_gamma:
            argv += ["--known-gamma", repr(inputs.gamma)]
        runs.append((argv + out, inputs))
    return runs
