"""Reproducible simulation designs: covariates, coefficients, responses.

Covariate generators standardise every column to variance 1/p. The
multivariate-t and Pareto generators use closed-form constants; the modified
ARCH generator standardises empirically because the closed form of its
column variance is unwieldy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Union

import numpy as np
from scipy import linalg

from .exceptions import DatasetError
from .families import get_family
from .fitting import Dataset
from .rng import substream
from .signal_strength import sd_linear_predictor

_COEF_STREAM, _X_STREAM, _Y_STREAM = 0, 1, 2


@dataclass(frozen=True)
class MvtCovariates:
    """Multivariate t rows: Z / sqrt(W/nu) with Z ~ N(0, circulant(rho))
    and one chi-squared divisor W per row."""

    nu: float = 8.0
    rho: float = 0.5
    kind: str = field(default="mvt", init=False)


@dataclass(frozen=True)
class ModifiedArchCovariates:
    """Rows zeta * eps: eps is a fresh ARCH(1) series per row, zeta the
    reciprocal of a chi variable with nu degrees of freedom per row."""

    nu: float = 8.0
    alpha0: float = 0.6
    alpha1: float = 0.4
    kind: str = field(default="modified_arch", init=False)


@dataclass(frozen=True)
class ParetoCovariates:
    """I.i.d. Pareto entries (density shape*scale^shape / x^(shape+1)),
    centred and scaled by the closed-form moments."""

    shape: float = 5.0
    scale: float = 1.0
    kind: str = field(default="pareto", init=False)


@dataclass(frozen=True)
class GaussianCovariates:
    """I.i.d. N(0, 1/p) entries."""

    kind: str = field(default="gaussian", init=False)


@dataclass(frozen=True)
class MixtureCoefficients:
    """k non-null coefficients from an equal mixture of N(mu, sd^2) and
    N(-mu, sd^2); remaining entries exactly zero."""

    k: int
    mu: float = 5.0
    sd: float = 1.0
    kind: str = field(default="mixture", init=False)


@dataclass(frozen=True)
class FixedMagnitudeCoefficients:
    """k non-null coefficients of equal magnitude with random signs."""

    k: int
    magnitude: float = 10.0
    kind: str = field(default="fixed_magnitude", init=False)


CovariateSpec = Union[
    MvtCovariates, ModifiedArchCovariates, ParetoCovariates, GaussianCovariates
]
CoefficientSpec = Union[MixtureCoefficients, FixedMagnitudeCoefficients]

_COVARIATE_TYPES = {
    "mvt": MvtCovariates,
    "modified_arch": ModifiedArchCovariates,
    "pareto": ParetoCovariates,
    "gaussian": GaussianCovariates,
}
_COEFFICIENT_TYPES = {
    "mixture": MixtureCoefficients,
    "fixed_magnitude": FixedMagnitudeCoefficients,
}


@dataclass(frozen=True)
class DesignSpec:
    """A complete simulation design; ``seed`` pins every random draw."""

    n: int
    p: int
    covariates: CovariateSpec
    coefficients: CoefficientSpec
    family: str = "logistic"
    seed: int = 0

    def __post_init__(self):
        if self.n < self.p + 1:
            raise DatasetError(f"n >= p+1 required; got n={self.n}, p={self.p}")
        cov = self.covariates
        if isinstance(cov, (MvtCovariates, ModifiedArchCovariates)) and cov.nu <= 2:
            raise DatasetError("nu > 2 required for finite covariate variance")
        if isinstance(cov, ModifiedArchCovariates) and not 0 <= cov.alpha1 < 1:
            raise DatasetError("modified ARCH requires 0 <= alpha1 < 1")
        if isinstance(cov, ParetoCovariates) and cov.shape <= 2:
            raise DatasetError("Pareto shape > 2 required for finite variance")
        if self.coefficients.k > self.p:
            raise DatasetError("cannot place more non-null coefficients than p")
        get_family(self.family)  # raises on unknown names

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "n": self.n,
            "p": self.p,
            "covariates": asdict(self.covariates),
            "coefficients": asdict(self.coefficients),
            "family": self.family,
            "seed": self.seed,
        }
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "DesignSpec":
        cov_d = dict(d["covariates"])
        coef_d = dict(d["coefficients"])
        cov_cls = _COVARIATE_TYPES[cov_d.pop("kind")]
        coef_cls = _COEFFICIENT_TYPES[coef_d.pop("kind")]
        return DesignSpec(
            n=int(d["n"]),
            p=int(d["p"]),
            covariates=cov_cls(**cov_d),
            coefficients=coef_cls(**coef_d),
            family=d["family"],
            seed=int(d["seed"]),
        )

    @staticmethod
    def from_json_file(path) -> "DesignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return DesignSpec.from_json_dict(json.load(fh))


def circulant_covariance(p: int, rho: float = 0.5) -> np.ndarray:
    """Sigma_ij = rho^d with d the wrap-around index distance, so every
    variable has the same conditional variance given the others."""
    idx = np.arange(p)
    d = np.abs(idx[:, None] - idx[None, :])
    return rho ** np.minimum(d, p - d)


def gen_covariates(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample the n x p covariate matrix for ``spec``."""
    n, p = spec.n, spec.p
    cov = spec.covariates
    if isinstance(cov, MvtCovariates):
        L = linalg.cholesky(circulant_covariance(p, cov.rho), lower=True)
        Z = rng.standard_normal((n, p)) @ L.T
        w = rng.chisquare(cov.nu, n)
        rows = Z / np.sqrt(w / cov.nu)[:, None]
        # theoretical column variance nu/(nu-2); bring it to 1/p
        return rows / np.sqrt(p * cov.nu / (cov.nu - 2.0))
    if isinstance(cov, ModifiedArchCovariates):
        prev = rng.normal(0.0, np.sqrt(cov.alpha0 / (1.0 - cov.alpha1)), n)
        cols = np.empty((n, p))
        for j in range(p):
            eps = rng.standard_normal(n)
            prev = np.sqrt(cov.alpha0 + cov.alpha1 * prev**2) * eps
            cols[:, j] = prev
        zeta = 1.0 / np.sqrt(rng.chisquare(cov.nu, n))
        rows = cols * zeta[:, None]
        sd = rows.std(axis=0, ddof=1)
        return rows / (sd * np.sqrt(p))
    if isinstance(cov, ParetoCovariates):
        u = rng.random((n, p))
        raw = cov.scale * u ** (-1.0 / cov.shape)
        a, m = cov.shape, cov.scale
        mean = a * m / (a - 1.0)
        var = a * m * m / ((a - 1.0) ** 2 * (a - 2.0))
        return (raw - mean) / np.sqrt(var * p)
    if isinstance(cov, GaussianCovariates):
        return rng.standard_normal((n, p)) / np.sqrt(p)
    raise DatasetError(f"unknown covariate spec {cov!r}")


def gen_coefficients(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample the coefficient vector: k non-null positions, rest exactly 0."""
    coef = spec.coefficients
    beta = np.zeros(spec.p)
    if coef.k == 0:
        return beta
    positions = rng.choice(spec.p, size=coef.k, replace=False)
    if isinstance(coef, MixtureCoefficients):
        signs = np.where(rng.integers(0, 2, coef.k) == 1, 1.0, -1.0)
        values = signs * coef.mu + coef.sd * rng.standard_normal(coef.k)
    elif isinstance(coef, FixedMagnitudeCoefficients):
        signs = np.where(rng.integers(0, 2, coef.k) == 1, 1.0, -1.0)
        values = signs * coef.magnitude
    else:
        raise DatasetError(f"unknown coefficient spec {coef!r}")
    beta[positions] = values
    return beta


def gen_response(
    X: np.ndarray, beta: np.ndarray, family, rng: np.random.Generator
) -> np.ndarray:
    """Draw responses from the family at linear predictors X @ beta."""
    return get_family(family).simulate(np.asarray(X) @ np.asarray(beta), rng)


def generate_dataset(spec: DesignSpec) -> tuple[Dataset, np.ndarray, float]:
    """Full draw under ``spec.seed``: (dataset, true beta, observed gamma).

    The observed gamma is sd(X beta) over the sampled rows, the quantity the
    signal-strength estimator targets.
    """
    beta = gen_coefficients(spec, substream(spec.seed, _COEF_STREAM))
    X = gen_covariates(spec, substream(spec.seed, _X_STREAM))
    y = gen_response(X, beta, spec.family, substream(spec.seed, _Y_STREAM))
    data = Dataset(X=X, y=y, family=spec.family)
    return data, beta, sd_linear_predictor(X, beta)


def scaled_to_gamma(
    spec: DesignSpec, beta: np.ndarray, gamma: float
) -> np.ndarray:
    """Rescale ``beta`` so the population sd of X' beta equals ``gamma``.

    Uses the population covariance of the standardised covariates
    (Sigma_circ / p for mvt, I/p otherwise); the ARCH design has no closed
    form and is rescaled against a large simulated draw instead.
    """
    cov = spec.covariates
    if isinstance(cov, MvtCovariates):
        sigma = circulant_covariance(spec.p, cov.rho) / spec.p
        cur = float(np.sqrt(beta @ sigma @ beta))
    elif isinstance(cov, (ParetoCovariates, GaussianCovariates)):
        cur = float(np.linalg.norm(beta) / np.sqrt(spec.p))
    else:
        big = DesignSpec(
            n=20000,
            p=spec.p,
            covariates=cov,
            coefficients=spec.coefficients,
            family=spec.family,
            seed=spec.seed,
        )
        X = gen_covariates(big, substream(spec.seed, 905))
        cur = float(np.std(X @ beta, ddof=1))
    if cur == 0:
        raise DatasetError("cannot rescale an all-zero coefficient vector")
    return beta * (gamma / cur)


# The designs exercised throughout: large MVT / ARCH logistic designs, the
# small heavy-tailed Pareto design, the Poisson variant, and the sparse
# large-coefficient design.
_PRESETS = {
    "mvt-large": DesignSpec(
        n=4000, p=400, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=50, mu=5.0, sd=1.0),
        family="logistic",
    ),
    "arch-large": DesignSpec(
        n=4000, p=400, covariates=ModifiedArchCovariates(),
        coefficients=MixtureCoefficients(k=50, mu=5.0, sd=1.0),
        family="logistic",
    ),
    "pareto-small": DesignSpec(
        n=400, p=40, covariates=ParetoCovariates(),
        coefficients=MixtureCoefficients(k=20, mu=5.0, sd=1.0),
        family="logistic",
    ),
    "poisson-large": DesignSpec(
        n=4000, p=400, covariates=MvtCovariates(),
        coefficients=MixtureCoefficients(k=50, mu=3.0, sd=1.0),
        family="poisson-log",
    ),
    "sparse-appendixC": DesignSpec(
        n=4000, p=400, covariates=ModifiedArchCovariates(),
        coefficients=FixedMagnitudeCoefficients(k=10, magnitude=10.0),
        family="logistic",
    ),
}
DESIGN_NAMES = tuple(_PRESETS)


def named_design(name: str, seed: int = 0) -> DesignSpec:
    try:
        return replace(_PRESETS[name], seed=seed)
    except KeyError:
        raise DatasetError(
            f"unknown design {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None
