"""Whole-pipeline metamorphic tests: ``infer``'s intervals under changes to
``X`` that the model absorbs exactly. Negating column j negates beta_j,
permuting the columns permutes beta, and scaling column j by c divides
beta_j by c; the linear predictor, and so every simulated response, the
signal strength, alpha_hat and the pivots, stay the same."""

import numpy as np
import pytest

import resizedboot.fitting as fitting
from resizedboot import Dataset
from resizedboot.coverage import METHODS, infer
from resizedboot.designs import (
    DesignSpec,
    MixtureCoefficients,
    MvtCovariates,
    generate_dataset,
    named_design,
)

LEVEL = 0.8
B = 240  # boot-t at 0.8 needs 40 replicates in each tail
SCALE = 3.0
# Worst cases over design seeds 0-15 of both datasets: a negated column
# 1.8e-15; permuted or scaled columns 5.3e-8 (pairs, pareto-small). These
# change the rounding of every product, and a refit stops anywhere within
# its gradient tolerance of 1e-8.
FLIP_ATOL = 1e-14
MOVE_ATOL = 1e-7


def _intervals(X, y, family, has_intercept, gamma):
    data = Dataset(X=X, y=y, family=family, has_intercept=has_intercept)
    inference = infer(
        data, methods=METHODS, levels=(LEVEL,), B=B, seed=11, gamma=gamma
    )
    return {m: inference.interval(m, LEVEL) for m in METHODS}


@pytest.fixture(scope="module", params=["pareto-small", "poisson-intercept"])
def runs(request):
    """The column j that the flip and the scaling change, the column
    order of the permutation, and the intervals of one dataset and of its
    three transforms."""
    if request.param == "pareto-small":
        # logistic, stacked Hessians, gamma estimated from the curve
        data, beta, _ = generate_dataset(named_design("pareto-small", 0))
        X, y, family, first, gamma = data.X, data.y, "logistic", 0, None
    else:
        # Poisson with an intercept in column 0, which stays in place, and
        # the given gamma. Hessians are formed per replicate, as at n=1000,
        # p=100, so the refits hold factors between refreshes.
        spec = DesignSpec(
            n=300, p=20, covariates=MvtCovariates(),
            coefficients=MixtureCoefficients(k=5, mu=3.0), family="poisson-log",
        )
        data, beta, gamma = generate_dataset(spec)
        X = np.column_stack([np.ones(data.n), data.X[:, 1:]])
        y, family, first = data.y, "poisson-log", 1
    p = X.shape[1]
    j = first + int(np.argmax(np.abs(beta[first:])))
    perm = np.concatenate(
        [np.arange(first), first + np.random.default_rng(0).permutation(p - first)]
    )
    flipped, scaled = X.copy(), X.copy()
    flipped[:, j] *= -1.0
    scaled[:, j] *= SCALE
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "poisson-intercept":
            mp.setattr(fitting, "_PAIRS_BYTES", 0)
            assert not fitting._stacks_hessians(*X.shape)
        found = {
            name: _intervals(Xt, y, family, first == 1, gamma)
            for name, Xt in [
                ("base", X), ("flip", flipped), ("perm", X[:, perm]), ("scale", scaled),
            ]
        }
    return j, perm, found


def test_negating_a_column_mirrors_its_interval(runs):
    j, _, found = runs
    for m in METHODS:
        base, flip = found["base"][m], found["flip"][m]
        lo, hi = base.lo.copy(), base.hi.copy()
        lo[j], hi[j] = -base.hi[j], -base.lo[j]
        np.testing.assert_allclose(flip.lo, lo, rtol=0, atol=FLIP_ATOL, err_msg=m)
        np.testing.assert_allclose(flip.hi, hi, rtol=0, atol=FLIP_ATOL, err_msg=m)


def test_permuting_the_columns_permutes_the_intervals(runs):
    _, perm, found = runs
    for m in METHODS:
        base, moved = found["base"][m], found["perm"][m]
        np.testing.assert_allclose(moved.lo, base.lo[perm], rtol=0, atol=MOVE_ATOL, err_msg=m)
        np.testing.assert_allclose(moved.hi, base.hi[perm], rtol=0, atol=MOVE_ATOL, err_msg=m)


def test_scaling_a_column_divides_its_interval(runs):
    j, _, found = runs
    for m in METHODS:
        base, scaled = found["base"][m], found["scale"][m]
        lo, hi = base.lo.copy(), base.hi.copy()
        lo[j] /= SCALE
        hi[j] /= SCALE
        np.testing.assert_allclose(scaled.lo, lo, rtol=0, atol=MOVE_ATOL, err_msg=m)
        np.testing.assert_allclose(scaled.hi, hi, rtol=0, atol=MOVE_ATOL, err_msg=m)
