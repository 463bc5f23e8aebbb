"""The command line holds SciPy's own OpenBLAS at one thread per command;
the coverage workers hold NumPy's and SciPy's at one thread."""

import json
from pathlib import Path

import pytest
import scipy

import resizedboot.coverage as cov
from resizedboot import (
    DesignSpec,
    GaussianCovariates,
    MixtureCoefficients,
    ResizedBootError,
    _blas,
    cli,
    run_coverage,
)

FIXTURE = Path(__file__).parent / "fixtures" / "logistic_n200_p5.csv"
FIT_ARGV = ["fit", "--data", str(FIXTURE), "--family", "logistic"]


def _counts(pools):
    return [pool.get() for pool in pools]


@pytest.fixture
def two_threads():
    """SciPy's OpenBLAS libraries, set to 2 threads for the test, so that a
    restored count differs from the one held inside a command."""
    pools = _blas.openblas_pools("scipy")
    before = _counts(pools)
    for pool in pools:
        pool.set(2)
    yield pools
    for pool, n in zip(pools, before):
        pool.set(n)


def test_discovery_finds_scipys_own_openblas():
    libs_dir = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    if not list(libs_dir.glob("*openblas*.so*")):
        pytest.skip("this SciPy bundles no OpenBLAS of its own")
    assert len(_blas.openblas_pools("scipy")) == 1


@pytest.mark.parametrize("outcome", ["ok", "fails", "raises"])
def test_main_holds_one_thread_and_restores_the_count(
    monkeypatch, tmp_path, two_threads, outcome
):
    seen = []

    def command(args):
        seen.append(_counts(two_threads))
        if outcome == "fails":
            raise ResizedBootError("command failed")
        if outcome == "raises":
            raise RuntimeError("command crashed")
        return 0

    monkeypatch.setattr(cli, "cmd_fit", command)
    argv = FIT_ARGV + ["--out", str(tmp_path)]
    if outcome == "raises":
        with pytest.raises(RuntimeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == (1 if outcome == "fails" else 0)
    assert seen == [[1] * len(two_threads)]
    assert _counts(two_threads) == [2] * len(two_threads)


def test_main_runs_where_scipy_has_no_openblas_of_its_own(monkeypatch, tmp_path):
    monkeypatch.setattr(_blas, "openblas_pools", lambda package: [])
    assert cli.main(FIT_ARGV + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "intervals.csv").exists()


def _both_pools():
    return _blas.openblas_pools("numpy") + _blas.openblas_pools("scipy")


def _run_small_coverage():
    design = DesignSpec(
        n=120, p=4, covariates=GaussianCovariates(),
        coefficients=MixtureCoefficients(k=2, mu=2.0, sd=0.5),
        family="logistic", seed=0,
    )
    return run_coverage(
        design, methods=("classical", "boot-g"), n_reps=3, B=40, gamma_mode="known"
    )


def test_coverage_workers_hold_both_pools_at_one_thread(monkeypatch, tmp_path):
    n_pools = len(_both_pools())
    if not n_pools:
        pytest.skip("neither NumPy nor SciPy bundles an OpenBLAS of its own")
    real = cov._repetition

    def repetition(run, rep):
        (tmp_path / f"{rep}.json").write_text(json.dumps(_counts(_both_pools())))
        return real(run, rep)

    monkeypatch.setattr(cov, "_repetition", repetition)
    _run_small_coverage()
    seen = [json.loads(f.read_text()) for f in sorted(tmp_path.iterdir())]
    assert seen == [[1] * n_pools] * 3


def test_run_coverage_leaves_the_callers_thread_counts():
    pools = _both_pools()
    before = _counts(pools)
    for pool in pools:
        pool.set(2)
    try:
        _run_small_coverage()
        assert _counts(pools) == [2] * len(pools)
    finally:
        for pool, n in zip(pools, before):
            pool.set(n)
