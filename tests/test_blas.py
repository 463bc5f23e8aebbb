"""The command line holds SciPy's own OpenBLAS at one thread per command."""

from pathlib import Path

import pytest
import scipy

from resizedboot import ResizedBootError, _blas, cli

FIXTURE = Path(__file__).parent / "fixtures" / "logistic_n200_p5.csv"
FIT_ARGV = ["fit", "--data", str(FIXTURE), "--family", "logistic"]


def _counts(libs):
    return [lib.scipy_openblas_get_num_threads() for lib in libs]


@pytest.fixture
def two_threads():
    """SciPy's OpenBLAS libraries, set to 2 threads for the test, so that a
    restored count differs from the one held inside a command."""
    libs = _blas.scipy_openblas_libs()
    before = _counts(libs)
    for lib in libs:
        lib.scipy_openblas_set_num_threads(2)
    yield libs
    for lib, n in zip(libs, before):
        lib.scipy_openblas_set_num_threads(n)


def test_discovery_finds_scipys_own_openblas():
    libs_dir = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    if not list(libs_dir.glob("*openblas*.so*")):
        pytest.skip("this SciPy bundles no OpenBLAS of its own")
    assert len(_blas.scipy_openblas_libs()) == 1


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
    monkeypatch.setattr(_blas, "scipy_openblas_libs", lambda: [])
    assert cli.main(FIT_ARGV + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "intervals.csv").exists()
