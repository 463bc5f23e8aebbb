"""The benchmark's correctness checks pass on the program's output and fail
on each kind of corrupted output.

Run from the checkout root: python3 -m pytest perfbench -q
(about 15 s; the large-p workload is left out, its checks are the same
code as the small one's).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from resizedboot import cli  # noqa: E402

from checks import CheckFailed, check  # noqa: E402
from inputs import WORKLOADS, prepare  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One program run per workload: (workload, inputs, output directory)."""
    done = {}
    for name in ("infer-pareto-small", "coverage-pareto-small", "baselines-poisson-mid"):
        work = tmp_path_factory.mktemp(name)
        argv, inputs = prepare(WORKLOADS[name], SEED, work)[0]
        assert cli.main(argv) == 0
        done[name] = (WORKLOADS[name], inputs, work / "program-0")
    return done


@pytest.fixture
def copy_of(runs, tmp_path):
    def copy(name):
        workload, inputs, out = runs[name]
        dst = tmp_path / "program"
        shutil.copytree(out, dst)
        return workload, inputs, dst
    return copy


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def edit_interval(out: Path, method: str, level: str, coord: int, field: str, delta: float):
    lines = (out / "intervals.csv").read_text().splitlines()
    col = {"lo": 3, "hi": 4}[field]
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[:3] == [str(coord), method, level]:
            cells[col] = repr(float(cells[col]) + delta)
            lines[i] = ",".join(cells)
            break
    else:
        raise AssertionError(f"no row {coord},{method},{level}")
    (out / "intervals.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["infer-pareto-small", "coverage-pareto-small",
                                  "baselines-poisson-mid"])
def test_checks_pass_on_program_output(runs, name):
    check(*runs[name])


def _drop_last_row(out: Path) -> None:
    lines = (out / "boot_mles.csv").read_text().splitlines()
    (out / "boot_mles.csv").write_text("\n".join(lines[:-1]) + "\n")


def _scale_first_boot_value(out: Path) -> None:
    lines = (out / "boot_mles.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[0] = repr(float(cells[0]) * 1.01)
    lines[2] = ",".join(cells)
    (out / "boot_mles.csv").write_text("\n".join(lines) + "\n")


INFER_CORRUPTIONS = {
    "beta_hat moved": (
        lambda out: edit_json(out / "summary.json",
                              lambda d: d["beta_hat"].__setitem__(0, d["beta_hat"][0] + 1e-4)),
        "not stationary"),
    "classical bound": (
        lambda out: edit_interval(out, "classical", "0.95", 3, "lo", -1e-4), "classical 0.95"),
    "boot-g bound": (
        lambda out: edit_interval(out, "boot-g", "0.8", 5, "hi", 1e-4), "boot-g 0.8"),
    "boot-t bound": (
        lambda out: edit_interval(out, "boot-t", "0.95", 0, "lo", -1e-4), "boot-t 0.95"),
    "alpha_hat": (
        lambda out: edit_json(out / "summary.json",
                              lambda d: d.__setitem__("alpha_hat", d["alpha_hat"] * 1.001)),
        "alpha_hat"),
    "bootstrap row lost": (_drop_last_row, "rows"),
    "bootstrap value": (_scale_first_boot_value, "sigma_hat"),
    "gamma_hat": (
        lambda out: edit_json(out / "summary.json",
                              lambda d: d.__setitem__("gamma_hat", 3.0 * d["gamma_hat"])),
        "gamma_hat"),
}


@pytest.mark.parametrize("corruption", sorted(INFER_CORRUPTIONS))
def test_infer_checks_catch(copy_of, corruption):
    workload, inputs, out = copy_of("infer-pareto-small")
    corrupt, message = INFER_CORRUPTIONS[corruption]
    corrupt(out)
    with pytest.raises(CheckFailed, match=message):
        check(workload, inputs, out)


def test_infer_checks_catch_missing_level(copy_of):
    workload, inputs, out = copy_of("infer-pareto-small")
    lines = (out / "intervals.csv").read_text().splitlines()
    kept = [line for line in lines if ",boot-t,0.8," not in line]
    (out / "intervals.csv").write_text("\n".join(kept) + "\n")
    with pytest.raises(CheckFailed, match="intervals.csv holds"):
        check(workload, inputs, out)


BASELINE_CORRUPTIONS = {
    "pairs midpoint": (lambda out: edit_interval(out, "pairs", "0.8", 7, "lo", 1e-4), "pairs 0.8"),
    "parametric midpoint": (
        lambda out: edit_interval(out, "parametric", "0.95", 2, "hi", 1e-4), "parametric 0.95"),
    "intercept interval": (
        lambda out: edit_interval(out, "classical", "0.8", 0, "hi", 1e-4), "classical 0.8"),
}


@pytest.mark.parametrize("corruption", sorted(BASELINE_CORRUPTIONS))
def test_baseline_checks_catch(copy_of, corruption):
    workload, inputs, out = copy_of("baselines-poisson-mid")
    corrupt, message = BASELINE_CORRUPTIONS[corruption]
    corrupt(out)
    with pytest.raises(CheckFailed, match=message):
        check(workload, inputs, out)


def _swap_levels(d):
    qi = d["qbar_i"]["boot-t"]
    qi["0.95"], qi["0.8"] = qi["0.8"], qi["0.95"]


def _all_half(d):
    for level in d["qbar_i"]["boot-t"]:
        d["qbar_i"]["boot-t"][level] = [0.5] * len(d["qbar_i"]["boot-t"][level])
        d["qbar"]["boot-t"][level] = 0.5


COVERAGE_CORRUPTIONS = {
    "levels not nested": (_swap_levels, "exceeds"),
    "coverage off nominal": (_all_half, "outside"),
    "qbar not the mean": (
        lambda d: d["qbar"]["boot-t"].__setitem__("0.8", d["qbar"]["boot-t"]["0.8"] + 0.01),
        "mean of qbar_i"),
    "repetition lost": (lambda d: d.__setitem__("n_reps", d["n_reps"] - 1), "repetitions lost"),
}


@pytest.mark.parametrize("corruption", sorted(COVERAGE_CORRUPTIONS))
def test_coverage_checks_catch(copy_of, corruption):
    workload, inputs, out = copy_of("coverage-pareto-small")
    corrupt, message = COVERAGE_CORRUPTIONS[corruption]
    edit_json(out / "coverage.json", corrupt)
    with pytest.raises(CheckFailed, match=message):
        check(workload, inputs, out)
