import contextlib
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import resizedboot
from resizedboot import CsvParseError, cli, fit_mle, infer
from resizedboot.cli import build_parser, export_dataset_csv, main, parse_dataset_csv
from resizedboot.coverage import check_methods
from resizedboot.serialize import fmt

FIXTURE = Path(__file__).parent / "fixtures" / "logistic_n200_p5.csv"
README = Path(__file__).parent.parent / "README.md"


def _read(path: Path) -> bytes:
    return path.read_bytes()


def _intervals_rows(path: Path) -> list[dict]:
    return json.loads((path / "intervals.json").read_text())["intervals"]


# ----------------------------------------------------------------- parsing

def test_parse_fixture_maps_binary_to_pm_one():
    data = parse_dataset_csv(FIXTURE, "logistic", has_intercept=False)
    assert (data.n, data.p) == (200, 5)
    assert set(np.unique(data.y)) == {-1.0, 1.0}


def test_parse_intercept_prepends_ones():
    data = parse_dataset_csv(FIXTURE, "logistic", has_intercept=True)
    assert data.p == 6
    np.testing.assert_array_equal(data.X[:, 0], 1.0)


def test_parse_rejects_negative_poisson_named_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,x0\n1.0,0.2\n-1.0,0.3\n2.0,0.4\n")
    with pytest.raises(CsvParseError) as err:
        parse_dataset_csv(f, "poisson-log")
    assert str(err.value) == f"{f}: line 3: invalid response -1.0 for family poisson-log"


def test_parse_binary_response_errors_name_the_row_when_one_is_bad(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,x0\n1.0,0.2\n2.0,0.3\n0.0,0.4\n")
    with pytest.raises(CsvParseError) as err:
        parse_dataset_csv(f, "probit")
    assert str(err.value) == f"{f}: line 3: invalid response 2.0 for family probit"
    # a mixed {0, -1, +1} column has no single bad row
    g = tmp_path / "mixed.csv"
    g.write_text("y,x0\n0.0,0.2\n-1.0,0.3\n1.0,0.4\n0.0,0.5\n")
    with pytest.raises(CsvParseError) as err:
        parse_dataset_csv(g, "logistic")
    assert str(err.value) == (
        f"{g}: logistic response must be coded in {{0,1}} or {{-1,+1}}; "
        "saw values [-1.0, 0.0, 1.0]"
    )


def test_parse_rejects_non_finite_with_position(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,x0,x1\n1.0,0.2,0.1\n0.0,nan,0.5\n1.0,0.1,0.2\n")
    with pytest.raises(CsvParseError, match="line 3.*x0"):
        parse_dataset_csv(f, "logistic")


def test_parse_rejects_wide_files(tmp_path):
    f = tmp_path / "wide.csv"
    f.write_text("y,x0,x1,x2\n1.0,1,2,3\n0.0,4,5,6\n1.0,7,8,9\n")
    with pytest.raises(CsvParseError, match="n >= p\\+1"):
        parse_dataset_csv(f, "logistic")


def test_parse_rejects_missing_header_and_fields(tmp_path):
    f = tmp_path / "noheader.csv"
    f.write_text("a,b\n1.0,0.2\n")
    with pytest.raises(CsvParseError, match="first column must be named 'y'"):
        parse_dataset_csv(f, "logistic")
    g = tmp_path / "ragged.csv"
    g.write_text("y,x0,x1\n1.0,0.2\n")
    with pytest.raises(CsvParseError, match="expected 3 fields"):
        parse_dataset_csv(g, "logistic")


def test_parse_rejects_non_numeric_cell(tmp_path):
    f = tmp_path / "text.csv"
    f.write_text("y,x0\n1.0,0.2\n0.0,oops\n")
    with pytest.raises(CsvParseError, match="line 3.*oops"):
        parse_dataset_csv(f, "logistic")


def test_parse_peak_memory_stays_near_the_array(tmp_path):
    rng = np.random.default_rng(3)
    n, p = 2000, 100
    f = tmp_path / "big.csv"
    with open(f, "w", encoding="utf-8") as fh:
        fh.write("y," + ",".join(f"x{j}" for j in range(p)) + "\n")
        for row in rng.standard_normal((n, p)):
            fh.write(f"{rng.integers(2)}," + ",".join(repr(float(v)) for v in row) + "\n")
    tracemalloc.start()
    try:
        parse_dataset_csv(f, "logistic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * (p + 1) * 8


def test_parse_reads_repr_floats_to_the_bit(tmp_path):
    # NumPy's parser reads what float() reads; it refuses 1_0, and that
    # file takes the per-cell loop
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3)) * 10.0 ** rng.integers(-300, 300, (60, 3))
    X[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    y = rng.integers(0, 2, 60).astype(float)
    rows = [",".join(map(repr, [yi, *row])) for yi, row in zip(y.tolist(), X.tolist())]
    rows[1] = rows[1].replace(",", " ,  ", 1)  # a padded cell
    f = tmp_path / "fast.csv"
    f.write_text("y,x0,x1,x2\n" + "\n".join(rows) + "\n")
    g = tmp_path / "cells.csv"
    g.write_text("y,x0,x1,x2\n" + "\n".join(rows) + "\n1.0,1_0,2.5,-1e-3\n")
    assert cli._parse_fast(g) is None
    for path, want in ((f, X), (g, np.vstack([X, [10.0, 2.5, -1e-3]]))):
        data = parse_dataset_csv(path, "logistic")
        assert np.array_equal(data.X.view(np.int64), want.view(np.int64))
    fast, lines = cli._parse_fast(f)
    cells, cell_lines = cli._parse_cells(f)
    assert np.array_equal(fast.view(np.int64), cells.view(np.int64))
    assert lines == cell_lines == list(range(2, 62))


def test_export_then_parse_round_trips_fit_bitwise(tmp_path):
    data = parse_dataset_csv(FIXTURE, "logistic")
    out = tmp_path / "copy.csv"
    export_dataset_csv(out, data)
    again = parse_dataset_csv(out, "logistic")
    np.testing.assert_array_equal(data.X, again.X)
    np.testing.assert_array_equal(data.y, again.y)
    a, b = fit_mle(data), fit_mle(again)
    np.testing.assert_array_equal(a.beta_hat, b.beta_hat)


# ---------------------------------------------------------------- commands

def test_fit_command_writes_artifacts(tmp_path):
    rc = main(["fit", "--data", str(FIXTURE), "--family", "logistic",
               "--out", str(tmp_path), "--seed", "1"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert len(summary["beta_hat"]) == 5
    assert (tmp_path / "intervals.csv").exists()


def test_infer_shapes_summary_keys_and_nesting(tmp_path):
    rc = main([
        "infer", "--data", str(FIXTURE), "--family", "logistic",
        "--out", str(tmp_path), "--seed", "3", "--B", "240",
        "--level", "0.95", "--level", "0.8",
        "--method", "classical", "--method", "boot-g",
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {
        "beta_hat", "alpha_hat", "sigma_hat", "gamma_hat", "eta_tilde",
        "scale_s", "n_failed", "seed", "schema_version",
    }
    assert 0.0 < summary["scale_s"] <= 1.0
    assert summary["alpha_hat"] > 0
    rows = _intervals_rows(tmp_path)
    # 5 coordinates x 2 methods x 2 levels
    assert len(rows) == 20
    by_key = {(r["coordinate"], r["method"], r["level"]): r for r in rows}
    for j in range(5):
        for m in ("classical", "boot-g"):
            narrow = by_key[(j, m, 0.8)]
            wide = by_key[(j, m, 0.95)]
            assert wide["lo"] <= narrow["lo"] <= narrow["hi"] <= wide["hi"]


def test_infer_known_gamma_and_boot_dump(tmp_path):
    rc = main([
        "infer", "--data", str(FIXTURE), "--family", "logistic",
        "--out", str(tmp_path), "--seed", "0", "--B", "50",
        "--known-gamma", "1.3", "--method", "boot-g", "--dump-boot",
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["gamma_hat"] == 1.3
    assert summary["eta_tilde"] is None  # known gamma: no curve is run
    dump = (tmp_path / "boot_mles.csv").read_text().splitlines()
    assert dump[1].startswith("beta0")
    assert len(dump) == 2 + 50 - summary["n_failed"]


def test_infer_errors_as_json_on_separable_data(tmp_path, capsys):
    bad = tmp_path / "sep.csv"
    bad.write_text(
        "y,x0\n" + "".join(
            f"{1.0 if i % 2 else 0.0},{(1.0 if i % 2 else -1.0) + 0.1 * i}\n"
            for i in range(10)
        )
    )
    rc = main(["infer", "--data", str(bad), "--family", "logistic",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ResizedBootError"
    assert "separable" in err["error"]["message"]


def test_infer_classical_skips_gamma_and_matches_fit(tmp_path):
    # a strong signal whose eta(gamma) curve does not bracket eta_tilde:
    # estimating gamma here raises, but classical intervals do not need it
    rng = np.random.default_rng(48)
    n, p = 200, 30
    X = rng.standard_normal((n, p)) / np.sqrt(p)
    beta = 4 * rng.standard_normal(p)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-X @ beta))
    data_csv = tmp_path / "strong.csv"
    data_csv.write_text(
        "y," + ",".join(f"x{j}" for j in range(p)) + "\n"
        + "".join(
            f"{int(y[i])}," + ",".join(repr(float(v)) for v in X[i]) + "\n"
            for i in range(n)
        )
    )
    common = ["--data", str(data_csv), "--family", "logistic", "--seed", "1"]
    assert main(["infer", *common, "--method", "classical", "--out", str(tmp_path / "inf")]) == 0
    assert main(["fit", *common, "--out", str(tmp_path / "fit")]) == 0
    assert _read(tmp_path / "inf" / "intervals.csv") == _read(tmp_path / "fit" / "intervals.csv")
    summary = json.loads((tmp_path / "inf" / "summary.json").read_text())
    assert summary["gamma_hat"] is None
    assert summary["eta_tilde"] is None
    assert summary["scale_s"] is None
    assert summary["alpha_hat"] is None


def test_library_infer_matches_the_command_bounds(tmp_path):
    methods = ["classical", "boot-g", "boot-t", "parametric", "pairs"]
    levels = [0.95, 0.8]
    argv = ["infer", "--data", str(FIXTURE), "--family", "logistic",
            "--seed", "5", "--B", "800", "--out", str(tmp_path)]
    for m in methods:
        argv += ["--method", m]
    for lv in levels:
        argv += ["--level", str(lv)]
    assert main(argv) == 0
    inference = infer(
        parse_dataset_csv(FIXTURE, "logistic"), methods=methods, levels=levels,
        B=800, seed=5,
    )
    rows = []
    for lv in levels:
        for m in methods:
            ci = inference.interval(m, lv)
            rows += [
                ",".join([str(j), m, fmt(lv), fmt(ci.lo[j]), fmt(ci.hi[j])])
                for j in range(ci.lo.shape[0])
            ]
    written = (tmp_path / "intervals.csv").read_text().splitlines()
    assert written[2:] == rows


def _readme_commands() -> list[list[str]]:
    """Every `resizedboot ...` command in the README's code blocks."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["resizedboot"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse_and_give_boot_t_enough_replicates():
    commands = _readme_commands()
    assert any(c[0] == "coverage" for c in commands)
    for argv in commands:
        args = build_parser().parse_args(argv)
        if args.command in ("infer", "coverage"):
            methods, B = cli._methods_and_b(args)
            check_methods(methods, args.level or [0.95], B)


def test_infer_boot_t_with_too_small_b_fails_before_fitting(
    monkeypatch, tmp_path, capsys
):
    def no_data(args):
        raise AssertionError("the data were loaded")

    monkeypatch.setattr(cli, "_load_data", no_data)
    rc = main(["infer", "--data", str(FIXTURE), "--family", "logistic",
               "--B", "300", "--level", "0.8", "--level", "0.95",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {
        "type": "InsufficientBootstrapError",
        "message": "boot-t at level 0.95 needs at least 800 replicates; have 300",
    }


@pytest.mark.parametrize("B", [0, 1])
def test_infer_pairs_with_too_few_replicates_fails(B, tmp_path, capsys):
    rc = main(["infer", "--data", str(FIXTURE), "--family", "logistic",
               "--method", "pairs", "--B", str(B), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError", "message": "B must be at least 2"}


def test_data_requires_family(tmp_path, capsys):
    rc = main(["infer", "--data", str(FIXTURE), "--out", str(tmp_path)])
    assert rc == 1
    assert "family" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_unknown_design_rejected(tmp_path, capsys):
    rc = main(["simulate", "--design", "florp", "--out", str(tmp_path)])
    assert rc == 1
    assert "florp" in json.loads(capsys.readouterr().out)["error"]["message"]


_DESIGN_JSON = {
    "schema_version": 1, "n": 120, "p": 4,
    "covariates": {"kind": "gaussian"},
    "coefficients": {"kind": "mixture", "k": 2, "mu": 2.0, "sd": 0.5},
    "family": "logistic", "seed": 0,
}


@pytest.mark.parametrize(
    "command, design, message",
    [
        ("simulate", {**_DESIGN_JSON, "covariates": {"kind": "nope"}},
         "covariates kind 'nope' is not one of"),
        ("simulate", {**_DESIGN_JSON, "covariates": {"kind": "gaussian", "rho": 2}},
         "covariates of kind 'gaussian' has no field 'rho'"),
        ("coverage", {"n": 50}, "design lacks the field 'p'"),
        ("simulate", {**_DESIGN_JSON, "covariates": {"kind": "mvt", "nu": "8"}},
         "field 'nu' must be a number"),
        ("simulate", {**_DESIGN_JSON, "coefficients": {"kind": "mixture", "k": 2.5}},
         "field 'k' must be an integer"),
        ("simulate", {**_DESIGN_JSON, "n": None}, "'n', 'p' and 'seed' must be integers"),
        ("simulate", {**_DESIGN_JSON, "n": 120.9}, "design field 'n' is 120.9"),
        ("simulate", {**_DESIGN_JSON, "seed": 0.5}, "design field 'seed' is 0.5"),
        ("simulate", {**_DESIGN_JSON, "p": True}, "design field 'p' is True"),
    ],
    ids=["unknown-kind", "unexpected-field", "missing-fields", "text-number",
         "fractional-count", "null-size", "fractional-size", "fractional-seed",
         "bool-size"],
)
def test_malformed_design_file_errors_as_json(command, design, message, tmp_path, capsys):
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps(design))
    rc = main([command, "--design", str(spec_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DatasetError"
    assert message in err["message"]


def test_simulate_then_infer_recovers_truth(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--design", "pareto-small", "--out", str(sim_dir),
                 "--seed", "2"]) == 0
    truth = json.loads((sim_dir / "truth.json").read_text())
    inf_dir = tmp_path / "inf"
    assert main([
        "infer", "--data", str(sim_dir / "dataset.csv"), "--family", "logistic",
        "--out", str(inf_dir), "--seed", "2", "--B", "60", "--method", "boot-g",
    ]) == 0
    summary = json.loads((inf_dir / "summary.json").read_text())
    assert summary["gamma_hat"] == pytest.approx(truth["gamma_observed"], rel=0.10)


def test_curve_command_artifacts(tmp_path):
    rc = main(["curve", "--data", str(FIXTURE), "--family", "logistic",
               "--out", str(tmp_path), "--seed", "3", "--grid", "8", "--reps", "2"])
    assert rc == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("# eta_tilde=")
    assert lines[2].startswith("# gamma_hat=")
    header = lines[3].split(",")
    assert header == ["s", "gamma", "replicate", "eta_hat", "eta_smooth"]
    rows = [ln.split(",") for ln in lines[4:]]
    s0 = [r for r in rows if float(r[0]) == 0.0]
    assert s0 and all(float(r[1]) == 0.0 for r in s0)  # s=0 knot has gamma=0
    # smoothed column non-decreasing in gamma
    by_gamma = sorted({(float(r[1]), float(r[4])) for r in rows})
    smooth = [e for _, e in by_gamma]
    assert all(b >= a - 1e-12 for a, b in zip(smooth, smooth[1:]))


def test_curve_command_draws_the_curve_of_infer(tmp_path):
    common = ["--data", str(FIXTURE), "--family", "logistic", "--seed", "3"]
    assert main(["curve", *common, "--out", str(tmp_path / "curve")]) == 0
    assert main(["infer", *common, "--method", "boot-g", "--out", str(tmp_path / "inf")]) == 0
    comments = (tmp_path / "curve" / "curve.csv").read_text().splitlines()[1:3]
    summary = json.loads((tmp_path / "inf" / "summary.json").read_text())
    assert comments == [
        f"# eta_tilde={fmt(summary['eta_tilde'])}",
        f"# gamma_hat={fmt(summary['gamma_hat'])}",
    ]


def test_coverage_command_runs_and_reports(tmp_path, capsys):
    spec_path = tmp_path / "design.json"
    spec_path.write_text(json.dumps(_DESIGN_JSON))
    out = tmp_path / "cov"
    rc = main(["coverage", "--design", str(spec_path), "--out", str(out),
               "--seed", "5", "--n-reps", "3", "--B", "40",
               "--method", "classical", "--method", "boot-g",
               "--gamma-mode", "known", "--level", "0.9"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "classical" in table and "boot-g" in table
    report = json.loads((out / "coverage.json").read_text())
    assert report["n_reps"] == 3
    csv_lines = (out / "coverage.csv").read_text().splitlines()
    assert csv_lines[1].split(",")[0] == "method"
    assert len(csv_lines) == 2 + 2  # schema comment + header + 2 method rows


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "FIX", "--family", "logistic", "--seed", "7"],
        ["infer", "--data", "FIX", "--family", "logistic", "--seed", "7",
         "--B", "60", "--method", "boot-g"],
        ["curve", "--data", "FIX", "--family", "logistic", "--seed", "7",
         "--grid", "6", "--reps", "1"],
        ["simulate", "--design", "pareto-small", "--seed", "7"],
    ],
    ids=["fit", "infer", "curve", "simulate"],
)
def test_commands_are_byte_deterministic(tmp_path, argv):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        full = [
            (str(FIXTURE) if a == "FIX" else a) for a in argv
        ] + ["--out", str(out)]
        assert main(full) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert _read(outs[0] / name) == _read(outs[1] / name), name


def _checkout_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's src."""
    src = str(Path(resizedboot.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_matches_in_process_main(tmp_path):
    # a fresh interpreter runs __main__ and starts its BLAS thread pools anew;
    # coverage also starts its worker processes from that entry point
    env = _checkout_env()
    commands = {
        "fit": ["fit", "--data", str(FIXTURE), "--family", "logistic", "--seed", "7"],
        "coverage": ["coverage", "--design", "pareto-small", "--seed", "7",
                     "--n-reps", "3", "--B", "40", "--gamma-mode", "known",
                     "--method", "classical", "--method", "boot-g"],
    }
    for command, argv in commands.items():
        sub, inproc = tmp_path / command / "sub", tmp_path / command / "inproc"
        proc = subprocess.run(
            [sys.executable, "-m", "resizedboot", *argv, "--out", str(sub)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert main(argv + ["--out", str(inproc)]) == 0
        names = sorted(p.name for p in sub.iterdir())
        assert names == sorted(p.name for p in inproc.iterdir()) and names
        for name in names:
            assert _read(sub / name) == _read(inproc / name), (command, name)


def test_commands_load_no_optimisation_or_sparse_scipy(tmp_path):
    # the method needs only SciPy's linalg and special; the LP separability
    # check and other test oracles live in tests/oracles.py
    script = (
        "import sys\n"
        "from resizedboot.cli import main\n"
        f"data, out = {str(FIXTURE)!r}, {str(tmp_path)!r}\n"
        "for cmd in ('fit', 'curve'):\n"
        "    argv = [cmd, '--data', data, '--family', 'logistic', '--seed', '7']\n"
        "    assert main(argv + ['--out', out + '/' + cmd]) == 0, cmd\n"
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.sparse',\n"
        "                           'scipy.spatial', 'scipy.stats') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=_checkout_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"


def _stat(pid: str) -> list[str]:
    """Fields of /proc/PID/stat after the command name: state, ppid, ..."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return ["gone", ""]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_coverage_workers_end_with_a_killed_caller(tmp_path):
    src = str(Path(resizedboot.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "resizedboot", "coverage", "--design", "pareto-small",
         "--n-reps", "40", "--B", "1000", "--gamma-mode", "known",
         "--method", "boot-t", "--out", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and time.monotonic() < deadline:
            time.sleep(0.1)
            workers = [
                d.name for d in Path("/proc").iterdir()
                if d.name.isdigit() and _stat(d.name)[1] == str(proc.pid)
            ]
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert workers, "the pool started no workers"
    # a killed worker is a zombie until its new parent reaps it
    deadline = time.monotonic() + 10
    try:
        while any(_stat(w)[0] not in ("Z", "gone") for w in workers):
            assert time.monotonic() < deadline, "a worker outlived its caller"
            time.sleep(0.1)
    finally:
        for w in workers:
            if _stat(w)[0] not in ("Z", "gone"):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(w), signal.SIGKILL)


def test_fit_command_probit_family(tmp_path):
    rc = main(["fit", "--data", str(FIXTURE), "--family", "probit",
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "converged"
    # probit coefficients sit near logistic ones divided by ~1.7
    assert all(math.isfinite(b) for b in summary["beta_hat"])
