"""Command-line front end.

Subcommands:
  fit       MLE plus classical Wald intervals
  infer     full pipeline: fit -> eta -> gamma -> resize -> bootstrap -> CIs
  simulate  draw a named or JSON-specified design and export it to CSV
  coverage  Monte Carlo coverage experiment over a design
  curve     dump the simulated eta(gamma) curve for one dataset

All randomness flows from --seed; running any command twice with the same
arguments produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._blas import scipy_blas_single_thread
from .coverage import (
    _GAMMA_KEY,
    METHODS,
    check_methods,
    fit_or_fail,
    infer,
    run_coverage,
)
from .designs import DESIGN_NAMES, DesignSpec, generate_dataset, named_design
from .exceptions import CsvParseError, ResizedBootError
from .families import FAMILY_NAMES, get_family
from .fitting import Dataset
from .intervals import classical_se, classical_wald_ci
from .rng import child_seed
from .serialize import SCHEMA_VERSION, fmt, write_csv, write_json
from .signal_strength import estimate_gamma


# ----------------------------------------------------------------------
# dataset CSV I/O
# ----------------------------------------------------------------------

def parse_dataset_csv(path, family, has_intercept: bool = False) -> Dataset:
    """Read a dataset CSV: header row, response column named 'y' first,
    numeric covariate columns after. Lines starting with '#' are skipped.
    When ``has_intercept`` is set, a column of ones is prepended."""
    family = get_family(family)
    rows: list[np.ndarray] = []
    line_numbers: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                if not header or header[0] != "y":
                    raise CsvParseError(
                        f"{path}: line {lineno}: first column must be named 'y'"
                    )
                if len(header) < 2:
                    raise CsvParseError(
                        f"{path}: line {lineno}: no covariate columns found"
                    )
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(cells)}"
                )
            vals = []
            for col, cell in zip(header, cells):
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {lineno}: column '{col}': "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"{path}: line {lineno}: column '{col}': "
                        "non-finite value rejected"
                    )
                vals.append(v)
            rows.append(np.array(vals))
            line_numbers.append(lineno)
    if header is None:
        raise CsvParseError(f"{path}: empty file")
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    # rows are kept as float64 arrays, as lists of Python floats would take
    # about 4x the memory, and are dropped once stacked
    arr = np.stack(rows)
    del rows
    y, X = arr[:, 0], arr[:, 1:]
    try:
        family.validate_y(y)
    except ResizedBootError as exc:
        bad = _first_bad_response(y, family)
        if bad is not None:
            raise CsvParseError(
                f"{path}: line {line_numbers[bad]}: invalid response {y[bad]!r} "
                f"for family {family.name}"
            ) from None
        raise CsvParseError(f"{path}: {exc}") from None
    if has_intercept:
        X = np.hstack([np.ones((X.shape[0], 1)), X])
    if X.shape[0] < X.shape[1] + 1:
        raise CsvParseError(
            f"{path}: n >= p+1 required; got n={X.shape[0]}, p={X.shape[1]}"
        )
    return Dataset(X=X, y=y, family=family, has_intercept=has_intercept)


def _first_bad_response(y: np.ndarray, family) -> int | None:
    for i, v in enumerate(y):
        if family.is_binary:
            if v not in (0.0, 1.0, -1.0):
                return i
        elif v < 0 or v != math.floor(v):
            return i
    return None  # e.g. a mixed {0,-1} encoding: no single offending row


def export_dataset_csv(path, data: Dataset) -> None:
    """Inverse of parse_dataset_csv (intercept column is not written)."""
    X = data.X[:, 1:] if data.has_intercept else data.X
    header = ["y"] + [f"x{j}" for j in range(X.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(data.n):
            fh.write(",".join([fmt(data.y[i])] + [fmt(v) for v in X[i]]) + "\n")


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _error_json(exc: Exception) -> str:
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    )


def _resolve_design(value: str, seed: int) -> DesignSpec:
    if value in DESIGN_NAMES:
        return named_design(value, seed=seed)
    path = Path(value)
    if path.exists():
        # --seed wins over the file so reruns stay reproducible from the CLI
        return dataclasses.replace(DesignSpec.from_json_file(path), seed=seed)
    raise ResizedBootError(
        f"--design {value!r} is neither a named design {sorted(DESIGN_NAMES)} "
        "nor a JSON file"
    )


def _load_data(args) -> Dataset:
    if getattr(args, "data", None):
        if not args.family:
            raise ResizedBootError("--family is required with --data")
        return parse_dataset_csv(args.data, args.family, args.intercept)
    if getattr(args, "design", None):
        data, _, _ = generate_dataset(_resolve_design(args.design, args.seed))
        return data
    raise ResizedBootError("exactly one of --data / --design is required")


def _write_intervals(out: Path, intervals: list) -> None:
    rows = []
    records = []
    for ci in intervals:
        for j in range(ci.lo.shape[0]):
            rows.append(
                [str(j), ci.method, fmt(ci.level), fmt(ci.lo[j]), fmt(ci.hi[j])]
            )
            records.append(
                {
                    "coordinate": j,
                    "method": ci.method,
                    "level": ci.level,
                    "lo": ci.lo[j],
                    "hi": ci.hi[j],
                }
            )
    write_csv(out / "intervals.csv", ["coordinate", "method", "level", "lo", "hi"], rows)
    write_json(out / "intervals.json", {"schema_version": SCHEMA_VERSION, "intervals": records})


def _methods_and_b(args) -> tuple[list[str], int]:
    """The requested methods, and B: by default 100, or 10000 with boot-t."""
    methods = args.method or ["classical", "boot-g", "boot-t"]
    B = args.B if args.B is not None else (10000 if "boot-t" in methods else 100)
    return methods, B


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_fit(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _load_data(args)
    fit = fit_or_fail(data)
    intervals = [classical_wald_ci(fit, lv) for lv in args.level]
    _write_intervals(out, intervals)
    write_json(
        out / "summary.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "fit",
            "family": data.family.name,
            "n": data.n,
            "p": data.p,
            "beta_hat": fit.beta_hat,
            "se_classical": classical_se(fit),
            "status": fit.status.value,
            "grad_norm": fit.grad_norm,
            "seed": args.seed,
        },
    )
    return 0


def cmd_infer(args) -> int:
    methods, B = _methods_and_b(args)
    check_methods(methods, args.level, B)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _load_data(args)
    inference = infer(
        data, methods=methods, levels=args.level, B=B, seed=args.seed,
        gamma=args.known_gamma, grid_size=args.grid, reps=args.reps,
    )
    _write_intervals(
        out, [inference.interval(m, lv) for lv in args.level for m in methods]
    )
    fit, resized, summary = inference.fit, inference.resized, inference.summary
    if args.dump_boot and summary is not None:
        write_csv(
            out / "boot_mles.csv",
            [f"beta{j}" for j in range(data.p)],
            ([fmt(v) for v in row] for row in summary.boot_mles),
        )
    write_json(
        out / "summary.json",
        {
            "beta_hat": fit.beta_hat,
            "alpha_hat": summary.alpha_hat if summary else None,
            "sigma_hat": summary.sigma_hat if summary else None,
            "gamma_hat": inference.gamma_hat,
            "eta_tilde": inference.eta_tilde,
            "scale_s": resized.scale_s if resized else None,
            "n_failed": summary.n_failed if summary else 0,
            "seed": args.seed,
            "schema_version": SCHEMA_VERSION,
        },
    )
    return 0


def cmd_simulate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = _resolve_design(args.design, args.seed)
    data, beta, gamma_obs = generate_dataset(spec)
    export_dataset_csv(out / "dataset.csv", data)
    write_json(out / "design.json", spec.to_json_dict())
    write_json(
        out / "truth.json",
        {
            "schema_version": SCHEMA_VERSION,
            "family": spec.family,
            "n": spec.n,
            "p": spec.p,
            "beta_true": beta,
            "gamma_observed": gamma_obs,
            "seed": args.seed,
        },
    )
    return 0


def cmd_coverage(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = _resolve_design(args.design, args.seed)
    methods, B = _methods_and_b(args)
    report = run_coverage(
        spec,
        methods=methods,
        levels=args.level,
        n_reps=args.n_reps,
        B=B,
        seed=args.seed,
        gamma_mode=args.gamma_mode,
        grid_size=args.grid,
        reps=args.reps,
        fix_x=args.fix_x,
    )
    write_json(out / "coverage.json", report.to_json_dict())
    write_csv(
        out / "coverage.csv",
        ["method", "level", "qbar", "qbar_se", "qj_nonnull", "qj_nonnull_se",
         "qj_null", "qj_null_se"],
        (
            [r["method"], fmt(r["level"]), fmt(r["qbar"]), fmt(r["qbar_se"]),
             fmt(r["qj_nonnull"]), fmt(r["qj_nonnull_se"]),
             fmt(r["qj_null"]), fmt(r["qj_null_se"])]
            for r in report.summary_rows()
        ),
    )
    print(report.format_table())
    return 0


def cmd_curve(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _load_data(args)
    fit = fit_or_fail(data)
    curve = estimate_gamma(
        data, fit, grid_size=args.grid, reps=args.reps,
        seed=child_seed(args.seed, _GAMMA_KEY),
    )
    smooth_at = dict(zip(curve.smooth_gamma.tolist(), curve.smooth_eta.tolist()))
    rows = []
    for i, (s, g) in enumerate(zip(curve.s_grid, curve.gamma_grid)):
        for j in range(curve.eta_samples.shape[1]):
            e = curve.eta_samples[i, j]
            if math.isnan(e):
                continue
            rows.append([fmt(s), fmt(g), str(j), fmt(e), fmt(smooth_at.get(float(g), float("nan")))])
    write_csv(
        out / "curve.csv",
        ["s", "gamma", "replicate", "eta_hat", "eta_smooth"],
        rows,
        comments=[
            f"eta_tilde={fmt(curve.eta_tilde)}",
            f"gamma_hat={fmt(curve.gamma_hat)}",
        ],
    )
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(sp, data_source: bool, design_only: bool = False) -> None:
    sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sp.add_argument("--out", default=".", help="output directory")
    if design_only:
        sp.add_argument("--design", required=True,
                        help=f"named design {sorted(DESIGN_NAMES)} or JSON file")
        return
    if data_source:
        sp.add_argument("--data", help="dataset CSV (header row, 'y' first)")
        sp.add_argument("--design",
                        help=f"named design {sorted(DESIGN_NAMES)} or JSON file")
        sp.add_argument("--family", choices=FAMILY_NAMES + ("poisson",),
                        help="response family (required with --data)")
        sp.add_argument("--intercept", action="store_true",
                        help="prepend an intercept column to CSV data")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resizedboot",
        description="Resized parametric bootstrap inference for high-dimensional GLMs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="MLE and classical Wald intervals")
    _add_common(fit, data_source=True)
    fit.add_argument("--level", type=float, action="append", default=None)
    fit.set_defaults(func=cmd_fit)

    infer = sub.add_parser("infer", help="full resized-bootstrap pipeline")
    _add_common(infer, data_source=True)
    infer.add_argument("--level", type=float, action="append", default=None)
    infer.add_argument("--B", type=int, default=None,
                       help="bootstrap replicates (default 100, or 10000 with boot-t)")
    infer.add_argument("--grid", type=int, default=10, help="signal-curve knots")
    infer.add_argument("--reps", type=int, default=3, help="replicates per knot")
    infer.add_argument("--known-gamma", type=float, default=None,
                       help="skip estimation and use this signal strength")
    infer.add_argument("--method", action="append", choices=METHODS, default=None)
    infer.add_argument("--dump-boot", action="store_true",
                       help="also write the bootstrap MLE matrix")
    infer.set_defaults(func=cmd_infer)

    sim = sub.add_parser("simulate", help="draw a design and export to CSV")
    _add_common(sim, data_source=False, design_only=True)
    sim.set_defaults(func=cmd_simulate)

    cov = sub.add_parser("coverage", help="Monte Carlo coverage experiment")
    _add_common(cov, data_source=False, design_only=True)
    cov.add_argument("--level", type=float, action="append", default=None)
    cov.add_argument("--n-reps", type=int, default=100, help="repetitions")
    cov.add_argument("--B", type=int, default=None)
    cov.add_argument("--grid", type=int, default=8)
    cov.add_argument("--reps", type=int, default=2)
    cov.add_argument("--gamma-mode", choices=("known", "estimated"),
                     default="estimated")
    cov.add_argument("--method", action="append", choices=METHODS, default=None)
    cov.add_argument("--fix-x", action="store_true",
                     help="hold the covariate matrix fixed across repetitions")
    cov.set_defaults(func=cmd_coverage)

    curve = sub.add_parser("curve", help="dump the simulated eta(gamma) curve")
    _add_common(curve, data_source=True)
    curve.add_argument("--grid", type=int, default=10)
    curve.add_argument("--reps", type=int, default=3)
    curve.set_defaults(func=cmd_curve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "level", None) is None and hasattr(args, "level"):
        args.level = [0.95]
    if hasattr(args, "level"):
        for lv in args.level:
            if not 0.0 < lv < 1.0:
                print(_error_json(ValueError(f"--level must be in (0,1); got {lv}")))
                return 1
    try:
        # process-wide thread state belongs to the application, not the library
        with scipy_blas_single_thread():
            return args.func(args)
    except (ResizedBootError, OSError, ValueError) as exc:
        print(_error_json(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
