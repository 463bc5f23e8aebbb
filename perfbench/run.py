"""Benchmark of the resizedboot command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run draws the workload's input datasets from --seed, times a fresh
interpreter's import of ``resizedboot.cli`` (set-up), then starts one worker
process that calls ``resizedboot.cli.main`` in process, command after
command, cycling through the datasets, for about --seconds. The output on
every dataset used is checked for correctness. The last line printed is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, from traced
commands that alternate with untraced ones. Every time reported is wall
time less the CPU time the hypervisor stole from the machine meanwhile, per
CPU (see clock.py). A full record of the run,
machine description included, is written to
perfbench/out/<workload>-seed<N>-trace<T>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CheckFailed, check
from clock import stolen_s
from inputs import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "cpu": platform.processor() or platform.machine(),
    }


def time_setup(env: dict) -> list[list[float]]:
    """[wall time, steal per CPU] of fresh interpreters that import the CLI."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        stolen = stolen_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import resizedboot.cli"], env=env, check=True,
                       timeout=60)
        samples.append([time.perf_counter() - start, stolen_s() - stolen])
    return samples


def net_median(samples) -> float:
    """Median of wall time less steal, over [wall, steal] samples."""
    return statistics.median(wall - stolen for wall, stolen in samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "resizedboot" / "cli.py").is_file():
        print(f"no program source at {src / 'resizedboot'}; run from the checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    workload = WORKLOADS[args.workload]
    work = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    datasets = prepare(workload, args.seed, work)

    setup = time_setup(env)

    spec = work / "worker.json"
    spec.write_text(json.dumps({
        "argvs": [argv for argv, _ in datasets], "seconds": args.seconds, "trace": bool(args.trace),
        "result": str(work / "worker_result.json"), "spans": str(work / "spans.jsonl"),
    }), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)], env=env, check=True,
                   timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)))
    res = json.loads((work / "worker_result.json").read_text(encoding="utf-8"))
    if not Path(res["resizedboot_file"]).resolve().is_relative_to(src.resolve()):
        print(f"measured {res['resizedboot_file']}, not the checkout's program", file=sys.stderr)
        return 2

    problem = None
    for k, (_, inputs) in enumerate(datasets[: res["rounds"]]):
        try:
            check(workload, inputs, work / f"program-{k}")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            # a missing or unreadable output file fails the check too
            problem = f"dataset {k}: {type(exc).__name__}: {exc}"
            break
    walls, traced_walls = res["walls"], res["traced_walls"]
    if args.trace:
        names = res["layers"][0]
        metrics = {
            name: {"value": statistics.median(m[name] for m in res["layers"]), "unit": _unit(name)}
            for name in names
        }
        metrics["trace.wall_s"] = {"value": net_median(traced_walls), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": net_median(traced_walls) - net_median(walls), "unit": "s"
        }
    else:
        metrics = {
            "wall_s": {"value": net_median(walls), "unit": "s"},
            "setup_s": {"value": net_median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    line = {
        "correct": problem is None,
        "attempted": len(walls) + len(traced_walls),
        "failed": len(res["errors"]),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argvs": [argv for argv, _ in datasets], "machine": machine(root),
        # [wall, steal per CPU] per sample, in seconds
        "setup_samples_s": setup, "wall_samples_s": walls, "traced_wall_samples_s": traced_walls,
        "check_failure": problem, "errors": res["errors"], **line,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
