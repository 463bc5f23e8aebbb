"""One workload's process: runs ``resizedboot.cli.main`` in process, repeatedly.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``argvs`` (one CLI argument list per dataset), ``seconds``,
``trace`` and the paths ``result`` and ``spans`` to write. Rounds run whole,
one after another, cycling through the datasets, while the time spent plus
one more round stays within ``seconds``; at least one round runs. A round is
one command, or with ``trace`` one untraced and one traced command on the
same dataset, in alternating order, so that the tracing overhead is measured
against untraced commands of the same process. Each command is recorded as
[wall time, steal per CPU during it], both in seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from clock import stolen_s
from resizedboot import cli
from tracing import Tracer, layer_metrics


def run_command(argv: list[str]) -> tuple[float, float, str | None]:
    """Wall time of one CLI call, the steal per CPU during it, and its error
    text (None on success)."""
    out = io.StringIO()
    stolen = stolen_s()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        err = None if code == 0 else f"exit {code}: {out.getvalue().strip()}"
    except Exception:  # a crash is one failed operation, not a failed benchmark
        err = traceback.format_exc()
    return perf_counter() - start, stolen_s() - stolen, err


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    argvs = spec["argvs"]
    tracer = Tracer()
    walls, traced_walls, layers, spans, errors = [], [], [], [], []

    def untraced(argv):
        wall, stolen, err = run_command(argv)
        walls.append((wall, stolen))
        return err

    def traced(argv):
        tracer.install()
        try:
            wall, stolen, err = run_command(argv)
        finally:
            tracer.uninstall()
        traced_walls.append((wall, stolen))
        taken = tracer.take()
        layers.append(layer_metrics(taken))
        spans.extend(taken)
        return err

    rounds = [[untraced, traced], [traced, untraced]] if spec["trace"] else [[untraced]]
    start = perf_counter()
    for i in itertools.count():
        argv = argvs[i % len(argvs)]
        errors.extend(err for err in (cmd(argv) for cmd in rounds[i % len(rounds)]) if err)
        per_round = sum(statistics.median(w for w, _ in ws) for ws in (walls, traced_walls) if ws)
        if perf_counter() - start + per_round > spec["seconds"]:
            break

    Path(spec["result"]).write_text(json.dumps({
        "rounds": i + 1,
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "resizedboot_file": cli.__file__,
    }), encoding="utf-8")
    if spec["trace"]:
        # one span per line: [id, parent, name, start, end, info]
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
