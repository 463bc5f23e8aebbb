"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` wraps each public function of the package where its
callers look it up: every ``resizedboot`` module attribute that is the
function object is replaced, so ``newton_fit`` is traced whether it is
reached through ``fitting``, ``bootstrap``, ``signal_strength`` or
``coverage``. Family methods are wrapped on the family instances, and the
Cholesky factorisations of the fitter through a stand-in for the
``scipy.linalg`` module that ``fitting`` uses.

Each span keeps its name, start, end, parent and one small result field in
memory. ``ThreadPoolExecutor.map`` does not carry context variables into its
workers, so the pool class the package uses is replaced by one that hands the
submitting span to the worker thread: bootstrap refits made in the pool stay
children of their ``run_bootstrap`` span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (defining module, function, span name); a name missing from the module is
# skipped, and its metrics then read 0.
TARGETS = (
    ("fitting", "newton_fit", "newton_fit"),
    ("sloe", "sloe_estimate", "sloe"),
    ("signal_strength", "estimate_gamma", "curve"),
    ("bootstrap", "run_bootstrap", "run_bootstrap"),
    ("coverage", "baseline_bootstraps", "baseline"),
    ("coverage", "run_coverage", "run_coverage"),
    ("designs", "gen_coefficients", "designs"),
    ("designs", "gen_covariates", "designs"),
    ("designs", "gen_response", "designs"),
    ("designs", "generate_dataset", "designs"),
    ("intervals", "classical_wald_ci", "intervals"),
    ("intervals", "boot_g_ci", "intervals"),
    ("intervals", "boot_t_ci", "intervals"),
    ("intervals", "classical_se", "classical_se"),
    ("cli", "parse_dataset_csv", "parse"),
    ("cli", "_write_intervals", "write"),
    ("serialize", "write_json", "write"),
    ("serialize", "write_csv", "write"),
)
FAMILY_METHODS = (
    ("nll", "family_nll"), ("d1", "family_eval"), ("d2", "family_eval"),
    ("simulate", "simulate"),
)

# what a span keeps of its function's result
_INFO = {
    "newton_fit": lambda r: (r.n_iter, r.status.value == "converged"),
    "run_coverage": lambda r: r.n_reps_requested,
}


class _LinalgStandIn:
    """``scipy.linalg`` with ``cho_factor`` traced; everything else passes."""

    def __init__(self, real, cho_factor):
        self._real = real
        self.cho_factor = cho_factor

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "base", None)

    def wrap(self, name, fn):
        info = _INFO.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "base", None)
            sid = next(ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (sid, parent, name, start, end,
                     info(result) if info and result is not None else None)
                )

        return traced

    def _pool_class(self):
        tracer = self

        class SpanCarryingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run(*a, **k):
                    saved = getattr(tracer._local, "base", None)
                    tracer._local.base = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.base = saved

                return super().submit(run, *args, **kwargs)

        return SpanCarryingPool

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "resizedboot" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import resizedboot.cli  # noqa: F401  (loads every module the CLI uses)
        from resizedboot import families

        for modname, fname, span in TARGETS:
            fn = getattr(sys.modules.get(f"resizedboot.{modname}"), fname, None)
            if fn is not None:
                self._replace_everywhere(fn, self.wrap(span, fn))
        self._replace_everywhere(ThreadPoolExecutor, self._pool_class())
        for fam in {families.get_family(n) for n in families.FAMILY_NAMES}:
            for meth, span in FAMILY_METHODS:
                setattr(fam, meth, self.wrap(span, getattr(fam, meth)))
                self._undo.append((fam, meth, None))
        fitting = sys.modules["resizedboot.fitting"]
        real = fitting.linalg
        fitting.linalg = _LinalgStandIn(real, self.wrap("cholesky", real.cho_factor))
        self._undo.append((fitting, "linalg", real))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._undo.clear()

    def take(self) -> list[tuple]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _union_length(intervals, lo, hi) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Reduce the spans of one command to the per-layer metrics."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
        by_name.setdefault(s[2], []).append(s)

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def dur(ss):
        return sum(s[4] - s[3] for s in ss)

    def self_time(ss):
        return sum(
            (s[4] - s[3])
            - _union_length([(c[3], c[4]) for c in children.get(s[0], ())], s[3], s[4])
            for s in ss
        )

    def outermost(ss, names):
        return [s for s in ss if s[1] not in by_id or by_id[s[1]][2] not in names]

    def under(ss, parents):
        ids = {p[0] for p in parents}
        return [s for s in ss if s[1] in ids]

    def mean_ms(ss):
        return 1000.0 * dur(ss) / len(ss) if ss else 0.0

    def ratio(ss):
        return sum(1 for s in ss if s[5] and s[5][1]) / len(ss) if ss else 0.0

    fits = named("newton_fit")
    chol = named("cholesky")
    nll = named("family_nll")
    evals = named("family_nll", "family_eval")
    curves = named("curve")
    boots = named("run_bootstrap")
    baselines = named("baseline")
    covs = named("run_coverage")
    designs = named("designs")
    iv_names = ("intervals", "classical_se")
    writes = named("write")
    iters = sum(s[5][0] for s in fits if s[5])
    reps = sum(s[5] for s in covs if s[5])
    return {
        "fitting.fits": len(fits),
        "fitting.newton_iters": iters,
        "fitting.self_s": self_time(fits),
        "fitting.cholesky_calls": len(chol),
        "fitting.cholesky_s": dur(chol),
        "fitting.converged_ratio": ratio(fits),
        "families.evals": len(evals),
        "families.s": dur(evals),
        # nll calls inside fits beyond the one per Newton loop pass
        "families.line_search_evals": len(under(nll, fits)) - len(fits) - iters,
        "families.simulate_s": dur(named("simulate")),
        "sloe.calls": len(named("sloe")),
        "sloe.s": dur(named("sloe")),
        "signal_strength.curve_s": dur(curves),
        "signal_strength.self_s": self_time(curves),
        "signal_strength.refit_ms": mean_ms(under(fits, curves)),
        "bootstrap.s": dur(boots),
        "bootstrap.self_s": self_time(boots),
        "bootstrap.refit_ms": mean_ms(under(fits, boots)),
        "bootstrap.kept_ratio": ratio(under(fits, boots)),
        "coverage.baseline_s": dur(baselines),
        "coverage.pairs_refit_ms": mean_ms(under(fits, baselines)),
        "coverage.rep_s": dur(covs) / reps if reps else 0.0,
        "coverage.self_s": self_time(covs),
        "designs.gen_s": dur(outermost(designs, ("designs",))),
        "intervals.s": dur(outermost(named(*iv_names), iv_names)),
        "intervals.classical_se_s": dur(named("classical_se")),
        "cli.parse_s": dur(named("parse")),
        "cli.write_s": dur(outermost(writes, ("write",))),
    }
