"""Per-layer tracing of one anonytope CLI call.

Run as a script, this is the traced entry point: it imports the package,
replaces the public functions listed in ``TRACED`` with timing wrappers,
calls ``anonytope.cli.main`` with the remaining arguments and, at exit,
writes the spans (name, start, end, parent, thread) and the counters to
``<prefix>.npy`` / ``<prefix>.json``::

    PYTHONPATH=src python3 perfbench/tracing.py <prefix> sweep --input ...

Imported, it turns those files into per-layer numbers (``layer_metrics``).
The program itself is not changed: wrappers sit on the module attributes
the code calls through, so a function that a later change removes or
stops calling reads as zero calls.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "geometry", "anonymity", "complexes", "homology", "svg",
          "categorical")


def _rows(args, result):
    rows = getattr(result, "rows", result)
    return {"cli.rows": len(rows)}


def _meb_points(args, result):
    return {"geometry.min_enclosing_ball.points": len(args[0])}


def _regimes(args, result):
    return {"anonymity.regimes": len(result)}


def _achieved(args, result):
    return {"anonymity.check_k_anonymity.achieved": int(result.achieved)}


def _simplices(args, result):
    return {"complexes.simplices": len(result.entries)}


def _bars(args, result):
    cap = args[1].dim_cap
    out = {"homology.bars.all": len(result.bars), "homology.bars.useful": 0}
    for b in result.bars:
        key = f"homology.bars.h{b.dim}"
        out[key] = out.get(key, 0) + 1
        if b.dim < cap and (b.death is None or b.death > b.birth):
            out["homology.bars.useful"] += 1
    return out


def _minimal_nodes(args, result):
    return {"categorical.minimal_nodes": len(result.nodes)}


# (home module, function, counter hook).  The span name is
# "<layer>.<function>"; a hook maps (args, result) to counter increments.
# Functions in COUNT_ONLY are called per cell; they get a call counter
# instead of a span, and their time stays in their caller's self time.
COUNT_ONLY = {"categorical.generalize_value"}
TRACED = (
    ("cli", "main", None),
    ("cli", "ingest_csv", _rows),
    ("geometry", "normalize_dataset", None),
    ("geometry", "min_enclosing_ball", _meb_points),
    ("anonymity", "check_k_anonymity", _achieved),
    ("anonymity", "compute_regimes", _regimes),
    ("anonymity", "minimal_epsilon", None),
    ("anonymity", "generalize_table", None),
    ("anonymity", "regime_report", None),
    ("complexes", "build_filtration", _simplices),
    ("complexes", "build_anonymity_complex", None),
    ("homology", "boundary_matrix", None),
    ("homology", "reduce_matrix", None),
    ("homology", "barcode", _bars),
    ("homology", "weighted_h0_barcode", None),
    ("homology", "barcode_json", None),
    ("homology", "homology_dims_at", None),
    ("svg", "render_barcode_svg", None),
    ("categorical", "load_trees", None),
    ("categorical", "lattice_search", _minimal_nodes),
    ("categorical", "chain_sweep", None),
    ("categorical", "generalized_partition_at", None),
    ("categorical", "generalize_value", None),
    ("categorical", "chain_report_json", None),
)


class Tracer:
    """Span and counter store for one process.

    A span is (id, name index, parent id, thread id, start, end); the
    parent is the innermost traced call still open on the same thread,
    -1 for none.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name_id, parent, ident(), t0, t1))
            if hook is not None:
                self._count(hook, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn):
        key, counters = f"{name}.calls", self.counters
        counters[key] = 0

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count(self, hook, args, result):
        # tracing must never change the program's outcome
        try:
            increments = hook(args, result)
        except Exception:  # noqa: BLE001
            increments = {"trace.hook_errors": 1}
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def install(self, package: str) -> None:
        """Wrap each TRACED function in every loaded module of the package
        that holds a reference to it; a module or function that no longer
        exists is skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for home, func, hook in TRACED:
            original = getattr(sys.modules.get(f"{package}.{home}"), func,
                               None)
            if original is None:
                continue
            name = f"{home}.{func}"
            wrapper = self.count_calls(name, original) \
                if name in COUNT_ONLY else self.wrap(name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, prefix: str, meta: dict) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.save(f"{prefix}.npy", arr)
        meta = dict(meta, names=self.names, counters=self.counters,
                    main_thread=threading.main_thread().ident)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _entry() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    import anonytope.cli as cli
    imported_at = time.perf_counter()
    tracer = Tracer()
    tracer.install("anonytope")
    try:
        return cli.main(argv)
    finally:
        tracer.dump(prefix, {"imported_at": imported_at})


# ---------------------------------------------------------------------------
# analysis, in the benchmark process


def _step_integrals(starts, ends):
    """Breakpoints t and the integrals F (of 1/n, n > 0) and G (of [n == 0])
    from the first breakpoint, where n(t) counts intervals open at t."""
    times = np.concatenate([starts, ends])
    delta = np.concatenate([np.ones(len(starts)), -np.ones(len(ends))])
    order = np.argsort(times, kind="stable")
    times, n = times[order], np.cumsum(delta[order])
    dt = np.diff(times)
    share = np.where(n[:-1] > 0, 1.0 / np.maximum(n[:-1], 1), 0.0)
    idle = (n[:-1] <= 0).astype(float)
    f = np.concatenate([[0.0], np.cumsum(dt * share)])
    g = np.concatenate([[0.0], np.cumsum(dt * idle)])
    return times, f, g


def _union(starts, ends) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts, ends)):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans: np.ndarray, main_thread: int) -> np.ndarray:
    """Self time of every span: the wall time during which it was the
    innermost open span.

    Spans nest within a thread.  Calls running on other threads share
    each instant equally, and the main thread is taken to wait on them
    while any runs (the CLI blocks on its pool), so the self times sum to
    the wall time covered by the spans.
    """
    tid, t0, t1 = spans[:, 3], spans[:, 4], spans[:, 5]
    worker = tid != main_thread
    weight = t1 - t0
    roots = worker & (spans[:, 2] < 0)
    if roots.any():
        times, f, g = _step_integrals(t0[roots], t1[roots])

        def idle(t):    # time with no worker open, linear outside them
            return (np.interp(t, times, g) + np.maximum(t - times[-1], 0)
                    + np.minimum(t - times[0], 0))

        weight = np.where(worker,
                          np.interp(t1, times, f) - np.interp(t0, times, f),
                          idle(t1) - idle(t0))
    parent = _parent_rows(spans)
    out = weight.copy()
    nested = parent >= 0
    np.subtract.at(out, parent[nested], weight[nested])
    return out


def _parent_rows(spans: np.ndarray) -> np.ndarray:
    """Row of each span's parent in ``spans``, -1 for none."""
    sid = spans[:, 0].astype(np.int64)
    pos = np.full(int(sid.max(initial=-1)) + 2, -1)   # last slot: none
    pos[sid] = np.arange(len(sid))
    parent = spans[:, 2].astype(np.int64)
    return pos[np.clip(parent, -1, len(pos) - 1)]


# reported per-layer metrics and their units, in print order
PER_LAYER = {
    "cli.ingest_csv.s": "s",
    "cli.ingest_csv.calls": "count",
    "cli.rows": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "geometry.normalize_dataset.s": "s",
    "geometry.min_enclosing_ball.calls": "count",
    "geometry.min_enclosing_ball.s": "s",
    "geometry.min_enclosing_ball.points": "count",
    "anonymity.compute_regimes.calls": "count",
    "anonymity.compute_regimes.s": "s",
    "anonymity.compute_regimes.span_sum_s": "s",
    "anonymity.compute_regimes.wall_s": "s",
    "anonymity.compute_regimes.meb_calls": "count",
    "anonymity.regimes": "count",
    "anonymity.regimes_per_meb": "ratio",
    "anonymity.check_k_anonymity.calls": "count",
    "anonymity.check_k_anonymity.s": "s",
    "anonymity.check_k_anonymity.achieved_ratio": "ratio",
    "complexes.build_filtration.s": "s",
    "complexes.build_filtration.meb_calls": "count",
    "complexes.simplices": "count",
    "homology.boundary_matrix.s": "s",
    "homology.reduce_matrix.s": "s",
    "homology.barcode.s": "s",
    "homology.weighted_h0_barcode.s": "s",
    "homology.barcode_json.s": "s",
    "homology.bars.h0": "count",
    "homology.bars.h1": "count",
    "homology.bars.h2": "count",
    "homology.useful_bar_ratio": "ratio",
    "svg.render_barcode_svg.calls": "count",
    "svg.render_barcode_svg.s": "s",
    "svg.bytes": "bytes",
    "categorical.load_trees.s": "s",
    "categorical.lattice_search.s": "s",
    "categorical.generalized_partition_at.calls": "count",
    "categorical.generalized_partition_at.s": "s",
    "categorical.generalize_value.calls": "count",
    "categorical.minimal_nodes_per_evaluated": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.import_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def answer_totals(prefix: str, spawned_at: float) -> dict[str, float]:
    """Additive numbers of one traced call: calls and self time per
    traced function, the counters, the MEB calls made directly by each
    caller, and the time from spawning the process to the end of
    ``import anonytope.cli`` (both ends read the system-wide monotonic
    clock that ``time.perf_counter`` uses on Linux)."""
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    spans = np.load(f"{prefix}.npy")
    names = meta["names"]
    name_id = spans[:, 1].astype(np.int64)
    own = self_times(spans, meta["main_thread"])
    calls = np.bincount(name_id, minlength=len(names))
    selfs = np.bincount(name_id, weights=own, minlength=len(names))
    out = dict(meta["counters"])
    for i, name in enumerate(names):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + float(calls[i])
        out[f"{name}.s"] = float(selfs[i])
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) \
            + float(selfs[i])
    parent = _parent_rows(spans)
    parent_id = np.where(parent >= 0, name_id[parent], -1)
    if "geometry.min_enclosing_ball" in names:
        meb = name_id == names.index("geometry.min_enclosing_ball")
        for caller in ("anonymity.compute_regimes",
                       "complexes.build_filtration"):
            if caller in names:
                out[f"{caller}.meb_calls"] = float(np.count_nonzero(
                    meb & (parent_id == names.index(caller))))
    if "anonymity.compute_regimes" in names:
        mask = name_id == names.index("anonymity.compute_regimes")
        out["anonymity.compute_regimes.span_sum_s"] = float(
            (spans[mask, 5] - spans[mask, 4]).sum())
        out["anonymity.compute_regimes.wall_s"] = _union(spans[mask, 4],
                                                         spans[mask, 5])
    out["trace.import_s"] = meta["imported_at"] - spawned_at
    return out


def layer_metrics(totals: list[dict], traced_wall: list[float],
                  plain_wall: list[float]) -> dict[str, float]:
    """The PER_LAYER metrics: each additive number averaged over the
    traced answers, ratios formed from those averages."""
    mean = {}
    for t in totals:
        for key, value in t.items():
            mean[key] = mean.get(key, 0.0) + value / len(totals)

    def get(key):
        return mean.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "cli.main.self_s": get("cli.main.s"),
        "anonymity.regimes_per_meb": ratio(
            get("anonymity.regimes"),
            get("anonymity.compute_regimes.meb_calls")),
        "anonymity.check_k_anonymity.achieved_ratio": ratio(
            get("anonymity.check_k_anonymity.achieved"),
            get("anonymity.check_k_anonymity.calls")),
        "homology.useful_bar_ratio": ratio(get("homology.bars.useful"),
                                           get("homology.bars.all")),
        "categorical.minimal_nodes_per_evaluated": ratio(
            get("categorical.minimal_nodes"),
            get("categorical.generalized_partition_at.calls")),
        "trace.accounted_ratio": ratio(
            get("trace.import_s")
            + sum(get(f"{layer}.self_s") for layer in LAYERS),
            float(np.mean(traced_wall))),
        "trace.overhead_ratio": ratio(float(np.mean(traced_wall)),
                                      float(np.mean(plain_wall))),
    }
    return {key: derived[key] if key in derived else get(key)
            for key in PER_LAYER}


if __name__ == "__main__":
    sys.exit(_entry())
