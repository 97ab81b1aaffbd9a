"""Per-layer tracing of the newsca package, installed from outside.

While a ``Tracer`` is installed, the public functions of each ``newsca``
module are replaced, on the names their callers look up, by wrappers that
record a span (name, start, end, parent) and exact counts at that boundary.
RNG calls are timed through a proxy returned by a patched
``newsca.engine.make_rng``. Spans are kept in flat arrays in memory and
written out once at the end; outputs of traced commands are unchanged.
"""
from __future__ import annotations

import functools
import math
import pathlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import newsca.cli
import newsca.engine
import newsca.model
from newsca.grid import Grid

# (module, attribute) -> span name. Several call sites of one function share
# a span name; analytics is reported as one layer.
WRAPPED = {
    (newsca.engine, "run"): "engine.run",
    (newsca.cli, "run"): "engine.run",
    (newsca.cli, "run_ensemble"): "engine.run_ensemble",
    (newsca.engine, "step"): "engine.step",
    (newsca.engine, "neighbor_counts"): "grid.neighbor_counts",
    (newsca.engine, "count_states"): "grid.count_states",
    (newsca.cli, "cross_point"): "analytics",
    (newsca.cli, "normalize"): "analytics",
    (newsca.cli, "stabilization_ratio"): "analytics",
    (newsca.cli, "fit_model"): "model.fit_model",
    (newsca.model, "fit_logistic"): "model.fit_logistic",
    (newsca.model, "minimize"): "model.optimizer",
    (newsca.cli, "write_series_csv"): "cli.write",
    (newsca.cli, "write_mean_series_csv"): "cli.write",
    (newsca.cli, "write_convergence_csv"): "cli.write",
    (newsca.cli, "write_model_csv"): "cli.write",
    (newsca.cli, "write_fit_series_csv"): "cli.write",
    (newsca.cli, "save_manifest"): "cli.write",
    (newsca.cli, "write_snapshots"): "cli.write_snapshots",
    (newsca.cli, "read_series_csv"): "cli.read_series_csv",
    (Grid, "__eq__"): "grid.eq",
}

# Per-layer metric -> unit; ``Tracer.metrics`` computes each.
PER_LAYER = {
    "engine.step.calls": "count",
    "engine.step.self_s": "s",
    "engine.rng.draws": "count",
    "engine.rng.s": "s",
    "engine.cell_updates": "count",
    "engine.run.self_s": "s",
    "engine.run_ensemble.aggregate_s": "s",
    "grid.neighbor_counts.calls": "count",
    "grid.neighbor_counts.s": "s",
    "grid.neighbor_counts.bytes_computed": "bytes",
    "grid.count_states.s": "s",
    "grid.eq.s": "s",
    "grid.new.count": "count",
    "analytics.s": "s",
    "model.fit_logistic.s": "s",
    "model.nfev": "count",
    "model.nit": "count",
    "model.fit.failed": "count",
    "cli.main.self_s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "cli.write_snapshots.s": "s",
    "cli.read_series_csv.s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in flat arrays plus exact counters, for one traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` then takes counts."""
        nid = self.nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {
            "engine.step": self._after_step,
            "grid.neighbor_counts": self._after_neighbor_counts,
            "model.fit_logistic": self._after_fit_logistic,
            "model.optimizer": self._after_optimizer,
        }
        for (owner, attr), name in WRAPPED.items():
            if hasattr(owner, attr):
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after.get(name)))

        make_rng = newsca.engine.make_rng
        self._patch(newsca.engine, "make_rng", lambda seed: RngProxy(make_rng(seed), self))

        post_init = Grid.__post_init__

        def counted_post_init(grid) -> None:
            self.counts["grid.new"] += 1
            post_init(grid)

        self._patch(Grid, "__post_init__", counted_post_init)

        write_text = pathlib.Path.write_text

        def counted_write_text(path, data, *args, **kwargs):
            self.counts["cli.write.bytes"] += len(data.encode())
            return write_text(path, data, *args, **kwargs)

        self._patch(pathlib.Path, "write_text", counted_write_text)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- counts taken at the boundaries -----------------------------------

    def _after_step(self, args, result) -> None:
        # Counting the grid costs about as much as a small step's own
        # bookkeeping, so it sits in a "trace" span the caller's self time
        # excludes.
        i = self.begin(self.nid("trace"))
        grid = args[0]
        self.counts["engine.cell_updates"] += grid.cells.size
        # White (news) and not-adopted (innovation) cells share code 0; each
        # consumes exactly one draw.
        self.counts["adoptable_cells"] += int(np.count_nonzero(grid.cells == 0))
        self.finish(i)

    def _after_neighbor_counts(self, args, result) -> None:
        self.counts["grid.neighbor_counts.bytes_computed"] += args[0].nbytes + result.nbytes

    def _after_fit_logistic(self, args, result) -> None:
        self.counts["model.nit"] += result.iterations
        self.counts["model.fit.failed"] += result.params is None

    def _after_optimizer(self, args, result) -> None:
        self.counts["model.nfev"] += int(result.nfev)

    # -- reporting --------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, time in outermost spans, self time."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(self.start, dtype=np.float64)[:n]
        ids = np.frombuffer(self.name_id, dtype=np.uint16)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64 if self.parent.itemsize == 8 else np.int32)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        nested = np.zeros(n, dtype=bool)
        nested[has_parent] = ids[parent[has_parent]] == ids[has_parent]
        calls, total, self_time = {}, {}, {}
        for k, name in enumerate(self.names):
            sel = ids == k
            calls[name] = int(sel.sum())
            total[name] = float(dur[sel & ~nested].sum())
            self_time[name] = float((dur[sel] - child[sel]).sum())
        return calls, total, self_time

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        calls, total, self_time = self.totals()
        values = {
            "engine.step.calls": calls.get("engine.step", 0),
            "engine.step.self_s": self_time.get("engine.step", 0.0),
            "engine.rng.draws": self.counts["engine.rng.draws"],
            "engine.rng.s": total.get("engine.rng", 0.0),
            "engine.cell_updates": self.counts["engine.cell_updates"],
            "engine.run.self_s": self_time.get("engine.run", 0.0),
            "engine.run_ensemble.aggregate_s": self_time.get("engine.run_ensemble", 0.0),
            "grid.neighbor_counts.calls": calls.get("grid.neighbor_counts", 0),
            "grid.neighbor_counts.s": total.get("grid.neighbor_counts", 0.0),
            "grid.neighbor_counts.bytes_computed": self.counts["grid.neighbor_counts.bytes_computed"],
            "grid.count_states.s": total.get("grid.count_states", 0.0),
            "grid.eq.s": total.get("grid.eq", 0.0),
            "grid.new.count": self.counts["grid.new"],
            "analytics.s": total.get("analytics", 0.0),
            "model.fit_logistic.s": total.get("model.fit_logistic", 0.0),
            "model.nfev": self.counts["model.nfev"],
            "model.nit": self.counts["model.nit"],
            "model.fit.failed": self.counts["model.fit.failed"],
            "cli.main.self_s": self_time.get("cli.main", 0.0),
            "cli.write.s": total.get("cli.write", 0.0),
            "cli.write.bytes": self.counts["cli.write.bytes"],
            "cli.write_snapshots.s": total.get("cli.write_snapshots", 0.0),
            "cli.read_series_csv.s": total.get("cli.read_series_csv", 0.0),
            "trace.spans": len(self.start),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path: pathlib.Path) -> None:
        """All spans as tab-separated name, start, end, parent index."""
        with path.open("w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[k]]}\t{self.start[k]!r}\t{self.end[k]!r}\t{self.parent[k]}\n")


class RngProxy:
    """Generator stand-in that times ``random`` and counts the draws it hands out."""

    def __init__(self, generator: np.random.Generator, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer
        self._nid = tracer.nid("engine.rng")

    def random(self, size=None, *args, **kwargs):
        i = self._tracer.begin(self._nid)
        try:
            out = self._generator.random(size, *args, **kwargs)
        finally:
            self._tracer.finish(i)
        self._tracer.counts["engine.rng.draws"] += (
            1 if size is None else size if isinstance(size, int) else math.prod(size)
        )
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)
