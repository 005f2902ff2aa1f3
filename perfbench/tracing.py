"""Span tracing around calls into the toolkit's layers.

Nothing inside ``compound_uq`` is edited: ``instrument`` swaps each public
function (under every name its callers use) and a few class methods for a
wrapper that records one span per call, then puts the originals back.
A span holds (id, name, start, end, parent id, cell id); spans stay in
memory and ``Tracer.write_spans`` writes them out once a run ends.

Self time is a span's duration minus the time covered by its child spans.
The tracer's own bookkeeping for a child, and the work the counters do
(hashing rows for the distinct-row count, a ``stat`` for trace bytes), is
excluded from the parent's self time as well.
"""

from __future__ import annotations

import gzip
import itertools
import os
import threading
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._cells: list[str] = []
        self._cell_index: dict[str, int] = {}
        self._cols = {k: array("q") for k in ("id", "name", "parent", "cell")}
        self._start = array("d")
        self._end = array("d")
        self.t0 = perf_counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _intern(self, table: list, index: dict, key: str) -> int:
        if key not in index:
            index[key] = len(table)
            table.append(key)
        return index[key]

    def wrap(self, name: str, fn, cell_of=None, count=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``cell_of(args, kwargs)`` names the cell a span belongs to; without
        it a span inherits its parent's cell. ``count(tracer, args, kwargs,
        result)`` adds to ``tracer.counts`` after a successful call.
        """
        name_id = self._intern(self._names, self._name_index, name)

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            if cell_of is not None:
                cell = self._intern(self._cells, self._cell_index, cell_of(args, kwargs))
            else:
                cell = parent[1] if parent else -1
            frame = [next(self._ids), cell, 0.0, name_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                with self._lock:
                    cols = self._cols
                    cols["id"].append(frame[0])
                    cols["name"].append(name_id)
                    cols["parent"].append(parent[0] if parent else -1)
                    cols["cell"].append(cell)
                    self._start.append(t0 - self.t0)
                    self._end.append(t1 - self.t0)
                    self.calls[name] += 1
                    self.self_s[name] += (t1 - t0) - frame[2]
                if parent is not None:
                    # the child's bookkeeping is not the parent's own work either
                    parent[2] += perf_counter() - t0
            if count is not None:
                c0 = perf_counter()
                with self._lock:
                    count(self, args, kwargs, result)
                if parent is not None:
                    parent[2] += perf_counter() - c0
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, name: str) -> bool:
        """Whether the calling thread is inside an open span ``name``."""
        name_id = self._name_index.get(name)
        return any(f[3] == name_id for f in getattr(self._local, "stack", ()))

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def write_spans(self, path: str) -> None:
        """Write every span as gzip'd CSV: id,name,start,end,parent,cell."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = self._cols
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,cell\n")
            for i in range(len(self._start)):
                c = cols["cell"][i]
                fh.write(
                    f"{cols['id'][i]},{self._names[cols['name'][i]]},{self._start[i]:.9f},"
                    f"{self._end[i]:.9f},{cols['parent'][i]},{self._cells[c] if c >= 0 else ''}\n"
                )


# ---------------------------------------------------------------------------
# What gets wrapped


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _episode_cell(args, kwargs) -> str:
    return _arg(args, kwargs, 2, "condition").cell_id(_arg(args, kwargs, 3, "seed"))


def _trace_cell(args, kwargs) -> str:
    name = os.path.basename(_arg(args, kwargs, 0, "path"))
    return name[len("trace_"):-len(".jsonl")] if name.startswith("trace_") else name


def _count_forward(tracer, args, kwargs, result) -> None:
    counts = tracer.counts
    ens = args[0]
    x = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "x"), dtype=float))
    m, in_dim, hidden = ens.w1.shape
    out_dim = ens.w2.shape[2]
    rows = x.shape[0]
    counts["ensemble.forward.rows"] += rows
    counts["ensemble.forward.unique_rows"] += len({row.tobytes() for row in x})
    # one multiply and one add per weight, per member, per row
    counts["ensemble.forward.flops"] += 2 * m * rows * (in_dim * hidden + hidden * out_dim)


def _count_sgd(tracer, args, kwargs, result) -> None:
    tracer.counts["ensemble.sgd.rows"] += np.atleast_2d(_arg(args, kwargs, 1, "x")).shape[0]


def _count_select(tracer, args, kwargs, result) -> None:
    tracer.counts["policy.select.forced"] += 0 if result.any_compliant else 1


def _count_write(tracer, args, kwargs, result) -> None:
    tracer.counts["rollout.trace_write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(tracer, args, kwargs, result) -> None:
    tracer.counts["rollout.trace_read.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    # reads made while a sweep resumes, as opposed to by ``analyze``
    tracer.counts["rollout.trace_read.in_sweep"] += tracer.inside("rollout.sweep")


def _function_targets(cq):
    """(function, span name, cell_of, count) for module-level functions."""
    r, a, b = cq.rollout, cq.analysis, cq.belief
    return [
        (r.run_sweep, "rollout.sweep", None, None),
        (r.run_condition, "rollout.episode", _episode_cell, None),
        (r.collect_baseline_buffer, "rollout.baseline_buffer", None, None),
        (r.write_trace, "rollout.trace_write", _trace_cell, _count_write),
        (r.read_trace, "rollout.trace_read", _trace_cell, _count_read),
        (cq.ensemble.adaptive_update, "ensemble.sgd", None, _count_sgd),
        (cq.ensemble.bootstrap_train, "ensemble.train", None, None),
        (cq.ensemble.calibrate_noise_floor, "ensemble.noise_floor", None, None),
        (cq.policy.candidate_actions, "policy.candidates", None, None),
        (cq.policy.select_action, "policy.select", None, _count_select),
        (cq.kappa.compute_step, "kappa.step", None, None),
        (cq.perturb.apply_mask, "perturb.mask", None, None),
        (a.superadditive_rate, "analysis.rate", None, None),
        (a.stratified_rate_test, "analysis.stratified", None, None),
        (a.degradation, "analysis.degradation", None, None),
        (a.records_to_csv, "analysis.csv", None, None),
        (b.verify_bound, "belief.verify", None, None),
        (b.random_belief, "belief.sample", None, None),
        (b.exact_mi, "belief.mi", None, None),
        (b.coupling_family, "belief.coupling", None, None),
        (cq.cli.main, "cli.main", None, None),
    ]


def _method_targets(cq):
    """(class, attribute, span name, count) for methods patched on classes."""
    targets = [
        (cq.ensemble.Ensemble, "predict_members", "ensemble.forward", _count_forward),
        (cq.ensemble.Ensemble, "mse", "ensemble.mse", None),
        (cq.snapshot.CalibrationSnapshot, "load", "snapshot.load", None),
        (cq.config.ExperimentConfig, "config_hash", "config.hash", None),
    ]
    for env_cls in cq.envs.ENV_CLASSES.values():
        targets.append((env_cls, "step", "envs.step", None))
        targets.append((env_cls, "risk_from_obs", "envs.risk", None))
    return targets


@contextmanager
def instrument(tracer: Tracer, cq):
    """Wrap every layer entry point for the duration of the block.

    ``cq`` is a namespace holding the imported ``compound_uq`` package and
    its modules. A function is replaced in every module that binds it, so
    a call is traced whichever name its caller uses.
    """
    modules = [cq.package] + [getattr(cq, n) for n in cq.MODULES]
    undo = []
    try:
        for fn, name, cell_of, count in _function_targets(cq):
            wrapper = tracer.wrap(name, fn, cell_of, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, attr, name, count in _method_targets(cq):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(name, raw.__func__, None, count))
            else:
                wrapper = tracer.wrap(name, raw, None, count)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, unit); "<span>.calls" and "<span>.self_s" read the span tables,
# the others are derived in ``layer_metrics``. Setup-side metrics
# (ensemble.train, ensemble.noise_floor, cli.import_s) and the tracing
# overhead are filled in by the caller.
PER_LAYER = [
    ("ensemble.forward.calls", "count"),
    ("ensemble.forward.rows", "count"),
    ("ensemble.forward.self_s", "s"),
    ("ensemble.forward.unique_row_frac", "ratio"),
    ("ensemble.forward.flops_computed", "flop"),
    ("ensemble.mse.self_s", "s"),
    ("ensemble.sgd.calls", "count"),
    ("ensemble.sgd.rows", "count"),
    ("ensemble.sgd.self_s", "s"),
    ("ensemble.train.self_s", "s"),
    ("ensemble.noise_floor.self_s", "s"),
    ("envs.step.calls", "count"),
    ("envs.step.self_s", "s"),
    ("envs.risk.calls", "count"),
    ("envs.risk.self_s", "s"),
    ("policy.candidates.self_s", "s"),
    ("policy.select.calls", "count"),
    ("policy.select.self_s", "s"),
    ("policy.forced_frac", "ratio"),
    ("kappa.step.self_s", "s"),
    ("perturb.mask.self_s", "s"),
    ("rollout.sweep.self_s", "s"),
    ("rollout.episode.calls", "count"),
    ("rollout.episode.self_s", "s"),
    ("rollout.baseline_buffer.calls", "count"),
    ("rollout.baseline_buffer.self_s", "s"),
    ("rollout.trace_write.calls", "count"),
    ("rollout.trace_write.bytes", "B"),
    ("rollout.trace_write.self_s", "s"),
    ("rollout.trace_read.calls", "count"),
    ("rollout.trace_read.bytes", "B"),
    ("rollout.trace_read.self_s", "s"),
    ("rollout.trace_read.per_cell", "count"),
    ("analysis.self_s", "s"),
    ("belief.verify.calls", "count"),
    ("belief.verify.self_s", "s"),
    ("belief.self_s", "s"),
    ("snapshot.load.self_s", "s"),
    ("config.hash.calls", "count"),
    ("config.hash.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("tracing.spans", "count"),
    ("tracing.overhead_s", "s"),
]
SETUP_LAYER = ("ensemble.train.self_s", "ensemble.noise_floor.self_s", "cli.import_s")
# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT = [name for name, unit in PER_LAYER if unit != "s" and name not in SETUP_LAYER]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_cells: int) -> dict[str, float]:
    """Per-layer values of one traced repeat; setup metrics are left out."""
    c = tracer.counts

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in tracer.self_s.items() if k.startswith(prefix))

    derived = {
        "ensemble.forward.rows": c["ensemble.forward.rows"],
        "ensemble.forward.unique_row_frac": _ratio(c["ensemble.forward.unique_rows"], c["ensemble.forward.rows"]),
        "ensemble.forward.flops_computed": c["ensemble.forward.flops"],
        "ensemble.sgd.rows": c["ensemble.sgd.rows"],
        "policy.forced_frac": _ratio(c["policy.select.forced"], tracer.calls["policy.select"]),
        "rollout.trace_write.bytes": c["rollout.trace_write.bytes"],
        "rollout.trace_read.bytes": c["rollout.trace_read.bytes"],
        "rollout.trace_read.per_cell": _ratio(c["rollout.trace_read.in_sweep"], n_cells),
        "analysis.self_s": prefixed("analysis."),
        "belief.self_s": prefixed("belief."),
        "tracing.spans": tracer.n_spans,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = tracer.calls[name[: -len(".calls")]]
        elif name.endswith(".self_s") and name not in SETUP_LAYER:
            out[name] = tracer.self_s[name[: -len(".self_s")]]
    return out
