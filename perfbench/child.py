"""Benchmark phases that import the toolkit, each run in a fresh process.

    python3 perfbench/child.py setup   --workload W --seed N --snapshot-out PATH
    python3 perfbench/child.py prep    --workload analyze_traces --seed N --work DIR
    python3 perfbench/child.py measure --workload W --seed N --snapshot-out PATH --seconds S
                                       --trace 0|1 --work DIR [--budget S] [--spans PATH]

``setup`` times ``import compound_uq`` (and ``compound_uq.cli``) and, for
the simulating workloads, ``calibrate``. ``prep`` writes the untimed sweep
tree that ``analyze_traces`` reads. ``measure`` sets up the same way (its
timing is one more set-up sample), then runs the workload's timed repeats
and their output checks; with ``--trace 1`` it runs adjacent untraced and
traced repeats instead. It then checks the digests of the seed-0 inputs
against ``expected_digests.json``. Each phase prints one JSON object as
its last line of standard output. ``run.py`` starts these processes; they
are not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
# share of each repeat's time spent timing the reference loop after it
REFERENCE_SHARE = 0.05
TRACED_PAIRS = 2
MAX_FAILURE_MESSAGES = 20


def set_up(args):
    """Time a fresh import of the toolkit and, for the simulating workloads,
    ``calibrate``; the snapshot goes to ``--snapshot-out``.

    Nothing that imports numpy may run before this in the process, or the
    import would read faster than a user's.
    """
    import workloads as wl

    t0 = perf_counter()
    cq = wl.load_toolkit(SRC)
    t1 = perf_counter()
    timing = {"import_s": t1 - t0, "calibrate_s": 0.0}
    cfg = cq.package.config_from_dict(wl.workload_config(args.workload, args.seed))
    snapshot = None
    if args.workload in wl.SIMULATING:
        snapshot = cq.package.calibrate(cfg)
        timing["calibrate_s"] = perf_counter() - t1
        snapshot.save(args.snapshot_out)
    return cq, cfg, snapshot, timing


def cmd_setup(args) -> dict:
    timing = set_up(args)[3]
    timing["reference_s"] = _reference(timing["import_s"] + timing["calibrate_s"])
    return timing


def cmd_prep(args) -> dict:
    from workloads import load_toolkit, prepare_tree, workload_config

    cq = load_toolkit(SRC)
    t0 = perf_counter()
    prepare_tree(cq, workload_config(args.workload, args.seed), args.work)
    return {"prep_s": perf_counter() - t0}


def _reference(seconds: float) -> float:
    """Mean time of enough ``host_reference`` calls to last about 5% of ``seconds``."""
    from envinfo import REFERENCE_S, host_reference

    n = max(1, round(seconds * REFERENCE_SHARE / REFERENCE_S))
    return statistics.mean(host_reference() for _ in range(n))


def _repeat(run, seconds: float, deadline: float, min_reps: int) -> tuple[list, list]:
    """Call ``run(i)`` for as close to ``seconds`` of timed work as whole repeats allow.

    At least ``min_reps`` repeats run. Another starts while it would end
    nearer to ``seconds`` than stopping does, i.e. while the timed total
    plus half a mean repeat falls short of ``seconds``. None starts past
    ``deadline`` (a ``perf_counter`` value), so a slow machine still ends
    in time.

    The reference loop runs before the first repeat and after each one,
    for about 5% of the repeat's time; returns the repeats and, for each,
    the mean of the two reference times next to it.
    """
    reps, refs = [], [_reference(0.0)]
    while perf_counter() < deadline or not reps:
        total = sum(r.seconds for r in reps)
        if len(reps) >= min_reps and total + total / len(reps) / 2 >= seconds:
            break
        reps.append(run(len(reps)))
        refs.append(_reference(reps[-1].seconds))
    return reps, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def _rep_doc(rep) -> dict:
    return {
        "seconds": rep.seconds,
        "cells": len(rep.cells),
        "failed_cells": rep.failed_cells(),
        "failures": [f"{cell or 'grid'}: {msg}" for cell, msg in rep.failures[:MAX_FAILURE_MESSAGES]],
    }


def _runner(cq, workload: str, cfg, snapshot, work: str):
    """The workload's repeat as a function of a tag naming its scratch directory."""
    import workloads as wl

    if workload == "adaptive_probe":
        return lambda tag: wl.adaptive_rep(cq, cfg, snapshot)

    def run(tag):
        tree = os.path.join(work, f"rep-{tag}")
        try:
            return wl.monitor_rep(cq, cfg, snapshot, tree)
        finally:
            shutil.rmtree(tree, ignore_errors=True)

    return run


def _traced_pairs(run, cq, seconds: float, deadline: float) -> tuple[list, list, list, object]:
    """Adjacent (untraced, traced) repeats, at least ``TRACED_PAIRS`` of them.

    Returns the untraced repeats, the traced ones, each traced repeat's
    layer metrics, and the last tracer.
    """
    from tracing import Tracer, instrument, layer_metrics

    plain, traced, per_rep = [], [], []
    tracer = None
    while perf_counter() < deadline or not traced:
        total = sum(r.seconds for r in plain + traced)
        if len(traced) >= TRACED_PAIRS and total + total / len(traced) / 2 >= seconds:
            break
        plain.append(run(f"plain{len(plain)}"))
        tracer = Tracer()
        with instrument(tracer, cq):
            rep = run(f"traced{len(traced)}")
        traced.append(rep)
        per_rep.append(layer_metrics(tracer, len(rep.cells)))
    return plain, traced, per_rep, tracer


def cmd_measure(args) -> dict:
    """Set up once more (one of the run's set-up samples), then measure."""
    deadline = perf_counter() + args.budget
    cq, cfg, snapshot, timing = set_up(args)
    import workloads as wl
    from envinfo import at_reference_speed, environment, thread_count
    from tracing import EXACT, Tracer, instrument

    timing["reference_s"] = _reference(timing["import_s"] + timing["calibrate_s"])

    run_failures = []  # whole-run failures; each fails every cell attempted
    extra = []  # repeats that are checked but not timed
    if args.workload in wl.SIMULATING:
        run = _runner(cq, args.workload, cfg, snapshot, args.work)
    else:
        base = wl.AnalyzeBaseline(cq, wl.tree_paths(args.work))
        tree_failures, tree_traces = wl.check_trace_tree(base.paths["tree"], base.cells, cfg.horizon)
        extra.append(wl.Rep(0.0, base.cells, tree_failures))
        reference = {**base.report_shas, "traces": tree_traces}

        def run(tag):
            return wl.analyze_rep(cq, base, args.seed)

    out = {"setup": timing}
    if args.trace:
        reps, traced, per_rep, tracer = _traced_pairs(run, cq, args.seconds, deadline)
        tracer.write_spans(args.spans)
        layers: dict = {}
        if args.workload in wl.SIMULATING:
            setup_tracer = Tracer()
            with instrument(setup_tracer, cq):
                cq.package.calibrate(cfg)
            for name in ("ensemble.train", "ensemble.noise_floor"):
                layers[f"{name}.self_s"] = setup_tracer.self_s[name]
        for name in EXACT:
            values = [m[name] for m in per_rep]
            if len(set(values)) != 1:
                traced[-1].failures.append((None, f"traced count {name} does not repeat: {values}"))
        for name, value in per_rep[0].items():
            # counts repeat exactly (checked above); times are the median
            layers.setdefault(name, value if name in EXACT else statistics.median(m[name] for m in per_rep))
        overheads = [t.seconds - p.seconds for p, t in zip(reps, traced)]
        out["traced"] = {
            "wall_s": statistics.median(r.seconds for r in traced),
            "reps": [_rep_doc(r) for r in traced],
            "overhead_s": overheads,
            "layers": layers,
            "spans_file": os.path.relpath(args.spans, ROOT),
        }
        out["tracing_overhead_s"] = statistics.median(overheads)
        reps_checked = reps + traced
    else:
        reps, refs = _repeat(run, args.seconds, deadline, MIN_REPS)
        out["reference_s"] = refs
        out["run_s"] = statistics.median(at_reference_speed(r.seconds, ref) for r, ref in zip(reps, refs))
        reps_checked = list(reps)
    wl.compare_digests(reps_checked)

    if args.workload in wl.SIMULATING:
        if args.seed == 0:
            reference = reps[0].digests
        else:
            # the seed-0 inputs, whose digests are checked in
            ref_cfg = cq.package.config_from_dict(wl.workload_config(args.workload, 0))
            ref = _runner(cq, args.workload, ref_cfg, cq.package.calibrate(ref_cfg), args.work)("reference")
            extra.append(ref)
            reference = ref.digests
    run_failures += wl.check_expected(args.workload, reference)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    checked = reps_checked + extra
    out.update(
        run_wall_s=statistics.median(r.seconds for r in reps),
        n_cells=len(reps[0].cells),
        reps=[_rep_doc(r) for r in reps],
        checked_reps=[_rep_doc(r) for r in extra],
        digests=reps[0].digests,
        reference_digests=reference,
        run_failures=run_failures,
        peak_rss_mb=max(self_kb, child_kb) / 1024.0,
        threads=thread_count(),
        environment=environment(ROOT, args.seed),
        attempted=sum(len(r.cells) for r in checked),
        failed=sum(r.failed_cells() for r in checked),
    )
    return out


COMMANDS = {"setup": cmd_setup, "prep": cmd_prep, "measure": cmd_measure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("phase", choices=sorted(COMMANDS))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--snapshot-out")
    parser.add_argument("--spans")
    parser.add_argument("--budget", type=float)
    args = parser.parse_args(argv)
    print(json.dumps(COMMANDS[args.phase](args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
