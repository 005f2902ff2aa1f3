"""Benchmark of the compound_uq toolkit: one command, every metric.

    python3 perfbench/run.py --workload monitor_sweep --seed 0 --seconds 15 --trace 0

Runs from the root of a source checkout (``src/compound_uq`` beside
``perfbench/``) and needs nothing but the standard library, numpy and
scipy. Work happens in fresh child processes (see ``child.py``):

1. ``setup`` runs ``SETUP_RUNS - 1`` times, timing import plus
   ``calibrate`` (import only for ``analyze_traces``);
2. ``prep`` (``analyze_traces`` only) writes the untimed sweep tree;
3. ``measure`` sets up once more, which is the last set-up sample, then
   runs the timed repeats, checks every output and compares the digests
   of the seed-0 inputs with ``expected_digests.json``.

``setup_s`` is the median of the ``SETUP_RUNS`` set-up samples and
``run_s`` the median of the timed repeats.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced repeats, each
run next to an untraced one. The line before it is the full record:
environment, output digests, every check failure, ``failed_frac``.
Scratch files live under ``.perfbench/`` in the checkout; the span file
of a traced run stays there, everything else is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from envinfo import at_reference_speed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import SIMULATING, WORKLOADS  # noqa: E402

SETUP_RUNS = 3
TIME_LIMIT_S = 170.0  # every run must end within 180 s
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cells_per_s", "cells/s"), ("peak_rss_mb", "MB")]
LOAD = (
    "closed loop with one client: a single measuring process runs the cells one after another; "
    "its other threads belong to the BLAS pools, each of at most nproc threads"
)


class ChildFailed(Exception):
    pass


def run_child(phase: str, args: list[str], timeout: float) -> dict:
    """Run one ``child.py`` phase and return the JSON object it prints last.

    The child is killed and reaped on timeout, and also when this process
    is interrupted or terminated, so no process outlives the benchmark.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), phase, *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{phase} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{phase} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def bench(args, work: str, start: float) -> tuple[dict, dict]:
    """Run every phase; return (result line, full record)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return TIME_LIMIT_S - (perf_counter() - start)

    # the measuring process sets up once more; its timing is the last sample
    snapshots = [os.path.join(work, f"setup{i}.json") for i in range(SETUP_RUNS)]
    setups = [run_child("setup", common + ["--snapshot-out", snap], remaining()) for snap in snapshots[:-1]]
    if args.workload not in SIMULATING:
        run_child("prep", common + ["--work", work], remaining())

    spans = os.path.join(OUT, "spans", f"{args.workload}.csv.gz")
    measure_args = common + [
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
        "--snapshot-out", snapshots[-1],
        "--spans", spans,
        # leave room for the checks and the traced calibrate after the repeats
        "--budget", str(max(remaining() * (0.4 if args.trace else 0.8), 1.0)),
    ]
    m = run_child("measure", measure_args, remaining())
    setups.append(m["setup"])

    run_failures = list(m["run_failures"])  # each fails every cell attempted
    if args.workload in SIMULATING:
        blobs = set()
        for snap in snapshots:
            with open(snap, "rb") as fh:
                blobs.add(fh.read())
        if len(blobs) != 1:
            run_failures.append(f"calibrate gave {len(blobs)} different snapshots in {SETUP_RUNS} runs")

    attempted, failed = m["attempted"], m["failed"]
    if run_failures:
        failed = attempted
    import_s = statistics.median(s["import_s"] for s in setups)
    if args.trace:
        layers = dict(m["traced"]["layers"])
        layers.setdefault("ensemble.train.self_s", 0.0)
        layers.setdefault("ensemble.noise_floor.self_s", 0.0)
        layers["cli.import_s"] = import_s
        layers["tracing.overhead_s"] = m["tracing_overhead_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        e2e = {
            "setup_s": statistics.median(
                at_reference_speed(s["import_s"] + s["calibrate_s"], s["reference_s"]) for s in setups
            ),
            "run_s": m["run_s"],
            "cells_per_s": m["n_cells"] / m["run_s"],
            "peak_rss_mb": m["peak_rss_mb"],
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**m["environment"], "threads_in_measuring_process": m["threads"], "load": LOAD},
        "failed_frac": failed / attempted,
        "setup": {"runs": setups},
        "run_failures": run_failures,
        "setup_wall_s": statistics.median(s["import_s"] + s["calibrate_s"] for s in setups),
        "run_wall_s": m["run_wall_s"],
        "reference_s": m.get("reference_s"),
        "output_sha256": m["digests"],
        "reference_sha256": m["reference_digests"],
        "reps": m["reps"],
        "checked_reps": m["checked_reps"],
    }
    if args.trace:
        record["traced"] = {k: v for k, v in m["traced"].items() if k != "layers"}
        record["tracing_overhead_s"] = m["tracing_overhead_s"]
    else:
        record["end_to_end"] = metrics
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "compound_uq", "__init__.py")):
        print(f"perfbench: no toolkit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so that run_child's cleanup kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = perf_counter()
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result, record = bench(args, work, start)
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
