"""Command-line front-end: calibrate, run, sweep, analyze, oracle-check.

Exit codes: 0 success, 1 usage or input error, 2 calibration error,
3 invariant violation (including a failed bound check in oracle-check).

Every artifact embeds the config hash, seed, and toolkit version, and no
output contains wall-clock information, so reruns with an identical
config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .analysis import STRATUM_KEYS, UNITS, stratified_rate_test, superadditive_rate
from .belief import coupling_family, exact_mi, random_bound_checks
from .config import ExperimentConfig, load_config
from .envs import env_class
from .errors import (
    CalibrationError,
    CompoundUQError,
    InputError,
    InvariantViolation,
    LifecycleError,
)
from .perturb import ConditionSpec
from .rollout import (
    CELL_KEYS,
    POLICY_MODES,
    build_degradation_records,
    calibrate,
    read_traces,
    run_condition,
    run_sweep,
    write_trace,
)
from .snapshot import CalibrationSnapshot, atomic_write_text
from .version import TOOLKIT_VERSION

USAGE_EXIT = 1
CALIBRATION_EXIT = 2
INVARIANT_EXIT = 3


class UsageExit(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageExit(f"{self.prog}: error: {message}", USAGE_EXIT)


def _load_cfg(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return load_config(path)


def _snapshot_path(cfg: ExperimentConfig, override: str | None) -> str:
    return override or os.path.join(cfg.output_dir, "calibration.json")


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args.config)
    snapshot = calibrate(cfg)
    out = _snapshot_path(cfg, args.out)
    snapshot.save(out)
    print(
        f"calibrated {cfg.env_id}: mu0={snapshot.mu0!r} sigma0={snapshot.sigma0!r} "
        f"tau_low={snapshot.thresholds.tau_low!r} tau_high={snapshot.thresholds.tau_high!r}"
    )
    print(f"wrote {out}")
    return 0


def _parse_shift(text: str | None):
    if text is None or text == "none":
        return None
    if "=" not in text:
        raise InputError(f"shift must look like param=value, got {text!r}")
    param, _, value = text.partition("=")
    try:
        return (param, float(value))
    except ValueError:
        raise InputError(f"shift value must be numeric, got {text!r}")


def _require_at_least(name: str, value: int, lo: int) -> None:
    if value < lo:
        raise InputError(f"{name} must be >= {lo}, got {value}")


def cmd_run(args) -> int:
    _require_at_least("seed", args.seed, 0)
    cfg = _load_cfg(args.config)
    shift = _parse_shift(args.shift)
    if shift is not None:
        env_class(cfg.env_id).check_param(*shift)
    snapshot = CalibrationSnapshot.load(_snapshot_path(cfg, args.snapshot), cfg)
    condition = ConditionSpec(po_fraction=args.po, delay_steps=args.delay, shift=shift, onset_t=cfg.onset_t)
    result = run_condition(cfg, snapshot, condition, seed=args.seed, policy_mode=args.policy_mode)
    out = args.out or os.path.join(cfg.output_dir, f"trace_{result.cell_id}.jsonl")
    write_trace(out, result)
    summary = result.summary()
    print(
        f"{result.cell_id} [{condition.label}]: return={summary['episode_return']!r} "
        f"post_onset_kappa_mean={summary['post_onset_kappa_mean']!r}"
    )
    print(f"wrote {out}")
    return 0


def _print_mean_losses(records) -> None:
    """Print the paper's headline comparison: the mean single-stressor
    losses, their sum, and the mean compound loss, over the records whose
    clean return is nonzero (the others have no fractional loss)."""
    kept = [r for r in records if not r.baseline_degenerate]
    if not kept:
        print("mean loss: no record has a nonzero clean return")
        return
    po = float(np.mean([r.delta_po for r in kept]))
    theta = float(np.mean([r.delta_theta for r in kept]))
    compound = float(np.mean([r.delta_compound for r in kept]))
    print(
        f"mean loss over {len(kept)} records: delta_po={po!r} + delta_theta={theta!r} "
        f"= {po + theta!r} vs delta_compound={compound!r}"
    )


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    snapshot = CalibrationSnapshot.load(_snapshot_path(cfg, args.snapshot), cfg)
    out_dir = args.out_dir or os.path.join(cfg.output_dir, "sweep")
    outcome = run_sweep(cfg, snapshot, out_dir=out_dir, policy_mode=args.policy_mode)
    print(f"cells={len(outcome.cell_summaries)} records={len(outcome.records)}")
    print(f"kappa_by_label={json.dumps(outcome.kappa_by_label, sort_keys=True)}")
    print(
        f"superadditive: {outcome.report.n_superadditive}/{outcome.report.n_configs} "
        f"rate={outcome.report.rate!r}"
    )
    _print_mean_losses(outcome.records)
    print(f"wrote {out_dir}")
    return 0


def cmd_analyze(args) -> int:
    if not math.isfinite(args.threshold):
        raise InputError(f"threshold must be finite, got {args.threshold}")
    cfg = _load_cfg(args.config)
    trace_dir = args.trace_dir
    summaries: list[dict] = []
    first = first_run = None  # the first trace's path, and its header keys but CELL_KEYS, JSON-encoded
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError as e:
        raise InputError(f"cannot list trace directory {trace_dir}: {e.strerror}") from None
    paths = [os.path.join(trace_dir, name) for name in names if name.startswith("trace_") and name.endswith(".jsonl")]
    for path, read in zip(paths, read_traces(paths)):
        if isinstance(read, InputError):
            raise read
        header, summary = read
        run = {k: json.dumps(v, sort_keys=True) for k, v in header.items() if k not in CELL_KEYS}
        if first is None:
            first, first_run = path, run
        if differ := sorted({k for k, _ in run.items() ^ first_run.items()}):
            raise InputError(f"trace file {path} and trace file {first} mix two runs: their headers differ in {differ}")
        summaries.append(summary)
    if not summaries:
        raise InputError(f"no trace files found in {trace_dir}")
    trace_hash = header.get("config_hash")  # every header holds the same one by now
    if trace_hash != cfg.config_hash():
        raise InputError(f"traces in {trace_dir} were made under config {trace_hash}, not this config")
    records = build_degradation_records(summaries, cfg.grid)
    report = superadditive_rate(records, threshold=args.threshold, units=args.units)
    out = args.out or os.path.join(trace_dir, "synergy_report.json")
    atomic_write_text(out, report.to_json() + "\n")
    print(f"records={len(records)} rate={report.rate!r} mean_synergy={report.mean_synergy!r}")
    _print_mean_losses(records)
    try:
        strat = stratified_rate_test(records, stratum_key=args.stratum_key, threshold=args.threshold, units=args.units)
        print(f"stratified[{args.stratum_key}]: chi2={strat.chi2!r} df={strat.df} p={strat.p_value!r}")
    except InputError as e:
        print(f"stratified test skipped: {e}")
    print(f"wrote {out}")
    return 0


def cmd_oracle_check(args) -> int:
    _require_at_least("n_samples", args.n_samples, 1)
    _require_at_least("grid_points", args.grid_points, 2)
    _require_at_least("seed", args.seed, 0)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["sample", "n_s", "n_theta", "mi", "bound", "slack", "holds"])
    n_bad = 0
    for i, (n_s, n_theta, c) in enumerate(random_bound_checks(args.seed, args.n_samples)):
        ok = c.holds and abs(c.slack - c.h_joint) <= 1e-9
        n_bad += not ok
        if args.out:  # without --out no row is kept, so at most one batch of checks is held
            writer.writerow((i, n_s, n_theta, c.mi, c.bound, c.slack, ok))

    inversions = 0
    lams = np.linspace(0.0, 1.0, args.grid_points)
    for n in (2, 4, 8):
        mis = [exact_mi(coupling_family(float(l), n)) for l in lams]
        inversions += sum(1 for a, b in zip(mis, mis[1:]) if b < a - 1e-12)

    if args.out:
        atomic_write_text(args.out, text.getvalue())
        print(f"wrote {args.out}")
    print(f"samples={args.n_samples} violations={n_bad} coupling_inversions={inversions}")
    if n_bad or inversions:
        raise InvariantViolation(
            f"bound violations={n_bad}, coupling inversions={inversions}"
        )
    return 0


def _add_policy_mode(p: _Parser) -> None:
    p.add_argument(
        "--policy-mode",
        choices=POLICY_MODES,
        default="monitor",
        help="monitor: task controller behind the kappa-scheduled risk budget; adaptive: probing policy; both against the frozen ensemble",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="compound-uq", description="Compound uncertainty toolkit batch runner")
    parser.add_argument("--version", action="version", version=TOOLKIT_VERSION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("calibrate", help="train the ensemble, freeze the noise floor, place thresholds")
    p.add_argument("--config", help="JSON config path (defaults apply when omitted)")
    p.add_argument("--out", help="snapshot output path (default <output_dir>/calibration.json)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="run one condition episode against a snapshot")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--snapshot", help="snapshot path (default <output_dir>/calibration.json)")
    p.add_argument("--po", type=float, default=0.0, help="masked observation fraction")
    p.add_argument("--delay", type=int, default=0, help="action delay steps")
    p.add_argument("--shift", help="dynamics shift as param=value (or 'none')")
    p.add_argument("--seed", type=int, default=0)
    _add_policy_mode(p)
    p.add_argument("--out", help="trace output path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run the full condition matrix and aggregate statistics")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--snapshot", help="snapshot path")
    p.add_argument("--out-dir", help="directory for traces and reports")
    _add_policy_mode(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="recompute synergy statistics from an existing trace directory")
    p.add_argument("--config", help="JSON config path (grid must match the traces)")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--units", choices=UNITS, default="frac")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--stratum-key", choices=STRATUM_KEYS, default="delay_level")
    p.add_argument("--out", help="synergy report output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle-check", help="verify the information bound on random beliefs")
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=101)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageExit as e:
        print(str(e), file=sys.stderr)
        return e.code
    except CalibrationError as e:
        print(f"calibration error: {e}", file=sys.stderr)
        return CALIBRATION_EXIT
    except (InvariantViolation, LifecycleError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return INVARIANT_EXIT
    except CompoundUQError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
