"""Command-line interface tests: exit codes, artifacts, happy paths.

One tiny oscillator workspace is calibrated once per module (threshold
overrides skip the probe runs) and shared by the run/sweep/analyze tests.
"""

import csv
import io
import json
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from helpers import TINY, batch_cell_ids, record_calls, trace_steps

from compound_uq import rollout
from compound_uq.belief import BoundCheck, random_belief, verify_bound
from compound_uq.cli import main
from compound_uq.config import ExperimentConfig, config_from_dict, load_config
from compound_uq.ensemble import input_rows
from compound_uq.errors import InputError
from compound_uq.kappa import Thresholds, sigma_s, sigma_theta
from compound_uq.perturb import ConditionSpec
from compound_uq.rollout import read_trace
from compound_uq.snapshot import CalibrationSnapshot

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = dict(TINY)
    cfg["output_dir"] = str(root / "runs")
    cfg_path = str(root / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["calibrate", "--config", cfg_path])
    assert rc == 0
    snapshot = str(root / "runs" / "calibration.json")
    return {"root": root, "config": cfg_path, "cfg": load_config(cfg_path), "snapshot": snapshot}


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_and_flag(capsys):
    for argv, says in ((["frobnicate"], "argument command: invalid choice: 'frobnicate'"), (["run", "--bogus"], "unrecognized arguments: --bogus")):
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]  # after argparse's usage lines
        assert len(errors) == 1 and errors[0].startswith(f"compound-uq: error: {says}")


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_calibrate_writes_a_loadable_snapshot(workspace, capsys):
    snap = CalibrationSnapshot.load(workspace["snapshot"], workspace["cfg"])
    assert snap.env_id == "MassSpring1D"
    assert snap.thresholds.tau_low == 0.2 and snap.thresholds.tau_high == 0.5
    assert snap.ensemble.frozen


def test_calibrate_exit_code_two_without_stressors(tmp_path, capsys):
    cfg = dict(TINY)
    cfg.pop("thresholds")
    cfg["grid"] = {"po_levels": [0.0], "delay_levels": [0], "shift_levels": [None], "seeds": [0]}
    cfg["ensemble"] = {"t_pre": 60, "m_members": 2, "epochs": 2}
    cfg["output_dir"] = str(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["calibrate", "--config", str(path)]) == 2
    assert "calibration error" in capsys.readouterr().err


def test_run_writes_trace(workspace, capsys):
    out = str(workspace["root"] / "trace_run.jsonl")
    rc = main(
        [
            "run",
            "--config",
            workspace["config"],
            "--po",
            "0.5",
            "--delay",
            "1",
            "--seed",
            "2",
            "--out",
            out,
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "[C3]" in text and f"wrote {out}" in text
    header, footer = read_trace(out)
    assert header["policy_mode"] == "monitor"
    assert len(trace_steps(out)) == 60
    assert footer["seed"] == 2


def test_run_prints_the_return_and_kappa_mean_its_trace_footer_holds(workspace, capsys):
    out = str(workspace["root"] / "trace_run_printed.jsonl")
    assert main(["run", "--config", workspace["config"], "--po", "0.5", "--delay", "1", "--seed", "2", "--out", out]) == 0
    _, footer = read_trace(out)
    assert capsys.readouterr().out == (
        f"{footer['cell_id']} [{footer['label']}]: return={footer['episode_return']!r} "
        f"post_onset_kappa_mean={footer['post_onset_kappa_mean']!r}\nwrote {out}\n"
    )


def test_run_adaptive_mode(workspace, capsys):
    out = str(workspace["root"] / "trace_adaptive.jsonl")
    rc = main(["run", "--config", workspace["config"], "--policy-mode", "adaptive", "--out", out])
    assert rc == 0
    header, _ = read_trace(out)
    assert header["policy_mode"] == "adaptive"
    capsys.readouterr()


def test_adaptive_commands_skip_online_adaptation(workspace, monkeypatch, capsys):
    # Neither command keeps an adapted clone, so neither may build one.
    def refuse(*args, **kwargs):
        raise AssertionError("online adaptation ran for a result nobody reads")

    monkeypatch.setattr(rollout, "adaptive_update", refuse)
    monkeypatch.setattr(rollout, "collect_baseline_buffer", refuse)
    out = str(workspace["root"] / "trace_adaptive_no_sgd.jsonl")
    argv = ["--config", workspace["config"], "--policy-mode", "adaptive"]
    assert main(["run", *argv, "--po", "0.5", "--delay", "1", "--out", out]) == 0
    assert main(["sweep", *argv, "--out-dir", str(workspace["root"] / "sweep_adaptive")]) == 0
    capsys.readouterr()


def test_trace_mse_is_the_ensemble_error_of_the_executed_row(workspace, capsys):
    snapshot = CalibrationSnapshot.load(workspace["snapshot"], workspace["cfg"])
    for mode in ("monitor", "adaptive"):
        out = str(workspace["root"] / f"trace_mse_{mode}.jsonl")
        argv = ["run", "--config", workspace["config"], "--policy-mode", mode, "--po", "0.5", "--delay", "1"]
        assert main([*argv, "--seed", "1", "--out", out]) == 0
        steps = trace_steps(out)
        obs = [np.array(s["obs"]) for s in steps]
        for t, step in enumerate(steps):
            x = input_rows(np.array(obs[max(0, t - 2) : t + 1])[:, None], step["action"])
            assert step["mse"] == float(snapshot.ensemble.mse(x, np.array([step["delta"]]))[0])
    capsys.readouterr()


def test_a_run_reads_clip_c_c_tau_and_learning_rate_from_its_config(workspace):
    # The snapshot holds none of the three, so a run can only take them from
    # the config it is given. Each config runs with a snapshot calibrated for it.
    cfg, snapshot = workspace["cfg"], CalibrationSnapshot.load(workspace["snapshot"], workspace["cfg"])
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=cfg.onset_t)
    other = replace(cfg, clip_c=2.5, c_tau=0.7)
    for config, snap in ((cfg, snapshot), (other, rollout.calibrate(other))):
        res = rollout.run_condition(config, snap, cond, 0)
        steps = res.steps
        for t, (mse, st, ss) in enumerate(zip(steps.mse.tolist(), steps.sigma_theta.tolist(), steps.sigma_s.tolist())):
            active = t >= cond.onset_t
            assert st == sigma_theta(mse, snap.mu0, snap.sigma0, clip_c=config.clip_c)
            assert ss == sigma_s(0.5 if active else 0.0, 1 if active else 0, c_tau=config.c_tau)
    assert max(res.steps.sigma_theta) == 1.0  # the clip is reached, so clip_c matters

    # online updates step at the config's learning rate: at 0 the clone does not move
    frozen = replace(cfg, train=replace(cfg.train, learning_rate=0.0))
    for config, moves in ((frozen, False), (cfg, True)):
        snap = rollout.calibrate(config)
        adapted = rollout.run_condition(config, snap, cond, 0, adaptive_enabled=True).adaptive_ensemble
        assert (adapted.weights_hash() != snap.ensemble.weights_hash()) == moves

    # a snapshot runs only under the config it was calibrated for
    for config in (other, frozen):
        with pytest.raises(InputError, match="^snapshot was calibrated for MassSpring1D"):
            rollout.run_condition(config, snapshot, cond, 0)


def test_run_rejects_bad_shift(workspace, capsys):
    cases = [
        ("stiffness", "shift must look like param=value, got 'stiffness'"),
        ("stiffness=abc", "shift value must be numeric, got 'stiffness=abc'"),
        ("gain_left=0.5", "MassSpring1D has no dynamics parameter 'gain_left'"),
    ]
    for shift, says in cases:
        assert main(["run", "--config", workspace["config"], "--shift", shift]) == 1
        assert capsys.readouterr().err == f"error: {says}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--shift", "gain_left=0.5"], "MassSpring1D has no dynamics parameter 'gain_left'"),
        (["run", "--shift", "stiffness=50"], "stiffness=50.0 outside bounds"),
        (["oracle-check", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["oracle-check", "--grid-points", "1"], "grid_points must be >= 2, got 1"),
        (["oracle-check", "--grid-points", "0"], "grid_points must be >= 2, got 0"),
        (["analyze", "--threshold=nan"], "threshold must be finite, got nan"),
        (["analyze", "--threshold=inf"], "threshold must be finite, got inf"),
        (["analyze", "--threshold=-inf"], "threshold must be finite, got -inf"),
    ],
)
def test_bad_numbers_are_refused_before_any_work(workspace, tmp_path, monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr("compound_uq.cli.run_condition", refuse)
    monkeypatch.setattr("compound_uq.cli.random_bound_checks", refuse)
    monkeypatch.setattr("compound_uq.cli.os.listdir", refuse)
    if argv[0] in ("run", "analyze"):
        argv = [*argv, "--config", workspace["config"]]
    if argv[0] == "analyze":
        argv = [*argv, "--trace-dir", str(tmp_path), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


def test_sweep_writes_reports(workspace, capsys):
    out_dir = str(workspace["root"] / "sweep")
    rc = main(["sweep", "--config", workspace["config"], "--out-dir", out_dir])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cells=4" in text and "records=1" in text
    for name in ("sweep_summary.json", "synergy_report.json", "degradation.csv", "stratified_rates.json"):
        assert os.path.exists(os.path.join(out_dir, name))
    summary = json.load(open(os.path.join(out_dir, "sweep_summary.json")))
    assert summary["policy_mode"] == "monitor"
    assert len(summary["cells"]) == 4


def test_run_monitor_trace_matches_sweep_cell(workspace, capsys):
    # `run` and `sweep` share one monitor-mode path, so a cell run on its
    # own writes exactly the bytes the sweep writes for that cell.
    sweep_dir = workspace["root"] / "sweep_monitor"
    rc = main(["sweep", "--config", workspace["config"], "--out-dir", str(sweep_dir)])
    assert rc == 0
    out = workspace["root"] / "run_monitor.jsonl"
    rc = main(
        [
            "run",
            "--config",
            workspace["config"],
            "--policy-mode",
            "monitor",
            "--po",
            "0.5",
            "--delay",
            "1",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    cell_id = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=TINY["onset_t"]).cell_id(0)
    assert out.read_bytes() == (sweep_dir / f"trace_{cell_id}.jsonl").read_bytes()


def test_analyze_recomputes_from_traces(workspace, capsys):
    out_dir = str(workspace["root"] / "sweep")
    report_path = str(workspace["root"] / "report.json")
    rc = main(
        ["analyze", "--config", workspace["config"], "--trace-dir", out_dir, "--out", report_path]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "records=1" in text
    report = json.load(open(report_path))
    assert report["n_configs"] == 1


def test_analyze_refuses_traces_from_another_config(workspace, tmp_path, capsys):
    trace_dir = str(tmp_path / "h60")
    assert main(["sweep", "--config", workspace["config"], "--out-dir", trace_dir]) == 0
    other_cfg = tmp_path / "h50.json"
    other_cfg.write_text(json.dumps(dict(TINY, horizon=50)))
    capsys.readouterr()
    assert main(["analyze", "--config", str(other_cfg), "--trace-dir", trace_dir]) == 1
    assert "not this config" in capsys.readouterr().err
    assert main(["analyze", "--config", workspace["config"], "--trace-dir", trace_dir]) == 0
    capsys.readouterr()


def test_out_paths_into_a_missing_directory(workspace, tmp_path, capsys):
    cfg = ["--config", workspace["config"]]
    snap = tmp_path / "a" / "calibration.json"
    trace = tmp_path / "b" / "trace.jsonl"
    report = tmp_path / "c" / "report.json"
    bounds = tmp_path / "d" / "bounds.csv"
    assert main(["calibrate", *cfg, "--out", str(snap)]) == 0
    assert main(["run", *cfg, "--snapshot", str(snap), "--out", str(trace)]) == 0
    sweep_dir = str(workspace["root"] / "sweep_for_out")
    assert main(["sweep", *cfg, "--out-dir", sweep_dir]) == 0
    assert main(["analyze", *cfg, "--trace-dir", sweep_dir, "--out", str(report)]) == 0
    assert main(["oracle-check", "--n-samples", "20", "--grid-points", "11", "--out", str(bounds)]) == 0
    capsys.readouterr()
    assert CalibrationSnapshot.load(str(snap), workspace["cfg"]).env_id == "MassSpring1D"
    assert len(trace_steps(trace)) == TINY["horizon"]
    assert json.loads(report.read_text())["n_configs"] == 1
    # csv rows end in \r\n, as csv.writer writes them.
    raw = bounds.read_bytes()
    assert raw.count(b"\r\n") == 21 and raw.count(b"\n") == 21


def test_an_output_path_that_cannot_be_written_is_an_input_error(workspace, tmp_path, monkeypatch, capsys):
    regular, directory = tmp_path / "F", tmp_path / "D"
    regular.write_text("")
    directory.mkdir()
    cfg = ["--config", workspace["config"]]
    trace_dir = str(tmp_path / "sweep")
    assert main(["sweep", *cfg, "--out-dir", trace_dir]) == 0
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # so that the recorder sees every batch
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    commands = [
        (["sweep", *cfg, "--out-dir", str(regular)], f"{regular}: Not a directory"),  # refused before any cell runs
        (["calibrate", *cfg, "--out", str(regular / "snap.json")], f"{regular / 'snap.json'}: Not a directory"),
        (["run", *cfg, "--out", str(directory)], f"{directory}: Is a directory"),
        (["oracle-check", "--n-samples", "20", "--grid-points", "11", "--out", str(directory)], f"{directory}: Is a directory"),
        (["analyze", *cfg, "--trace-dir", trace_dir, "--out", str(directory)], f"{directory}: Is a directory"),
    ]
    for argv, says in commands:
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {says}\n"
        if argv[0] == "sweep":
            assert batches == []
    assert list(tmp_path.rglob("*.tmp")) == [] and list(directory.iterdir()) == []


def test_run_sweep_refuses_a_snapshot_of_another_config_before_any_cell(workspace, tmp_path, monkeypatch):
    cfg_a = workspace["cfg"]
    snapshot = rollout.calibrate(cfg_a)

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran under a snapshot of another config")

    monkeypatch.setattr(rollout, "run_cells", refuse)
    cases = [
        (config_from_dict(dict(TINY, horizon=50)), snapshot, "was calibrated for MassSpring1D"),
        (cfg_a, replace(snapshot, thresholds=Thresholds(tau_low=0.25, tau_high=0.6)), "holds thresholds 0.25, 0.6"),
    ]
    for config, snap, message in cases:
        for out_dir in (None, str(tmp_path / "sweep")):
            with pytest.raises(InputError, match=f"^snapshot {message}"):
                rollout.run_sweep(config, snap, out_dir=out_dir)
    assert not (tmp_path / "sweep").exists()


def test_a_resumed_sweep_hashes_its_config_once(workspace, tmp_path, monkeypatch):
    cfg = workspace["cfg"]
    snapshot = CalibrationSnapshot.load(workspace["snapshot"], cfg)
    out_dir = str(tmp_path / "sweep")
    rollout.run_sweep(cfg, snapshot, out_dir=out_dir)
    calls = []
    config_hash = ExperimentConfig.config_hash

    def counting_config_hash(self):
        calls.append(self)
        return config_hash(self)

    def refuse(*args, **kwargs):
        raise AssertionError("a complete trace was simulated again")

    monkeypatch.setattr(ExperimentConfig, "config_hash", counting_config_hash)
    monkeypatch.setattr(rollout, "run_cells", refuse)
    outcome = rollout.run_sweep(cfg, snapshot, out_dir=out_dir)
    assert len(outcome.cell_summaries) == 4 and len(calls) == 1


def test_a_second_trace_of_a_cell_is_refused(workspace, tmp_path, capsys):
    # A copy of cell po0_delay0's trace under a name no cell has: every cell is present, one twice.
    trace_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", workspace["config"], "--out-dir", str(trace_dir)]) == 0
    source = trace_dir / "trace_po0_delay0_shift-none_seed0.jsonl"
    (trace_dir / "trace_copy.jsonl").write_bytes(source.read_bytes())
    capsys.readouterr()
    assert main(["analyze", "--config", workspace["config"], "--trace-dir", str(trace_dir), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: two cell summaries for cell po0_delay0_shift-none_seed0\n"


def _mean_loss_line(text: str) -> tuple:
    m = re.search(r"^mean loss over (\d+) records: delta_po=(\S+) \+ delta_theta=(\S+) = (\S+) vs delta_compound=(\S+)$", text, re.M)
    assert m, text
    return (int(m.group(1)), *(float(v) for v in m.group(2, 3, 4, 5)))


def test_sweep_and_analyze_print_the_mean_losses(tmp_path, capsys):
    doc = dict(TINY, grid=dict(TINY["grid"], seeds=[0, 1, 2]), output_dir=str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    trace_dir = tmp_path / "sweep"
    assert main(["calibrate", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(trace_dir)]) == 0
    printed_by_sweep = _mean_loss_line(capsys.readouterr().out)
    assert main(["analyze", "--config", str(cfg_path), "--trace-dir", str(trace_dir)]) == 0
    printed_by_analyze = _mean_loss_line(capsys.readouterr().out)

    cfg = load_config(str(cfg_path))
    outcome = rollout.run_sweep(cfg, CalibrationSnapshot.load(str(tmp_path / "calibration.json"), cfg), out_dir=str(trace_dir))
    kept = [r for r in outcome.records if not r.baseline_degenerate]
    assert len(kept) == 3
    po, theta, compound = (float(np.mean([getattr(r, f) for r in kept])) for f in ("delta_po", "delta_theta", "delta_compound"))
    assert printed_by_sweep == printed_by_analyze == (len(kept), po, theta, po + theta, compound)


def test_analyze_refuses_unreadable_traces(workspace, tmp_path, capsys):
    trace_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", workspace["config"], "--out-dir", str(trace_dir)]) == 0
    analyze = ["analyze", "--config", workspace["config"], "--trace-dir"]
    (trace_dir / "trace_extra.jsonl").mkdir()
    assert main([*analyze, str(trace_dir)]) == 1
    assert "cannot be read" in capsys.readouterr().err
    assert main([*analyze, str(tmp_path / "missing")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot list trace directory")


def test_analyze_reports_the_first_damaged_trace_in_sorted_order(workspace, tmp_path, monkeypatch, capsys):
    # The traces are read on every worker, but the error is the one a read in sorted order meets first.
    trace_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", workspace["config"], "--out-dir", str(trace_dir)]) == 0
    traces = sorted(trace_dir.glob("trace_*.jsonl"))
    traces[1].write_bytes(b"\xff" + traces[1].read_bytes())
    traces[3].write_bytes(b"".join(traces[3].read_bytes().splitlines(keepends=True)[:-1]))  # no footer
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(rollout, "_workers", lambda: workers)
        capsys.readouterr()
        assert main(["analyze", "--config", workspace["config"], "--trace-dir", str(trace_dir)]) == 1
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] and errors[0].startswith(f"error: trace file {traces[1]} ") and errors[0].count("\n") == 1


def test_analyze_empty_dir(workspace, tmp_path, capsys):
    rc = main(["analyze", "--config", workspace["config"], "--trace-dir", str(tmp_path)])
    assert rc == 1
    assert "no trace files" in capsys.readouterr().err


def test_oracle_check_small_batch(tmp_path, capsys):
    out = str(tmp_path / "bounds.csv")
    rc = main(["oracle-check", "--n-samples", "200", "--grid-points", "21", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "violations=0" in text and "coupling_inversions=0" in text
    lines = open(out).read().splitlines()
    assert len(lines) == 201  # header plus one row per sample


def test_oracle_check_csv_equals_the_scalar_loop_bytes(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["oracle-check", "--n-samples", "1500", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rng = np.random.default_rng(3)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["sample", "n_s", "n_theta", "mi", "bound", "slack", "holds"])
    for i in range(1500):
        n_s = int(rng.integers(2, 9))
        n_theta = int(rng.integers(2, 9))
        check = verify_bound(random_belief(rng, n_s, n_theta))
        ok = check.holds and abs(check.slack - check.h_joint) <= 1e-9
        writer.writerow((i, n_s, n_theta, check.mi, check.bound, check.slack, ok))
    assert out.read_bytes() == text.getvalue().encode()


def test_oracle_check_rejects_bad_sample_count(capsys):
    assert main(["oracle-check", "--n-samples", "0"]) == 1
    capsys.readouterr()


def test_oracle_check_exit_three_on_violation(monkeypatch, capsys):
    broken = BoundCheck(mi=0.0, h_s=0.0, h_theta=0.0, h_joint=1.0, bound=0.0, slack=0.0, holds=False)
    monkeypatch.setattr("compound_uq.cli.random_bound_checks", lambda seed, n_samples: [(2, 2, broken)] * n_samples)
    assert main(["oracle-check", "--n-samples", "3"]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err and "bound violations=3," in err
