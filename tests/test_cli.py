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
from helpers import DEEP, LONG_INT, TINY, batch_cell_ids, record_calls, trace_steps

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


def _edited_snapshot(workspace, path, edit) -> str:
    """The workspace snapshot's document after ``edit``, saved at ``path``;
    its weights_hash stays valid, since no weight changes."""
    doc = json.loads(open(workspace["snapshot"]).read())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _other_thresholds(doc) -> None:
    doc.update(tau_low=0.25, tau_high=0.6)


def _other_mu0(doc) -> None:
    doc.update(mu0=2.0 * doc["mu0"])  # a run key of the trace header, not covered by weights_hash


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_and_flag(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run", "--bogus"]) == 1
    capsys.readouterr()


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_calibrate_writes_a_loadable_snapshot(workspace, capsys):
    snap = CalibrationSnapshot.load(workspace["snapshot"], workspace["cfg"])
    assert snap.env_id == "MassSpring1D"
    assert snap.thresholds.tau_low == 0.2 and snap.thresholds.tau_high == 0.5
    assert snap.ensemble.frozen


def test_calibrate_missing_config_file(capsys):
    assert main(["calibrate", "--config", "/nonexistent/cfg.json"]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"grid": 5},
        {"ensemble": None},
        {"horizon": "abc"},
        {"thresholds": {"round_to_decimal": "false"}},
        {"horizon": 500.9},
        {"grid": {"seeds": [1.7]}},
        {"policy": {"alpha_max": float("nan")}},
        {"ensemble": {"clip_c": float("inf")}},
        {"policy": {"alpha_max": 10**400}},
    ],
)
def test_calibrate_wrongly_typed_config_is_an_input_error(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["calibrate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path}: ")


@pytest.mark.parametrize("doc", [{"grid": dict(TINY["grid"], seeds=[-1, 0])}, {"calibration_seed": -1}])
def test_calibrate_refuses_negative_seeds(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path), **doc)))
    assert main(["calibrate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path}: seeds must be nonnegative")
    assert not (tmp_path / "calibration.json").exists()


# Configs that parse, but that used to fail only later: with a traceback in
# training or in the adapting loop, by writing a snapshot that sweep then
# refuses, or with a refusal after the ensemble had trained.
LATE_FAILING_CONFIGS = [
    {"ensemble": {"batch_size": 0}},
    {"ensemble": {"hidden_width": 0}},
    {"ensemble": {"epochs": -1}},
    {"ensemble": {"learning_rate": -0.5}},
    {"ensemble": {"clip_c": 0}},
    {"ensemble": {"c_tau": -1}},
    {"adaptive": {"every": 0}},
    {"adaptive": {"window": -1}},
    {"adaptive": {"epochs": -1}},
    {"grid": {"delay_levels": [-1]}},
    {"grid": {"seeds": []}},
    {"grid": {"po_levels": [1.5]}},
    {"onset_t": -5},
    {"thresholds": {"tau_low": 0.5, "tau_high": 0.2}},
    {"grid": {"po_levels": [0.0, 0.5, 0.5]}},
    {"grid": {"delay_levels": [0, 1, 1]}},
    {"grid": {"shift_levels": [None, None]}},
    {"grid": {"seeds": [0, 0]}},
    {"grid": {"po_levels": [0.0, -0.0, 0.5]}},
]


@pytest.mark.parametrize("change", LATE_FAILING_CONFIGS)
def test_configs_that_would_fail_later_are_refused_at_load(tmp_path, capsys, change):
    doc = dict(TINY, output_dir=str(tmp_path))
    for section, value in change.items():
        doc[section] = {**doc.get(section, {}), **value} if isinstance(value, dict) else value
    with pytest.raises(InputError):
        config_from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["calibrate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "calibration.json").exists()


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


def test_run_and_sweep_refuse_a_foreign_snapshot(workspace, tmp_path, monkeypatch, capsys):
    other = dict(TINY, horizon=50, output_dir=str(tmp_path))
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(other))
    foreign = str(tmp_path / "foreign.json")
    assert main(["calibrate", "--config", str(other_cfg), "--out", foreign]) == 0
    wrong_env = str(tmp_path / "wrong_env.json")
    replace(CalibrationSnapshot.load(workspace["snapshot"], workspace["cfg"]), env_id="DriftBot").save(wrong_env)
    refusals = [
        (foreign, "was calibrated for"),
        (wrong_env, "was calibrated for"),
        # TINY overrides the thresholds with 0.2 and 0.5
        (
            _edited_snapshot(workspace, tmp_path / "thresholds.json", _other_thresholds),
            "holds thresholds 0.25, 0.6, not this config's overrides 0.2, 0.5",
        ),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a cell was simulated under a refused snapshot")

    monkeypatch.setattr("compound_uq.cli.run_condition", refuse)
    monkeypatch.setattr(rollout, "run_cells", refuse)
    capsys.readouterr()
    for snap, message in refusals:
        run = ["run", "--config", workspace["config"], "--snapshot", snap, "--out", str(tmp_path / "t.jsonl")]
        assert main(run) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: snapshot {snap} ") and message in err and len(err.splitlines()) == 1
        sweep = ["sweep", "--config", workspace["config"], "--snapshot", snap, "--out-dir", str(tmp_path / "s")]
        assert main(sweep) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: snapshot {snap} ") and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "section, key, unknown",
    [
        ("ensemble", "seed", "in ensemble: ['seed']"),  # the key format 2 wrote, in a format-3 document
        (None, "tau_hihg", "in root: ['tau_hihg']"),
        ("ensemble", "x_stdev", "in ensemble: ['x_stdev']"),
    ],
)
def test_a_snapshot_with_an_unknown_key_is_refused(workspace, tmp_path, capsys, section, key, unknown):
    def add_key(doc):
        (doc[section] if section else doc)[key] = 7

    snap = _edited_snapshot(workspace, tmp_path / "extra_key.json", add_key)
    with pytest.raises(InputError, match=f"^snapshot file {re.escape(snap)}: unknown snapshot keys {re.escape(unknown)}$"):
        CalibrationSnapshot.load(snap, workspace["cfg"])
    capsys.readouterr()
    assert main(["run", "--config", workspace["config"], "--snapshot", snap, "--out", str(tmp_path / "t.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: snapshot file {snap}: unknown snapshot keys {unknown}\n"
    assert not (tmp_path / "t.jsonl").exists()


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
    assert main(["run", "--config", workspace["config"], "--shift", "stiffness"]) == 1
    assert main(["run", "--config", workspace["config"], "--shift", "stiffness=abc"]) == 1
    assert main(["run", "--config", workspace["config"], "--shift", "gain_left=0.5"]) == 1
    capsys.readouterr()


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


def test_run_missing_snapshot(workspace, capsys):
    rc = main(
        ["run", "--config", workspace["config"], "--snapshot", str(workspace["root"] / "nope.json")]
    )
    assert rc == 1
    assert "not found" in capsys.readouterr().err


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


def test_analyze_refuses_a_mixed_trace_directory(workspace, tmp_path, capsys):
    trace_dir = tmp_path / "mixed"
    assert main(["sweep", "--config", workspace["config"], "--out-dir", str(trace_dir)]) == 0
    analyze = ["analyze", "--config", workspace["config"], "--trace-dir", str(trace_dir)]
    assert main(analyze) == 0
    capsys.readouterr()

    # One cell re-run in the other policy mode.
    cell = ConditionSpec(po_fraction=0.5, onset_t=TINY["onset_t"]).cell_id(0)
    out = str(trace_dir / f"trace_{cell}.jsonl")
    assert main(["run", "--config", workspace["config"], "--policy-mode", "adaptive", "--po", "0.5", "--out", out]) == 0
    capsys.readouterr()
    assert main(analyze) == 1
    assert "mix" in capsys.readouterr().err

    # One cell re-run under a snapshot with another noise floor.
    edited = _edited_snapshot(workspace, tmp_path / "edited.json", _other_mu0)
    assert main(["run", "--config", workspace["config"], "--snapshot", edited, "--po", "0.5", "--out", out]) == 0
    capsys.readouterr()
    assert main(analyze) == 1
    assert capsys.readouterr().err == (
        f"error: trace file {trace_dir / 'trace_po0.5_delay1_shift-none_seed0.jsonl'} and trace file {out} "
        "mix two runs: their headers differ in ['mu0']\n"
    )


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


def test_an_output_path_that_cannot_be_written_is_an_input_error(workspace, tmp_path, capsys):
    regular, directory = tmp_path / "F", tmp_path / "D"
    regular.write_text("")
    directory.mkdir()
    cfg = ["--config", workspace["config"]]
    trace_dir = str(tmp_path / "sweep")
    assert main(["sweep", *cfg, "--out-dir", trace_dir]) == 0
    commands = [
        (["sweep", *cfg, "--out-dir", str(regular)], regular),  # fails at its first trace, once every seed's cells ran
        (["calibrate", *cfg, "--out", str(regular / "snap.json")], regular / "snap.json"),
        (["run", *cfg, "--out", str(directory)], directory),
        (["oracle-check", "--n-samples", "20", "--grid-points", "11", "--out", str(directory)], directory),
        (["analyze", *cfg, "--trace-dir", trace_dir, "--out", str(directory)], directory),
    ]
    for argv, path in commands:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == [] and list(directory.iterdir()) == []


@pytest.mark.parametrize("change", ["mu0", "toolkit_version"])
def test_resume_resimulates_the_traces_of_another_run(workspace, tmp_path, monkeypatch, capsys, change):
    extra = []

    def sweep(out_dir) -> int:
        return main(["sweep", "--config", workspace["config"], "--out-dir", str(out_dir), *extra])

    assert sweep(tmp_path / "resumed") == 0
    if change == "mu0":
        extra = ["--snapshot", _edited_snapshot(workspace, tmp_path / "edited.json", _other_mu0)]
    else:
        monkeypatch.setattr(rollout, "TOOLKIT_VERSION", "0.0.0")
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    assert sweep(tmp_path / "resumed") == 0
    assert [len(batch) for batch in batches] == [4]
    assert sweep(tmp_path / "fresh") == 0
    capsys.readouterr()
    resumed, fresh = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("resumed", "fresh"))
    assert len(resumed) == 8 and resumed == fresh


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


def _with_long_int(doc: str, key: str) -> str:
    """``doc`` with the first value of ``"key": <int>`` made 5,000 digits long."""
    head, sep, tail = doc.partition(f'"{key}": ')
    assert sep, key
    return head + sep + LONG_INT + tail.lstrip("0123456789")


def _refused_with_one_error_line(workspace, tmp_path, capsys, config_text: str, snapshot_text: str, reason: str) -> None:
    """Write ``config_text`` as a config and ``snapshot_text`` as a snapshot. Loading either raises an
    ``InputError`` that names the file and says it is not valid JSON for ``reason``, and ``calibrate``
    and ``run`` on them exit 1 with one ``error:`` line that says so. The trace cases are rows of
    ``test_readback.TRACE_EDITS``."""
    config, snapshot = tmp_path / "config.json", tmp_path / "snapshot.json"
    config.write_text(config_text)
    snapshot.write_text(snapshot_text)
    loaders = [("config", config, load_config), ("snapshot", snapshot, lambda path: CalibrationSnapshot.load(path, workspace["cfg"]))]
    for what, path, load in loaders:
        with pytest.raises(InputError, match=f"^{what} file {re.escape(str(path))} is not valid JSON: {reason}"):
            load(str(path))
    commands = [
        ["calibrate", "--config", str(config)],
        ["run", "--config", workspace["config"], "--snapshot", str(snapshot)],
    ]
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err
        assert f"is not valid JSON: {reason}" in err


def test_an_over_long_integer_is_an_input_error(workspace, tmp_path, capsys):
    config = _with_long_int(json.dumps(TINY), "horizon")
    snapshot = _with_long_int(open(workspace["snapshot"]).read(), "m_members")
    _refused_with_one_error_line(workspace, tmp_path, capsys, config, snapshot, "Exceeds the limit")


def test_json_nested_too_deep_is_an_input_error(workspace, tmp_path, capsys):
    _refused_with_one_error_line(workspace, tmp_path, capsys, DEEP, DEEP, "maximum recursion depth exceeded")


def test_a_trace_filed_under_another_cell(workspace, tmp_path, capsys):
    # A copy of cell po0_delay0's trace under cell po0.5_delay1's name.
    trace_dir = tmp_path / "sweep"
    sweep = ["sweep", "--config", workspace["config"], "--out-dir", str(trace_dir)]
    assert main(sweep) == 0
    source = trace_dir / "trace_po0_delay0_shift-none_seed0.jsonl"
    target = trace_dir / "trace_po0.5_delay1_shift-none_seed0.jsonl"
    fresh = target.read_bytes()
    target.write_bytes(source.read_bytes())

    analyze = ["analyze", "--config", workspace["config"], "--trace-dir", str(trace_dir), "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(analyze) == 1
    assert capsys.readouterr().err == "error: two cell summaries for cell po0_delay0_shift-none_seed0\n"

    # sweep resume simulates the cell again instead of reusing the copy
    assert main(sweep) == 0
    assert target.read_bytes() == fresh
    assert main(analyze) == 0

    # a second trace of a cell is refused even when every cell is present
    (trace_dir / "trace_copy.jsonl").write_bytes(source.read_bytes())
    capsys.readouterr()
    assert main(analyze) == 1
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
