"""Closed-loop rollout, calibration, and sweep plumbing tests.

Most tests run against a hand-built constant-prediction snapshot on the
oscillator environment, which keeps every episode cheap while still
exercising the full step pipeline (masking, action delay, shift, kappa
scoring, trace files).
"""

import hashlib
import inspect
import json
import math
import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from copy import deepcopy
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import batch_cell_ids, build_eval_rows, clamp_grid, constant_ensemble, float_bits, record_calls, trace_steps

from compound_uq import policy, rollout
from compound_uq.analysis import stratified_rate_test
from compound_uq.config import ExperimentConfig, config_from_dict
from compound_uq.ensemble import Ensemble, disagreement, input_rows
from compound_uq.envs import DriftBot, MassSpring1D, env_class
from compound_uq.errors import CalibrationError, InputError, InvariantViolation
from compound_uq.kappa import KappaComponents, Regime, Thresholds
from compound_uq.perturb import ConditionSpec, condition_matrix
from compound_uq.policy import ActionChoice, PolicySettings, schedule, select_action, task_affinity
from compound_uq.rollout import (
    RolloutResult,
    build_degradation_records,
    calibrate,
    collect_baseline_buffer,
    driftbot_controller,
    mass_spring_controller,
    read_trace,
    run_cells,
    run_condition,
    run_header,
    run_sweep,
    trace_header,
    write_trace,
)
from compound_uq.snapshot import CalibrationSnapshot


@pytest.fixture
def cfg_ms():
    return config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 40,
            "onset_t": 10,
            "grid": {
                "po_levels": [0.0, 0.5],
                "delay_levels": [0, 1],
                "shift_levels": [None],
                "seeds": [0],
            },
            "ensemble": {"t_pre": 60, "m_members": 2},
            "policy": {"delta_max": 1.0, "n_candidates": 8},
        }
    )


def zero_delta_snapshot(cfg) -> CalibrationSnapshot:
    """A hand-built MassSpring1D snapshot for ``cfg``: two members that always
    predict a zero delta, so mse is the squared transition norm and
    disagreement is identically zero."""
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5, frozen=True)
    return CalibrationSnapshot(
        config_hash=cfg.config_hash(),
        env_id="MassSpring1D",
        mu0=0.0,
        sigma0=1.0,
        thresholds=Thresholds(tau_low=0.1, tau_high=0.5),
        ensemble=ens,
    )


@pytest.fixture
def snap_ms(cfg_ms):
    return zero_delta_snapshot(cfg_ms)


def test_mass_spring_controller_is_saturated_relay():
    assert mass_spring_controller(np.array([1.0, 0.0]))[0] == -1.0
    assert mass_spring_controller(np.array([-1.0, 0.0]))[0] == 1.0
    # Inside the boundary layer the relay turns into a linear law.
    assert mass_spring_controller(np.array([0.004, 0.0]))[0] == pytest.approx(-0.4)


def test_driftbot_controller_deadband_and_bounds():
    docked = np.array([3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.01, 0.0])
    np.testing.assert_array_equal(driftbot_controller(docked), np.zeros(2))
    far = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 3.0, 0.0])
    cmd = driftbot_controller(far)
    assert cmd.shape == (2,) and np.all(np.abs(cmd) <= 1.0)
    assert cmd[0] > 0 and cmd[1] > 0  # straight ahead, both wheels forward


def test_controller_clamps_are_np_clip_bit_for_bit():
    def driftbot_np_clip(obs):  # the controller as written with np.clip
        heading = math.atan2(obs[2], obs[3])
        dist = math.hypot(obs[6], obs[7])
        if dist < rollout.DOCK_RADIUS:
            return np.zeros(2)
        bearing = math.atan2(obs[7], obs[6])
        err = math.atan2(math.sin(bearing - heading), math.cos(bearing - heading))
        forward = 0.9 * min(1.0, dist) * max(0.0, math.cos(err))
        turn = float(np.clip(1.2 * err, -0.9, 0.9))
        return np.clip(np.array([forward - turn, forward + turn]), -1.0, 1.0)

    rng = np.random.default_rng(0)
    observations = []
    for _ in range(2000):
        heading = rng.uniform(-math.pi, math.pi)
        obs = np.zeros(8)
        obs[2:4] = math.sin(heading), math.cos(heading)
        obs[6:8] = rng.uniform(-5.0, 5.0, size=2) * rng.choice([1.0, 0.01])
        observations.append(obs)
    for heading in (0.0, -0.0, math.pi, 0.75, -0.75):  # straight on, behind, at the turn limit
        observations.append(np.array([0.0, 0.0, math.sin(heading), math.cos(heading), 0.0, 0.0, 2.0, 0.0]))
    for obs in observations:
        assert driftbot_controller(obs).tobytes() == driftbot_np_clip(obs).tobytes(), obs

    for z in clamp_grid(-1.0, 1.0):
        obs = np.array([z * rollout.SLIDING_LAYER, 0.0])
        expected = np.array([-np.clip((obs[0] + 0.5 * obs[1]) / rollout.SLIDING_LAYER, -1.0, 1.0)])
        assert [float_bits(v) for v in mass_spring_controller(obs)] == [float_bits(v) for v in expected], z


def test_driftbot_controller_closes_distance():
    env = DriftBot(seed=0, horizon=250)
    obs = env.observe()
    start = math.hypot(obs[6], obs[7])
    for _ in range(240):
        obs, _ = env.step(driftbot_controller(obs))
    end = math.hypot(obs[6], obs[7])
    assert start == pytest.approx(3.0, abs=1e-9)
    assert end < 1.0


def test_collect_baseline_buffer_row_count_and_determinism(cfg_ms):
    x, y = collect_baseline_buffer(cfg_ms)
    # 60 transitions in episodes of up to 40 steps: 40 + 20, minus the
    # two warmup rows each episode needs for the acceleration feature.
    assert x.shape == (56, 5) and y.shape == (56, 2)
    x2, y2 = collect_baseline_buffer(cfg_ms)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    # Within an episode (rows 0-37, then 38-55) each row's target is the
    # step to the next row's obs, and its acc is the second difference of
    # its own obs and the two rows before, bit for bit.
    obs = x[:, :2]
    for first, last in ((0, 38), (38, 56)):
        ep = obs[first:last]
        assert np.array_equal(y[first : last - 1], ep[1:] - ep[:-1])
        assert np.array_equal(x[first + 2 : last, 2:4], ep[2:] - 2.0 * ep[1:-1] + ep[:-2])
    assert not np.array_equal(y[37], obs[38] - obs[37])  # a new episode starts at row 38


# sha256 of the calibration rows' x bytes then y bytes, recorded when the
# rows were still built from stored transitions after collection.
PINNED_BASELINE_ROWS = "b9f43a1e747423e728c703b1523d61c41b20fd3c8a81ebd70e0971b822256757"


def test_collect_baseline_buffer_rows_are_pinned(cfg_ms):
    x, y = collect_baseline_buffer(cfg_ms)
    assert hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest() == PINNED_BASELINE_ROWS


def test_run_condition_baseline_bookkeeping(cfg_ms, snap_ms):
    cond = ConditionSpec(onset_t=10)
    res = run_condition(cfg_ms, snap_ms, cond, seed=0)
    summary = res.summary()
    assert summary["n_steps"] == 40 and len(res.steps) == 40 and res.steps.kappa.shape == (40,)
    assert res.cell_id == cond.cell_id(0)
    assert res.run == run_header(cfg_ms, snap_ms, "monitor")
    assert summary["violations"] == 0
    # No stressors anywhere: every step's structural term is zero.
    assert (res.steps.sigma_s == 0.0).all()
    assert summary["post_onset_kappa_mean"] == pytest.approx(np.mean(res.steps.kappa[10:]), abs=1e-12)
    assert summary["peak_kappa"] == max(res.steps.kappa)
    assert res.adaptive_ensemble is None


def _trace_steps(path, res) -> list[dict]:
    """The step lines of ``res`` as a written trace holds them."""
    write_trace(str(path), res)
    return trace_steps(path)


def test_run_condition_is_deterministic(cfg_ms, snap_ms, tmp_path):
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10)
    a = run_condition(cfg_ms, snap_ms, cond, seed=3)
    b = run_condition(cfg_ms, snap_ms, cond, seed=3)
    assert a.summary()["episode_return"] == b.summary()["episode_return"]
    assert a.steps.kappa.tobytes() == b.steps.kappa.tobytes()
    steps_a = _trace_steps(tmp_path / "a.jsonl", a)
    assert steps_a == _trace_steps(tmp_path / "b.jsonl", b)


def test_run_condition_stressors_engage_at_onset(cfg_ms, snap_ms):
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10)
    res = run_condition(cfg_ms, snap_ms, cond, seed=1)
    # Masking half of a 2-dim observation plus a 1-step delay:
    # 0.5 + min(1, 0.3) * 1.5 = 0.95, but only from the onset step on.
    assert res.steps.sigma_s[9] == 0.0
    assert res.steps.sigma_s[10] == pytest.approx(0.95, abs=1e-12)
    # The delay executes zeros at onset and the onset-step command one
    # step later.
    assert res.steps.executed[10].tolist() == [0.0]
    assert res.steps.executed[11].tolist() == res.steps.action[10].tolist()
    assert res.steps.executed[9].tolist() == res.steps.action[9].tolist()


@pytest.mark.parametrize("onset", [0, 5])
@pytest.mark.parametrize("delay", [0, 1, 3])
def test_the_delay_executes_each_command_delay_steps_late_from_onset(cfg_ms, snap_ms, delay, onset):
    # Before onset a cell executes its own command; from onset on, zeros (+0.0) for
    # delay_steps steps, then each command delay_steps steps late, all bit for bit.
    res = run_condition(cfg_ms, snap_ms, ConditionSpec(delay_steps=delay, onset_t=onset), seed=0)
    action, executed = res.steps.action, res.steps.executed
    held = onset + delay
    assert executed[:onset].tobytes() == action[:onset].tobytes()
    assert executed[onset:held].tobytes() == np.zeros((delay, 1)).tobytes()
    assert executed[held:].tobytes() == action[onset : len(action) - delay].tobytes()
    # the commands change after the held steps, so a delay of another length fails the last check
    assert len({a.tobytes() for a in action[held:]}) > 1


def test_shift_engages_exactly_at_onset(cfg_ms, snap_ms, tmp_path):
    clean_res = run_condition(cfg_ms, snap_ms, ConditionSpec(onset_t=10), seed=0)
    shifted_res = run_condition(cfg_ms, snap_ms, ConditionSpec(shift=("stiffness", 3.0), onset_t=10), seed=0)
    clean = _trace_steps(tmp_path / "clean.jsonl", clean_res)
    shifted = _trace_steps(tmp_path / "shifted.jsonl", shifted_res)
    # Every pre-onset step is the unshifted one; the plant steps on the
    # new stiffness from the onset step itself.
    assert shifted[:10] == clean[:10]
    assert shifted[10]["obs"] == clean[10]["obs"]
    assert shifted[10]["next_obs"] != clean[10]["next_obs"]


def test_run_condition_adaptive_updates_a_clone(cfg_ms, snap_ms):
    cond = ConditionSpec(po_fraction=0.0, delay_steps=1, onset_t=10)
    res = run_condition(cfg_ms, snap_ms, cond, seed=0, adaptive_enabled=True)
    assert res.adaptive_ensemble is not None
    assert not res.adaptive_ensemble.frozen
    assert res.adaptive_ensemble.weights_hash() != snap_ms.ensemble.weights_hash()
    assert snap_ms.ensemble.frozen  # the deployed scorer is untouched


@pytest.fixture(scope="module")
def db_snapshot():
    # A real (small) calibrated DriftBot ensemble; the threshold overrides
    # skip the probe runs.
    cfg = config_from_dict(
        {
            "env_id": "DriftBot",
            "horizon": 40,
            "onset_t": 10,
            "grid": {
                "po_levels": [0.0, 0.5],
                "delay_levels": [0, 1],
                "shift_levels": [None, ["gain_left", 0.5]],
                "seeds": [0],
            },
            "ensemble": {"t_pre": 120, "m_members": 3, "epochs": 5},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    return cfg, calibrate(cfg)


def _record_candidate_sets(monkeypatch) -> list[tuple[int, bool]]:
    """(rows returned, whether every explorer was drawn) for every
    candidate set the episode loop draws from now on."""
    sets: list[tuple[int, bool]] = []
    draw = policy.candidate_actions

    def recording(task_action, rng, settings, spread):
        replay = np.random.Generator(type(rng.bit_generator)())
        replay.bit_generator.state = rng.bit_generator.state
        cands = draw(task_action, rng, settings, spread)
        replay.uniform(-1.0, 1.0, size=(settings.n_candidates - 2, len(task_action)))
        sets.append((cands.shape[0], replay.bit_generator.state == rng.bit_generator.state))
        return cands

    monkeypatch.setattr(policy, "candidate_actions", recording)
    return sets


def test_monitor_episode_scores_only_the_task_and_zero_rows(db_snapshot, monkeypatch):
    cfg, snap = db_snapshot
    rows = record_calls(monkeypatch, Ensemble, "predict_members", lambda ens, x: x.shape[0])
    drawn = _record_candidate_sets(monkeypatch)
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, shift=("gain_left", 0.5), onset_t=cfg.onset_t)
    run_condition(cfg, snap, cond, seed=0)
    assert rows == [2] * cfg.horizon
    # Every explorer draw is still taken, so the policy stream does not move.
    assert drawn == [(2, True)] * cfg.horizon


def test_adaptive_episode_scores_every_candidate_only_at_nonzero_spread(cfg_ms, monkeypatch):
    cfg = replace(cfg_ms, policy=PolicySettings(alpha_max=1.0, lambda_risk=1.0, delta_max=1.0, n_candidates=8))
    rows = record_calls(monkeypatch, Ensemble, "predict_members", lambda ens, x: x.shape[0])
    drawn = _record_candidate_sets(monkeypatch)
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10)
    res = run_condition(cfg, zero_delta_snapshot(cfg), cond, seed=0, policy_mode="adaptive")
    # alpha is zero exactly when the spread is, i.e. while kappa <= tau_low.
    assert rows == [2 if alpha == 0.0 else 8 for alpha in res.steps.alpha]
    assert 2 in rows and 8 in rows
    assert drawn == [(n, True) for n in rows]


@pytest.mark.parametrize("mode", ["monitor", "adaptive"])
def test_kappa_ramp_is_evaluated_once_per_step(cfg_ms, monkeypatch, mode):
    calls = []
    ramp = policy._ramp

    def counting(*args):
        calls.append(args)
        return ramp(*args)

    monkeypatch.setattr(policy, "_ramp", counting)
    cfg = replace(cfg_ms, policy=replace(cfg_ms.policy, alpha_max=1.0))
    snap = zero_delta_snapshot(cfg)
    res = run_condition(cfg, snap, ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10), 0, policy_mode=mode)
    assert (res.steps.alpha > 0.0).any() == (mode == "adaptive")
    assert len(calls) == cfg.horizon
    # A batch evaluates the ramp once per control step over every stepping cell's kappa:
    # seed 0's follower joins its leader at step onset_t - 1 = 9, beside seed 1's cell.
    calls.clear()
    cells = [(ConditionSpec(onset_t=10), 0), (ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10), 0), (ConditionSpec(delay_steps=1, onset_t=10), 1)]
    run_cells(cfg, snap, run_header(cfg, snap, mode), cells)
    assert len(calls) == cfg.horizon
    assert [np.shape(kappas) for kappas, _ in calls] == [(2,)] * 9 + [(3,)] * (cfg.horizon - 9)


def test_zero_spread_selection_matches_the_full_candidate_set(db_snapshot):
    # At zero spread policy.act scores only rows 0 and 1; scored by a real
    # ensemble, that must give the full set's choice field for field.
    cfg, snap = db_snapshot
    settings = replace(cfg.policy, alpha_max=0.0)  # the monitor policy
    obs_dim = len(DriftBot.OBS_NAMES)
    states, _ = collect_baseline_buffer(cfg)
    rng = np.random.default_rng(0)
    picked, n_forced = set(), 0
    inner = DriftBot.ARENA_HALF - DriftBot.RISK_ZONE
    for i in range(300):
        obs, acc = states[i % states.shape[0], :obs_dim].copy(), states[i % states.shape[0], obs_dim : 2 * obs_dim]
        # Put the pose in or near the risk zone so that budgets bind.
        obs[:2] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(inner - DriftBot.RISK_ZONE, DriftBot.ARENA_HALF, size=2)
        history = np.array([obs + acc, obs, obs])[:, None]  # one cell, whose acc feature is about acc
        task = np.zeros(2) if i % 10 == 0 else rng.uniform(-1.0, 1.0, size=2)
        kappa = float(rng.uniform(0.0, 1.5 * snap.thresholds.tau_high))
        distinct, alpha, delta, _ = policy.act(history, [task], [kappa], [rng], snap.ensemble, DriftBot.risk_from_obs, snap.thresholds, settings)
        # the hand-built oracle: the full set, where at zero spread every explorer equals the task row
        full_set = np.concatenate([task[None, :], np.zeros((1, 2)), np.repeat(task[None, :], settings.n_candidates - 2, axis=0)])
        one_alpha, one_delta, _ = schedule([kappa], snap.thresholds, settings)
        assert (alpha.tolist(), delta.tolist()) == (one_alpha.tolist(), one_delta.tolist())
        base = input_rows(history, task)[0, : 2 * obs_dim]
        x = np.concatenate([np.repeat(base[None, :], full_set.shape[0], axis=0), full_set], axis=1)
        preds = snap.ensemble.predict_members(x)
        info_gain, mean = disagreement(preds)
        risk = DriftBot.risk_from_obs(base[None, :obs_dim] + mean)
        full = select_action(full_set, task_affinity(full_set, task), info_gain, risk, float(alpha[0]), float(delta[0]), settings)
        for f in fields(ActionChoice):
            np.testing.assert_array_equal(getattr(full, f.name), getattr(distinct, f.name)[0])
        picked.add(full.index)
        n_forced += not full.any_compliant
    # Both rows win somewhere, and both the budget and the forced branch run.
    assert picked == {0, 1} and 0 < n_forced < 300


def test_calibrate_with_threshold_overrides(tmp_path):
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 60,
            "onset_t": 10,
            "grid": {
                "po_levels": [0.0, 0.5],
                "delay_levels": [0, 1],
                "shift_levels": [None, ["stiffness", 3.0]],
                "seeds": [0],
            },
            "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 5},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    snap = calibrate(cfg)
    assert snap.env_id == "MassSpring1D"
    assert snap.config_hash == cfg.config_hash()
    assert snap.ensemble.frozen
    assert snap.mu0 >= 0.0 and snap.sigma0 > 0.0
    assert snap.thresholds == Thresholds(tau_low=0.2, tau_high=0.5)
    again = calibrate(cfg)
    assert again.ensemble.weights_hash() == snap.ensemble.weights_hash()
    assert again.mu0 == snap.mu0 and again.sigma0 == snap.sigma0


def test_calibrate_needs_an_active_stressor():
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 60,
            "onset_t": 10,
            "grid": {"po_levels": [0.0], "delay_levels": [0], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 60, "m_members": 2, "epochs": 2},
        }
    )
    with pytest.raises(CalibrationError):
        calibrate(cfg)


def test_trace_roundtrip(cfg_ms, snap_ms, tmp_path, monkeypatch):
    cond = ConditionSpec(po_fraction=0.5, onset_t=10)
    res = run_condition(cfg_ms, snap_ms, cond, seed=2)
    path = str(tmp_path / "trace.jsonl")
    hashes = record_calls(monkeypatch, ExperimentConfig, "config_hash", lambda *args: args)
    lines = write_trace(path, res)
    assert hashes == []  # the writer takes the run header its episode built
    # path first (the benchmark's tracer reads argument 0); reuse is the previous cell's table and lines
    assert list(inspect.signature(write_trace).parameters) == ["path", "result", "reuse"]
    assert (tmp_path / "trace.jsonl").read_text().splitlines()[1:-1] == lines
    assert "policy_mode" not in {f.name for f in fields(RolloutResult)}
    header, summary = read_trace(path)
    steps = trace_steps(path)
    assert header == json.loads(json.dumps(trace_header(run_header(cfg_ms, snap_ms, "monitor"), cond, 2)))
    assert header["kind"] == "header"
    assert header["config_hash"] == cfg_ms.config_hash()
    assert header["policy_mode"] == "monitor"
    assert header["cell_id"] == res.cell_id
    assert header["tau_low"] == snap_ms.thresholds.tau_low
    assert len(steps) == 40 and steps[0]["t"] == 0 and steps[-1]["t"] == 39
    assert summary == json.loads(json.dumps(res.summary()))
    assert summary["violations"] == 0


def test_trace_lines_equal_json_dumps_line_for_line(tmp_path):
    # Every column meets every value: NaN (in delta also as inf - inf, whatever its bits),
    # both infinities, 0.0 next to -0.0, the smallest subnormal, exponent and long forms.
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5, 1e-7, 2.0]
    regimes = list(Regime)
    n, obs_dim, action_dim = 2 * len(values), 3, 2

    def take(t, k, size=None):
        picks = [values[(t + k + j) % len(values)] for j in range(size or 1)]
        return np.array(picks) if size else picks[0]

    obs = take(0, 0, obs_dim)
    table, lines = rollout.StepTable(n, obs[None], action_dim)[0], []
    for t in range(n):
        comp = KappaComponents(t, take(t, 1), take(t, 2), take(t, 3), take(t, 4), regimes[t % len(regimes)])
        choice = ActionChoice(t % 5, take(t, 5, action_dim), take(t, 6), take(t, 7), t % 2 == 0)
        alpha, delta = take(t, 8), take(t, 9)
        executed, next_obs, reward, risk = take(t, 10, action_dim), take(t + 1, 0, obs_dim), take(t, 2), take(t, 3)
        table.mse[t], table.sigma_theta[t], table.sigma_s[t], table.kappa[t] = comp.mse, comp.sigma_theta, comp.sigma_s, comp.kappa
        table.regime[t] = rollout.REGIMES.index(comp.regime)
        table.index[t], table.action[t], table.any_compliant[t] = choice.index, choice.action, choice.any_compliant
        table.info_gain[t], table.predicted_risk[t], table.alpha[t], table.delta[t] = choice.info_gain, choice.predicted_risk, alpha, delta
        table.executed[t], table.obs[t + 1], table.reward[t], table.risk[t] = executed, next_obs, reward, risk
        # the step line as the trace format names its values, built from what was recorded
        lines.append({
            "kind": "step", "t": t, "mse": comp.mse, "sigma_theta": comp.sigma_theta, "sigma_s": comp.sigma_s,
            "kappa": comp.kappa, "regime": comp.regime.value, "obs": obs.tolist(), "action": choice.action.tolist(),
            "executed_action": executed.tolist(), "next_obs": next_obs.tolist(), "delta": [b - a for a, b in zip(obs.tolist(), next_obs.tolist())],
            "reward": reward, "risk": risk, "alpha": alpha, "delta_budget": delta, "chosen_index": choice.index,
            "predicted_risk": choice.predicted_risk, "info_gain": choice.info_gain, "any_compliant": choice.any_compliant,
        })
        obs = next_obs
    result = RolloutResult(ConditionSpec(onset_t=3), 0, {"kind": "header"}, table)
    path = tmp_path / "trace.jsonl"
    with np.errstate(invalid="ignore"):
        write_trace(str(path), result)
        footer = json.dumps({"kind": "footer", **result.summary()}, sort_keys=True)
    header = json.dumps(trace_header(result.run, result.condition, 0), sort_keys=True)
    steps = [json.dumps(line, sort_keys=True) for line in lines]
    assert path.read_text().splitlines() == [header, *steps, footer]
    texts = ["NaN", "-Infinity", " 0.0", "-0.0", "5e-324", "1e+16", "0.30000000000000004", "true", "false"]
    assert all(text in "".join(steps) for text in texts + [f'"{r.value}"' for r in regimes])


def test_run_condition_refuses_a_foreign_snapshot_before_any_step(cfg_ms, snap_ms, monkeypatch):
    steps = record_calls(monkeypatch, MassSpring1D, "step", lambda *args: args)
    overridden = replace(cfg_ms, thresholds=replace(cfg_ms.thresholds, tau_low=0.2, tau_high=0.5))
    cases = [
        (replace(cfg_ms, horizon=50), snap_ms, "monitor", "^snapshot was calibrated for MassSpring1D"),
        (replace(cfg_ms, clip_c=2.5), snap_ms, "adaptive", "^snapshot was calibrated for MassSpring1D"),
        (overridden, zero_delta_snapshot(overridden), "monitor", "^snapshot holds thresholds 0.1, 0.5"),
        (cfg_ms, snap_ms, "bogus", "^unknown policy_mode: 'bogus'$"),
    ]
    cond = ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10)
    for config, snap, mode, message in cases:
        with pytest.raises(InputError, match=message):
            run_condition(config, snap, cond, 0, policy_mode=mode)
    assert steps == []
    run_condition(cfg_ms, snap_ms, cond, 0)  # the counter sees the steps of a matched pair
    assert len(steps) == cfg_ms.horizon


@pytest.fixture(scope="module")
def ms_calibrated():
    # A trained MassSpring1D ensemble: disagreement is nonzero, and with
    # these thresholds the adaptive policy probes on most post-onset steps.
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 40,
            "onset_t": 10,
            "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 5},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    return cfg, calibrate(cfg), ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=cfg.onset_t)


# sha256 of whole trace files: a change to the step loop or the trace
# encoding that moves any byte fails here, not only in the benchmark. Each
# episode also adapts a clone online, whose weights_hash() comes second.
PINNED_TRACES = {
    "monitor": (
        "85667dc30cc61aa9541eefd15d4670efd68d581a289e1ddeb9baa329b126544c",
        "7386edc73e8c38823efe466a9edd47cb599952e5770dd2bda45a9dbeceb3fe89",
    ),
    "adaptive": (
        "9039be0211e268553d98943aa97b0e27482467fd0d24b5cd914ec8675f49ca9e",
        "5d1d4de1ed41f845c75b6a036bfa88b421f23a1ccd9191d426ef6154de140163",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_TRACES))
def test_trace_bytes_are_pinned(ms_calibrated, mode, tmp_path):
    cfg, snap, cond = ms_calibrated
    res = run_condition(cfg, snap, cond, 0, policy_mode=mode, adaptive_enabled=True)
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), res)
    _, summary = read_trace(str(path))
    steps = trace_steps(path)
    assert all(s["info_gain"] > 0.0 for s in steps)
    assert any(s["alpha"] > 0.0 for s in steps) == (mode == "adaptive")
    assert summary["violations"] == 0
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), res.adaptive_ensemble.weights_hash()) == PINNED_TRACES[mode]


def test_an_adapted_clone_depends_on_the_snapshot_weights_alone(ms_calibrated):
    # Online updates draw from the run's calibration seed, and a document
    # carrying a key beyond the weights, such as the ensemble seed that format
    # 2 wrote, is refused, so nothing but the weights can steer them.
    cfg, snap, cond = ms_calibrated
    seeded = snap.to_dict()
    seeded["ensemble"]["seed"] = 7
    with pytest.raises(InputError, match=r"^unknown snapshot keys in ensemble: \['seed'\]$"):
        CalibrationSnapshot.from_dict(seeded)
    res = run_condition(cfg, CalibrationSnapshot.from_dict(snap.to_dict()), cond, 0, policy_mode="adaptive", adaptive_enabled=True)
    assert res.adaptive_ensemble.weights_hash() == PINNED_TRACES["adaptive"][1]


# weights_hash() of the clone that ms_calibrated's episode adapts with a 12-step window, by
# policy mode. Its updates at t = 20 and 30 train on steps 9 ... 20 and 19 ... 30, so a window
# that starts a step early or late moves it, where the 120-step windows above cover every step.
PINNED_WINDOW_CLONES = {
    "monitor": "6e6cabe190dda04745d750e0b738a3e80e77a273857376f83a3b3e1e6163f22c",
    "adaptive": "e9db6f2671a22a3b7349f13e9060532f9eb7cff43dc749027f8ca50f35c0bcfe",
}


@pytest.mark.parametrize("mode", sorted(PINNED_WINDOW_CLONES))
def test_a_clone_adapted_on_a_sliding_window_is_pinned(ms_calibrated, mode):
    cfg, _, cond = ms_calibrated
    cfg = replace(cfg, adaptive=replace(cfg.adaptive, window=12))
    res = run_condition(cfg, calibrate(cfg), cond, 0, policy_mode=mode, adaptive_enabled=True)
    assert res.adaptive_ensemble.weights_hash() == PINNED_WINDOW_CLONES[mode]


@pytest.fixture(scope="module")
def driftbot_calibrated():
    # The acceptance config; its compound cell at seed 0 drives the
    # controller, the action delay, the gain fault and both envs.step paths.
    cfg = config_from_dict({"env_id": "DriftBot", "horizon": 220, "onset_t": 50, "ensemble": {"t_pre": 300, "m_members": 5}})
    return cfg, calibrate(cfg), ConditionSpec(po_fraction=0.25, delay_steps=1, shift=("gain_left", 0.5), onset_t=cfg.onset_t)


# sha256 of the DriftBot trace of that cell, with (probing steps, forced
# choices): monitor mode forces choices at the wall, adaptive mode probes.
DRIFTBOT_PINNED_TRACES = {
    "monitor": ("6a8bcf475971b7519ed501da87448e73e71e9b0b890cf57998eac8ef8cb9b644", 0, 88),
    "adaptive": ("7a3695e61a042817363ba41be972d17050232d9736296994a15995306b3812a3", 171, 0),
}


@pytest.mark.parametrize("mode", sorted(DRIFTBOT_PINNED_TRACES))
def test_driftbot_trace_bytes_are_pinned(driftbot_calibrated, mode, tmp_path):
    cfg, snap, cond = driftbot_calibrated
    res = run_condition(cfg, snap, cond, 0, policy_mode=mode)
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), res)
    sha, n_probes, n_forced = DRIFTBOT_PINNED_TRACES[mode]
    assert (np.count_nonzero(res.steps.index >= 2), res.summary()["n_forced"]) == (n_probes, n_forced)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def _bits(column: np.ndarray):
    """A step column as bytes: -0.0, NaN and the last bit all count."""
    return column.dtype.str, column.shape, column.tobytes()


@pytest.mark.parametrize("env_id", ["MassSpring1D", "DriftBot"])
@pytest.mark.parametrize("mode", ["monitor", "adaptive"])
def test_a_cell_does_not_depend_on_the_cells_in_its_batch(request, tmp_path, env_id, mode):
    cfg, snap, compound = request.getfixturevalue("ms_calibrated" if env_id == "MassSpring1D" else "driftbot_calibrated")
    adaptive_enabled = env_id == "MassSpring1D"  # a clone per cell; DriftBot's online SGD would cost seconds
    onset = cfg.onset_t
    cells = [(compound, 0), (ConditionSpec(onset_t=onset), 0), (ConditionSpec(po_fraction=0.5, onset_t=onset), 1), (compound, 2)]
    batch = run_cells(cfg, snap, run_header(cfg, snap, mode), cells, adaptive_enabled)
    rows = {frozenset(2 if r.steps.alpha[t] == 0.0 else cfg.policy.n_candidates for r in batch) for t in range(cfg.horizon)}
    # adaptive steps where one cell scores its task and zero rows and another every candidate
    assert (frozenset({2, cfg.policy.n_candidates}) in rows) == (mode == "adaptive")
    for (cond, seed), mixed in zip(cells, batch):
        alone = run_condition(cfg, snap, cond, seed, policy_mode=mode, adaptive_enabled=adaptive_enabled)
        assert {k: _bits(v) for k, v in vars(mixed.steps).items()} == {k: _bits(v) for k, v in vars(alone.steps).items()}
        write_trace(str(tmp_path / "mixed.jsonl"), mixed)
        write_trace(str(tmp_path / "alone.jsonl"), alone)
        assert (tmp_path / "mixed.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
        if adaptive_enabled:
            assert mixed.adaptive_ensemble.weights_hash() == alone.adaptive_ensemble.weights_hash()
    if adaptive_enabled:  # each cell fine-tunes its own clone
        assert batch[0].adaptive_ensemble.weights_hash() != batch[3].adaptive_ensemble.weights_hash()


@pytest.mark.parametrize("env_id", ["MassSpring1D", "DriftBot"])
@pytest.mark.parametrize("onset", [10, 1, 0])
def test_cells_that_share_a_seed_and_onset_share_their_prefix(request, tmp_path, monkeypatch, env_id, onset):
    # Four cells on seed 0 and one on seed 1, all with one onset: the first cell of each
    # seed runs steps 0 ... onset - 2 once, and every cell still equals itself run alone.
    cfg, snap, compound = request.getfixturevalue("ms_calibrated" if env_id == "MassSpring1D" else "driftbot_calibrated")
    adaptive_enabled = env_id == "MassSpring1D"  # a clone per cell; DriftBot's online SGD would cost seconds
    mode = "adaptive" if adaptive_enabled else "monitor"
    conds = [replace(compound, onset_t=onset), ConditionSpec(onset_t=onset), ConditionSpec(po_fraction=0.5, onset_t=onset), ConditionSpec(delay_steps=1, onset_t=onset)]
    cells = [(cond, 0) for cond in conds] + [(conds[0], 1)]
    env_steps = record_calls(monkeypatch, env_class(env_id), "step", lambda *args: args)
    batch = run_cells(cfg, snap, run_header(cfg, snap, mode), cells, adaptive_enabled)
    shared = max(onset - 1, 0)  # the steps a leader takes for its seed's cells
    n_leaders = 2
    buffer_steps = cfg.t_pre if adaptive_enabled else 0  # collect_baseline_buffer's own
    assert len(env_steps) == shared * n_leaders + (cfg.horizon - shared) * len(cells) + buffer_steps
    monkeypatch.undo()
    for (cond, seed), shared_cell in zip(cells, batch):
        alone = run_condition(cfg, snap, cond, seed, policy_mode=mode, adaptive_enabled=adaptive_enabled)
        assert {k: _bits(v) for k, v in vars(shared_cell.steps).items()} == {k: _bits(v) for k, v in vars(alone.steps).items()}
        write_trace(str(tmp_path / "shared.jsonl"), shared_cell)
        write_trace(str(tmp_path / "alone.jsonl"), alone)
        assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
        if adaptive_enabled:
            assert shared_cell.adaptive_ensemble.weights_hash() == alone.adaptive_ensemble.weights_hash()
    # the cells differ from onset on
    assert len({batch[i].steps.obs.tobytes() for i in range(4)}) == 4


@pytest.fixture
def one_worker(monkeypatch):
    """A sweep's units run in this process, where calls recorded by a test can see them."""
    monkeypatch.setattr(rollout, "_workers", lambda: 1)


@pytest.mark.parametrize("onset", [10, 0])
def test_a_sweep_writes_the_bytes_of_traces_rendered_one_cell_at_a_time(cfg_ms, tmp_path, monkeypatch, one_worker, onset):
    # Each cell of a batch takes the previous cell's lines for the leading steps the two
    # share. At onset 10 the cells fork from one leader and share at least steps
    # 0 ... 8; at onset 0 they share no leader, and each differs from the one before at
    # row 0 (masked obs, or a delayed action), so every line is rendered.
    cfg = replace(cfg_ms, onset_t=onset, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    rendered = record_calls(monkeypatch, rollout, "_step_lines", lambda steps, first=0: (len(steps), first))
    outcome = run_sweep(cfg, snap, out_dir=str(tmp_path / "sweep"))
    monkeypatch.undo()
    firsts = [start for _, start in rendered]
    assert len(firsts) == 8 and firsts[0] == firsts[4] == 0  # the first cell of each seed's batch
    if onset:
        assert min(firsts[1:4] + firsts[5:]) >= onset - 1
    else:
        assert firsts == [0] * 8
    run = run_header(cfg, snap, "monitor")
    for seed in cfg.grid.seeds:
        cells = [(ConditionSpec.from_dict(c["condition"]), seed) for c in outcome.cell_summaries if c["seed"] == seed]
        for (cond, _), result in zip(cells, run_cells(cfg, snap, run, cells)):
            name = f"trace_{cond.cell_id(seed)}.jsonl"
            lines = write_trace(str(tmp_path / name), result)  # no reuse: every line rendered
            assert (tmp_path / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()
            assert (tmp_path / name).read_text().splitlines()[1:-1] == lines


def test_reused_lines_stop_at_the_first_row_that_differs_by_its_bits(cfg_ms, snap_ms, tmp_path, monkeypatch):
    # Edits of one entry of a copy of a table: the copy takes the original's lines up to
    # the step the edit reaches, and its file is the one a write without reuse gives.
    # 0.0 against -0.0 counts, and an obs row is the next observation of the step before.
    base = run_condition(cfg_ms, snap_ms, ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=10), seed=0)
    edits = {  # (column, index, value in the original, value in the copy): the first step rendered
        ("reward", (5,), 0.0, -0.0): 5,
        ("obs", (7, 1), 0.0, -0.0): 6,
        ("obs", (0, 0), 0.0, -0.0): 0,
        ("obs", (40, 0), 0.0, -0.0): 39,
        ("any_compliant", (3,), True, False): 3,
        ("regime", (12,), 0, 1): 12,
        ("index", (39,), 0, 1): 39,
        ("action", (20, 0), 0.5, 0.5): 40,  # an equal copy takes every line
    }
    for (name, where, value, edited), first in edits.items():
        original, copy = deepcopy(base), deepcopy(base)
        getattr(original.steps, name)[where] = value
        getattr(copy.steps, name)[where] = edited
        original_lines = write_trace(str(tmp_path / "original.jsonl"), original)
        rendered = record_calls(monkeypatch, rollout, "_step_lines", lambda steps, first=0: (len(steps), first))
        lines = write_trace(str(tmp_path / "reused.jsonl"), copy, (original.steps, original_lines))
        monkeypatch.undo()
        assert rendered == [(cfg_ms.horizon, first)], name
        assert write_trace(str(tmp_path / "alone.jsonl"), copy) == lines
        assert (tmp_path / "reused.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()


def test_realized_risk_is_the_true_next_observations_risk(cfg_ms, snap_ms, monkeypatch):
    # A controller that always pushes +1 drives the oscillator past its safe band; every
    # dim is masked from onset, so only the plant's own next observation shows the risk.
    # Seeds differ, so no cell forks, and each plant's steps are its cell's.
    monkeypatch.setitem(rollout.TASK_CONTROLLERS, "MassSpring1D", lambda obs: np.ones(1))
    stepped: dict[int, list[np.ndarray]] = {}
    step = MassSpring1D.step

    def recording(env, action):
        next_obs, reward = step(env, action)
        stepped.setdefault(env.seed, []).append(next_obs)
        return next_obs, reward

    monkeypatch.setattr(MassSpring1D, "step", recording)
    cells = [(ConditionSpec(po_fraction=1.0, onset_t=10), seed) for seed in range(6)]
    results = run_cells(cfg_ms, snap_ms, run_header(cfg_ms, snap_ms, "monitor"), cells)
    risky = 0
    for (_, seed), res in zip(cells, results):
        want = np.array([MassSpring1D.risk_from_obs(obs) for obs in stepped[seed]])
        assert res.steps.risk.tobytes() == want.tobytes()
        risky += int(np.count_nonzero(res.steps.risk[10:] > 0.0))
        assert not MassSpring1D.risk_from_obs(res.steps.obs[10:]).any()  # what the agent saw
    assert risky > 0


def test_every_step_regime_is_the_classified_kappa(ms_calibrated):
    cfg, snap, _ = ms_calibrated
    g = cfg.grid
    cells = condition_matrix(g.po_levels, g.delay_levels, g.shift_levels, g.seeds, onset_t=cfg.onset_t)
    regimes = set()
    low, high = snap.thresholds.tau_low, snap.thresholds.tau_high
    for res in run_cells(cfg, snap, run_header(cfg, snap, "monitor"), cells):
        for code, value in zip(res.steps.regime.tolist(), res.steps.kappa.tolist()):
            # the thresholds themselves are Transition
            assert rollout.REGIMES[code] is (Regime.LOW if value < low else Regime.HIGH if value > high else Regime.TRANSITION)
            regimes.add(rollout.REGIMES[code])
    assert regimes == set(Regime)


def test_a_sweep_hashes_its_config_once_and_batches_each_seed(cfg_ms, monkeypatch, one_worker):
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    hashes = record_calls(monkeypatch, ExperimentConfig, "config_hash", lambda *args: args)
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    outcome = run_sweep(cfg, snap)
    assert len(hashes) == 1
    assert batches == [[c["cell_id"] for c in outcome.cell_summaries if c["seed"] == seed] for seed in (0, 1)]
    assert [c["seed"] for c in outcome.cell_summaries] == [0, 1] * 4  # condition_matrix order, seed innermost


def test_a_sweep_runs_the_stratified_tests_only_where_it_writes_them(cfg_ms, tmp_path, monkeypatch):
    # Nothing in memory holds the chi-square tests, so a sweep without out_dir runs none.
    # Delay levels 1 and 2 give delay_level two strata; shift_only has one ("delayed") and raises.
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, delay_levels=(0, 1, 2)))
    snap = zero_delta_snapshot(cfg)
    keys = record_calls(monkeypatch, rollout, "stratified_rate_test", lambda records, stratum_key: stratum_key)
    run_sweep(cfg, snap)
    assert keys == []
    records = run_sweep(cfg, snap, out_dir=str(tmp_path)).records
    assert keys == ["delay_level", "shift_only"]
    monkeypatch.undo()
    expected = {}
    for key in keys:
        try:
            expected[key] = stratified_rate_test(records, stratum_key=key).to_dict()
        except InputError:
            pass
    assert list(expected) == ["delay_level"]
    assert (tmp_path / "stratified_rates.json").read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def _breach_in_batch(monkeypatch, seed: int, breach) -> None:
    """From now on, seed ``seed``'s batch selects step 12 as ``breach(choice, delta)`` says, in
    whichever process runs the batch: each ``run_cells`` call tags its process with the batch's seed."""
    batch = {}  # the seed of the batch this process simulates, and its selection calls so far
    simulate, select = rollout.run_cells, policy.select_actions

    def seeded(config, snapshot, run, cells, *args):
        batch.update(seed=cells[0][1], calls=0)
        return simulate(config, snapshot, run, cells, *args)

    def breaching(*args):
        choice = select(*args)
        batch["calls"] += 1  # one call per control step
        return breach(choice, args[6]) if batch["seed"] == seed and batch["calls"] == 13 else choice

    monkeypatch.setattr(rollout, "run_cells", seeded)
    monkeypatch.setattr(policy, "select_actions", breaching)


def test_a_budget_breach_aborts_its_batch_before_any_trace_is_written(cfg_ms, tmp_path, monkeypatch):
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    fresh = run_sweep(cfg, snap, out_dir=str(tmp_path / "fresh"))
    second = [c["cell_id"] for c in fresh.cell_summaries if c["seed"] == 1][1]

    def breach(choice, delta):
        # seed 1's step 12, after every cell has forked from the prefix: its second cell breaches
        assert choice.index.shape == (4,)
        second_cell = np.arange(4) == 1
        return replace(choice, any_compliant=choice.any_compliant | second_cell, predicted_risk=np.where(second_cell, delta + 1.0, choice.predicted_risk))

    _breach_in_batch(monkeypatch, 1, breach)
    out_dir = tmp_path / "runs"
    with pytest.raises(InvariantViolation, match=f"^selected action breaches the risk budget at t=12 in cell {re.escape(second)}: "):
        run_sweep(cfg, snap, out_dir=str(out_dir))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(f"trace_{c['cell_id']}.jsonl" for c in fresh.cell_summaries if c["seed"] == 0)
    monkeypatch.undo()
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # seed 0 (reads only) and seed 1 are two units: run them where batches are recorded
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    assert run_sweep(cfg, snap, out_dir=str(out_dir)).cell_summaries == fresh.cell_summaries
    assert batches == [[c["cell_id"] for c in fresh.cell_summaries if c["seed"] == 1]]
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}


def test_calibration_runs_its_probes_as_one_batch(monkeypatch):
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 40,
            "onset_t": 10,
            "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 2},
            "probe_episodes": 2,
        }
    )
    hashes = record_calls(monkeypatch, ExperimentConfig, "config_hash", lambda *args: args)
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    calibrate(cfg)
    # baseline, masking, delay and compound, two episodes each
    assert [len(batch) for batch in batches] == [8]
    assert len(hashes) == 2  # the snapshot's hash, and the probe batch's run header


def test_a_sweep_maps_one_unit_per_seed_and_a_reused_seed_simulates_nothing(cfg_ms, tmp_path, monkeypatch, one_worker):
    # A fresh, a fully resumed and a partly resumed sweep each make one _map call of one
    # unit per seed; a unit whose every trace is reused runs no batch.
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    out_dir = tmp_path / "runs"
    maps = record_calls(monkeypatch, rollout, "_map", lambda fn, items: len(items))
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    fresh = run_sweep(cfg, snap, out_dir=str(out_dir)).cell_summaries
    assert maps == [2] and [len(batch) for batch in batches] == [4, 4]
    del maps[:], batches[:]
    assert run_sweep(cfg, snap, out_dir=str(out_dir)).cell_summaries == fresh
    assert maps == [2] and batches == []
    maps.clear()
    missing = next(c["cell_id"] for c in fresh if c["seed"] == 1)
    (out_dir / f"trace_{missing}.jsonl").unlink()
    assert run_sweep(cfg, snap, out_dir=str(out_dir)).cell_summaries == fresh
    assert maps == [2] and batches == [[missing]]


def test_read_traces_reports_a_missing_path_in_its_place_on_one_worker_and_on_two(cfg_ms, snap_ms, tmp_path, monkeypatch):
    present = str(tmp_path / "present.jsonl")
    write_trace(present, run_condition(cfg_ms, snap_ms, ConditionSpec(onset_t=10), seed=0))
    paths = [present, str(tmp_path / "missing.jsonl"), present]
    reads, units = {}, []
    _map = rollout._map
    monkeypatch.setattr(rollout, "_map", lambda fn, items: units.append(len(items)) or _map(fn, items))
    for workers in (1, 2):
        monkeypatch.setattr(rollout, "_workers", lambda: workers)
        reads[workers] = [str(read) if isinstance(read, InputError) else read for read in rollout.read_traces(paths)]
    assert units == [1, 2]  # one unit per worker, not per trace
    assert reads[1] == reads[2]
    assert reads[1][0] == reads[1][2] == read_trace(present)
    assert reads[1][1] == f"trace file not found: {paths[1]}"


def _tree(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# _workers at 2 runs the pool whatever the host's CPU count; at 1 every unit runs inline.
@pytest.mark.parametrize("mode", ["monitor", "adaptive"])
def test_a_sweep_and_its_resume_write_the_same_bytes_on_one_worker_and_on_two(cfg_ms, tmp_path, monkeypatch, mode):
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(rollout, "_workers", lambda: workers)
        out_dir = tmp_path / f"workers{workers}"
        fresh = run_sweep(cfg, snap, out_dir=str(out_dir), policy_mode=mode).cell_summaries
        tree = _tree(out_dir)
        traces = [name for name in tree if name.startswith("trace_")]
        (out_dir / traces[0]).unlink()
        (out_dir / traces[-1]).write_bytes(b"".join(tree[traces[-1]].splitlines(keepends=True)[:-1]))  # no footer
        resumed = run_sweep(cfg, snap, out_dir=str(out_dir), policy_mode=mode).cell_summaries
        assert _tree(out_dir) == tree and resumed == fresh
        runs[workers] = tree, fresh
    assert runs[1] == runs[2]
    assert multiprocessing.active_children() == []


def test_map_keeps_item_order_and_a_dead_worker_raises(monkeypatch):
    monkeypatch.setattr(rollout, "_workers", lambda: 2)
    squares = rollout._map(lambda i: (i * i, os.getpid()), list(range(9)))
    assert [square for square, _ in squares] == [i * i for i in range(9)]
    assert os.getpid() not in {pid for _, pid in squares}  # every unit ran in a worker
    with pytest.raises(BrokenProcessPool):  # not a hang
        rollout._map(lambda i: os._exit(3) if i == 1 else i, list(range(4)))
    assert multiprocessing.active_children() == []


def test_a_breach_in_a_worker_reaches_the_caller_and_leaves_the_other_batches(cfg_ms, tmp_path, monkeypatch):
    # Seed 0's batch breaches the budget at step 12; seed 1's batch still runs and writes its
    # traces, on one worker as on two, and no worker outlives the sweep.
    cfg = replace(cfg_ms, grid=replace(cfg_ms.grid, seeds=(0, 1)))
    snap = zero_delta_snapshot(cfg)
    _breach_in_batch(monkeypatch, 0, lambda choice, delta: replace(choice, any_compliant=np.ones_like(choice.any_compliant), predicted_risk=delta + 1.0))
    trees = {}
    for workers in (1, 2):
        monkeypatch.setattr(rollout, "_workers", lambda: workers)
        out_dir = tmp_path / f"workers{workers}"
        with pytest.raises(InvariantViolation, match=r"^selected action breaches the risk budget at t=12 in cell po0_delay0_shift-none_seed0: "):
            run_sweep(cfg, snap, out_dir=str(out_dir))
        assert multiprocessing.active_children() == []
        trees[workers] = _tree(out_dir)
    assert trees[1] == trees[2] and len(trees[1]) == 4 and all(name.endswith("_seed1.jsonl") for name in trees[1])


def test_build_eval_rows_shapes_and_determinism():
    x, y = build_eval_rows("MassSpring1D", {}, seed=0, n_rows=50, horizon=30)
    assert x.shape == (50, 5) and y.shape == (50, 2)
    x2, _ = build_eval_rows("MassSpring1D", {}, seed=0, n_rows=50, horizon=30)
    np.testing.assert_array_equal(x, x2)
    x3, _ = build_eval_rows("MassSpring1D", {}, seed=1, n_rows=50, horizon=30)
    assert not np.array_equal(x, x3)


def test_build_eval_rows_reflects_dynamics_params():
    _, y_soft = build_eval_rows("MassSpring1D", {}, seed=0, n_rows=40, horizon=30)
    _, y_stiff = build_eval_rows("MassSpring1D", {"stiffness": 3.0}, seed=0, n_rows=40, horizon=30)
    assert not np.array_equal(y_soft, y_stiff)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_rows": 0},
        {"horizon": 2},
    ],
)
def test_build_eval_rows_validation(kwargs):
    base = {"env_id": "MassSpring1D", "params": {}, "seed": 0, "n_rows": 10, "horizon": 30}
    base.update(kwargs)
    with pytest.raises(InputError):
        build_eval_rows(**base)
    with pytest.raises(InputError):
        build_eval_rows("HoverDrone", {}, seed=0, n_rows=10)


def test_build_degradation_records_quadruples(cfg_ms):
    grid = cfg_ms.grid
    returns = {(0.0, 0): 1.0, (0.5, 0): 0.9, (0.0, 1): 0.8, (0.5, 1): 0.5}
    summaries = [
        {"condition": ConditionSpec(po_fraction=po, delay_steps=delay).to_dict(), "seed": 0, "episode_return": ret}
        for (po, delay), ret in returns.items()
    ]
    records = build_degradation_records(summaries, grid)
    assert len(records) == 1
    rec = records[0]
    assert rec.config_id == "po0.5_delay1-shift-none_seed0"
    assert rec.synergy_frac == pytest.approx(0.2, abs=1e-12)
    assert rec.meta["delay_steps"] == 1 and rec.meta["shift"] is None
    with pytest.raises(InputError):
        build_degradation_records([s for s in summaries if s["condition"]["po_fraction"] == 0.0], grid)


def test_run_sweep_in_memory(cfg_ms, snap_ms, tmp_path, monkeypatch):
    out = run_sweep(cfg_ms, snap_ms)
    assert len(out.cell_summaries) == 4
    assert set(out.kappa_by_label) == {"C1", "C2", "C3"}
    assert out.report.n_configs == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran under an unknown policy mode")

    monkeypatch.setattr(rollout, "run_cells", refuse)
    for out_dir in (None, str(tmp_path / "runs")):
        with pytest.raises(InputError, match="^unknown policy_mode: 'bogus'$"):
            run_sweep(cfg_ms, snap_ms, out_dir=out_dir, policy_mode="bogus")
    assert not (tmp_path / "runs").exists()
