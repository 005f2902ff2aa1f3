"""Closed-loop episodes: calibration, condition runs, and sweeps.

This module owns all plumbing between the agent side and the evaluator
side. The policy layer only ever sees masked observations, the commanded
action, and model-derived numbers; environment instances stay on this
side of the fence. The episode loop itself never reads
``true_dynamics()``: a dynamics shift reaches the plant through
``set_param`` alone.

Per-step order within ``run_condition``:

1. the dynamics shift (if due) is applied to the plant;
2. the agent picks an action from masked observations using the kappa
   value of the previous step (a one-step information lag, since this
   step's prediction error is only measurable after stepping);
3. the commanded action passes through the delay queue and the plant
   steps on whatever comes out;
4. the next observation is masked, the ensemble error on the
   agent-visible transition is scored, and kappa, regime, schedules, and
   telemetry are recorded.

Calibration runs unperturbed episodes with a scripted controller mixed
with uniform random actions (``CONTROLLER_MIX`` = 0.8 of the steps follow
the controller), trains the bootstrap ensemble, freezes the noise floor,
then derives regime thresholds from short probe runs (baseline, each
single stressor, compound) executed in monitor mode with provisional
default thresholds.

All seeds derive from (cell seed, fixed stream tags), so every cell is
reproducible in isolation and sweep results do not depend on execution
order.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    DegradationRecord,
    StratifiedRateResult,
    SynergyReport,
    degradation,
    records_to_csv,
    stratified_rate_test,
    superadditive_rate,
)
from .config import ExperimentConfig
from .ensemble import (
    Ensemble,
    adaptive_update,
    bootstrap_train,
    calibrate_noise_floor,
    disagreement,
    input_rows,
    member_mse,
)
from .envs import env_class
from .errors import CalibrationError, InputError, InvariantViolation
from .kappa import DEFAULT_THRESHOLDS, KappaComponents, Thresholds, calibrate_thresholds, compute_step
from .parsing import parse_key
from .perturb import (
    ActionDelayer,
    ConditionSpec,
    apply_mask,
    condition_matrix,
    mask_dims_for_fraction,
    shift_tag,
)
from .policy import ActionChoice, candidate_actions, schedule, select_action, task_affinity
from .snapshot import CalibrationSnapshot, atomic_write_text, open_input
from .version import TOOLKIT_VERSION

RISK_TOL = 1e-12


DOCK_RADIUS = 0.05


def driftbot_controller(obs: np.ndarray) -> np.ndarray:
    """Scripted goal-seeking controller from the agent-visible observation.

    Inside the docking radius the command is zero; without the deadband
    the bearing flips sign with every noise jitter of the goal offset and
    the controller spins in place.
    """
    heading = math.atan2(obs[2], obs[3])
    dist = math.hypot(obs[6], obs[7])
    if dist < DOCK_RADIUS:
        return np.zeros(2)
    bearing = math.atan2(obs[7], obs[6])
    err = math.atan2(math.sin(bearing - heading), math.cos(bearing - heading))
    forward = 0.9 * min(1.0, dist) * max(0.0, math.cos(err))
    # min(max()) clamps are np.clip bit for bit, without numpy's call overhead
    turn = min(max(1.2 * err, -0.9), 0.9)
    return np.array([min(max(forward - turn, -1.0), 1.0), min(max(forward + turn, -1.0), 1.0)])


SLIDING_LAYER = 0.01


def mass_spring_controller(obs: np.ndarray) -> np.ndarray:
    """Sliding-mode regulator toward the origin.

    Drives the surface sigma = x + 0.5 v to zero with a saturated relay;
    the thin boundary layer keeps the control law continuous while still
    switching on essentially every step near the origin. Relay switching
    is what makes this controller honest about actuation problems: the
    force it commands differs from step to step by order one, so any
    tampering with the executed action (a delay, most of all) produces a
    transition the learned models cannot explain away.
    """
    sigma = obs[0] + 0.5 * obs[1]
    return np.array([-min(max(sigma / SLIDING_LAYER, -1.0), 1.0)])


TASK_CONTROLLERS = {
    "DriftBot": driftbot_controller,
    "MassSpring1D": mass_spring_controller,
}


POLICY_MODES = ("monitor", "adaptive")

# The keys of a cell summary, in the order RolloutResult.summary() gives
# them, each with the annotation its value in a trace footer parses by.
SUMMARY_KEYS = {
    "cell_id": "str",
    "condition": "dict",
    "seed": "int",
    "label": "str",
    "episode_return": "float",
    "post_onset_kappa_mean": "float",
    "post_onset_mse_mean": "float",
    "peak_kappa": "float",
    "violations": "int",
    "n_forced": "int",
    "n_steps": "int",
}


@dataclass(frozen=True)
class StepRecord:
    """One control step: what the agent saw, chose and executed, and its score."""

    kappa: KappaComponents
    choice: ActionChoice
    obs: np.ndarray
    next_obs: np.ndarray
    executed: np.ndarray
    reward: float
    risk: float


@dataclass
class RolloutResult:
    """One condition run: its per-step records and the aggregates they give."""

    condition: ConditionSpec
    seed: int
    run: dict  # run_header(config, snapshot, policy_mode) of the run that made it
    steps: list[StepRecord]
    adaptive_ensemble: Ensemble | None = None

    @property
    def cell_id(self) -> str:
        return self.condition.cell_id(self.seed)

    @property
    def kappas(self) -> list[KappaComponents]:
        return [s.kappa for s in self.steps]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_forced(self) -> int:
        return sum(not s.choice.any_compliant for s in self.steps)

    @property
    def episode_return(self) -> float:
        total = 0.0  # added in step order; sum() compensates on Python 3.12+ and moves bits
        for s in self.steps:
            total += s.reward
        return total

    @property
    def peak_kappa(self) -> float:
        return float(max(c.kappa for c in self.kappas))

    @property
    def post_onset_kappa_mean(self) -> float:
        return float(np.mean([c.kappa for c in self.kappas if c.t >= self.condition.onset_t]))

    @property
    def post_onset_mse_mean(self) -> float:
        return float(np.mean([c.mse for c in self.kappas if c.t >= self.condition.onset_t]))

    def summary(self) -> dict:
        """The cell summary, which a trace's footer holds, keyed by ``SUMMARY_KEYS``."""
        values = (
            self.cell_id,
            self.condition.to_dict(),
            self.seed,
            self.condition.label,
            self.episode_return,
            self.post_onset_kappa_mean,
            self.post_onset_mse_mean,
            self.peak_kappa,
            # violations: always 0, since a budget breach raises InvariantViolation.
            # The key stays until ROADMAP item 3 re-pins the digests that hold it.
            0,
            self.n_forced,
            self.n_steps,
        )
        return dict(zip(SUMMARY_KEYS, values, strict=True))


def run_condition(
    config: ExperimentConfig,
    snapshot: CalibrationSnapshot,
    condition: ConditionSpec,
    seed: int,
    policy_mode: str = "monitor",
    adaptive_enabled: bool = False,
) -> RolloutResult:
    """Run one full episode under a condition and score it step by step.

    It first builds ``run_header``, which refuses a bad mode or snapshot, and
    keeps it as the result's ``run``. "monitor" has no information bonus but
    keeps the kappa-scheduled risk budget: of the task and zero actions it takes
    the better scored one within the budget, or the less risky when neither is.
    "adaptive" is the config's own probing policy. Both select and score kappa
    with the frozen ensemble; ``adaptive_enabled`` also fine-tunes a clone
    online and returns it as ``adaptive_ensemble``.
    """
    run = run_header(config, snapshot, policy_mode)
    settings = replace(config.policy, alpha_max=0.0) if policy_mode == "monitor" else config.policy
    env_cls = env_class(config.env_id)
    env = env_cls(seed=seed, horizon=config.horizon)
    controller = TASK_CONTROLLERS[config.env_id]
    thresholds = snapshot.thresholds

    onset = condition.onset_t
    dims = mask_dims_for_fraction(env_cls, condition.po_fraction)
    delayer = ActionDelayer(condition.delay_steps, env_cls.ACTION_DIM, onset_t=onset)
    po_active = len(dims) / len(env_cls.OBS_NAMES)

    policy_rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 3]))
    adaptive = snapshot.ensemble.clone_unfrozen() if adaptive_enabled else None
    recent_x: deque = deque(maxlen=config.adaptive.window)
    recent_y: deque = deque(maxlen=config.adaptive.window)
    anchor_x = anchor_y = None
    anchor_rng = update_rng = None
    if adaptive_enabled:
        # The agent keeps its pre-deployment experience and replays a slice
        # of it alongside the live window on every update. Without the
        # anchor, fine-tuning on a hundred-ish recent rows drags the model
        # off everything it knew about states not in the window.
        anchor_x, anchor_y = collect_baseline_buffer(config)
        anchor_rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 5]))
        # seeded by the calibration seed, not the cell's: every cell's clone draws this one stream
        update_rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.calibration_seed, 1]))

    visible = apply_mask(env.observe(), dims, active=onset <= 0)
    history: deque = deque([visible], maxlen=3)
    kappa_prev = 0.0
    steps: list[StepRecord] = []

    for t in range(config.horizon):
        if t == onset and condition.shift is not None:
            env.set_param(*condition.shift)

        task_action = controller(visible)
        sched = schedule(kappa_prev, thresholds, settings)
        cands = candidate_actions(task_action, policy_rng, settings, sched.spread)
        x_cand = input_rows(history, cands)
        member_preds = snapshot.ensemble.predict_members(x_cand)
        info_gain, mean_delta = disagreement(member_preds)
        predicted_next = visible[None, :] + mean_delta
        predicted_risk = env_cls.risk_from_obs(predicted_next)
        r_task = task_affinity(cands, task_action)

        choice = select_action(cands, r_task, info_gain, predicted_risk, sched, settings)
        if choice.any_compliant and choice.predicted_risk > choice.delta + RISK_TOL:
            raise InvariantViolation(
                f"selected action breaches the risk budget at t={t}: "
                f"{choice.predicted_risk} > {choice.delta}"
            )
        executed = delayer.submit(choice.action, t)
        tr = env.step(executed)
        visible_next = apply_mask(tr.next_obs, dims, active=t + 1 >= onset)
        delta_vis = visible_next - visible
        # The candidate pass already scored the chosen row; a row's
        # prediction does not depend on the rest of its batch.
        mse = float(member_mse(member_preds[:, choice.index : choice.index + 1], delta_vis)[0])

        active = t >= onset
        comp = compute_step(
            t=t,
            mse=mse,
            mu0=snapshot.mu0,
            sigma0=snapshot.sigma0,
            po=po_active if active else 0.0,
            delay_steps=condition.delay_steps if active else 0,
            thresholds=thresholds,
            clip_c=config.clip_c,
            c_tau=config.c_tau,
        )
        steps.append(StepRecord(comp, choice, visible, visible_next, executed, float(tr.reward), float(tr.risk)))

        if adaptive is not None:
            recent_x.append(x_cand[choice.index])
            recent_y.append(delta_vis)
            if active and (t - onset) % config.adaptive.every == 0 and len(recent_x) >= 8:
                take = min(len(recent_x), anchor_x.shape[0])
                idx = anchor_rng.choice(anchor_x.shape[0], size=take, replace=False)
                x_up = np.concatenate([np.stack(recent_x), anchor_x[idx]])
                y_up = np.concatenate([np.stack(recent_y), anchor_y[idx]])
                adaptive_update(adaptive, x_up, y_up, config.train, update_rng, epochs=config.adaptive.epochs)

        kappa_prev = comp.kappa
        visible = visible_next
        history.append(visible_next)

    return RolloutResult(
        condition=condition,
        seed=seed,
        run=run,
        steps=steps,
        adaptive_ensemble=adaptive,
    )


# ---------------------------------------------------------------------------
# Calibration


CONTROLLER_MIX = 0.8


def _mixture_action(controller, obs, rng: np.random.Generator, action_dim: int) -> np.ndarray:
    """Mostly on-task actions so the buffer covers deployment states, with
    enough uniform draws to cover the action space for disagreement."""
    if rng.random() < CONTROLLER_MIX:
        return controller(obs)
    return rng.uniform(-1.0, 1.0, size=action_dim)


def collect_baseline_buffer(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Model rows ``(x, y)`` of exactly t_pre unperturbed transitions under the
    exploration mixture. Rows are built as ``run_condition`` builds them; the
    first two transitions of each episode give the acc feature its history
    and yield no row."""
    env_cls = env_class(config.env_id)
    controller = TASK_CONTROLLERS[config.env_id]
    xs, ys = [], []
    remaining = config.t_pre
    episode = 0
    while remaining > 0:
        env = env_cls(seed=config.calibration_seed * 10007 + episode, horizon=config.horizon)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.calibration_seed, 4, episode]))
        history: deque = deque(maxlen=3)
        for _ in range(min(config.horizon, remaining)):
            tr = env.step(_mixture_action(controller, env.observe(), rng, env_cls.ACTION_DIM))
            history.append(tr.obs)
            if len(history) == 3:
                xs.append(input_rows(history, tr.action)[0])
                ys.append(tr.next_obs - tr.obs)
            remaining -= 1
        episode += 1
    return np.array(xs), np.array(ys)


def _probe_conditions(config: ExperimentConfig) -> tuple[ConditionSpec, dict[str, ConditionSpec], ConditionSpec]:
    """Baseline, single-stressor, and compound probes derived from the grid."""
    po = max(config.grid.po_levels)
    delay = max(config.grid.delay_levels)
    shift = next((s for s in config.grid.shift_levels if s is not None), None)
    singles: dict[str, ConditionSpec] = {}
    if po > 0:
        singles["masking"] = ConditionSpec(po_fraction=po, onset_t=config.onset_t)
    if delay > 0:
        singles["delay"] = ConditionSpec(delay_steps=delay, onset_t=config.onset_t)
    if shift is not None:
        singles["shift"] = ConditionSpec(shift=shift, onset_t=config.onset_t)
    if not singles:
        raise CalibrationError("grid has no active stressor levels; thresholds cannot be calibrated")
    baseline = ConditionSpec(onset_t=config.onset_t)
    compound = ConditionSpec(po_fraction=po, delay_steps=delay, shift=shift, onset_t=config.onset_t)
    return baseline, singles, compound


def calibrate(config: ExperimentConfig) -> CalibrationSnapshot:
    """Full calibration: train, freeze the noise floor, place thresholds."""
    x, y = collect_baseline_buffer(config)
    ensemble = bootstrap_train(x, y, config.m_members, config.calibration_seed, config.train)
    mu0, sigma0 = calibrate_noise_floor(ensemble, x, y)

    provisional = CalibrationSnapshot(
        config_hash=config.config_hash(),
        env_id=config.env_id,
        mu0=mu0,
        sigma0=sigma0,
        thresholds=DEFAULT_THRESHOLDS,
        ensemble=ensemble,
    )

    if config.thresholds.tau_low is not None:
        thresholds = Thresholds(tau_low=config.thresholds.tau_low, tau_high=config.thresholds.tau_high)
    else:
        baseline_cond, singles, compound_cond = _probe_conditions(config)
        # Probes run in monitor mode: information-seeking selects the
        # model's own worst inputs, so probing during probes would measure
        # policy feedback instead of the deficit signal being thresholded.
        def probe_kappas(cond: ConditionSpec) -> list[float]:
            values: list[float] = []
            for ep in range(config.probe_episodes):
                res = run_condition(
                    config,
                    provisional,
                    cond,
                    seed=90001 + config.calibration_seed * 131 + ep,
                    policy_mode="monitor",
                )
                values.extend(c.kappa for c in res.kappas if c.t >= cond.onset_t)
            return values

        thresholds = calibrate_thresholds(
            probe_kappas(baseline_cond),
            {name: probe_kappas(cond) for name, cond in singles.items()},
            probe_kappas(compound_cond),
            round_to_decimal=config.thresholds.round_to_decimal,
        )

    return replace(provisional, thresholds=thresholds)


# ---------------------------------------------------------------------------
# Trace files


def _step_line(rec: StepRecord) -> dict:
    choice = rec.choice
    return {
        "kind": "step",
        **rec.kappa.to_dict(),
        "obs": rec.obs.tolist(),
        "action": choice.action.tolist(),
        "executed_action": rec.executed.tolist(),
        "next_obs": rec.next_obs.tolist(),
        "delta": (rec.next_obs - rec.obs).tolist(),
        "reward": rec.reward,
        "risk": rec.risk,
        "alpha": choice.alpha,
        "delta_budget": choice.delta,
        "chosen_index": choice.index,
        "predicted_risk": choice.predicted_risk,
        "info_gain": choice.info_gain,
        "any_compliant": choice.any_compliant,
    }


CELL_KEYS = ("cell_id", "seed", "condition")  # the header keys that name the cell; the rest name the run
# read_trace checks step lines but returns none, so floats stay text; the JSON grammar, int() and NaN still apply
_STEP_DECODER = json.JSONDecoder(parse_float=str)


def run_header(config: ExperimentConfig, snapshot: CalibrationSnapshot, policy_mode: str) -> dict:
    """The keys of a trace header that name the run, all but ``CELL_KEYS``. Refuses an unknown
    ``policy_mode`` and a snapshot not calibrated for ``config`` (``CalibrationSnapshot.check_config``),
    so no episode runs and no trace is written or reused under a pair that does not belong together."""
    if policy_mode not in POLICY_MODES:
        raise InputError(f"unknown policy_mode: {policy_mode!r}")
    snapshot.check_config(config, "snapshot")
    return {
        "kind": "header",
        "format_version": 1,
        "toolkit_version": TOOLKIT_VERSION,
        "config_hash": snapshot.config_hash,  # the config's, as checked
        "env_id": snapshot.env_id,
        "policy_mode": policy_mode,
        "mu0": snapshot.mu0,
        "sigma0": snapshot.sigma0,
        "tau_low": snapshot.thresholds.tau_low,
        "tau_high": snapshot.thresholds.tau_high,
    }


def trace_header(run: dict, condition: ConditionSpec, seed: int) -> dict:
    """The header line of a cell's trace: the ``run_header`` keys and the cell's
    (``CELL_KEYS``). A trace belongs to a run exactly when its header is this one."""
    return {**run, "cell_id": condition.cell_id(seed), "seed": seed, "condition": condition.to_dict()}


def write_trace(path: str, result: RolloutResult) -> None:
    """One JSONL file: ``trace_header`` of the result's run, one line per step, and the summary as footer."""
    header = trace_header(result.run, result.condition, result.seed)
    footer = {"kind": "footer", **result.summary()}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(_step_line(s), sort_keys=True) for s in result.steps)
    lines.append(json.dumps(footer, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _kind(line) -> str | None:
    return line.get("kind") if isinstance(line, dict) else None


def read_trace(path: str) -> tuple[dict, dict]:
    """Header and cell summary of a trace; ``InputError`` if unreadable, if a footer summary key
    does not parse by its ``SUMMARY_KEYS`` annotation, if the footer does not encode as
    ``{"kind": "footer", **summary}`` for the summary it parses to (its condition as
    ``ConditionSpec.to_dict`` gives it), if the lines between are not ``n_steps`` step lines (each
    decoded and checked, none returned), if the footer's cell_id or label is not what its condition
    and seed give, or if the header names another cell. The summary is the footer without ``kind``."""
    with open_input(path, "trace") as fh:
        lines = (line for line in fh if line.strip())  # one held at a time: a held list raises peak RSS
        header, last = json.loads(next(lines, "null")), None
        kinds = [_kind(_STEP_DECODER.decode(last := line)) for line in lines]  # the footer's kind comes last
        last = None if last is None else json.loads(last)
    if last is None or [_kind(header), _kind(last)] != ["header", "footer"]:
        raise InputError(f"trace file {path} is missing header or footer")
    try:
        summary = {key: parse_key(last, key, annotation, "footer") for key, annotation in SUMMARY_KEYS.items()}
        cond = ConditionSpec.from_dict(summary["condition"])
    except InputError as e:
        raise InputError(f"trace file {path} {e}") from None
    summary["condition"] = cond.to_dict()
    footer = {"kind": "footer", **summary}  # what write_trace writes for this summary
    if json.dumps(last, sort_keys=True) != json.dumps(footer, sort_keys=True):
        raise InputError(f"trace file {path} footer does not encode as the summary it parses to")
    if len(kinds) - 1 != summary["n_steps"] or kinds.count("step") != summary["n_steps"]:
        raise InputError(f"trace file {path} does not hold its footer's {summary['n_steps']} step lines")
    named, given = (summary["cell_id"], summary["label"]), (cond.cell_id(summary["seed"]), cond.label)
    if named != given:
        raise InputError(f"trace file {path} footer names cell {named}, but its condition and seed give {given}")
    header_cell, footer_cell = (json.dumps({k: d.get(k) for k in CELL_KEYS}, sort_keys=True) for d in (header, summary))
    if header_cell != footer_cell:
        raise InputError(f"trace file {path} header names cell {header_cell}, but its footer names {footer_cell}")
    return header, summary


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class SweepOutcome:
    cell_summaries: list[dict]
    records: list[DegradationRecord]
    report: SynergyReport
    stratified: dict[str, StratifiedRateResult]
    kappa_by_label: dict[str, float]


def build_degradation_records(summaries, grid) -> list[DegradationRecord]:
    """Assemble matched-seed quadruples from per-cell summaries.

    ``summaries`` are ``RolloutResult.summary()`` dicts, as ``read_trace`` also returns;
    each gives its cell's condition, seed and episode return. For every
    seed, masking level > 0, and dynamics stressor combination (delay
    and/or shift active) present in the grid, the quadruple is
    (clean, masking only, dynamics only, both). Requires the grid to be a
    full factorial containing the clean and single-stressor cells, and
    at most one summary per cell.
    """
    cells: dict[tuple, float] = {}
    for summary in summaries:
        cond = ConditionSpec.from_dict(summary["condition"])
        seed = int(summary["seed"])
        key = (cond.po_fraction, cond.delay_steps, cond.shift, seed)
        if key in cells:
            raise InputError(f"two cell summaries for cell {cond.cell_id(seed)}")
        cells[key] = float(summary["episode_return"])
    records: list[DegradationRecord] = []
    po_levels = [p for p in grid.po_levels if p > 0]
    dyn_combos = [
        (d, s)
        for d in grid.delay_levels
        for s in grid.shift_levels
        if d > 0 or s is not None
    ]
    for seed in grid.seeds:
        for po in po_levels:
            for delay, shift in dyn_combos:
                # clean, masking only, dynamics only, both
                keys = [(0.0, 0, None, seed), (po, 0, None, seed), (0.0, delay, shift, seed), (po, delay, shift, seed)]
                if not all(k in cells for k in keys):
                    raise InputError(f"grid is not a full factorial; missing cells for matched quadruple {keys[1]} / {keys[2]}")
                config_id = f"po{po:g}_delay{delay}-shift-{shift_tag(shift)}_seed{seed}"
                meta = {"po_fraction": po, "delay_steps": delay, "shift": None if shift is None else list(shift), "seed": seed}
                records.append(degradation(config_id, *(cells[k] for k in keys), meta=meta))
    return records


def run_sweep(
    config: ExperimentConfig,
    snapshot: CalibrationSnapshot,
    out_dir: str | None = None,
    policy_mode: str = "monitor",
) -> SweepOutcome:
    """Run the full condition matrix, then aggregate statistics.

    policy_mode picks what the degradation study measures. "monitor"
    (default) runs the task controller behind ``run_condition``'s
    kappa-scheduled risk filter, with no information bonus; its quadruples
    show super-additive losses, and calibration's probes run in it.
    "adaptive" runs the config's probing policy, which trades task return
    for information when kappa rises and flattens the compound-versus-single
    contrast. Both modes score with the frozen ensemble and adapt no model.

    ``run_header`` refuses an unknown mode, or a snapshot not calibrated for
    ``config``, before any cell runs. With ``out_dir`` set, each cell writes
    one JSONL trace plus summary CSV/JSON artifacts at the end. A cell whose
    trace is already there reuses it only when ``read_trace`` accepts it (its
    step lines are checked, not returned, and its footer must encode as the
    cell summary it parses to, which the cell then returns) and its header
    encodes as ``trace_header`` gives for this run's ``run_header`` and the
    cell; any other cell runs again and overwrites its trace.
    """
    run = run_header(config, snapshot, policy_mode)
    cells = condition_matrix(
        config.grid.po_levels,
        config.grid.delay_levels,
        config.grid.shift_levels,
        config.grid.seeds,
        onset_t=config.onset_t,
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def cell_path(cond: ConditionSpec, seed: int) -> str:
        return os.path.join(out_dir, f"trace_{cond.cell_id(seed)}.jsonl")

    def run_cell(cond: ConditionSpec, seed: int) -> dict:
        if out_dir:
            try:
                header, summary = read_trace(cell_path(cond, seed))
            except InputError:
                header = None  # missing or unreadable: simulate the cell again
            if json.dumps(header, sort_keys=True) == json.dumps(trace_header(run, cond, seed), sort_keys=True):
                return summary
        result = run_condition(config, snapshot, cond, seed, policy_mode=policy_mode)
        if out_dir:
            write_trace(cell_path(cond, seed), result)
        return result.summary()

    summaries = [run_cell(cond, seed) for cond, seed in cells]
    records = build_degradation_records(summaries, config.grid)
    report = superadditive_rate(records, threshold=0.0, units="frac")
    stratified: dict[str, StratifiedRateResult] = {}
    for key in ("delay_level", "shift_only"):
        try:
            stratified[key] = stratified_rate_test(records, stratum_key=key)
        except InputError:
            pass

    by_label: dict[str, list[float]] = {}
    for summary in summaries:
        by_label.setdefault(summary["label"], []).append(summary["post_onset_kappa_mean"])
    kappa_by_label = {label: float(np.mean(v)) for label, v in sorted(by_label.items())}

    outcome = SweepOutcome(
        cell_summaries=summaries,
        records=records,
        report=report,
        stratified=stratified,
        kappa_by_label=kappa_by_label,
    )

    if out_dir:
        records_to_csv(records, os.path.join(out_dir, "degradation.csv"))
        atomic_write_text(os.path.join(out_dir, "synergy_report.json"), report.to_json() + "\n")
        strat_doc = {k: v.to_dict() for k, v in stratified.items()}
        atomic_write_text(
            os.path.join(out_dir, "stratified_rates.json"),
            json.dumps(strat_doc, sort_keys=True, indent=2) + "\n",
        )
        sweep_doc = {
            "format_version": 1,
            "toolkit_version": TOOLKIT_VERSION,
            "config_hash": run["config_hash"],
            "policy_mode": policy_mode,
            "kappa_by_label": kappa_by_label,
            "total_violations": 0,  # see RolloutResult.summary
            "cells": summaries,
        }
        atomic_write_text(
            os.path.join(out_dir, "sweep_summary.json"),
            json.dumps(sweep_doc, sort_keys=True, indent=2) + "\n",
        )

    return outcome
