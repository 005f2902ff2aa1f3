"""Closed-loop episodes: calibration, condition runs, and sweeps.

This module owns the evaluator side: the plants, the stressors, kappa
scoring and the traces. The agent's half of a control step is
``policy.act``, which sees masked observations, the task actions, kappa and
the agent's own model; environment instances stay on this side of the
fence. A dynamics shift reaches the plant through ``set_param`` alone.

``run_cells`` is the one episode loop. It steps a batch of cells together
(``run_condition`` runs a batch of one, a sweep one batch per cell seed,
calibration one batch of probes), with one ``policy.act`` call and one
kappa scoring per control step over every cell's rows, and runs the
steps before onset once for all cells that share a seed and an onset.
Per-step order within each cell:

1. the dynamics shift (if due) is applied to the plant;
2. the agent picks an action from masked observations using the kappa
   value of the previous step (a one-step information lag, since this
   step's prediction error is only measurable after stepping);
3. the commanded action is written to the step table, and the plant steps
   on the action the delay gives from the table's commanded actions;
4. the true next observation's realized risk is scored, the observation
   is masked, the ensemble error on the agent-visible transition is
   scored, and kappa, regime, schedules, and telemetry are recorded.

Calibration runs unperturbed episodes with a scripted controller mixed
with uniform random actions (``CONTROLLER_MIX`` = 0.8 of the steps follow
the controller), trains the bootstrap ensemble, freezes the noise floor,
then derives regime thresholds from short probe runs (baseline, each
single stressor, compound) executed in monitor mode with provisional
default thresholds.

All seeds derive from (cell seed, fixed stream tags), so every cell is
reproducible in isolation, and sweep results depend neither on execution
order nor on which cells share a batch. So a sweep's independent units (its
seed batches, and the checks of the traces a resume finds) run on one forked
worker per usable CPU (``_map``), with the same bytes as in one process.
"""

from __future__ import annotations

import copy
import json
import math
import os
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
    member_mse,
    trajectory_rows,
)
from .envs import env_class
from .errors import CalibrationError, InputError, InvariantViolation
from .kappa import DEFAULT_THRESHOLDS, REGIMES, Thresholds, calibrate_thresholds, kappa, regime_code, sigma_s, sigma_theta
from .parsing import parse_key
from .perturb import (
    ConditionSpec,
    apply_mask,
    condition_matrix,
    mask_dims_for_fraction,
    shift_tag,
)
from .policy import act
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


class StepTable:
    """The per-step values of a batch of episodes, in arrays preallocated for ``n_steps`` steps.

    It is a batch's one record of per-step state, with no object per step:
    each step reads the agent's last three observations and previous kappa
    from it, the action delay reads its commanded actions, each adaptive
    update its window of rows, and each cell's trace is written from it.
    Each array has a leading cell axis, and a control step writes each
    column once for all of its cells. ``table[i]`` is cell i's own table: its columns are views of
    row i, indexed by step alone, and a cell's ``steps[t:]`` holds its steps from
    t on (and ``obs`` rows t to the last). The columns are the per-step API:
    ``write_trace``, the ``RolloutResult`` aggregates and callers read them
    (``kappa``, ``sigma_s``, ``alpha``, ``index``, ``action``, ``executed``,
    ``regime`` and the rest). ``regime`` holds codes, positions in
    ``REGIMES``. ``obs`` has one row more than there are steps: step t's
    masked observation is row t and its next observation row t + 1.
    """

    def __init__(self, n_steps: int, obs: np.ndarray, action_dim: int):
        n_cells = obs.shape[0]  # obs: each cell's first masked observation
        self.obs = np.empty((n_cells, n_steps + 1, obs.shape[1]))
        self.obs[:, 0] = obs
        self.action = np.empty((n_cells, n_steps, action_dim))
        self.executed = np.empty((n_cells, n_steps, action_dim))
        self.index = np.empty((n_cells, n_steps), dtype=np.int64)
        self.any_compliant = np.empty((n_cells, n_steps), dtype=bool)
        self.regime = np.empty((n_cells, n_steps), dtype=np.int8)
        (self.mse, self.sigma_theta, self.sigma_s, self.kappa, self.info_gain, self.predicted_risk,
         self.alpha, self.delta, self.reward, self.risk) = np.empty((10, n_cells, n_steps))

    def __getitem__(self, key) -> "StepTable":
        view = object.__new__(StepTable)
        view.__dict__.update((name, column[key]) for name, column in vars(self).items())
        return view

    def __len__(self) -> int:
        return self.index.shape[-1]


@dataclass
class RolloutResult:
    """One condition run: its per-step values and the aggregates they give."""

    condition: ConditionSpec
    seed: int
    run: dict  # run_header(config, snapshot, policy_mode) of the run that made it
    steps: StepTable
    adaptive_ensemble: Ensemble | None = None

    @property
    def cell_id(self) -> str:
        return self.condition.cell_id(self.seed)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_forced(self) -> int:
        return int(np.count_nonzero(~self.steps.any_compliant))

    @property
    def episode_return(self) -> float:
        total = 0.0  # added in step order; sum() compensates on Python 3.12+ and moves bits
        for reward in self.steps.reward.tolist():
            total += reward
        return total

    @property
    def peak_kappa(self) -> float:
        return float(max(self.steps.kappa.tolist()))

    @property
    def post_onset_kappa_mean(self) -> float:
        return float(np.mean(self.steps.kappa[self.condition.onset_t :]))

    @property
    def post_onset_mse_mean(self) -> float:
        return float(np.mean(self.steps.mse[self.condition.onset_t :]))

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


class _Episode:
    """One cell of a lock-step batch: its plant, stressors, generators and clone."""

    def __init__(self, config: ExperimentConfig, env_cls, condition: ConditionSpec, seed: int, clone: Ensemble | None):
        self.condition = condition
        self.seed = seed
        self.env = env_cls(seed=seed, horizon=config.horizon)
        dims = mask_dims_for_fraction(env_cls, condition.po_fraction)
        self.mask = np.isin(np.arange(len(env_cls.OBS_NAMES)), dims)  # the dims masked once the stressors are on
        self.policy_rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 3]))
        self.adaptive = clone
        if clone is not None:
            self.anchor_rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 5]))
            # seeded by the calibration seed, not the cell's: every cell's clone draws this one stream
            self.update_rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.calibration_seed, 1]))

    def follow(self, leader: "_Episode") -> None:
        """Take over what ``leader``'s steps before onset changed off the table: its plant
        and its policy stream. Nothing else moves before onset: the action delay and the
        adaptation window read the table, and the clone and its anchor and update streams
        are first used at onset."""
        self.env = copy.deepcopy(leader.env)
        self.policy_rng = copy.deepcopy(leader.policy_rng)


def run_cells(
    config: ExperimentConfig,
    snapshot: CalibrationSnapshot,
    run: dict,
    cells: list[tuple[ConditionSpec, int]],
    adaptive_enabled: bool = False,
) -> list[RolloutResult]:
    """Run one full episode per ``(condition, seed)`` cell, all cells stepping together.

    ``run`` is ``run_header(config, snapshot, policy_mode)``, which the caller
    builds once and which names the policy mode. Each control step makes every
    stepping cell's choice with one ``policy.act`` call, passed views of the
    table's ``obs`` and ``kappa`` columns, never the table. After the plants step,
    one ``env_cls.risk_from_obs`` call scores the realized risk of the stacked
    true next observations, and one ``apply_mask`` call masks them: each cell's
    mask row, built once from ``mask_dims_for_fraction``, ANDed with whether
    its onset has come. Then one ``member_mse`` call over the chosen rows and
    one ``sigma_theta``, ``kappa`` and ``regime_code`` call over their errors,
    and each ``StepTable`` column is written once. The controller, the dynamics
    shift and the plant stay per cell, and so does the clone's update. The
    table is the batch's only per-step store: the actions the plants execute
    are one gather from its commanded actions (the delay), and each clone's
    update builds its window from its table rows (``trajectory_rows``).
    Every batched operation is row-independent, and each cell keeps its own plant,
    generators, clone and table rows, so a cell's result does not depend on
    which cells share its batch. An ``InvariantViolation`` in any cell aborts
    the whole batch.

    Cells that share ``(seed, onset_t)`` take identical steps until the next
    observation of step ``onset_t - 1`` may be masked, so the first of them
    (the leader) runs steps ``0 ... onset_t - 2`` alone. At the start of step
    ``onset_t - 1`` each of the others takes over the leader's plant and policy
    stream (``_Episode.follow``) and its table rows, and steps on its own from
    there. A cell with ``onset_t`` 0 or 1 shares nothing.

    "monitor" has no information bonus but keeps the kappa-scheduled risk
    budget: of the task and zero actions it takes the better scored one within
    the budget, or the less risky when neither is. "adaptive" is the config's
    own probing policy. Both select and score kappa with the frozen ensemble;
    ``adaptive_enabled`` also fine-tunes a clone per cell online and returns it
    as that cell's ``adaptive_ensemble``.
    """
    settings = replace(config.policy, alpha_max=0.0) if run["policy_mode"] == "monitor" else config.policy
    env_cls = env_class(config.env_id)
    controller = TASK_CONTROLLERS[config.env_id]
    thresholds = snapshot.thresholds
    ensemble = snapshot.ensemble
    if adaptive_enabled:
        # The agent keeps its pre-deployment experience and replays a slice
        # of it alongside the live window on every update. Without the
        # anchor, fine-tuning on a hundred-ish recent rows drags the model
        # off everything it knew about states not in the window.
        anchor_x, anchor_y = collect_baseline_buffer(config)
    # The step each cell starts stepping at, and its leader: the first cell of its (seed, onset_t).
    leaders: dict[tuple[int, int], int] = {}
    lead = [leaders.setdefault((seed, cond.onset_t), i) for i, (cond, seed) in enumerate(cells)]
    joins = [0 if lead[i] == i else max(min(cond.onset_t, config.horizon) - 1, 0) for i, (cond, _) in enumerate(cells)]
    # A batch keeps its cells in the order they start stepping, so the cells that step are always its first rows.
    order = sorted(range(len(cells)), key=joins.__getitem__)
    row_of = {cell: row for row, cell in enumerate(order)}
    forks: dict[int, list[tuple[int, int]]] = {}  # (follower row, leader row) pairs by the step they fork at
    for cell in order:
        if joins[cell] > 0:
            forks.setdefault(joins[cell], []).append((row_of[cell], row_of[lead[cell]]))
    eps = [
        _Episode(config, env_cls, *cells[cell], ensemble.clone_unfrozen() if adaptive_enabled else None)
        for cell in order
    ]
    if not eps:
        return []
    onset = np.array([e.condition.onset_t for e in eps])
    delays = np.array([e.condition.delay_steps for e in eps])
    masks = np.stack([e.mask for e in eps])
    # each cell's observability deficit from onset on (it is 0.0 before)
    on = sigma_s(masks.mean(axis=1), delays, config.c_tau)
    # The delay: the step whose command each cell executes at each step. Before onset that is the
    # step itself; from onset on, the step delay_steps before, or -1 (zeros) while that is before onset.
    steps, rows = np.arange(config.horizon), np.arange(len(eps))
    source = np.where(steps < onset[:, None], steps, steps - delays[:, None])
    source[(steps >= onset[:, None]) & (source < onset[:, None])] = -1
    k = joins.count(0)  # the cells that step: rows 0 ... k - 1
    first = apply_mask(np.stack([e.env.observe() for e in eps]), masks & (onset <= 0)[:, None])
    table = StepTable(config.horizon, first, env_cls.ACTION_DIM)

    for t in range(config.horizon):
        for i, leader in forks.get(t, ()):
            eps[i].follow(eps[leader])
            for column in vars(table).values():  # rows 0 ... t of obs; step t's rows are written below
                column[i, : t + 1] = column[leader, : t + 1]
            k += 1
        stepping = eps[:k]
        visible = table.obs[:k, t]
        for e in stepping:
            if t == e.condition.onset_t and e.condition.shift is not None:
                e.env.set_param(*e.condition.shift)
        tasks = [controller(row) for row in visible]
        # the agent sees views of its last three observations and previous kappa, never the table
        history = table.obs[:k, max(t - 2, 0) : t + 1].swapaxes(0, 1)
        kappas = table.kappa[:k, t - 1] if t > 0 else np.zeros(k)
        choice, alpha, delta, chosen_preds = act(
            history, tasks, kappas, [e.policy_rng for e in stepping], ensemble, env_cls.risk_from_obs, thresholds, settings
        )
        breach = choice.any_compliant & (choice.predicted_risk > delta + RISK_TOL)
        if breach.any():
            j = int(np.argmax(breach))
            raise InvariantViolation(
                f"selected action breaches the risk budget at t={t} in cell {stepping[j].condition.cell_id(stepping[j].seed)}: "
                f"{float(choice.predicted_risk[j])} > {float(delta[j])}"
            )

        table.action[:k, t] = choice.action
        executed = table.action[rows[:k], source[:k, t]]
        executed[source[:k, t] < 0] = 0.0
        nexts, rewards = [], []
        for e, action in zip(stepping, executed):
            tr = e.env.step(action)
            nexts.append(tr.next_obs)
            rewards.append(tr.reward)
        true_next = np.stack(nexts)
        risks = env_cls.risk_from_obs(true_next)
        visible_next = apply_mask(true_next, masks[:k] & (t + 1 >= onset[:k])[:, None])
        delta_vis = visible_next - visible
        # act already scored the chosen rows, and a row's prediction does not depend on its batch
        mse = member_mse(chosen_preds, delta_vis)
        active = t >= onset[:k]
        sig_theta = sigma_theta(mse, snapshot.mu0, snapshot.sigma0, config.clip_c)
        sig_s = np.where(active, on[:k], 0.0)
        kappa_now = kappa(sig_theta, sig_s)

        table.obs[:k, t + 1] = visible_next
        table.executed[:k, t], table.index[:k, t] = executed, choice.index
        table.any_compliant[:k, t], table.info_gain[:k, t], table.predicted_risk[:k, t] = choice.any_compliant, choice.info_gain, choice.predicted_risk
        table.alpha[:k, t], table.delta[:k, t], table.reward[:k, t], table.risk[:k, t] = alpha, delta, rewards, risks
        table.mse[:k, t], table.sigma_theta[:k, t], table.sigma_s[:k, t], table.kappa[:k, t] = mse, sig_theta, sig_s, kappa_now
        table.regime[:k, t] = regime_code(kappa_now, thresholds)
        if adaptive_enabled:
            lo = max(t + 1 - config.adaptive.window, 0)  # the adaptation window: steps lo ... t
            for j, e in enumerate(stepping):
                if active[j] and (t - e.condition.onset_t) % config.adaptive.every == 0 and t + 1 - lo >= 8:
                    # rows from step 0, so that steps lo and lo + 1 keep the acc their history gives
                    x_win, y_win = trajectory_rows(table.obs[j, : t + 2], table.action[j, : t + 1])
                    take = min(t + 1 - lo, anchor_x.shape[0])
                    idx = e.anchor_rng.choice(anchor_x.shape[0], size=take, replace=False)
                    x_up = np.concatenate([x_win[lo:], anchor_x[idx]])
                    y_up = np.concatenate([y_win[lo:], anchor_y[idx]])
                    adaptive_update(e.adaptive, x_up, y_up, config.train, e.update_rng, epochs=config.adaptive.epochs)

    return [RolloutResult(eps[row].condition, eps[row].seed, run, table[row], eps[row].adaptive) for row in map(row_of.get, range(len(cells)))]


def run_condition(
    config: ExperimentConfig,
    snapshot: CalibrationSnapshot,
    condition: ConditionSpec,
    seed: int,
    policy_mode: str = "monitor",
    adaptive_enabled: bool = False,
) -> RolloutResult:
    """Run one full episode under a condition and score it step by step: ``run_cells`` with one cell.

    It first builds ``run_header``, which refuses a bad mode or snapshot, and
    keeps it as the result's ``run``.
    """
    run = run_header(config, snapshot, policy_mode)
    return run_cells(config, snapshot, run, [(condition, seed)], adaptive_enabled)[0]


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
    exploration mixture, built per episode by ``trajectory_rows``, as the
    adaptive update builds its window; the first two transitions of each
    episode give the acc feature its history and yield no row."""
    env_cls = env_class(config.env_id)
    controller = TASK_CONTROLLERS[config.env_id]
    xs, ys = [], []
    remaining = config.t_pre
    episode = 0
    while remaining > 0:
        env = env_cls(seed=config.calibration_seed * 10007 + episode, horizon=config.horizon)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.calibration_seed, 4, episode]))
        obs, actions = [env.observe()], []
        for _ in range(min(config.horizon, remaining)):
            tr = env.step(_mixture_action(controller, obs[-1], rng, env_cls.ACTION_DIM))
            obs.append(tr.next_obs)
            actions.append(tr.action)
            remaining -= 1
        x, y = trajectory_rows(obs, actions)
        xs.append(x[2:])
        ys.append(y[2:])
        episode += 1
    return np.concatenate(xs), np.concatenate(ys)


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
        # Every probe episode runs in one lock-step batch.
        probes = [baseline_cond, *singles.values(), compound_cond]
        seeds = [90001 + config.calibration_seed * 131 + ep for ep in range(config.probe_episodes)]
        results = run_cells(config, provisional, run_header(config, provisional, "monitor"), [(c, s) for c in probes for s in seeds])
        n = len(seeds)
        # each probe's post-onset kappas, its episodes in order
        kappas = [
            [k for res in results[i * n : (i + 1) * n] for k in res.steps.kappa[cond.onset_t :].tolist()]
            for i, cond in enumerate(probes)
        ]
        thresholds = calibrate_thresholds(
            kappas[0],
            dict(zip(singles, kappas[1:-1])),
            kappas[-1],
            round_to_decimal=config.thresholds.round_to_decimal,
        )

    return replace(provisional, thresholds=thresholds)


# ---------------------------------------------------------------------------
# Independent units on every CPU


def _workers() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_task = None  # (fn, items) of the _map a forked worker serves; set in workers only


def _take_task(fn, items) -> None:
    global _task
    _task = fn, items


def _run_unit(i: int):
    fn, items = _task
    return fn(items[i])


def _map(fn, items: list) -> list:
    """``[fn(item) for item in items]`` for independent units, on ``min(_workers(), len(items))``
    forked workers.

    Every unit runs, and then the first error in item order is raised, so the units that
    complete (and whatever they write) do not depend on the CPU count. With fewer than two
    workers, or without ``fork``, the units run inline. Workers are forked, not spawned, so
    that they inherit ``fn`` and ``items`` (``_take_task``) in place of importing the package
    afresh; only indexes and results cross the pipe. The fork happens before the executor
    starts its own threads. A worker that dies raises ``BrokenProcessPool``, and every worker
    is joined before this returns or raises.
    """
    n = min(_workers(), len(items))
    if n < 2 or not hasattr(os, "fork"):
        results, errors = [], []
        for item in items:
            try:
                results.append(fn(item))
            except Exception as e:  # raised once every unit has run, as the pool does
                errors.append(e)
        if errors:
            raise errors[0]
        return results
    # imported here, not at the top: they add about 20 ms to `import compound_uq.cli`, which most commands never need
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(n, mp_context=get_context("fork"), initializer=_take_task, initargs=(fn, items)) as pool:
        futures = [pool.submit(_run_unit, i) for i in range(len(items))]
    return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# Trace files


_BOOL_TEXT = np.array(["false", "true"], dtype=object)
_REGIME_TEXT = np.array([json.dumps(r.value) for r in REGIMES], dtype=object)


def _step_lines(steps: StepTable, first: int = 0) -> list[str]:
    """A cell's step lines from step ``first`` on: for each step, the text
    ``json.dumps(line, sort_keys=True)`` gives for the dict of its values, keyed as the
    trace names them.

    The lines fill one template that holds the keys in sorted order. Each distinct float
    of the lines, told apart by its bits so that -0.0 and every NaN keep their own text,
    is rendered once: by ``float.__repr__``, as ``json.dumps`` renders it, and as ``NaN``,
    ``Infinity`` or ``-Infinity`` where ``repr`` gives no JSON.
    """
    steps = steps[first:]
    n = len(steps)
    if n == 0:
        return []
    fields = {
        "mse": steps.mse,
        "sigma_theta": steps.sigma_theta,
        "sigma_s": steps.sigma_s,
        "kappa": steps.kappa,
        "obs": steps.obs[:-1],
        "action": steps.action,
        "executed_action": steps.executed,
        "next_obs": steps.obs[1:],
        "delta": steps.obs[1:] - steps.obs[:-1],
        "reward": steps.reward,
        "risk": steps.risk,
        "alpha": steps.alpha,
        "delta_budget": steps.delta,
        "predicted_risk": steps.predicted_risk,
        "info_gain": steps.info_gain,
    }
    flat = np.concatenate([column.ravel() for column in fields.values()])
    distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    values = distinct.view(np.float64)
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    texts[np.isnan(values)] = "NaN"
    texts[values == math.inf] = "Infinity"
    texts[values == -math.inf] = "-Infinity"
    flat_text = texts[inverse]
    start = 0
    for key, column in fields.items():
        fields[key] = flat_text[start : start + column.size].reshape(column.shape)
        start += column.size
    fields["t"] = np.array(list(map(str, range(first, first + n))), dtype=object)
    fields["chosen_index"] = np.array(list(map(str, steps.index.tolist())), dtype=object)
    fields["any_compliant"] = _BOOL_TEXT[steps.any_compliant.view(np.int8)]
    fields["regime"] = _REGIME_TEXT[steps.regime]
    fields["kind"] = np.full(n, '"step"', dtype=object)
    parts, columns = [], []
    for key in sorted(fields):
        column = fields[key].reshape(n, -1)
        slots = ", ".join(["%s"] * column.shape[1])
        parts.append(f'"{key}": ' + (slots if fields[key].ndim == 1 else f"[{slots}]"))
        columns.append(column)
    template = "{" + ", ".join(parts) + "}"
    return [template % tuple(row) for row in np.concatenate(columns, axis=1).tolist()]


CELL_KEYS = ("cell_id", "seed", "condition")  # the header keys that name the cell; the rest name the run
# read_trace checks step lines but returns none, so a float is only measured (len), never converted;
# parse_int and parse_constant keep their defaults, so int()'s digit limit and NaN/Infinity still apply
_STEP_DECODER = json.JSONDecoder(parse_float=len)


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


def _shared_steps(steps: StepTable, other: StepTable) -> int:
    """How many leading steps of two tables have equal step lines: those where every
    column's row holds the same bits, and so does ``obs`` row t + 1 (the step's next
    observation). A line is a function of its row and t alone, so bits are enough."""
    differs = np.zeros(len(steps), dtype=bool)
    for name, column in vars(steps).items():
        twin = getattr(other, name)
        if twin.shape != column.shape:
            return 0
        rows = (column.view(np.uint8) != twin.view(np.uint8)).reshape(column.shape[0], -1).any(axis=1)
        differs |= rows[:-1] | rows[1:] if name == "obs" else rows  # obs row t + 1 is step t's next observation
    first = np.flatnonzero(differs)
    return int(first[0]) if first.size else len(steps)


def write_trace(path: str, result: RolloutResult, reuse: tuple[StepTable, list[str]] | None = None) -> list[str]:
    """One JSONL file: ``trace_header`` of the result's run, one line per step, and the summary
    as footer. Returns the step lines.

    ``reuse`` is another table and its step lines, as this call returned them; ``run_sweep``
    passes the previous cell of the same batch, whose pre-onset prefix this cell shares. The
    leading steps where both tables hold the same bits (``_shared_steps``) take its lines, and
    only the rest are rendered, so the file's bytes are those of a write without ``reuse``.
    """
    steps = [] if reuse is None else reuse[1][: _shared_steps(result.steps, reuse[0])]
    steps += _step_lines(result.steps, len(steps))
    header = trace_header(result.run, result.condition, result.seed)
    footer = {"kind": "footer", **result.summary()}
    atomic_write_text(path, "\n".join([json.dumps(header, sort_keys=True), *steps, json.dumps(footer, sort_keys=True)]) + "\n")
    return steps


def _kind(line) -> str | None:
    return line.get("kind") if isinstance(line, dict) else None


def _step_kind(line: str) -> str | None:
    """``_kind`` of ``_STEP_DECODER.decode(line)``. A value that starts at 0 and ends the line, or
    ends just before its newline, is taken from the scanner alone; any other line (padding, extra
    data, no value) goes to ``decode``, whose verdict stands."""
    try:
        value, end = _STEP_DECODER.scan_once(line, 0)
    except StopIteration:  # no value starts at 0
        return _kind(_STEP_DECODER.decode(line))
    return _kind(value if line[end:] in ("", "\n") else _STEP_DECODER.decode(line))


def read_trace(path: str) -> tuple[dict, dict]:
    """Header and cell summary of a trace; ``InputError`` if unreadable, if a footer summary key
    does not parse by its ``SUMMARY_KEYS`` annotation, if the footer does not encode as
    ``{"kind": "footer", **summary}`` for the summary it parses to (its condition as
    ``ConditionSpec.to_dict`` gives it), if the lines between are not ``n_steps`` step lines (each
    decoded and checked, none returned), if the footer's cell_id or label is not what its condition
    and seed give, or if the header names another cell. The summary is the footer without ``kind``.

    A step line is checked against the whole JSON grammar, but its floats are only measured, never
    converted. A line whose value starts at its first character and ends at its newline is checked
    by the scanner alone; any other line is refused or accepted as ``json.loads`` would."""
    with open_input(path, "trace") as fh:
        lines = (line for line in fh if line.strip())  # one held at a time: a held list raises peak RSS
        header, last = json.loads(next(lines, "null")), None
        kinds = [_step_kind(last := line) for line in lines]  # the footer's kind comes last
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


def _read_or_error(path: str) -> tuple[dict, dict] | InputError:
    try:
        return read_trace(path)
    except InputError as e:
        return e


def read_traces(paths: list[str]) -> list[tuple[dict, dict] | InputError]:
    """``read_trace(path)``, or the ``InputError`` it raised, for each path in order. The paths
    that exist are read on ``_map``'s workers, so a tree with no traces yet forks none."""
    present = [os.path.exists(path) for path in paths]
    pooled = iter(_map(_read_or_error, [path for path, there in zip(paths, present) if there]))
    return [next(pooled) if there else _read_or_error(path) for path, there in zip(paths, present)]


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
    (default) runs the task controller behind ``run_cells``'s
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

    The traces found are checked by ``read_traces``. The cells that run form
    one ``run_cells`` batch per cell seed, in grid order, and ``_map`` runs
    the batches on its workers, so each process holds one seed's block of
    episodes at a time. A batch's traces are written, by the process that ran
    it, once all of its cells have run: an ``InvariantViolation`` in any cell
    leaves none of them, the other batches still run and write theirs, and a
    resumed sweep simulates only that batch again. Each cell's ``write_trace``
    takes the previous cell's table and step lines as ``reuse``, so the lines
    of the prefix they share are rendered once. Summaries keep
    ``condition_matrix`` order.
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

    summaries: list[dict | None] = [None] * len(cells)
    if out_dir:
        for i, read in enumerate(read_traces([cell_path(*cell) for cell in cells])):
            # a missing or unreadable trace, or one another run wrote, is simulated again
            if not isinstance(read, InputError) and json.dumps(read[0], sort_keys=True) == json.dumps(trace_header(run, *cells[i]), sort_keys=True):
                summaries[i] = read[1]
    batches: dict[int, list[int]] = {}  # the cells each seed still has to simulate, in grid order
    for i, (_, seed) in enumerate(cells):
        if summaries[i] is None:
            batches.setdefault(seed, []).append(i)

    def simulate(batch: list[int]) -> list[dict]:
        results = run_cells(config, snapshot, run, [cells[i] for i in batch])
        reuse = None  # the previous cell's table and step lines: a seed's cells share their prefix
        for i, result in zip(batch, results):
            if out_dir:
                reuse = result.steps, write_trace(cell_path(*cells[i]), result, reuse)
        return [result.summary() for result in results]

    for batch, done in zip(batches.values(), _map(simulate, list(batches.values()))):
        for i, summary in zip(batch, done):
            summaries[i] = summary
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
