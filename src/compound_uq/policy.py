"""Regime-adaptive action selection under a risk budget.

The policy layer is the agent's half of a control step (``act``): it sees
masked observations, task actions, kappa and the agent's own model, and
returns a choice. It never imports or touches environments, so privileged
simulator state cannot leak in; its caller passes the risk function.

Scheduling: as kappa rises from tau_low to tau_high, the exploration
weight alpha ramps linearly from 0 to alpha_max while the per-step risk
budget delta shrinks linearly from delta_max to 0. Below tau_low the
agent is a plain task policy with a full budget; above tau_high it probes
as hard as the (now zero) budget allows. Probing is therefore paid for by
caution, which is the point: information is bought while the blast radius
is clamped down. The explorer spread of the candidate set follows the same
ramp. ``schedule`` evaluates the ramp once per control step for every
cell of a batch and returns all three as arrays; ``candidate_actions``
takes a cell's spread and selection the cells' alpha and delta, which the
``ActionChoice`` does not copy.

Selection maximizes the composite value

    v(c) = r_task(c) + alpha * info_gain(c) - lambda * risk(c)

over candidates whose predicted risk fits the budget. Ties take the
lowest candidate index; when no candidate is compliant the least risky
one is taken and the choice is flagged. ``select_actions`` makes every
cell's choice of a lock-step batch in one pass over the stacked rows;
``select_action`` is its one-cell form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import disagreement, input_rows
from .errors import InputError
from .kappa import Thresholds

N_CANDIDATES = 32


@dataclass(frozen=True)
class PolicySettings:
    """Weights and budgets for the composite objective."""

    alpha_max: float = 200.0
    lambda_risk: float = 1.0
    delta_max: float = 0.5
    n_candidates: int = N_CANDIDATES

    def __post_init__(self):
        if self.alpha_max < 0 or self.lambda_risk < 0 or self.delta_max < 0:
            raise InputError("alpha_max, lambda_risk, delta_max must be nonnegative")
        if self.n_candidates < 2:
            raise InputError("need at least 2 candidates (task action and one alternative)")


@dataclass(frozen=True)
class ActionChoice:
    """Outcome of one selection step: the chosen row and its scores, not the alpha and delta it was chosen under.

    ``select_actions`` returns one for a whole batch, with an array per field and one entry per cell.
    """

    index: int
    action: np.ndarray
    info_gain: float
    predicted_risk: float
    any_compliant: bool


def _ramp(kappas: np.ndarray, thresholds: Thresholds) -> np.ndarray:
    z = (kappas - thresholds.tau_low) / (thresholds.tau_high - thresholds.tau_low)
    return z.clip(0.0, 1.0)  # the method: the np.clip function adds a microsecond of dispatch


def schedule(kappas, thresholds: Thresholds, settings: PolicySettings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's ``(alpha, delta, spread)`` from one evaluation of the kappa ramp over ``kappas``.

    The spread is ``alpha / alpha_max`` rather than the ramp itself: the
    two differ in the last bit for some ramps, and traces record what the
    quotient gives.
    """
    kappas = np.asarray(kappas, dtype=float)
    # every kappa is finite and nonnegative exactly when the least is >= 0 and the greatest < inf; NaN fails both
    if kappas.size and not (kappas.min() >= 0.0 and kappas.max() < math.inf):
        raise InputError(f"kappa must be finite and nonnegative, got {kappas}")
    ramp = _ramp(kappas, thresholds)
    alpha = settings.alpha_max * ramp
    spread = alpha / settings.alpha_max if settings.alpha_max > 0 else np.zeros_like(alpha)
    return alpha, settings.delta_max * (1.0 - ramp), spread


def candidate_actions(
    task_action: np.ndarray,
    rng: np.random.Generator,
    settings: PolicySettings,
    spread: float = 1.0,
) -> np.ndarray:
    """Candidate set: the task action, the zero action, then explorers.

    Index 0 is always the task action so that alpha = 0 reproduces the
    plain task policy through lowest-index tie-breaking. Explorer rows
    interpolate between the task action (spread 0) and independent
    uniform draws over the full action box (spread 1). Grading the spread
    by the deficit ramp keeps mild-deficit probing local, which stops the
    probe-error feedback loop from igniting off a transient: far-field
    candidates are exactly where the model is worst, so offering them at
    low deficit would let one noisy step lock the agent into probing.

    The uniform draws are taken at every spread, so the RNG stream does
    not depend on it. At spread 0 every explorer would equal the task row,
    and ``select_actions`` breaks ties toward the lowest index, so only the
    task and zero rows are returned: they give the choice the full set would.
    """
    if not (0.0 <= spread <= 1.0) or not math.isfinite(spread):
        raise InputError(f"spread must be in [0, 1], got {spread}")
    a = np.asarray(task_action, dtype=float).ravel()
    n = settings.n_candidates
    draws = rng.uniform(-1.0, 1.0, size=(n - 2, a.shape[0]))
    out = np.empty((2 if spread == 0.0 else n, a.shape[0]))
    out[0] = a
    out[1] = 0.0
    if spread > 0.0:
        out[2:] = (1.0 - spread) * a[None, :] + spread * draws
    return out


def task_affinity(candidates: np.ndarray, task_action: np.ndarray) -> np.ndarray:
    """Task reward surrogate: negative squared distance to the task action, or to
    each row's own task action when ``task_action`` holds one per candidate."""
    diff = np.atleast_2d(candidates) - np.asarray(task_action, dtype=float)
    return -(diff ** 2).sum(axis=1)


def select_actions(
    candidates: np.ndarray,
    r_task: np.ndarray,
    info_gain: np.ndarray,
    predicted_risk: np.ndarray,
    counts,
    alpha: np.ndarray,
    delta: np.ndarray,
    settings: PolicySettings,
) -> ActionChoice:
    """``select_action`` for a batch of cells in one pass over their stacked candidate rows.

    Cell i owns the next ``counts[i]`` rows and is scored with exploration
    weight ``alpha[i]`` and risk budget ``delta[i]``. The returned choice
    holds one entry per cell in each field: ``index`` counts within the
    cell's own rows, and ``action`` has one row per cell.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    r = np.asarray(r_task, dtype=float).ravel()
    g = np.asarray(info_gain, dtype=float).ravel()
    risk = np.asarray(predicted_risk, dtype=float).ravel()
    counts = np.asarray(counts, dtype=np.int64).ravel()
    alpha = np.asarray(alpha, dtype=float).ravel()
    delta = np.asarray(delta, dtype=float).ravel()
    n = cand.shape[0]
    if not (r.shape[0] == g.shape[0] == risk.shape[0] == n) or n == 0:
        raise InputError("candidates and per-candidate scores must have equal nonzero length")
    if counts.shape[0] == 0 or counts.min() < 1 or counts.sum() != n or not (alpha.shape == delta.shape == counts.shape):
        raise InputError("counts must split the candidates into nonempty cells, with one alpha and one delta per cell")
    # each entry is checked: a check on the sum could overflow to inf on finite scores
    if not np.isfinite(np.concatenate((r, g, risk))).all():
        raise InputError("candidate scores must be finite")

    owner = np.repeat(np.arange(counts.shape[0]), counts)  # the cell of each row
    starts = np.cumsum(counts) - counts
    values = r + alpha[owner] * g - settings.lambda_risk * risk
    compliant = risk <= delta[owner]
    # Each cell's scores in one row of a grid padded past its own rows, so one
    # argmax (argmin) per grid row ranks the cell: first index on ties, the
    # padding (-inf for the values, +inf for the risks) after every real row.
    slot = (owner, np.arange(n) - starts[owner])
    grid = np.full((counts.shape[0], counts.max()), -np.inf)
    grid[slot] = np.where(compliant, values, -np.inf)
    index = grid.argmax(axis=1)
    any_compliant = np.logical_or.reduceat(compliant, starts)
    if not any_compliant.all():
        grid.fill(np.inf)
        grid[slot] = risk
        index = np.where(any_compliant, index, grid.argmin(axis=1))
    rows = starts + index
    return ActionChoice(index=index, action=cand[rows], info_gain=g[rows], predicted_risk=risk[rows], any_compliant=any_compliant)


def select_action(
    candidates: np.ndarray,
    r_task: np.ndarray,
    info_gain: np.ndarray,
    predicted_risk: np.ndarray,
    alpha: float,
    delta: float,
    settings: PolicySettings,
) -> ActionChoice:
    """Pick the budget-compliant candidate with the best composite value: ``select_actions`` for one cell.

    Candidates with predicted risk within the budget ``delta`` are ranked
    by composite value (first index wins ties). If none comply, the minimum
    predicted-risk candidate is chosen and ``any_compliant`` is False so
    callers can count forced violations.
    """
    n = np.atleast_2d(np.asarray(candidates)).shape[0]
    batch = select_actions(candidates, r_task, info_gain, predicted_risk, [n], [alpha], [delta], settings)
    return ActionChoice(
        index=int(batch.index[0]),
        action=batch.action[0],
        info_gain=float(batch.info_gain[0]),
        predicted_risk=float(batch.predicted_risk[0]),
        any_compliant=bool(batch.any_compliant[0]),
    )


def act(history, tasks, kappas, rngs, ensemble, risk_fn, thresholds: Thresholds, settings: PolicySettings):
    """Every cell's choice of one control step: one ``schedule`` call, per cell its
    ``candidate_actions``, then over the stacked rows one call each of ``input_rows``,
    ``predict_members``, ``disagreement``, ``risk_fn`` (an env class's ``risk_from_obs``),
    ``task_affinity`` and ``select_actions``. ``history`` holds the last (up to) three
    masked observations, oldest first, cell i's in row i of each entry, and ``kappas``
    each cell's kappa of the previous step. Returns the choice, each cell's alpha
    and delta, and the chosen rows' member predictions."""
    alpha, delta, spread = schedule(kappas, thresholds, settings)
    cands = [candidate_actions(task, rng, settings, s) for task, rng, s in zip(tasks, rngs, spread.tolist())]
    counts = [c.shape[0] for c in cands]
    owner = np.repeat(np.arange(len(cands)), counts)  # the cell of each stacked row
    actions = np.concatenate(cands)
    x = input_rows([h[owner] for h in history], actions)
    member_preds = ensemble.predict_members(x)
    info_gain, mean_delta = disagreement(member_preds)
    predicted_risk = risk_fn(x[:, : mean_delta.shape[1]] + mean_delta)
    r_task = task_affinity(actions, np.stack(tasks)[owner])
    choice = select_actions(actions, r_task, info_gain, predicted_risk, counts, alpha, delta, settings)
    chosen = np.cumsum(counts) - counts + choice.index
    return choice, alpha, delta, member_preds[:, chosen]
