"""Shared builders for hand-crafted fixtures used across test modules."""

import json
import math
import struct

import numpy as np

from compound_uq.ensemble import Ensemble, trajectory_rows
from compound_uq.envs import env_class
from compound_uq.errors import InputError
from compound_uq.rollout import TASK_CONTROLLERS, _mixture_action, read_trace

# A tiny MassSpring1D config whose threshold overrides skip calibration's probe runs.
TINY = {
    "env_id": "MassSpring1D",
    "horizon": 60,
    "onset_t": 10,
    "grid": {
        "po_levels": [0.0, 0.5],
        "delay_levels": [0, 1],
        "shift_levels": [None],
        "seeds": [0],
    },
    "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 5},
    "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
}
LONG_INT = "1" + "0" * 4999  # past json's 4,300-digit int-conversion limit
DEEP = "[" * 100_000  # nested past the interpreter's recursion limit, where json raises RecursionError


def clamp_grid(lo, hi):
    """Values a clamp to [lo, hi] may meet: the bounds and their outer
    neighbours, both zeros, the smallest subnormals, the ends of the float
    range and NaN."""
    return (
        lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), 0.5 * (lo + hi),
        0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
    )


def float_bits(x):
    """The IEEE-754 bytes of a float, so -0.0 differs from 0.0 and NaN equals itself."""
    return struct.pack("<d", x)


def constant_ensemble(member_outputs, in_dim, frozen=False):
    """Ensemble whose members always predict fixed vectors.

    All weights are zero and the normalizers are identity, so the output
    biases pass straight through. Built via the documented serialization
    format rather than by poking private state; it loads frozen, and
    ``frozen=False`` gives its ``clone_unfrozen()``.
    """
    outputs = np.asarray(member_outputs, dtype=float)
    m, out_dim = outputs.shape
    hidden = 1
    ens = Ensemble.from_dict(
        {
            "m_members": m,
            "in_dim": in_dim,
            "hidden_width": hidden,
            "out_dim": out_dim,
            "w1": [0.0] * (m * in_dim * hidden),
            "b1": [0.0] * (m * hidden),
            "w2": [0.0] * (m * hidden * out_dim),
            "b2": [float(v) for v in outputs.ravel()],
            "x_mean": [0.0] * in_dim,
            "x_std": [1.0] * in_dim,
            "y_mean": [0.0] * out_dim,
            "y_std": [1.0] * out_dim,
        }
    )
    return ens if frozen else ens.clone_unfrozen()


def predict_members_oracle(ens, x):
    """``Ensemble.predict_members`` in its two-``einsum`` form, one product per layer over
    (M, B, hidden): the reference its re-laid-out form must equal bit for bit."""
    xn = ens.x_norm.encode(np.atleast_2d(np.asarray(x, dtype=float)))
    h = np.maximum(0.0, np.einsum("bi,mih->mbh", xn, ens.w1) + ens.b1[:, None, :])
    yn = np.einsum("mbh,mho->mbo", h, ens.w2) + ens.b2[:, None, :]
    return ens.y_norm.decode(yn)


def trace_steps(path):
    """The step lines of the trace at ``path``, decoded by ``json.loads``, once
    ``read_trace`` accepts the trace; it checks step lines but returns none."""
    read_trace(str(path))
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    return [json.loads(line) for line in lines[1:-1]]


def record_calls(monkeypatch, owner, name, note) -> list:
    """``note(*args, **kwargs)`` for every call of ``owner.name`` (a module's function or a
    class's method, whose ``note`` takes ``self`` first) made from now on, in call order;
    each call then runs as before."""
    notes = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        notes.append(note(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return notes


def batch_cell_ids(config, snapshot, run, cells, *args, **kwargs) -> list[str]:
    """The ``record_calls`` note of a ``rollout.run_cells`` call: the cell ids of its
    lock-step batch, so a ``run_condition`` call shows as a batch of one."""
    return [cond.cell_id(seed) for cond, seed in cells]


def linear_system_rows(n_steps=160, seed=0):
    """Model rows ``(x, y)`` of a synthetic episode where delta is a fixed
    linear map of (obs, action); the first two steps yield no row."""
    rng = np.random.default_rng(seed)
    w_obs = np.array([[0.05, -0.02], [0.03, 0.04]])
    w_act = np.array([[0.2], [-0.1]])
    obs, actions, deltas = [np.array([0.5, -0.3])], [], []
    for _ in range(n_steps):
        actions.append(rng.uniform(-1.0, 1.0, size=1))
        deltas.append(obs[-1] @ w_obs.T + (w_act @ actions[-1]))
        obs.append(obs[-1] + deltas[-1])
    x, _ = trajectory_rows(obs, actions)
    return x[2:], np.array(deltas[2:])  # the map's own deltas, not the observations' differences


def build_eval_rows(env_id, params, seed, n_rows, horizon=120):
    """Ground-truth transition rows under given dynamics: the exam for adapted models.

    Evaluator-side: environments are constructed directly with the true
    (possibly shifted) parameters, observations are unmasked, and episodes
    reset every ``horizon`` steps so rows stay on the kind of states a task
    run actually visits.

    Actions interleave the scripted task controller with uniform draws
    (the ratio baseline collection uses), which keeps states near the task
    envelope while still exercising diverse actions.
    """
    if n_rows < 1:
        raise InputError("n_rows must be positive")
    env_cls = env_class(env_id)
    if horizon < 3:
        raise InputError("horizon must be at least 3 to yield usable rows")
    controller = TASK_CONTROLLERS[env_id]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 7]))
    xs, ys = [], []
    episode = 0
    while len(xs) < n_rows:
        env = env_cls(seed=seed * 10007 + 6151 * episode, horizon=horizon)
        for name, value in params.items():
            env.set_param(name, value)
        obs, actions = [env.observe()], []
        for _ in range(horizon):
            actions.append(_mixture_action(controller, obs[-1], rng, env_cls.ACTION_DIM))
            obs.append(env.step(actions[-1])[0])
        x, y = trajectory_rows(obs, actions)
        xs.extend(x[2:])
        ys.extend(y[2:])
        episode += 1
    return np.array(xs[:n_rows]), np.array(ys[:n_rows])
