"""Deterministic, seedable desk-scale environments.

Two environments are provided:

``DriftBot``
    A differential-drive robot navigating a bounded arena toward a fixed
    goal. Hidden per-wheel gains make a weak wheel show up as heading
    drift, so a pose error and a gain fault produce the same evidence
    until the agent acts to separate them.

``MassSpring1D``
    A one-dimensional mass on a spring driven by a bounded force. Every
    quantity is hand-checkable, which makes it the sanity environment.

Observation layouts are fixed and index-addressable (see ``OBS_NAMES`` and
``MASK_PRIORITY`` on each class) so that masking specs stay stable.

All randomness comes from a per-episode ``numpy`` generator seeded at
construction; identical ``(env_id, seed, set_param calls, actions)`` reproduce
traces bit for bit. Noise draws happen unconditionally each step so that
parameter shifts never desynchronise the stream.

A step returns ``(next_obs, reward)`` and scores no risk. Risk is a function
of an observation alone (``risk_from_obs``, a class method that takes one
observation or a stack), so the episode loop scores every cell's next
observation with one call per control step.

The dynamics parameters in effect are private to the plant: ``set_param``
changes them and nothing reads them back. The policy layer has no access
path to environment instances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, LifecycleError

DT = 0.05
HORIZON = 1000


def _validate_action(action: np.ndarray, dim: int) -> np.ndarray:
    arr = np.asarray(action, dtype=float).ravel()
    if arr.shape != (dim,):
        raise InputError(f"action must have shape ({dim},), got {arr.shape}")
    values = arr.tolist()
    # one pass over Python floats; NaN and +-inf fail the comparison
    if not all(-1.0 <= v <= 1.0 for v in values):
        raise InputError(f"action entries must be finite and in [-1, 1], got {values}")
    return arr


class _BaseEnv:
    """Shared parameter handling, stepping discipline, and bookkeeping."""

    OBS_NAMES: tuple[str, ...] = ()
    MASK_PRIORITY: tuple[int, ...] = ()
    PARAM_BOUNDS: dict[str, tuple[float, float]] = {}
    ACTION_DIM: int = 1

    def __init__(self, seed: int, horizon: int = HORIZON):
        self.seed = int(seed)
        self.horizon = int(horizon)
        self._params = self.default_params()
        self.reset()

    @classmethod
    def default_params(cls) -> dict[str, float]:
        raise NotImplementedError

    def reset(self) -> np.ndarray:
        """Restart the episode: step counter, noise stream, initial state."""
        self.t = 0
        self.terminal = False
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=[self.seed, 0]))
        self._init_state()
        return self.observe()

    def _init_state(self) -> None:
        """Set the initial plant state; may draw from the fresh ``rng``."""
        raise NotImplementedError

    @classmethod
    def check_param(cls, name: str, value: float) -> None:
        """Raise ``InputError`` unless ``name`` is one of this environment's
        dynamics parameters and ``value`` lies within its bounds."""
        if name not in cls.PARAM_BOUNDS:
            raise InputError(f"{cls.__name__} has no dynamics parameter {name!r}")
        lo, hi = cls.PARAM_BOUNDS[name]
        if not (lo <= value <= hi) or not math.isfinite(value):
            raise InputError(f"parameter {name}={value} outside bounds [{lo}, {hi}]")

    def set_param(self, name: str, value: float) -> None:
        """Change one dynamics parameter in place (used by shift schedules)."""
        value = float(value)
        self.check_param(name, value)
        self._params[name] = value

    def _pre_step(self, action: np.ndarray) -> np.ndarray:
        if self.terminal:
            raise LifecycleError("step() called after the episode terminated")
        return _validate_action(action, self.ACTION_DIM)

    def _post_step(self, reward: float) -> tuple[np.ndarray, float]:
        """Advance ``t``, and return the next observation and the reward."""
        self.t += 1
        if self.t >= self.horizon:
            self.terminal = True
        return self.observe(), float(reward)


class DriftBot(_BaseEnv):
    """Differential-drive robot with hidden per-wheel gains.

    Kinematics (Euler step at ``DT``)::

        v = V_MAX * (g_left * u_left + g_right * u_right) / 2
        w = (g_right * u_right - g_left * u_left) * V_MAX / WHEEL_BASE

    where ``u_i = a_i + noise_scale * eps_i`` adds seeded per-wheel noise to
    the commanded wheel inputs. Reward is progress toward the goal minus a
    small control cost; risk is proximity to the arena boundary (zero in
    the interior, 1.0 at the wall, growing beyond).

    Observation layout (8 dims)::

        0 x          robot x position
        1 y          robot y position
        2 heading_sin  sin of heading
        3 heading_cos  cos of heading
        4 speed      realized forward speed (previous step)
        5 turn_rate  realized angular rate (previous step)
        6 goal_dx    goal x offset (goal_x - x)
        7 goal_dy    goal y offset (goal_y - y)

    ``MASK_PRIORITY`` orders dimensions from first-masked to last-masked as
    the masked fraction rises: heading first, then velocities, then pose.
    """

    OBS_NAMES = ("x", "y", "heading_sin", "heading_cos", "speed", "turn_rate", "goal_dx", "goal_dy")
    MASK_PRIORITY = (2, 3, 4, 5, 1, 7, 0, 6)
    PARAM_BOUNDS = {
        "gain_left": (0.0, 1.0),
        "gain_right": (0.0, 1.0),
        "noise_scale": (0.0, 0.5),
    }
    ACTION_DIM = 2

    V_MAX = 1.0
    WHEEL_BASE = 0.4
    GOAL = (3.0, 0.0)
    ARENA_HALF = 4.0
    RISK_ZONE = 1.0
    CONTROL_COST = 0.001

    @classmethod
    def default_params(cls) -> dict[str, float]:
        return {"gain_left": 1.0, "gain_right": 1.0, "noise_scale": 0.02}

    def _init_state(self) -> None:
        self.x = 0.0
        self.y = 0.0
        self.heading = 0.0
        self.speed = 0.0
        self.turn_rate = 0.0

    def observe(self) -> np.ndarray:
        gx, gy = self.GOAL
        return np.array(
            [
                self.x,
                self.y,
                math.sin(self.heading),
                math.cos(self.heading),
                self.speed,
                self.turn_rate,
                gx - self.x,
                gy - self.y,
            ],
            dtype=float,
        )

    def _distance_to_goal(self) -> float:
        gx, gy = self.GOAL
        return math.hypot(gx - self.x, gy - self.y)

    @classmethod
    def risk_from_obs(cls, obs: np.ndarray) -> np.ndarray:
        """Boundary-proximity risk of an observation or of each row of a stack.

        Uses the pose dims only; with those dims masked to zero the
        estimate degrades to zero, which is exactly the blindness masking
        is meant to model.
        """
        inner = cls.ARENA_HALF - cls.RISK_ZONE
        over = np.maximum(0.0, np.abs(obs[..., :2]) - inner) / cls.RISK_ZONE
        return over[..., 0] + over[..., 1]

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float]:
        act = self._pre_step(action)
        dist_before = self._distance_to_goal()

        # Python floats: the same IEEE arithmetic as numpy scalars, without their overhead
        a_left, a_right = act.tolist()
        eps_left, eps_right = self.rng.normal(size=2).tolist()
        p = self._params
        u_left = a_left + p["noise_scale"] * eps_left
        u_right = a_right + p["noise_scale"] * eps_right
        wl = p["gain_left"] * u_left
        wr = p["gain_right"] * u_right
        v = self.V_MAX * (wl + wr) / 2.0
        w = (wr - wl) * self.V_MAX / self.WHEEL_BASE

        self.x += v * math.cos(self.heading) * DT
        self.y += v * math.sin(self.heading) * DT
        self.heading = _wrap_angle(self.heading + w * DT)
        self.speed = v
        self.turn_rate = w

        # ** 2 is libm pow, as it is for numpy scalars; a * a differs on about 0.1% of inputs
        reward = (dist_before - self._distance_to_goal()) - self.CONTROL_COST * (a_left**2 + a_right**2)
        return self._post_step(reward)


class MassSpring1D(_BaseEnv):
    """Mass on a spring driven by a bounded force, semi-implicit Euler.

    Dynamics::

        v' = v + DT * (-stiffness * x + u + noise) / mass
        x' = x + DT * v'

    with ``u = action * F_MAX`` and seeded force noise of standard
    deviation ``FORCE_NOISE_STD``. Reward is ``-|x'|``; risk is the
    overshoot beyond the safe band ``|x| <= X_LIMIT`` (zero inside it).

    Observation layout (2 dims): ``0 position, 1 velocity``.
    Velocity is masked before position as the masked fraction rises.
    """

    OBS_NAMES = ("position", "velocity")
    MASK_PRIORITY = (1, 0)
    PARAM_BOUNDS = {
        "mass": (0.1, 10.0),
        "stiffness": (0.1, 10.0),
    }
    ACTION_DIM = 1

    F_MAX = 1.0
    X_LIMIT = 1.5
    FORCE_NOISE_STD = 0.01

    @classmethod
    def default_params(cls) -> dict[str, float]:
        return {"mass": 1.0, "stiffness": 1.0}

    def _init_state(self) -> None:
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        self.x = sign * self.rng.uniform(0.5, 1.5)
        self.v = 0.0

    def observe(self) -> np.ndarray:
        return np.array([self.x, self.v], dtype=float)

    @classmethod
    def risk_from_obs(cls, obs: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.abs(obs[..., 0]) - cls.X_LIMIT)

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float]:
        act = self._pre_step(action)

        noise = self.rng.normal() * self.FORCE_NOISE_STD
        u = float(act[0]) * self.F_MAX
        p = self._params
        self.v = self.v + DT * (-p["stiffness"] * self.x + u + noise) / p["mass"]
        self.x = self.x + DT * self.v

        return self._post_step(-abs(self.x))


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


ENV_CLASSES: dict[str, type[_BaseEnv]] = {
    "DriftBot": DriftBot,
    "MassSpring1D": MassSpring1D,
}


def env_class(env_id: str) -> type[_BaseEnv]:
    """The environment class registered as ``env_id``; ``InputError`` for unknown ids."""
    if env_id not in ENV_CLASSES:
        raise InputError(f"unknown env_id {env_id!r}; choose from {sorted(ENV_CLASSES)}")
    return ENV_CLASSES[env_id]

