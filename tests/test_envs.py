"""Environment tests: closed-form dynamics, determinism, validation."""

import math

import numpy as np
import pytest

from compound_uq.envs import (
    DT,
    ENV_CLASSES,
    DriftBot,
    MassSpring1D,
    env_class,
)
from compound_uq.errors import InputError, LifecycleError


def test_env_class_rejects_unknown_id():
    with pytest.raises(InputError):
        env_class("HoverCraft")


def test_driftbot_initial_obs_ignores_gain_fault():
    # A weak wheel is invisible until the robot moves: the first
    # observation depends only on the initial pose.
    healthy = DriftBot(seed=1)
    faulty = DriftBot(seed=1)
    faulty.set_param("gain_left", 0.5)
    np.testing.assert_array_equal(healthy.observe(), faulty.observe())


def test_driftbot_kinematics_closed_form():
    # Hand-evaluated differential-drive step with noise disabled:
    #   v = (0.5*1 + 1.0*1) / 2 = 0.75
    #   w = (1.0*1 - 0.5*1) / 0.4 = 1.25
    env = DriftBot(seed=0)
    for name, value in {"gain_left": 0.5, "gain_right": 1.0, "noise_scale": 0.0}.items():
        env.set_param(name, value)
    next_obs, reward = env.step(np.array([1.0, 1.0]))

    v = 0.75
    w = 1.25
    x1 = v * math.cos(0.0) * DT
    heading1 = w * DT
    assert abs(x1 - 0.0375) < 1e-15 and abs(heading1 - 0.0625) < 1e-15

    expected_next = np.array(
        [x1, 0.0, math.sin(heading1), math.cos(heading1), v, w, 3.0 - x1, 0.0]
    )
    np.testing.assert_allclose(next_obs, expected_next, rtol=0, atol=1e-12)

    # The weak LEFT wheel turns the robot toward the left (positive,
    # counterclockwise heading).
    assert heading1 > 0

    expected_reward = (3.0 - math.hypot(3.0 - x1, 0.0)) - 0.001 * 2.0
    assert abs(reward - expected_reward) < 1e-12
    assert DriftBot.risk_from_obs(next_obs) == 0.0


def test_driftbot_control_cost_squares_with_pow():
    # On this action the wheel commands squared by ``a * a`` give a reward
    # one ulp off the ``a ** 2`` (libm pow) the trace pins were made with.
    _, reward = DriftBot(seed=0).step(np.array([-0.7873486727448245, 0.6864316944347293]))
    assert float(reward).hex() == "-0x1.da1db3979c729p-9"


def test_driftbot_deterministic_given_seed():
    actions = np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 2))

    def trace(seed):
        env = DriftBot(seed=seed)
        return np.stack([env.step(a)[0] for a in actions])

    np.testing.assert_array_equal(trace(3), trace(3))
    assert not np.array_equal(trace(3), trace(4))


def test_step_after_horizon_raises():
    env = DriftBot(seed=0, horizon=3)
    for _ in range(3):
        env.step(np.zeros(2))
    with pytest.raises(LifecycleError):
        env.step(np.zeros(2))


@pytest.mark.parametrize(
    "action",
    [np.zeros(3), np.array([1.5, 0.0]), np.array([np.nan, 0.0])],
)
def test_action_validation(action):
    env = DriftBot(seed=0)
    with pytest.raises(InputError):
        env.step(action)


@pytest.mark.parametrize("env_id", sorted(ENV_CLASSES))
def test_action_entries_must_lie_in_the_closed_box(env_id):
    env = env_class(env_id)(seed=0)
    for bad in (math.nan, math.inf, -math.inf, 1.0 + 2**-52, -(1.0 + 2**-52)):
        action = [bad] + [0.0] * (env.ACTION_DIM - 1)
        with pytest.raises(InputError) as err:
            env.step(np.array(action))
        assert str(err.value) == f"action entries must be finite and in [-1, 1], got {action}"
    assert env.t == 0  # refused before anything moved
    for edge in (1.0, -1.0, -0.0):
        env.step(np.full(env.ACTION_DIM, edge))
    assert env.t == 3


def test_parameter_bounds_enforced():
    with pytest.raises(InputError):
        DriftBot(seed=0).set_param("gain_left", 1.5)
    with pytest.raises(InputError):
        DriftBot(seed=0).set_param("wheel_size", 1.0)
    with pytest.raises(InputError):
        MassSpring1D(seed=0).set_param("mass", 0.0)


def test_mass_spring_closed_form_step():
    # Independent replay of the documented semi-implicit Euler update,
    # including the seeded force noise stream.
    seed = 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0]))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    x0 = sign * rng.uniform(0.5, 1.5)
    noise = rng.normal() * MassSpring1D.FORCE_NOISE_STD

    env = MassSpring1D(seed=seed)
    np.testing.assert_allclose(env.observe(), [x0, 0.0], rtol=0, atol=1e-12)

    next_obs, reward = env.step(np.array([0.3]))
    v1 = 0.0 + DT * (-1.0 * x0 + 0.3 + noise) / 1.0
    x1 = x0 + DT * v1
    np.testing.assert_allclose(next_obs, [x1, v1], rtol=0, atol=1e-12)
    assert abs(reward - (-abs(x1))) < 1e-12
    assert MassSpring1D.risk_from_obs(next_obs) == max(0.0, abs(x1) - MassSpring1D.X_LIMIT)


def test_mass_spring_reset_distribution():
    for seed in range(6):
        env = MassSpring1D(seed=seed)
        x, v = env.observe()
        assert 0.5 <= abs(x) <= 1.5
        assert v == 0.0


def test_risk_from_obs_hand_values():
    # DriftBot: boundary zone starts at |coord| = 3, wall at 4.
    obs = np.zeros(8)
    obs[0], obs[1] = 3.5, -3.2
    assert abs(DriftBot.risk_from_obs(obs) - 0.7) < 1e-12
    obs[0], obs[1] = 4.0, 0.0
    assert abs(DriftBot.risk_from_obs(obs) - 1.0) < 1e-12
    assert DriftBot.risk_from_obs(np.zeros(8)) == 0.0

    assert abs(MassSpring1D.risk_from_obs(np.array([1.7, 0.0])) - 0.2) < 1e-12
    assert MassSpring1D.risk_from_obs(np.array([1.2, 0.0])) == 0.0

    # A (B, d) stack scores each row as it would be scored alone.
    poses = np.zeros((3, 8))
    poses[0, :2] = 3.5, -3.2
    poses[1, :2] = 4.0, 0.0
    np.testing.assert_allclose(DriftBot.risk_from_obs(poses), [0.7, 1.0, 0.0], rtol=0, atol=1e-12)
    assert [DriftBot.risk_from_obs(row) for row in poses] == list(DriftBot.risk_from_obs(poses))
    springs = np.array([[1.7, 0.0], [1.2, 0.0], [-2.0, 0.3]])
    np.testing.assert_allclose(MassSpring1D.risk_from_obs(springs), [0.2, 0.0, 0.5], rtol=0, atol=1e-12)
