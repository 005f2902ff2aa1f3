"""Ensemble tests: features, replay accounting, training, noise floor."""

import math

import numpy as np
import pytest

from compound_uq.ensemble import (
    Ensemble,
    ReplayBuffer,
    TrainSettings,
    acc_feature,
    adaptive_update,
    bootstrap_train,
    calibrate_noise_floor,
    disagreement,
)
from compound_uq.errors import CalibrationError, InputError, LifecycleError

from helpers import constant_ensemble, linear_system_buffer, make_transition


def test_acc_feature_quadratic_ramp_is_twice_curvature():
    # o_t = c t^2 per dim gives acc = 2c exactly.
    for c in (1.0, -0.5, 3.25):
        hist = [np.full(3, c * t * t) for t in (5, 6, 7)]
        np.testing.assert_allclose(acc_feature(hist), np.full(3, 2.0 * c), rtol=0, atol=1e-12)


def test_acc_feature_short_history_and_empty():
    assert np.all(acc_feature([np.ones(4)]) == 0.0)
    assert np.all(acc_feature([np.ones(4), np.ones(4)]) == 0.0)
    with pytest.raises(InputError):
        acc_feature([])


def test_replay_buffer_skips_first_two_per_episode():
    buf = ReplayBuffer()
    buf.begin_episode()
    for t in range(5):
        buf.add(make_transition(np.full(2, float(t * t)), np.zeros(2), t=t))
    buf.begin_episode()
    for t in range(2):
        buf.add(make_transition(np.zeros(2), np.zeros(2), t=t))
    x, y = buf.rows()
    assert x.shape == (3, 5) and y.shape == (3, 2)
    # First usable row sits at t=2 of the quadratic episode: acc = 2.
    np.testing.assert_allclose(x[0], [4.0, 4.0, 2.0, 2.0, 0.0], rtol=0, atol=1e-12)


def test_ensemble_mse_is_member_mean_of_squared_norms():
    # Member errors with squared norms 1 and 3 average to 2.
    ens = constant_ensemble([[1.0, 0.0], [math.sqrt(3.0), 0.0]], in_dim=5)
    per_row = ens.mse(np.zeros((1, 5)), np.zeros((1, 2)))
    assert per_row.shape == (1,)
    assert abs(per_row[0] - 2.0) < 1e-12


def test_disagreement_two_member_identity():
    # Members predicting d and d + e disagree by ||e||^2 / 4.
    d = np.array([0.5, -0.2])
    e = np.array([0.3, 0.4])
    ens = constant_ensemble([d, d + e], in_dim=5)
    preds = ens.predict_members(np.zeros((3, 5)))
    np.testing.assert_allclose(disagreement(preds), np.full(3, 0.0625), rtol=0, atol=1e-12)
    np.testing.assert_allclose(preds.mean(axis=0)[0], d + e / 2, atol=1e-12)


def test_predict_rejects_wrong_input_dim():
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    with pytest.raises(InputError):
        ens.predict_members(np.zeros((1, 4)))


def test_calibrate_noise_floor_population_stats():
    # 25 rows of squared error 1 and 25 of squared error 3: mu0 = 2 and
    # population sigma0 = 1, by hand.
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    buf = ReplayBuffer()
    buf.begin_episode()
    buf.add(make_transition(np.zeros(2), np.zeros(2)))
    buf.add(make_transition(np.zeros(2), np.zeros(2)))
    for i in range(50):
        delta = np.array([1.0, 0.0]) if i % 2 == 0 else np.array([math.sqrt(3.0), 0.0])
        buf.add(make_transition(np.zeros(2), delta, t=i + 2))
    mu0, sigma0 = calibrate_noise_floor(ens, buf)
    assert abs(mu0 - 2.0) < 1e-12
    assert abs(sigma0 - 1.0) < 1e-12
    assert ens.frozen


def test_calibrate_noise_floor_requires_enough_rows():
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    buf = ReplayBuffer()
    buf.begin_episode()
    for t in range(10):
        buf.add(make_transition(np.zeros(2), np.zeros(2), t=t))
    with pytest.raises(CalibrationError):
        calibrate_noise_floor(ens, buf)


def test_bootstrap_train_learns_linear_system():
    buf = linear_system_buffer()
    settings = TrainSettings(hidden_width=32, epochs=60, batch_size=16)
    untrained = bootstrap_train(buf, m_members=2, seed=0, settings=TrainSettings(hidden_width=32, epochs=0))
    trained = bootstrap_train(buf, m_members=2, seed=0, settings=settings)
    x, y = buf.rows()
    mse_untrained = float(untrained.mse(x, y).mean())
    mse_trained = float(trained.mse(x, y).mean())
    assert mse_trained < mse_untrained
    # Meaningful fit, not just "less wrong than random init".
    assert mse_trained < 0.1 * float((y ** 2).sum(axis=1).mean())


def test_bootstrap_train_members_differ():
    buf = linear_system_buffer()
    ens = bootstrap_train(buf, m_members=3, seed=1, settings=TrainSettings(hidden_width=16, epochs=20))
    x, _ = buf.rows()
    preds = ens.predict_members(x[:8])
    assert not np.allclose(preds[0], preds[1])
    assert not np.allclose(preds[1], preds[2])


def test_bootstrap_train_is_deterministic():
    buf = linear_system_buffer()
    settings = TrainSettings(hidden_width=16, epochs=10)
    a = bootstrap_train(buf, m_members=2, seed=5, settings=settings)
    b = bootstrap_train(buf, m_members=2, seed=5, settings=settings)
    assert a.weights_hash() == b.weights_hash()
    c = bootstrap_train(buf, m_members=2, seed=6, settings=settings)
    assert a.weights_hash() != c.weights_hash()


def test_bootstrap_train_input_validation():
    buf = linear_system_buffer()
    with pytest.raises(InputError):
        bootstrap_train(buf, m_members=1, seed=0)
    small = ReplayBuffer()
    small.begin_episode()
    for t in range(5):
        small.add(make_transition(np.zeros(2), np.zeros(2), t=t))
    with pytest.raises(CalibrationError):
        bootstrap_train(small, m_members=2, seed=0)


def test_adaptive_update_refuses_frozen_and_learns_when_cloned():
    buf = linear_system_buffer()
    ens = bootstrap_train(buf, m_members=2, seed=0, settings=TrainSettings(hidden_width=16, epochs=20))
    calibrate_noise_floor(ens, buf)
    x, y = buf.rows()
    with pytest.raises(LifecycleError):
        adaptive_update(ens, x, y)

    # A shifted target the frozen weights have never seen.
    y_shift = y + 0.3
    clone = ens.clone_unfrozen()
    before = float(clone.mse(x, y_shift).mean())
    for _ in range(10):
        adaptive_update(clone, x, y_shift, epochs=2)
    after = float(clone.mse(x, y_shift).mean())
    assert after < before
    # The frozen original is untouched.
    assert ens.frozen and ens.weights_hash() != clone.weights_hash()


def test_adaptive_update_edge_cases():
    buf = linear_system_buffer()
    ens = bootstrap_train(buf, m_members=2, seed=0, settings=TrainSettings(hidden_width=16, epochs=5))
    clone = ens.clone_unfrozen()
    h = clone.weights_hash()
    adaptive_update(clone, np.zeros((0, 5)), np.zeros((0, 2)))
    assert clone.weights_hash() == h
    with pytest.raises(InputError):
        adaptive_update(clone, np.zeros((4, 3)), np.zeros((4, 2)))


def test_ensemble_serialization_roundtrip():
    buf = linear_system_buffer()
    ens = bootstrap_train(buf, m_members=2, seed=2, settings=TrainSettings(hidden_width=8, epochs=5))
    ens.freeze()
    back = Ensemble.from_dict(ens.to_dict())
    assert back.weights_hash() == ens.weights_hash()
    assert back.frozen
    x, _ = buf.rows()
    np.testing.assert_array_equal(back.predict_members(x[:4]), ens.predict_members(x[:4]))
