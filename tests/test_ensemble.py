"""Ensemble tests: features, model rows, training, noise floor."""

import math

import numpy as np
import pytest

from compound_uq.ensemble import (
    GRAD_NORM_CAP,
    Ensemble,
    TrainSettings,
    adaptive_update,
    bootstrap_train,
    calibrate_noise_floor,
    disagreement,
    input_rows,
    member_mse,
    trajectory_rows,
    _sgd_epochs,
)
from compound_uq.errors import CalibrationError, InputError, LifecycleError

from helpers import constant_ensemble, linear_system_rows, predict_members_oracle


def _acc(x):
    """The acc columns of model rows whose observations have 3 dims."""
    return x[:, 3:6]


def test_input_rows_acc_of_a_quadratic_ramp_is_twice_curvature():
    # o_t = c t^2 per dim gives acc = 2c exactly.
    for c in (1.0, -0.5, 3.25):
        hist = np.array([np.full((1, 3), c * t * t) for t in (5, 6, 7)])
        np.testing.assert_allclose(_acc(input_rows(hist, np.zeros(1))), np.full((1, 3), 2.0 * c), rtol=0, atol=1e-12)


def test_input_rows_acc_of_a_short_history_is_zero_and_an_empty_one_is_refused():
    for n in (1, 2):
        assert np.all(_acc(input_rows(np.ones((n, 2, 3)), np.ones((2, 1)))) == 0.0)
    with pytest.raises(InputError):
        input_rows(np.zeros((0, 2, 3)), np.ones((2, 1)))


def test_input_rows_are_obs_acc_action():
    rng = np.random.default_rng(0)
    hist = rng.normal(size=(3, 5, 3))  # one history per row
    acts = rng.uniform(-1.0, 1.0, size=(5, 2))
    for h in (hist[-1:], hist):
        acc = h[-1] - 2.0 * h[-2] + h[-3] if len(h) == 3 else np.zeros((5, 3))
        np.testing.assert_array_equal(input_rows(h, acts), np.concatenate([h[-1], acc, acts], axis=1))
    # one action vector gives one row
    one = hist[:, :1]
    np.testing.assert_array_equal(input_rows(one, acts[0]), input_rows(one, acts[:1]))


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 9])
def test_trajectory_rows_are_each_steps_input_rows_bit_for_bit(n_steps):
    # Row s is input_rows of step s's own history of up to three observations, steps 0
    # and 1 (acc zero) included, and its target the step to the next observation.
    rng = np.random.default_rng(n_steps)
    obs = rng.normal(size=(n_steps + 1, 3)) * np.exp(rng.normal(scale=8.0, size=(n_steps + 1, 3)))
    obs[::4, 0] = -0.0
    actions = rng.uniform(-1.0, 1.0, size=(n_steps, 2))
    x, y = trajectory_rows(obs, actions)
    assert x.shape == (n_steps, 8) and y.shape == (n_steps, 3)
    for s in range(n_steps):
        assert x[s].tobytes() == input_rows(obs[max(s - 2, 0) : s + 1, None], actions[s])[0].tobytes()
        assert y[s].tobytes() == (obs[s + 1] - obs[s]).tobytes()
    with pytest.raises(InputError, match="observations"):
        trajectory_rows(obs[:-1], actions)


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
    score, mean = disagreement(preds)
    np.testing.assert_allclose(score, np.full(3, 0.0625), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mean[0], d + e / 2, atol=1e-12)


def test_disagreement_mean_and_member_mse_equal_their_numpy_forms_bit_for_bit():
    rng = np.random.default_rng(0)
    for m, b, d in ((2, 1, 2), (5, 2, 8), (5, 32, 8), (3, 7, 5), (7, 3, 9)):
        for _ in range(20):
            preds = rng.normal(scale=rng.uniform(1e-3, 1e3), size=(m, b, d))
            y = rng.normal(size=(b, d))
            score, mean = disagreement(preds)
            assert score.tobytes() == preds.var(axis=0, ddof=0).sum(axis=-1).tobytes()
            assert mean.tobytes() == preds.mean(axis=0).tobytes()
            assert member_mse(preds, y).tobytes() == ((preds - y[None]) ** 2).sum(axis=-1).mean(axis=0).tobytes()
            # the loop scores one chosen row against a 1-D target
            one = ((preds[:, :1] - y[:1][None]) ** 2).sum(axis=-1).mean(axis=0)
            assert member_mse(preds[:, :1], y[0]).tobytes() == one.tobytes()


def _random_ensemble(rng, m, in_dim, hidden, out_dim, scale):
    """A frozen ensemble of normal draws times ``scale``; input dims 0 and 1 have mean 0."""
    shapes = {"w1": m * in_dim * hidden, "b1": m * hidden, "w2": m * hidden * out_dim, "b2": m * out_dim}
    d = {key: (rng.normal(size=n) * scale).tolist() for key, n in shapes.items()}
    x_mean = rng.normal(size=in_dim)
    x_mean[:2] = 0.0
    return Ensemble.from_dict({
        "m_members": m, "in_dim": in_dim, "hidden_width": hidden, "out_dim": out_dim, **d,
        "x_mean": x_mean.tolist(), "x_std": rng.uniform(0.5, 2.0, size=in_dim).tolist(),
        "y_mean": rng.normal(size=out_dim).tolist(), "y_std": rng.uniform(0.5, 2.0, size=out_dim).tolist(),
    })


def _in_order_layer2(ens, x):
    """The oracle's layer 1, then layer 2 summed over the hidden units in increasing
    order, a multiply and an add at a time from 0."""
    xn = ens.x_norm.encode(np.atleast_2d(np.asarray(x, dtype=float)))
    h = np.maximum(0.0, np.einsum("bi,mih->mbh", xn, ens.w1) + ens.b1[:, None, :])
    yn = np.zeros((*h.shape[:2], ens.out_dim))
    for j in range(h.shape[2]):
        yn = yn + h[:, :, j, None] * ens.w2[:, None, j, :]
    return ens.y_norm.decode(yn + ens.b2[:, None, :])


@pytest.mark.parametrize(
    "m, in_dim, hidden, out_dim", [(2, 5, 1, 2), (3, 5, 7, 2), (5, 18, 64, 8), (4, 18, 13, 8), (2, 18, 64, 2), (2, 5, 8, 1), (5, 18, 64, 1)]
)
@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_forward_pass_equals_the_two_einsum_form_bit_for_bit(m, in_dim, hidden, out_dim, scale):
    # With one output dim the oracle's layer 2 sums the hidden units in SIMD lanes, and every
    # call, a one-row call included, sums them in order (Ensemble.predict_members).
    rng = np.random.default_rng(m * 1000 + hidden)
    ens = _random_ensemble(rng, m, in_dim, hidden, out_dim, scale)
    for b in (0, 1, 2, 3, 5, 8, 13, 16, 24, 31, 64, 69, 255, 256, 300):
        x = rng.normal(size=(b, in_dim)) * scale
        x[:, 0] = 0.0  # masked dims: they encode to 0.0 and -0.0
        x[:, 1] = -0.0
        y = rng.normal(size=(b, out_dim))
        with np.errstate(over="ignore", invalid="ignore"):  # at 1e100, inf and NaN flow through both forms
            got = ens.predict_members(x)
            want = _in_order_layer2(ens, x) if out_dim == 1 else predict_members_oracle(ens, x)
            # the scores sum over output dims, pairwise only along a contiguous axis
            scores = [(*disagreement(p), member_mse(p, y)) for p in (got, want)]
        assert got.shape == want.shape == (m, b, out_dim)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        for score, score_want in zip(*scores):  # info gain, mean, error
            assert score.tobytes() == score_want.tobytes()


@pytest.mark.parametrize("out_dim", [1, 2, 8])
def test_a_row_scored_alone_equals_the_row_in_a_batch_bit_for_bit(out_dim):
    rng = np.random.default_rng(out_dim)
    ens = _random_ensemble(rng, 5, 2 * out_dim + 1, 64, out_dim, 1.0)
    x = rng.normal(size=(20, ens.in_dim))
    batch = ens.predict_members(x)
    for r in range(20):
        alone = ens.predict_members(x[r])
        assert alone.flags.c_contiguous
        assert alone.tobytes() == batch[:, r : r + 1].tobytes()


def _block_rows(rng, counts, in_dim, out_dim, scale):
    """Rows split into blocks by ``counts``, each block's rows sharing their
    state inputs (the first ``2 * out_dim``) and drawing their own actions."""
    n_state = 2 * out_dim
    x = rng.normal(size=(sum(counts), in_dim)) * scale
    x[:, :n_state] = np.repeat(rng.normal(size=(len(counts), n_state)) * scale, counts, axis=0)
    x[:, 0] = 0.0  # masked dims: they encode to 0.0 and -0.0
    x[:, 1] = -0.0
    return x


BLOCK_LAYOUTS = {
    "2-row": [2] * 12,
    "32-row": [32] * 8,
    "mixed": [2, 32, 32, 2, 2, 32, 2, 32, 32],
    "single": [32],
    "3-row": [3] * 7,
}


@pytest.mark.parametrize("m, in_dim, hidden, out_dim", [(2, 5, 1, 2), (3, 5, 7, 2), (5, 18, 64, 8), (4, 18, 13, 8), (2, 18, 64, 2)])
@pytest.mark.parametrize("scale", [1.0, 1e100])
@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
def test_blocked_forward_pass_equals_the_two_einsum_form_bit_for_bit(m, in_dim, hidden, out_dim, scale, layout):
    # A block of more than two neighbouring rows that share their state sums it once and
    # continues that sum with each row's action inputs: the rows form's terms in its order.
    rng = np.random.default_rng(m * 1000 + hidden)
    ens = _random_ensemble(rng, m, in_dim, hidden, out_dim, scale)
    counts = BLOCK_LAYOUTS[layout]
    for _ in range(3):
        x = _block_rows(rng, counts, in_dim, out_dim, scale)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = ens.predict_members(x), predict_members_oracle(ens, x)
        assert got.shape == want.shape == (m, sum(counts), out_dim)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_blocked_forward_pass_finds_its_blocks_by_the_state_bits():
    # Blocks end where a row's state bits differ from the row before: a -0.0 against 0.0
    # or one changed input splits a block, neighbouring blocks with one state merge, and a
    # NaN state shared by a block still forms it. Every split gives the oracle's bits.
    rng = np.random.default_rng(3)
    ens = _random_ensemble(rng, 5, 18, 64, 8, 1.0)
    x = _block_rows(rng, [2, 32, 5, 4], 18, 8, 1.0)
    x[34:39, :16] = x[39, :16]  # the 5- and 4-row blocks share one state
    x[2:34, 5] = np.nan
    cases = [x]
    # inside a 32-row, 5-row and 2-row block; 0.0 differs from the block's -0.0 by its bit pattern
    for row, col, value in ((3, 15, 0.5), (2 + 31, 4, 0.5), (35, 0, 0.5), (1, 7, 0.5), (36, 1, 0.0)):
        bad = x.copy()
        bad[row, col] = value
        cases.append(bad)
    for case in cases:
        with np.errstate(invalid="ignore"):
            assert ens.predict_members(case).tobytes() == predict_members_oracle(ens, case).tobytes()


def test_predict_rejects_wrong_input_dim():
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    with pytest.raises(InputError):
        ens.predict_members(np.zeros((1, 4)))


def test_calibrate_noise_floor_population_stats():
    # 25 rows of squared error 1 and 25 of squared error 3: mu0 = 2 and
    # population sigma0 = 1, by hand.
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    y = [[1.0, 0.0] if i % 2 == 0 else [math.sqrt(3.0), 0.0] for i in range(50)]
    mu0, sigma0 = calibrate_noise_floor(ens, np.zeros((50, 5)), np.array(y))
    assert abs(mu0 - 2.0) < 1e-12
    assert abs(sigma0 - 1.0) < 1e-12
    assert ens.frozen


def test_calibrate_noise_floor_requires_enough_rows():
    ens = constant_ensemble([[0.0, 0.0], [0.0, 0.0]], in_dim=5)
    with pytest.raises(CalibrationError):
        calibrate_noise_floor(ens, np.zeros((49, 5)), np.zeros((49, 2)))


def test_bootstrap_train_learns_linear_system():
    x, y = linear_system_rows()
    settings = TrainSettings(hidden_width=32, epochs=60, batch_size=16)
    untrained = bootstrap_train(x, y, m_members=2, seed=0, settings=TrainSettings(hidden_width=32, epochs=0))
    trained = bootstrap_train(x, y, m_members=2, seed=0, settings=settings)
    mse_untrained = float(untrained.mse(x, y).mean())
    mse_trained = float(trained.mse(x, y).mean())
    assert mse_trained < mse_untrained
    # Meaningful fit, not just "less wrong than random init".
    assert mse_trained < 0.1 * float((y ** 2).sum(axis=1).mean())


def test_bootstrap_train_members_differ():
    x, y = linear_system_rows()
    ens = bootstrap_train(x, y, m_members=3, seed=1, settings=TrainSettings(hidden_width=16, epochs=20))
    preds = ens.predict_members(x[:8])
    assert not np.allclose(preds[0], preds[1])
    assert not np.allclose(preds[1], preds[2])


def test_bootstrap_train_is_deterministic():
    x, y = linear_system_rows()
    settings = TrainSettings(hidden_width=16, epochs=10)
    a = bootstrap_train(x, y, m_members=2, seed=5, settings=settings)
    b = bootstrap_train(x, y, m_members=2, seed=5, settings=settings)
    assert a.weights_hash() == b.weights_hash()
    c = bootstrap_train(x, y, m_members=2, seed=6, settings=settings)
    assert a.weights_hash() != c.weights_hash()


def test_bootstrap_train_input_validation():
    x, y = linear_system_rows()
    with pytest.raises(InputError):
        bootstrap_train(x, y, m_members=1, seed=0)
    with pytest.raises(CalibrationError):
        bootstrap_train(x[:49], y[:49], m_members=2, seed=0)


def _update_rng(seed):
    """The stream ``run_condition`` gives ``adaptive_update`` under calibration seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def test_adaptive_update_refuses_frozen_and_learns_when_cloned():
    x, y = linear_system_rows()
    settings = TrainSettings(hidden_width=16, epochs=20)
    ens = bootstrap_train(x, y, m_members=2, seed=0, settings=settings)
    calibrate_noise_floor(ens, x, y)
    rng = _update_rng(0)
    with pytest.raises(LifecycleError):
        adaptive_update(ens, x, y, settings, rng)

    # A shifted target the frozen weights have never seen.
    y_shift = y + 0.3
    clone = ens.clone_unfrozen()
    before = float(clone.mse(x, y_shift).mean())
    for _ in range(10):
        adaptive_update(clone, x, y_shift, settings, rng, epochs=2)
    after = float(clone.mse(x, y_shift).mean())
    assert after < before
    # The frozen original is untouched.
    assert ens.frozen and ens.weights_hash() != clone.weights_hash()


def test_adaptive_update_edge_cases():
    x, y = linear_system_rows()
    settings = TrainSettings(hidden_width=16, epochs=5)
    clone = bootstrap_train(x, y, m_members=2, seed=0, settings=settings).clone_unfrozen()
    h = clone.weights_hash()
    adaptive_update(clone, np.zeros((0, 5)), np.zeros((0, 2)), settings, _update_rng(0))
    assert clone.weights_hash() == h
    with pytest.raises(InputError):
        adaptive_update(clone, np.zeros((4, 3)), np.zeros((4, 2)), settings, _update_rng(0))


# weights_hash() values recorded with the member-at-a-time SGD loop that
# the member-batched loop replaced. They pin every draw (init, resample,
# minibatch order) and the arithmetic of each step, capped or not: the
# M=5 training and the +5.0 adaptive update both hit GRAD_NORM_CAP.
PINNED_SETTINGS = TrainSettings(hidden_width=16, epochs=12, learning_rate=0.01, batch_size=16)


@pytest.mark.parametrize(
    "m_members, expected",
    [
        (2, "28710370b9cc2a278c76012ed46f4d64bd3b4eaa2e08fefa8fdd686c3c7ac8ad"),
        (5, "39cd66cfb3ef57f09ac10e8ca819c02153bc476a5fc1dddeeaaa22ad34be7626"),
    ],
)
def test_bootstrap_train_weights_are_pinned(m_members, expected):
    x, y = linear_system_rows(n_steps=120, seed=3)
    ens = bootstrap_train(x, y, m_members=m_members, seed=7, settings=PINNED_SETTINGS)
    assert ens.weights_hash() == expected


def test_adaptive_update_weights_are_pinned():
    x, y = linear_system_rows(n_steps=120, seed=3)
    clone = bootstrap_train(x, y, m_members=3, seed=7, settings=PINNED_SETTINGS).clone_unfrozen()
    rng = _update_rng(7)
    adaptive_update(clone, x[:45], y[:45] + 5.0, PINNED_SETTINGS, rng, epochs=3)
    assert clone.weights_hash() == "c51c208d180c667f97c05d60e73ffdb941b64431934aaef6197653842dfd6c34"
    # the stream carries on from where the first update left it
    adaptive_update(clone, x[45:90], y[45:90] * 2.0, PINNED_SETTINGS, rng, epochs=2)
    assert clone.weights_hash() == "faad502ceb9d51ff09b62a8b6ac3c255407e078168558d521fc5502fc8ed2689"


def _single_member_grads(w1, b1, w2, b2, x, y):
    """One member's loss gradients, written out for 2-D arrays."""
    z1 = x @ w1 + b1
    h = np.maximum(0.0, z1)
    grad_out = 2.0 * (h @ w2 + b2 - y) / x.shape[0]
    gh = (grad_out @ w2.T) * (z1 > 0.0)
    return x.T @ gh, gh.sum(axis=0), h.T @ grad_out, grad_out.sum(axis=0)


def test_gradient_cap_applies_to_each_member_alone():
    x, y = linear_system_rows()
    ens = bootstrap_train(x, y, m_members=2, seed=0, settings=TrainSettings(hidden_width=8, epochs=5)).clone_unfrozen()
    ens.w2[1] *= 1e3  # member 1's predictions, and so its gradient, blow up
    xn, yn = ens.x_norm.encode(x[:20]), ens.y_norm.encode(y[:20])
    before = [[p[m].copy() for p in (ens.w1, ens.b1, ens.w2, ens.b2)] for m in range(2)]
    grads = [_single_member_grads(*before[m], xn, yn) for m in range(2)]
    norms = [math.sqrt(sum(float((g * g).sum()) for g in gs)) for gs in grads]
    assert norms[0] < GRAD_NORM_CAP < norms[1]

    lr = 0.01
    perms = np.broadcast_to(np.arange(20), (2, 1, 20))
    _sgd_epochs(ens, np.broadcast_to(xn, (2,) + xn.shape), np.broadcast_to(yn, (2,) + yn.shape), perms, lr, 32)
    after = [[p[m] for p in (ens.w1, ens.b1, ens.w2, ens.b2)] for m in range(2)]
    # member 0 takes the plain uncapped step, bit for bit
    for p0, p1, g in zip(before[0], after[0], grads[0]):
        np.testing.assert_array_equal(p1, p0 - lr * g)
    # member 1's step is scaled down to norm lr * GRAD_NORM_CAP
    scale = GRAD_NORM_CAP / norms[1]
    for p0, p1, g in zip(before[1], after[1], grads[1]):
        np.testing.assert_array_equal(p1, p0 - (lr * scale) * g)


def test_ensemble_serialization_roundtrip():
    x, y = linear_system_rows()
    ens = bootstrap_train(x, y, m_members=2, seed=2, settings=TrainSettings(hidden_width=8, epochs=5))
    back = Ensemble.from_dict(ens.to_dict())
    assert back.weights_hash() == ens.weights_hash()
    assert back.frozen and not ens.frozen  # a loaded ensemble is always frozen
    np.testing.assert_array_equal(back.predict_members(x[:4]), ens.predict_members(x[:4]))
