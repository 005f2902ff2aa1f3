"""Bootstrapped ensemble of one-step dynamics models.

Each member is a small two-layer ReLU network trained by minibatch SGD on
its own bootstrap resample of the calibration rows, so members disagree
more where data is scarce. The model maps

    [observation ; acc ; action]  ->  next_observation - observation

where ``acc`` is the second-order finite difference of the observation
history. That feature is what makes action delays visible: a delayed
actuation shows up as an acceleration the commanded action cannot explain,
flipping the sign of the expected ``acc`` response around command
reversals. ``input_rows`` builds every model row, from a stack of up to
three observations per row; ``trajectory_rows`` builds a trajectory's rows
through it, and their targets.

Calibration fixes a noise floor (mean and population standard deviation of
the per-transition ensemble error on unperturbed data) and freezes the
ensemble; frozen weights are hashable so any later mutation is detectable.
``clone_unfrozen`` yields a warm-started copy that ``adaptive_update`` may
train online with the generator its caller passes: an ensemble holds its
weights and normalizers, and no seed or random state.

Inputs and targets are z-scored with statistics from the training rows,
shared by all members; predictions are reported in raw units.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InputError, LifecycleError
from .parsing import parse_key, refuse_unknown

MIN_CALIBRATION_ROWS = 50
STD_FLOOR = 1e-6
SIGMA0_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer and architecture knobs for ensemble training."""

    hidden_width: int = 64
    epochs: int = 150
    learning_rate: float = 0.005
    batch_size: int = 32

    def __post_init__(self):
        if self.hidden_width < 1 or self.batch_size < 1:
            raise InputError("hidden_width and batch_size must be at least 1")
        if self.epochs < 0 or self.learning_rate < 0:
            raise InputError("epochs and learning_rate must be nonnegative")


def input_rows(history, actions) -> np.ndarray:
    """Model input rows ``[obs ; acc ; action]``, one per row of ``actions``: the one place a row is built.

    ``history`` is an (n, rows, d) array of the last n (up to three) observations,
    oldest first, row r of each entry belonging to row r of ``actions``. ``obs`` is
    ``history[-1]`` and ``acc`` its second difference ``h[-1] - 2 h[-2] + h[-3]``,
    zero while fewer than three observations exist; for a per-dim quadratic ramp
    o_t = c t^2 it is exactly 2c in every dim.
    """
    h = np.asarray(history, dtype=float)
    if h.shape[0] == 0:
        raise InputError("history must contain at least the current observation")
    acts = np.atleast_2d(actions)
    d = h.shape[-1]
    x = np.zeros((acts.shape[0], 2 * d + acts.shape[1]))
    x[:, :d] = h[-1]
    if h.shape[0] >= 3:
        x[:, d : 2 * d] = h[-1] - 2.0 * h[-2] + h[-3]
    x[:, 2 * d :] = acts
    return x


def trajectory_rows(obs, actions) -> tuple[np.ndarray, np.ndarray]:
    """Model rows ``(x, y)`` of one trajectory, one per row of ``actions``; ``obs`` has one row more.

    Row s of ``x`` is ``input_rows`` of step s's own history (its observation
    and up to two before it, so acc is zero at steps 0 and 1) and
    ``actions[s]``, and row s of ``y`` is ``obs[s + 1] - obs[s]``.
    """
    obs, acts = np.asarray(obs, dtype=float), np.asarray(actions, dtype=float)
    n = acts.shape[0]
    if obs.shape[0] != n + 1:
        raise InputError(f"a trajectory of {n} steps has {n + 1} observations, got {obs.shape[0]}")
    first = input_rows(obs[None, : min(n, 2)], acts[:2])  # steps 0 and 1
    rest = input_rows(np.stack((obs[:-3], obs[1:-2], obs[2:-1])), acts[2:])
    return np.concatenate((first, rest)), obs[1:] - obs[:-1]


@dataclass
class _Normalizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, arr: np.ndarray) -> "_Normalizer":
        mean = arr.mean(axis=0)
        std = arr.std(axis=0)
        std = np.where(std < STD_FLOOR, 1.0, std)
        return cls(mean=mean, std=std)

    def encode(self, arr: np.ndarray) -> np.ndarray:
        return (arr - self.mean) / self.std

    def decode(self, arr: np.ndarray) -> np.ndarray:
        return arr * self.std + self.mean


@dataclass
class Ensemble:
    """M two-layer networks with shared normalizers and stacked weights."""

    w1: np.ndarray  # (M, in_dim, hidden)
    b1: np.ndarray  # (M, hidden)
    w2: np.ndarray  # (M, hidden, out_dim)
    b2: np.ndarray  # (M, out_dim)
    x_norm: _Normalizer
    y_norm: _Normalizer
    frozen: bool = False

    @property
    def m_members(self) -> int:
        return self.w1.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[2]

    def predict_members(self, x: np.ndarray) -> np.ndarray:
        """Per-member delta predictions, raw units; shape (M, B, out_dim), C-contiguous.

        The layout gives ``einsum`` long contiguous inner loops: layer 1 is one
        product against ``w1`` with its members side by side, shape
        (in_dim, M * hidden), and layer 2 one product per member with the row
        axis innermost. Without ``optimize``, and with more than one hidden
        unit, ``einsum`` sums each output element over the contracted index in
        increasing order, a multiply and an add at a time from 0. With
        ``out_dim`` above 1, every bit therefore equals the per-member form
        ``einsum("bi,mih->mbh")`` then ``einsum("mbh,mho->mbo")``. With
        ``out_dim`` 1 that form's layer 2 sums the hidden units in SIMD lanes, and a
        call here of two rows or more sums them in order. A lone row is scored as a
        pair of itself, so it takes the in-order bits too: a row's output depends on
        that row alone, whatever its batch.

        Neighbouring rows that share their state inputs (the first ``2 * out_dim``,
        encoded, by bit pattern), as a cell's candidates do, form a block. A block of
        more than two rows sums those once, to P, and each row continues P as
        ``[1.0, action...] . [P ; w1's action rows]``: the rows form's terms in its
        order. Other rows, and one hidden unit (whose inputs ``einsum`` sums in SIMD
        lanes), take the rows form.
        """
        xb = np.atleast_2d(np.asarray(x, dtype=float))
        if xb.shape[1] != self.in_dim:
            raise InputError(f"input dim {xb.shape[1]} != expected {self.in_dim}")
        if xb.shape[0] == 1:
            return np.ascontiguousarray(self.predict_members(np.concatenate((xb, xb)))[:, :1])
        m, in_dim, hidden = self.w1.shape
        xn, w = self.x_norm.encode(xb), self.w1.transpose(1, 0, 2).reshape(in_dim, m * hidden)
        h = _blocked_layer1(xn, w, 2 * self.out_dim) if hidden > 1 and xb.shape[0] > 2 else np.einsum("bi,ik->bk", xn, w)
        h += self.b1.reshape(-1)
        np.maximum(0.0, h, out=h)
        h_t = np.ascontiguousarray(h.T)  # (M * hidden, B)
        y_t = np.empty((m, self.out_dim, xb.shape[0]))
        for k in range(m):
            np.einsum("ho,hb->ob", self.w2[k], h_t[k * hidden : (k + 1) * hidden], out=y_t[k])
        # C-contiguous before the sums over output dims that follow: numpy sums a
        # contiguous axis pairwise and a strided one in order, and the bits differ
        yn = np.ascontiguousarray(y_t.transpose(0, 2, 1))
        yn += self.b2[:, None, :]
        return self.y_norm.decode(yn)

    def mse(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-row ensemble error of ``x`` against targets ``y``; see ``member_mse``."""
        return member_mse(self.predict_members(x), y)

    def weights_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.w1, self.b1, self.w2, self.b2, self.x_norm.mean, self.x_norm.std, self.y_norm.mean, self.y_norm.std):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def freeze(self) -> None:
        self.frozen = True

    def clone_unfrozen(self) -> "Ensemble":
        """Warm-started trainable copy; the original stays untouched."""
        return Ensemble(
            w1=self.w1.copy(),
            b1=self.b1.copy(),
            w2=self.w2.copy(),
            b2=self.b2.copy(),
            x_norm=_Normalizer(self.x_norm.mean.copy(), self.x_norm.std.copy()),
            y_norm=_Normalizer(self.y_norm.mean.copy(), self.y_norm.std.copy()),
        )

    def to_dict(self) -> dict:
        def enc(arr):
            return [float(v) for v in np.asarray(arr, dtype=float).ravel()]

        return {
            "m_members": self.m_members,
            "in_dim": self.in_dim,
            "hidden_width": self.w1.shape[2],
            "out_dim": self.out_dim,
            "w1": enc(self.w1),
            "b1": enc(self.b1),
            "w2": enc(self.w2),
            "b2": enc(self.b2),
            "x_mean": enc(self.x_norm.mean),
            "x_std": enc(self.x_norm.std),
            "y_mean": enc(self.y_norm.mean),
            "y_std": enc(self.y_norm.std),
        }

    @classmethod
    def from_dict(cls, d) -> "Ensemble":
        """The frozen ensemble of a snapshot's ``ensemble`` section, parsed strictly, unknown keys refused."""
        get = functools.partial(parse_key, d, document="snapshot", prefix="ensemble.")
        m, i, h, o = (get(key, "int") for key in ("m_members", "in_dim", "hidden_width", "out_dim"))

        def dec(key, shape):
            flat = get(key, "tuple[float, ...]")
            if min(shape) < 1 or len(flat) != math.prod(shape):
                raise InputError(f"snapshot value ensemble.{key} holds {len(flat)} numbers, which do not fill shape {shape}")
            return np.array(flat).reshape(shape)

        ensemble = cls(
            w1=dec("w1", (m, i, h)),
            b1=dec("b1", (m, h)),
            w2=dec("w2", (m, h, o)),
            b2=dec("b2", (m, o)),
            x_norm=_Normalizer(dec("x_mean", (i,)), dec("x_std", (i,))),
            y_norm=_Normalizer(dec("y_mean", (o,)), dec("y_std", (o,))),
            frozen=True,
        )
        refuse_unknown(d, ensemble.to_dict(), "snapshot", "ensemble")  # the keys to_dict writes
        return ensemble


def _blocked_layer1(xn, w, n_state: int) -> np.ndarray:
    """``xn @ w`` in the rows form's bits, each block of rows sharing its state summing it once; see ``Ensemble.predict_members``."""
    last = xn[:, n_state - 1]
    if not (last[2:] == last[:-2]).any():  # no three neighbouring rows share this input, so none share their state
        return np.einsum("bi,ik->bk", xn, w)
    bits = xn[:, :n_state].view(np.int64)
    same = (bits[1:] == bits[:-1]).all(1)  # row i + 1 shares row i's state
    if not (same[1:] & same[:-1]).any():  # no block of more than two rows
        return np.einsum("bi,ik->bk", xn, w)
    sizes = np.diff(np.flatnonzero(~same) + 1, prepend=0, append=xn.shape[0]).tolist()
    h = np.empty((xn.shape[0], w.shape[1]))
    r1 = 0
    for size, run in itertools.groupby(sizes):  # one einsum per run of neighbouring blocks of one size
        c = len(list(run))
        r0, r1 = r1, r1 + c * size
        if size > 2:
            a = np.concatenate((np.ones((c, size, 1)), xn[r0:r1, n_state:].reshape(c, size, -1)), axis=2)
            q = np.empty((c, w.shape[0] - n_state + 1, w.shape[1]))  # [P ; w1's action rows] per block
            np.einsum("bi,ik->bk", xn[r0:r1:size, :n_state], w[:n_state], out=q[:, 0])
            q[:, 1:] = w[n_state:]
            np.einsum("cbj,cjk->cbk", a, q, out=h[r0:r1].reshape(c, size, -1))
        else:
            np.einsum("bi,ik->bk", xn[r0:r1], w, out=h[r0:r1])
    return h


def disagreement(member_preds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information-gain surrogate per input row, and the members' mean prediction.

    ``member_preds`` is the (M, B, out_dim) output of ``predict_members``.
    The score, shape (B,), is the trace of the across-member population
    covariance; with two members predicting d and d + e it equals
    ||e||^2 / 4. The mean has shape (B, out_dim). Both come from one sum
    over members: the sum, divide, square and sum that numpy's ``var``
    takes, so they equal ``member_preds.var(axis=0).sum(-1)`` and
    ``member_preds.mean(axis=0)`` bit for bit.
    """
    m = member_preds.shape[0]
    mean = np.add.reduce(member_preds, axis=0) / m
    dev = member_preds - mean
    dev *= dev
    return (np.add.reduce(dev, axis=0) / m).sum(axis=-1), mean


def member_mse(member_preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row ensemble error: mean over members of the squared norm.

    ``member_preds`` is the (M, B, out_dim) output of ``predict_members``
    and ``y`` the (B, out_dim) targets, or one (out_dim,) target for every
    row. The squared norm sums over output dims (no per-dim averaging), so
    values scale with observation dimensionality; the noise floor is
    calibrated on the same scale.
    """
    sq_norm = ((member_preds - np.asarray(y, dtype=float)) ** 2).sum(axis=-1)
    # sq_norm.mean(axis=0) bit for bit, without its Python-level overhead
    return np.add.reduce(sq_norm, axis=0) / member_preds.shape[0]


MOMENTUM = 0.9
GRAD_NORM_CAP = 10.0


def _sgd_epochs(ens: Ensemble, xn: np.ndarray, yn: np.ndarray, perms: np.ndarray, lr: float, batch_size: int) -> None:
    """In-place minibatch SGD with classical momentum, all members at once.

    ``xn`` and ``yn`` hold each member's normalized rows, shape (M, n, dim)
    (a broadcast view when members share their data), and ``perms[m, e]``
    is member m's minibatch order in epoch e. Every member takes the
    same steps it would take trained alone: the batched ``@`` runs one
    matrix product per member. Each member's gradient norm is capped on
    its own, so that a batch of far out-of-distribution rows (as seen
    during online adaptation right after a dynamics shift) cannot blow
    its weights up.
    """
    params = (ens.w1, ens.b1, ens.w2, ens.b2)
    vel = [np.zeros_like(p) for p in params]
    members = np.arange(perms.shape[0])[:, None]
    n = perms.shape[2]
    for epoch_perms in perms.transpose(1, 0, 2):
        x_epoch, y_epoch = xn[members, epoch_perms], yn[members, epoch_perms]
        for start in range(0, n, batch_size):
            xb = x_epoch[:, start : start + batch_size]
            yb = y_epoch[:, start : start + batch_size]
            z1 = xb @ ens.w1 + ens.b1[:, None, :]
            h = np.maximum(0.0, z1)
            pred = h @ ens.w2 + ens.b2[:, None, :]
            grad_out = 2.0 * (pred - yb) / xb.shape[1]
            gw2 = h.transpose(0, 2, 1) @ grad_out
            gb2 = grad_out.sum(axis=1)
            gh = (grad_out @ ens.w2.transpose(0, 2, 1)) * (z1 > 0.0)
            gw1 = xb.transpose(0, 2, 1) @ gh
            gb1 = gh.sum(axis=1)
            grads = (gw1, gb1, gw2, gb2)
            gnorm = np.sqrt(sum((g * g).reshape(g.shape[0], -1).sum(axis=1) for g in grads))
            step = lr * (GRAD_NORM_CAP / np.maximum(gnorm, GRAD_NORM_CAP))
            for v, p, g in zip(vel, params, grads):
                v *= MOMENTUM
                v -= step.reshape((-1,) + (1,) * (g.ndim - 1)) * g
                p += v


def bootstrap_train(x: np.ndarray, y: np.ndarray, m_members: int, seed: int, settings: TrainSettings | None = None) -> Ensemble:
    """Train M members on the rows ``(x, y)``, each on its own with-replacement resample.

    Member m draws its resample, its weight init, and its minibatch order
    from an independent seeded stream, so ensembles are reproducible and
    members stay decorrelated. The draws come first; the members then
    train together in one batched SGD loop.
    """
    settings = settings or TrainSettings()
    if m_members < 2:
        raise InputError(f"need at least 2 members for disagreement, got {m_members}")
    n = x.shape[0]
    if n < MIN_CALIBRATION_ROWS:
        raise CalibrationError(
            f"calibration buffer has {n} usable rows; need at least {MIN_CALIBRATION_ROWS}"
        )
    x_norm = _Normalizer.fit(x)
    y_norm = _Normalizer.fit(y)
    xn_full = x_norm.encode(x)
    yn_full = y_norm.encode(y)

    in_dim, out_dim, hidden = x.shape[1], y.shape[1], settings.hidden_width
    w1 = np.zeros((m_members, in_dim, hidden))
    b1 = np.zeros((m_members, hidden))
    w2 = np.zeros((m_members, hidden, out_dim))
    b2 = np.zeros((m_members, out_dim))

    resamples = np.zeros((m_members, n), dtype=np.int64)
    perms = np.zeros((m_members, settings.epochs, n), dtype=np.int64)
    for m in range(m_members):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0, m]))
        w1[m] = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, hidden))
        w2[m] = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, out_dim))
        resamples[m] = rng.integers(0, n, size=n)
        for e in range(settings.epochs):
            perms[m, e] = rng.permutation(n)

    ens = Ensemble(w1=w1, b1=b1, w2=w2, b2=b2, x_norm=x_norm, y_norm=y_norm)
    _sgd_epochs(ens, xn_full[resamples], yn_full[resamples], perms, settings.learning_rate, settings.batch_size)
    return ens


def calibrate_noise_floor(ensemble: Ensemble, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Baseline error statistics on unperturbed rows ``(x, y)``; freezes the ensemble.

    Returns (mu0, sigma0): mean and population standard deviation of the
    per-transition ensemble error. sigma0 is floored at a tiny epsilon so
    downstream z-scores stay finite. Freezing afterwards is deliberate:
    the floor is only meaningful for exactly these weights.
    """
    if x.shape[0] < MIN_CALIBRATION_ROWS:
        raise CalibrationError(
            f"noise-floor buffer has {x.shape[0]} usable rows; need at least {MIN_CALIBRATION_ROWS}"
        )
    per_row = ensemble.mse(x, y)
    mu0 = float(per_row.mean())
    sigma0 = float(max(per_row.std(ddof=0), SIGMA0_FLOOR))
    ensemble.freeze()
    return mu0, sigma0


def adaptive_update(
    ensemble: Ensemble, x: np.ndarray, y: np.ndarray, settings: TrainSettings, rng: np.random.Generator, epochs: int = 1
) -> None:
    """A few in-place SGD epochs on fresh rows, at the step and batch size of ``settings`` (the
    ones the ensemble was trained with), in minibatch orders drawn from ``rng``; refuses frozen ensembles."""
    if ensemble.frozen:
        raise LifecycleError("adaptive_update on a frozen ensemble; use clone_unfrozen() first")
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    yb = np.atleast_2d(np.asarray(y, dtype=float))
    if xb.shape[0] == 0:
        return
    if xb.shape[1] != ensemble.in_dim or yb.shape[1] != ensemble.out_dim:
        raise InputError("adaptive_update rows do not match ensemble dimensions")
    m, n = ensemble.m_members, xb.shape[0]
    # drawn member-major: all of member 0's epoch orders, then member 1's, ...
    perms = np.array([rng.permutation(n) for _ in range(m * epochs)], dtype=np.int64).reshape(m, epochs, n)
    xn = np.broadcast_to(ensemble.x_norm.encode(xb), (m, n, ensemble.in_dim))
    yn = np.broadcast_to(ensemble.y_norm.encode(yb), (m, n, ensemble.out_dim))
    _sgd_epochs(ensemble, xn, yn, perms, settings.learning_rate, settings.batch_size)
