"""Exact mutual information on finite joint beliefs.

This is the ground-truth side of the proxy argument: on a finite grid
over (state, dynamics) the mutual information I(s; theta) and the
entropies are computable by direct summation, so the additive upper bound

    I(s; theta) <= H(s) + H(theta)

can be checked exactly rather than argued. The slack of that bound is the
joint entropy H(s, theta), which the checker reports so tests can pin the
identity down numerically.

``coupling_family`` interpolates between an independent uniform joint
(lambda = 0, zero information) and a perfectly coupled diagonal
(lambda = 1, information log n). Information grows monotonically along
the path, mirroring how the deployed proxy is supposed to respond as
state and dynamics uncertainty become entangled.

``random_bound_checks`` gives ``verify_bound`` of many seeded random
beliefs bit for bit, computed in stacks of one table shape with axis
sums; a table holding a zero takes ``verify_bound`` itself.

All entropies are natural-log (nats) with the 0 log 0 = 0 convention.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError

PROB_TOL = 1e-9
# random_bound_checks draws and checks this many beliefs at a time
ORACLE_BATCH = 1024


def _check_probabilities(tables: np.ndarray) -> None:
    """Raise ``InputError`` unless every table of the stack ``(k, n_s, n_theta)``
    is finite, nonnegative and sums to 1 within ``PROB_TOL``."""
    if not np.all(np.isfinite(tables)) or np.any(tables < 0):
        raise InputError("belief table entries must be finite and nonnegative")
    totals = tables.sum(axis=(1, 2))
    off = np.abs(totals - 1.0) > PROB_TOL
    if off.any():
        raise InputError(f"belief table must sum to 1 within {PROB_TOL}, got {float(totals[off][0])!r}")


@dataclass(frozen=True)
class DiscreteJointBelief:
    """Joint probability table over (state cell, dynamics cell)."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(f"belief table must be 2-D and nonempty, got shape {arr.shape}")
        _check_probabilities(arr[None])
        object.__setattr__(self, "table", arr)

    def marginal_s(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_theta(self) -> np.ndarray:
        return self.table.sum(axis=0)


def _entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def exact_mi(belief: DiscreteJointBelief) -> float:
    """I(s; theta) by direct summation over the joint table.

    Computed from the definition (sum of p log p / (p_s p_theta)), not via
    the entropy identity, so the identity stays an independent check.
    """
    p = belief.table
    ps = belief.marginal_s()
    pt = belief.marginal_theta()
    denom = np.outer(ps, pt)
    mask = p > 0.0
    terms = p[mask] * np.log(p[mask] / denom[mask])
    return float(terms.sum())


def marginal_entropies(belief: DiscreteJointBelief) -> tuple[float, float]:
    """(H(s), H(theta)) in nats."""
    return _entropy(belief.marginal_s()), _entropy(belief.marginal_theta())


def joint_entropy(belief: DiscreteJointBelief) -> float:
    return _entropy(belief.table)


@dataclass(frozen=True)
class BoundCheck:
    mi: float
    h_s: float
    h_theta: float
    h_joint: float
    bound: float
    slack: float
    holds: bool


def verify_bound(belief: DiscreteJointBelief) -> BoundCheck:
    """Check I(s; theta) <= H(s) + H(theta) and report the slack.

    The slack equals the joint entropy exactly (chain rule), so the check
    doubles as a numerical identity test.
    """
    mi = exact_mi(belief)
    h_s, h_theta = marginal_entropies(belief)
    bound = h_s + h_theta
    slack = bound - mi
    return BoundCheck(
        mi=mi,
        h_s=h_s,
        h_theta=h_theta,
        h_joint=joint_entropy(belief),
        bound=bound,
        slack=slack,
        holds=bool(mi <= bound + PROB_TOL),
    )


def coupling_family(lam: float, n: int) -> DiscreteJointBelief:
    """Interpolate from independent uniform to a perfectly coupled diagonal.

    table = (1 - lambda) * uniform(n x n) + lambda * diag(1/n). Mutual
    information rises monotonically from 0 at lambda = 0 to log n at
    lambda = 1.
    """
    if not (0.0 <= lam <= 1.0) or not math.isfinite(lam):
        raise InputError(f"lambda must be in [0, 1], got {lam}")
    if n < 2:
        raise InputError(f"coupling family needs n >= 2, got {n}")
    table = np.full((n, n), (1.0 - lam) / (n * n))
    table[np.diag_indices(n)] += lam / n
    return DiscreteJointBelief(table=table)


def random_belief(rng: np.random.Generator, n_s: int, n_theta: int) -> DiscreteJointBelief:
    """Uniform-over-the-simplex random belief (flat Dirichlet), seeded."""
    if n_s < 1 or n_theta < 1:
        raise InputError("belief grid must have at least one cell per axis")
    flat = rng.dirichlet(np.ones(n_s * n_theta))
    return DiscreteJointBelief(table=flat.reshape(n_s, n_theta))


def _summed_bound_checks(tables: np.ndarray) -> list[BoundCheck]:
    """``verify_bound`` of each table in a stack ``(k, n_s, n_theta)`` of
    positive probability tables, bit for bit: the same sums over the same
    terms in the same order, one stack at a time."""
    k = tables.shape[0]
    ps = tables.sum(axis=2)
    pt = tables.sum(axis=1)
    denom = ps[:, :, None] * pt[:, None, :]
    mi = (tables * np.log(tables / denom)).reshape(k, -1).sum(axis=1)
    h_s = -(ps * np.log(ps)).sum(axis=1)
    h_theta = -(pt * np.log(pt)).sum(axis=1)
    flat = tables.reshape(k, -1)
    h_joint = -(flat * np.log(flat)).sum(axis=1)
    bound = h_s + h_theta
    columns = (mi, h_s, h_theta, h_joint, bound, bound - mi, mi <= bound + PROB_TOL)
    return [BoundCheck(*row) for row in zip(*(c.tolist() for c in columns))]


def _stack_bound_checks(tables: np.ndarray) -> list[BoundCheck]:
    """``verify_bound`` of each table in a stack ``(k, n_s, n_theta)``,
    refusing the stack as ``DiscreteJointBelief`` refuses a table."""
    _check_probabilities(tables)
    has_zero = (tables == 0.0).any(axis=(1, 2))
    summed = iter(_summed_bound_checks(tables[~has_zero]))
    return [
        verify_bound(DiscreteJointBelief(table=tables[j])) if zero else next(summed)
        for j, zero in enumerate(has_zero.tolist())
    ]


def random_bound_checks(seed: int, n_samples: int) -> Iterator[tuple[int, int, BoundCheck]]:
    """Yield ``(n_s, n_theta, verify_bound(belief))`` for ``n_samples`` random beliefs.

    One generator seeded with ``seed`` draws, per sample, ``n_s`` and
    ``n_theta`` from 2..8 by two scalar ``rng.integers(2, 9)`` calls and
    then the table, taking the same stream and bits as ``random_belief``
    would. Each batch of ``ORACLE_BATCH`` samples is checked in stacks of
    one shape, each stack scaled to sum to 1 at once; every row equals
    ``verify_bound(random_belief(...))`` on the same draws bit for bit.
    Rows come out a batch at a time, so a caller that keeps only what it
    needs of each holds at most one batch of checks.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, ORACLE_BATCH):
        shapes: list[tuple[int, int]] = []
        by_shape: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
        for i in range(min(ORACLE_BATCH, n_samples - start)):
            shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            shapes.append(shape)
            # random_belief's rng.dirichlet(np.ones(k)): for unit alphas it draws k gamma(1), that is
            # standard exponential, variates, sums them in order and scales by the sum's reciprocal
            by_shape.setdefault(shape, []).append((i, rng.standard_exponential(shape[0] * shape[1])))
        checks: list[BoundCheck | None] = [None] * len(shapes)
        for shape, drawn in by_shape.items():
            e = np.stack([flat for _, flat in drawn])
            tables = (e * (1.0 / np.add.accumulate(e, axis=1)[:, -1:])).reshape(len(drawn), *shape)
            for (i, _), check in zip(drawn, _stack_bound_checks(tables)):
                checks[i] = check
        for shape, check in zip(shapes, checks):
            yield (*shape, check)
