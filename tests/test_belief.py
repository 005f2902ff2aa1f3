"""Exact mutual-information oracle tests on hand-checkable tables."""

import math

import numpy as np
import pytest

from compound_uq import belief
from compound_uq.belief import (
    ORACLE_BATCH,
    DiscreteJointBelief,
    coupling_family,
    exact_mi,
    joint_entropy,
    marginal_entropies,
    random_belief,
    random_bound_checks,
    verify_bound,
)
from compound_uq.errors import InputError

LN2 = math.log(2.0)
CHECK_FIELDS = ("mi", "h_s", "h_theta", "h_joint", "bound", "slack", "holds")


def scalar_bound_checks(seed, n_samples):
    """The per-belief reference loop that ``random_bound_checks`` batches."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_samples):
        n_s = int(rng.integers(2, 9))
        n_theta = int(rng.integers(2, 9))
        rows.append((n_s, n_theta, verify_bound(random_belief(rng, n_s, n_theta))))
    return rows


def bits(check):
    """Every field of a ``BoundCheck``, floats by their exact bit pattern."""
    return tuple(v.hex() if isinstance(v, float) else (type(v), v) for v in (getattr(check, f) for f in CHECK_FIELDS))


def diagonal_2x2():
    return DiscreteJointBelief(table=np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_diagonal_2x2_hand_values():
    # Perfectly coupled: knowing s pins theta. mi = H_s = H_theta = ln 2,
    # joint entropy ln 2, bound 2 ln 2, slack ln 2.
    b = diagonal_2x2()
    assert abs(exact_mi(b) - LN2) < 1e-12
    h_s, h_t = marginal_entropies(b)
    assert abs(h_s - LN2) < 1e-12 and abs(h_t - LN2) < 1e-12
    assert abs(joint_entropy(b) - LN2) < 1e-12

    check = verify_bound(b)
    assert check.holds
    assert abs(check.bound - 2.0 * LN2) < 1e-12
    assert abs(check.slack - LN2) < 1e-12


def test_point_mass_has_zero_entropies():
    table = np.zeros((3, 3))
    table[1, 2] = 1.0
    b = DiscreteJointBelief(table=table)
    assert exact_mi(b) == 0.0
    assert marginal_entropies(b) == (0.0, 0.0)
    assert joint_entropy(b) == 0.0


def test_independent_table_mi_zero_slack_full():
    ps = np.array([0.2, 0.3, 0.5])
    pt = np.array([0.6, 0.4])
    b = DiscreteJointBelief(table=np.outer(ps, pt))
    assert abs(exact_mi(b)) < 1e-12
    check = verify_bound(b)
    # Independence: slack = H_joint = H_s + H_theta.
    assert abs(check.slack - check.h_joint) < 1e-12
    assert abs(check.h_joint - (check.h_s + check.h_theta)) < 1e-12


def test_slack_equals_joint_entropy_identity():
    # I = H_s + H_t - H_joint is the chain rule; exact_mi computes the
    # definition directly, so agreement here is a real cross-check.
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = random_belief(rng, 4, 5)
        check = verify_bound(b)
        assert check.holds
        assert abs(check.slack - check.h_joint) < 1e-9


def test_bound_holds_on_random_beliefs():
    rng = np.random.default_rng(0)
    for _ in range(500):
        check = verify_bound(random_belief(rng, 3, 3))
        assert check.holds
        assert check.mi <= check.bound + 1e-9


def test_coupling_family_endpoints_and_monotonicity():
    assert abs(exact_mi(coupling_family(0.0, 2))) < 1e-12
    assert abs(exact_mi(coupling_family(1.0, 2)) - LN2) < 1e-12
    assert abs(exact_mi(coupling_family(1.0, 8)) - math.log(8.0)) < 1e-12

    grid = np.linspace(0.0, 1.0, 101)
    mis = [exact_mi(coupling_family(lam, 4)) for lam in grid]
    diffs = np.diff(mis)
    assert np.all(diffs >= -1e-12)


def test_coupling_family_validation():
    with pytest.raises(InputError):
        coupling_family(-0.1, 2)
    with pytest.raises(InputError):
        coupling_family(0.5, 1)


def test_belief_table_validation():
    with pytest.raises(InputError):
        DiscreteJointBelief(table=np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        DiscreteJointBelief(table=np.array([[0.7, 0.4]]))
    with pytest.raises(InputError):
        DiscreteJointBelief(table=np.array([[1.2, -0.2]]))
    with pytest.raises(InputError):
        random_belief(np.random.default_rng(0), 0, 3)


def test_marginals_sum_to_one():
    rng = np.random.default_rng(3)
    b = random_belief(rng, 6, 2)
    assert abs(b.marginal_s().sum() - 1.0) < 1e-12
    assert abs(b.marginal_theta().sum() - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_oracle_equals_the_scalar_loop_bit_for_bit(seed):
    n_samples = 2 * ORACLE_BATCH + 37  # two full batches and a partial one
    batched = list(random_bound_checks(seed, n_samples))
    scalar = scalar_bound_checks(seed, n_samples)
    assert [(n_s, n_t, bits(c)) for n_s, n_t, c in batched] == [(n_s, n_t, bits(c)) for n_s, n_t, c in scalar]


def test_a_table_with_a_zero_takes_the_scalar_path(monkeypatch):
    rng = np.random.default_rng(5)
    tables = np.stack([rng.dirichlet(np.ones(6)).reshape(2, 3) for _ in range(4)])
    tables[2] = [[0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]
    expected = [bits(verify_bound(DiscreteJointBelief(table=t.copy()))) for t in tables]
    scalar_calls = []

    def counting(b, *args, **kwargs):
        scalar_calls.append(b.table.copy())
        return verify_bound(b, *args, **kwargs)

    monkeypatch.setattr(belief, "verify_bound", counting)
    with np.errstate(all="raise"):
        got = [bits(c) for c in belief._stack_bound_checks(tables)]
    assert got == expected
    assert len(scalar_calls) == 1 and np.array_equal(scalar_calls[0], tables[2])


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0.5, 0.5], [0.5, -0.5]], "finite and nonnegative"),
        ([[0.5, np.nan], [0.25, 0.25]], "finite and nonnegative"),
        ([[0.5, 0.5], [0.25, 0.25]], "must sum to 1 within 1e-09, got 1.5"),
    ],
)
def test_a_stack_is_refused_as_a_single_table_is(bad, message):
    tables = np.stack([np.full((2, 2), 0.25), np.array(bad)])
    with pytest.raises(InputError, match=message) as stacked:
        belief._stack_bound_checks(tables)
    with pytest.raises(InputError) as single:
        DiscreteJointBelief(table=np.array(bad))
    assert str(stacked.value) == str(single.value)
