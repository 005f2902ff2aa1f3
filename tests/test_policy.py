"""Policy tests: schedules, candidate generation, budgeted selection."""

import math

import numpy as np
import pytest

from compound_uq.ensemble import disagreement
from compound_uq.errors import InputError
from compound_uq.kappa import Thresholds
from compound_uq.policy import (
    PolicySettings,
    _ramp,
    candidate_actions,
    schedule,
    select_action,
    select_actions,
    task_affinity,
)

from helpers import clamp_grid, constant_ensemble, float_bits

THR = Thresholds(tau_low=0.2, tau_high=0.5)


def one_schedule(kappa_value, thresholds, settings):
    """``schedule`` for one cell: its ``(alpha, delta, spread)`` as floats."""
    return tuple(float(v[0]) for v in schedule([kappa_value], thresholds, settings))


def alpha(kappa_value, alpha_max):
    return one_schedule(kappa_value, THR, PolicySettings(alpha_max=alpha_max))[0]


def test_alpha_schedule_linear_ramp():
    # kappa=0.35 sits halfway between the thresholds.
    assert abs(alpha(0.35, 1.0) - 0.5) < 1e-12
    assert alpha(0.1, 1.0) == 0.0
    assert alpha(0.2, 1.0) == 0.0
    assert alpha(0.5, 1.0) == 1.0
    assert alpha(2.0, 200.0) == 200.0
    with pytest.raises(InputError):
        alpha(-0.1, 1.0)
    with pytest.raises(InputError):
        alpha(float("nan"), 1.0)
    with pytest.raises(InputError):  # one bad cell refuses the batch
        schedule([0.3, -0.1], THR, PolicySettings())


def test_ramp_clamp_is_np_clip_bit_for_bit():
    thresholds = Thresholds(tau_low=0.0, tau_high=1.0)  # the ramp's z is kappa itself
    grid = clamp_grid(0.0, 1.0)
    for z in grid:
        assert float_bits(float(_ramp(np.array(z), thresholds))) == float_bits(float(np.clip(z, 0.0, 1.0))), z
    # the whole grid as one array, entry by entry
    ramps = _ramp(np.array(grid), thresholds)
    assert ramps.shape == (len(grid),)
    for z, ramp in zip(grid, ramps.tolist()):
        assert float_bits(ramp) == float_bits(float(np.clip(z, 0.0, 1.0))), z


def test_delta_budget_tightens_with_kappa():
    def delta(kappa_value):
        return one_schedule(kappa_value, THR, PolicySettings(delta_max=2.0))[1]

    assert abs(delta(0.35) - 1.0) < 1e-12
    assert delta(0.1) == 2.0
    assert delta(0.5) == 0.0
    assert delta(3.0) == 0.0


def test_schedule_spread_is_alpha_over_alpha_max():
    settings = PolicySettings(alpha_max=200.0)
    kappas = np.random.default_rng(0).uniform(THR.tau_low, THR.tau_high, size=1000)
    alphas, _, spreads = schedule(kappas, THR, settings)
    moved = 0
    for a, spread, ramp in zip(alphas.tolist(), spreads.tolist(), _ramp(kappas, THR).tolist()):
        assert float_bits(spread) == float_bits(a / 200.0)
        moved += spread != ramp
    # The quotient is not the ramp on every kappa, so traces pin the quotient.
    assert moved > 0
    assert schedule([0.1, 0.9], THR, settings)[2].tolist() == [0.0, 1.0]
    assert schedule([0.9], THR, PolicySettings(alpha_max=0.0))[2].tolist() == [0.0]


def test_dis_score_matches_disagreement_identity():
    # The information score the policy ranks candidates by: two members
    # predicting d and d + e score ||e||^2 / 4 on every candidate row.
    d = np.array([0.1, 0.2])
    e = np.array([0.6, 0.8])  # ||e||^2 = 1
    ens = constant_ensemble([d, d + e], in_dim=5)
    scores, _ = disagreement(ens.predict_members(np.zeros((3, 5))))
    np.testing.assert_allclose(scores, np.full(3, 0.25), rtol=0, atol=1e-12)


def test_composite_value_arithmetic():
    # alpha = 1 and delta = 1 at the ramp's midpoint; lambda = 2. Row 0 is
    # worth 1 + 1 * 2 - 2 * 0.5 = 2, so it ties row 1's plain 2.0 (the lower
    # index wins) and loses to the next float up.
    settings = PolicySettings(alpha_max=2.0, lambda_risk=2.0, delta_max=2.0)
    a, d, _ = one_schedule(0.5, Thresholds(tau_low=0.25, tau_high=0.75), settings)
    assert (a, d) == (1.0, 1.0)
    for rival, winner in ((2.0, 0), (math.nextafter(2.0, 3.0), 1)):
        r, g, k = np.array([1.0, rival]), np.array([2.0, 0.0]), np.array([0.5, 0.0])
        assert select_action(np.eye(2), r, g, k, a, d, settings).index == winner
    with pytest.raises(InputError):
        select_action(np.eye(2), np.zeros(2), np.zeros(3), np.zeros(2), a, d, settings)


def test_candidate_actions_layout():
    settings = PolicySettings(n_candidates=8)
    task = np.array([0.3, -0.7])
    rng = np.random.default_rng(0)
    cands = candidate_actions(task, rng, settings)
    assert cands.shape == (8, 2)
    np.testing.assert_array_equal(cands[0], task)
    np.testing.assert_array_equal(cands[1], np.zeros(2))
    assert np.all(np.abs(cands[2:]) <= 1.0)


def test_candidate_spread_grades_exploration():
    settings = PolicySettings(n_candidates=8)
    task = np.array([0.3, -0.7])
    local = candidate_actions(task, np.random.default_rng(1), settings, spread=0.0)
    # Zero spread would collapse every explorer onto the task action, which
    # the lowest-index tie-break never prefers: only rows 0 and 1 remain.
    np.testing.assert_array_equal(local, [task, np.zeros(2)])

    half = candidate_actions(task, np.random.default_rng(1), settings, spread=0.5)
    full = candidate_actions(task, np.random.default_rng(1), settings, spread=1.0)
    # Interpolation identity: half-spread rows are midway between.
    np.testing.assert_allclose(half[2:], 0.5 * task + 0.5 * full[2:], atol=1e-12)

    with pytest.raises(InputError):
        candidate_actions(task, np.random.default_rng(0), settings, spread=1.2)


def test_candidate_rng_stream_independent_of_spread():
    # The uniform draws happen unconditionally, so downstream consumers of
    # the same generator see identical streams regardless of spread.
    settings = PolicySettings(n_candidates=8)
    task = np.zeros(2)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    candidate_actions(task, rng_a, settings, spread=0.0)
    candidate_actions(task, rng_b, settings, spread=1.0)
    assert rng_a.uniform() == rng_b.uniform()


def test_task_affinity_negative_squared_distance():
    task = np.array([0.5, 0.0])
    cands = np.array([[0.5, 0.0], [0.0, 0.0], [1.0, 1.0]])
    aff = task_affinity(cands, task)
    np.testing.assert_allclose(aff, [0.0, -0.25, -1.25], rtol=0, atol=1e-12)


SELECT_SETTINGS = PolicySettings(alpha_max=10.0, lambda_risk=1.0, delta_max=0.5, n_candidates=4)


def select(risks, info, kappa_value, settings=None, r_task=None):
    settings = settings or SELECT_SETTINGS
    n = len(risks)
    cands = np.linspace(-1.0, 1.0, n)[:, None]
    return select_action(
        cands,
        np.zeros(n) if r_task is None else np.asarray(r_task, dtype=float),
        np.asarray(info, dtype=float),
        np.asarray(risks, dtype=float),
        *one_schedule(kappa_value, THR, settings)[:2],
        settings,
    )


def test_low_deficit_ties_break_to_task_action():
    # alpha = 0 makes all-zero scores tie; lowest index (the task action)
    # must win so the plain controller passes through unchanged.
    choice = select([0.0, 0.0, 0.0], [0.0, 0.5, 0.9], kappa_value=0.05)
    assert choice.index == 0
    assert one_schedule(0.05, THR, SELECT_SETTINGS)[0] == 0.0  # the alpha it was chosen under
    assert choice.any_compliant


def test_high_deficit_prefers_disagreement():
    # Above tau_high with equal (zero) risk, the info term dominates.
    choice = select([0.0, 0.0], [0.1, 0.9], kappa_value=0.9)
    assert choice.index == 1
    assert choice.info_gain == 0.9
    assert one_schedule(0.9, THR, SELECT_SETTINGS)[1] == 0.0  # the budget it was chosen under


def test_budget_excludes_risky_candidates():
    # kappa=0.35 halves the budget to 0.25; the better-scoring candidate
    # at risk 0.3 is out of budget, so the compliant one wins.
    choice = select([0.3, 0.1], [0.9, 0.1], kappa_value=0.35)
    assert choice.index == 1
    assert choice.predicted_risk == 0.1
    assert choice.any_compliant


def test_forced_choice_when_nothing_complies():
    choice = select([0.9, 0.6, 0.8], [0.0, 0.0, 0.0], kappa_value=0.9)
    assert not choice.any_compliant
    assert choice.index == 1  # minimum predicted risk
    assert choice.predicted_risk == 0.6


def test_select_action_validation():
    with pytest.raises(InputError):
        select([0.1, 0.2, 0.3], [0.0, 0.0], kappa_value=0.1)
    with pytest.raises(InputError):
        select([float("inf"), 0.0], [0.0, 0.0], kappa_value=0.1)


def test_policy_settings_validation():
    with pytest.raises(InputError):
        PolicySettings(alpha_max=-1.0)
    with pytest.raises(InputError):
        PolicySettings(n_candidates=1)
    with pytest.raises(InputError):
        PolicySettings(delta_max=-0.5)


def test_select_action_checks_each_score_not_their_sum():
    huge = np.array([1e308, 1.7e308])
    with np.errstate(over="ignore"):
        assert np.isinf(np.concatenate((huge, huge)).sum())  # a check on the sum would refuse these
    settings = PolicySettings()
    a, d, _ = one_schedule(0.0, THR, settings)
    choice = select_action(np.eye(2), huge, huge, np.zeros(2), a, d, settings)
    assert choice.index == 1 and choice.info_gain == 1.7e308
    for bad in (math.nan, math.inf, -math.inf):
        for which in range(3):
            scores = [np.zeros(2), np.zeros(2), np.zeros(2)]
            scores[which] = np.array([0.0, bad])
            with pytest.raises(InputError, match="candidate scores must be finite"):
                select_action(np.eye(2), *scores, a, d, settings)


def select_oracle(r, g, risk, alpha, delta, lambda_risk):
    """The selection rule in its per-cell numpy form: ``(index, any_compliant)``."""
    values = r + alpha * g - lambda_risk * risk
    compliant = risk <= delta
    if compliant.any():
        return int(np.argmax(np.where(compliant, values, -np.inf))), True
    return int(np.argmin(risk)), False


def _random_cell(seed, n):
    """A cell of ``n`` candidates whose budget binds on some rows: (r_task, info_gain, risk, alpha, delta)."""
    rng = np.random.default_rng(seed)
    risk = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
    return rng.uniform(-2.0, 0.0, n), rng.uniform(0.0, 0.1, n), risk, float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 0.5))


# Cells as (r_task, info_gain, risk, alpha, delta); lambda_risk is 1.
TIE = (np.array([0.0, 1.0, 3.0, 3.0, 2.0]), np.zeros(5), np.zeros(5), 0.0, 0.5)  # rows 2 and 3 tie: row 2
# -0.0 + 0 * -1.0 - 0.0 is -0.0 and 0.0 + 0 * -1.0 - 0.0 is 0.0: equal values, so row 0 wins either way round
SIGNED_ZEROS = (np.array([-0.0, 0.0]), np.array([-1.0, -1.0]), np.zeros(2), 0.0, 0.5)
ZEROS_SIGNED = (np.array([0.0, -0.0]), np.array([-1.0, -1.0]), np.zeros(2), 0.0, 0.5)
FORCED = (np.array([5.0, 0.0, 1.0, 0.0]), np.zeros(4), np.array([0.9, 0.7, 0.8, 0.7]), 0.0, 0.5)  # least risky, first of two
LAST_BEST = (np.array([-1.0, -1.0, 0.0]), np.zeros(3), np.array([0.0, 0.0, 0.4]), 0.0, 0.5)  # the best row is compliant and last
OVER_BUDGET = (np.array([0.0, -1.0]), np.zeros(2), np.array([0.6, 0.0]), 0.0, 0.5)  # the better row breaches the budget
SELECT_BATCHES = {
    "mixed sizes": [_random_cell(s, n) for s, n in enumerate([2, 32, 32, 2, 2, 32])],
    "ties": [TIE, _random_cell(7, 2), TIE],
    "signed zeros": [SIGNED_ZEROS, ZEROS_SIGNED, _random_cell(8, 32)],
    "all forced": [FORCED, FORCED[:3] + (0.0, 0.6)],
    "forced beside compliant": [_random_cell(9, 32), FORCED, LAST_BEST, OVER_BUDGET, FORCED],
    "one cell": [LAST_BEST],
}


@pytest.mark.parametrize("name", sorted(SELECT_BATCHES))
def test_select_actions_equals_select_action_cell_by_cell(name):
    cells = SELECT_BATCHES[name]
    settings = PolicySettings(alpha_max=10.0, lambda_risk=1.0)
    rng = np.random.default_rng(1)
    cands = [rng.uniform(-1.0, 1.0, size=(len(cell[0]), 2)) for cell in cells]
    r, g, risk, alpha, delta = (np.concatenate([np.atleast_1d(cell[k]) for cell in cells]) for k in range(5))
    batch = select_actions(np.concatenate(cands), r, g, risk, [len(c) for c in cands], alpha, delta, settings)
    assert batch.index.shape == batch.any_compliant.shape == (len(cells),) and batch.action.shape == (len(cells), 2)
    for i, (cand, (cr, cg, crisk, calpha, cdelta)) in enumerate(zip(cands, cells)):
        one = select_action(cand, cr, cg, crisk, calpha, cdelta, settings)
        assert (int(batch.index[i]), bool(batch.any_compliant[i])) == (one.index, one.any_compliant)
        assert (one.index, one.any_compliant) == select_oracle(cr, cg, crisk, calpha, cdelta, settings.lambda_risk)
        assert batch.action[i].tobytes() == one.action.tobytes() == cand[one.index].tobytes()
        assert float_bits(batch.info_gain[i]) == float_bits(one.info_gain) == float_bits(cg[one.index])
        assert float_bits(batch.predicted_risk[i]) == float_bits(one.predicted_risk) == float_bits(crisk[one.index])
    expected = {"ties": [2, None, 2], "signed zeros": [0, 0, None], "all forced": [1, 1], "forced beside compliant": [None, 1, 2, 1, 1]}
    for i, index in enumerate(expected.get(name, [])):
        assert index is None or batch.index[i] == index, (name, i)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", range(3))
def test_select_actions_refuses_a_non_finite_score_in_any_cell(bad, which):
    scores = [np.zeros(34), np.zeros(34), np.zeros(34)]
    scores[which][33] = bad  # the last row of the second cell
    with pytest.raises(InputError, match="candidate scores must be finite"):
        select_actions(np.zeros((34, 1)), *scores, [2, 32], np.zeros(2), np.full(2, 0.5), PolicySettings())


def test_select_actions_refuses_counts_that_do_not_split_the_rows():
    for counts, n_cells in (([2, 3], 2), ([0, 4], 2), ([4], 2)):
        with pytest.raises(InputError, match="counts must split"):
            select_actions(np.zeros((4, 1)), np.zeros(4), np.zeros(4), np.zeros(4), counts, np.zeros(n_cells), np.zeros(n_cells), PolicySettings())
