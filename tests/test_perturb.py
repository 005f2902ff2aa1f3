"""Stressor wrapper tests: masking, conditions, the grid."""

import numpy as np
import pytest

from compound_uq.config import ExperimentConfig
from compound_uq.envs import DriftBot, MassSpring1D
from compound_uq.errors import InputError
from compound_uq.perturb import (
    ConditionSpec,
    apply_mask,
    condition_matrix,
    mask_dims_for_fraction,
)


def test_mask_dims_follow_priority_order():
    # The first dims masked are the front of MASK_PRIORITY: heading pair
    # at 0.25, heading plus velocities at 0.5.
    assert mask_dims_for_fraction(DriftBot, 0.0) == ()
    assert set(mask_dims_for_fraction(DriftBot, 0.25)) == {2, 3}
    assert set(mask_dims_for_fraction(DriftBot, 0.5)) == {2, 3, 4, 5}
    assert mask_dims_for_fraction(MassSpring1D, 0.5) == (1,)


def test_apply_mask_zeroes_the_marked_entries_of_each_row():
    obs = np.ones((2, 4))
    mask = np.array([[True, True, False, False], [False, False, False, False]])

    masked = apply_mask(obs, mask)
    np.testing.assert_array_equal(masked, [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])

    # No marked entry means passthrough; input is never mutated in place, and the
    # result is a copy even when nothing is masked.
    passthrough = apply_mask(obs, np.zeros((2, 4), dtype=bool))
    np.testing.assert_array_equal(passthrough, np.ones((2, 4)))
    assert passthrough is not obs
    np.testing.assert_array_equal(obs, np.ones((2, 4)))

    # one boolean per entry: a mask of another shape or of indices is refused
    for bad in (mask[0], mask.T, mask.astype(np.int64)):
        with pytest.raises(InputError):
            apply_mask(obs, bad)


@pytest.mark.parametrize("env_cls", [DriftBot, MassSpring1D])
def test_apply_mask_equals_zeroing_each_row_by_itself(env_cls):
    # Each cell's row masks its own dims, ANDed with whether its stressors are on; the
    # stacked call gives every row the bits it gets zeroed alone, -0.0 and NaN included.
    rng = np.random.default_rng(0)
    d = len(env_cls.OBS_NAMES)
    obs = rng.normal(size=(12, d))
    obs[0] = -0.0
    obs[1, 0] = np.nan
    fractions = [0.0, 0.25, 0.5, 1.0] * 3
    active = [True] * 6 + [False] * 6
    rows = []
    for row, fraction, on in zip(obs, fractions, active):
        alone = row.copy()
        if on:
            alone[list(mask_dims_for_fraction(env_cls, fraction))] = 0.0
        rows.append(alone)
    mask = np.stack([np.isin(np.arange(d), mask_dims_for_fraction(env_cls, f)) for f in fractions]) & np.array(active)[:, None]
    assert apply_mask(obs, mask).tobytes() == np.stack(rows).tobytes()


def test_condition_label_counts_active_stressors():
    assert ConditionSpec().label == "C1"
    assert ConditionSpec(po_fraction=0.25).label == "C2"
    assert ConditionSpec(delay_steps=1).label == "C2"
    assert ConditionSpec(po_fraction=0.5, delay_steps=1).label == "C3"
    assert ConditionSpec(po_fraction=0.5, shift=("gain_left", 0.5)).label == "C3"
    assert ConditionSpec(po_fraction=0.5, delay_steps=1, shift=("gain_left", 0.5)).label == "C4"


def test_condition_matrix_order_and_labels():
    cells = condition_matrix([0.0, 0.5], [0, 1], [None], [0])
    assert len(cells) == 4
    labels = [spec.label for spec, _ in cells]
    assert labels == ["C1", "C2", "C2", "C3"]
    # Seed axis is innermost so filenames stay stable.
    two_seeds = condition_matrix([0.0, 0.5], [0], [None], [0, 1])
    assert [(s.po_fraction, seed) for s, seed in two_seeds] == [
        (0.0, 0),
        (0.0, 1),
        (0.5, 0),
        (0.5, 1),
    ]


def test_default_matrix_is_120_cells():
    grid = ExperimentConfig().grid
    cells = condition_matrix(grid.po_levels, grid.delay_levels, grid.shift_levels, grid.seeds)
    assert len(cells) == 120
    counts = {}
    for spec, _ in cells:
        counts[spec.label] = counts.get(spec.label, 0) + 1
    assert counts == {"C1": 10, "C2": 40, "C3": 50, "C4": 20}


def test_condition_spec_validation():
    with pytest.raises(InputError):
        ConditionSpec(po_fraction=1.5)
    with pytest.raises(InputError):
        ConditionSpec(delay_steps=-1)
    with pytest.raises(InputError):
        ConditionSpec(shift=("mass", float("inf")))
    with pytest.raises(InputError):
        condition_matrix([], [0], [None], [0])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {k: v for k, v in d.items() if k != "po_fraction"}, "condition is missing key 'po_fraction'"),
        (lambda d: dict(d, delay_steps=1.7), "condition value delay_steps must be an integer"),
        (lambda d: dict(d, po_fraction="0.5"), "condition value po_fraction must be a finite number"),
        (lambda d: dict(d, shift=[7, "2"]), "condition value shift parameter must be a string"),
    ],
)
def test_condition_from_dict_refuses_malformed_fields(edit, message):
    doc = ConditionSpec(po_fraction=0.25, delay_steps=1, shift=("gain_left", 0.5)).to_dict()
    with pytest.raises(InputError, match=message):
        ConditionSpec.from_dict(edit(doc))


def test_condition_spec_roundtrip_and_cell_id():
    spec = ConditionSpec(po_fraction=0.25, delay_steps=1, shift=("gain_left", 0.5))
    assert ConditionSpec.from_dict(spec.to_dict()) == spec
    assert spec.cell_id(3) == "po0.25_delay1_shift-gain_left=0.5_seed3"
    assert ConditionSpec().cell_id(0) == "po0_delay0_shift-none_seed0"

