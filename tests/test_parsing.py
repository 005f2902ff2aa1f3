"""The shared JSON parser covers every field of every dataclass it builds."""

from dataclasses import fields

import pytest

from compound_uq.config import AdaptiveSettings, ExperimentConfig, GridSpec, ThresholdOverrides
from compound_uq.ensemble import TrainSettings
from compound_uq.kappa import Thresholds
from compound_uq.parsing import PARSERS
from compound_uq.perturb import ConditionSpec
from compound_uq.policy import PolicySettings
from compound_uq.snapshot import CalibrationSnapshot


@pytest.mark.parametrize(
    "cls, nested",
    [
        (ExperimentConfig, {"grid", "train", "policy", "adaptive", "thresholds"}),
        (GridSpec, set()),
        (TrainSettings, set()),
        (PolicySettings, set()),
        (AdaptiveSettings, set()),
        (ThresholdOverrides, set()),
        (CalibrationSnapshot, {"thresholds", "ensemble"}),
        (Thresholds, set()),
        (ConditionSpec, set()),
    ],
)
def test_every_parsed_field_has_a_parser(cls, nested):
    # a field added with an unsupported annotation fails here, not at load time
    assert {f.type for f in fields(cls) if f.name not in nested} <= PARSERS.keys()
