"""Config schema, strict parsing, and hash stability tests."""

import json
from pathlib import Path

import pytest

from compound_uq.config import (
    CONFIG_SCHEMA_VERSION,
    ExperimentConfig,
    GridSpec,
    config_from_dict,
    load_config,
)
from compound_uq.errors import InputError


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.env_id == "DriftBot"
    assert cfg.onset_t == 50
    assert cfg.horizon == 1000
    assert cfg.m_members == 5
    assert cfg.t_pre == 300
    assert cfg.grid.po_levels == (0.0, 0.25, 0.5)
    assert cfg.grid.delay_levels == (0, 1)
    assert cfg.grid.shift_levels == (None, ("gain_left", 0.5))
    assert cfg.grid.seeds == tuple(range(10))
    assert cfg.adaptive.enabled and cfg.adaptive.every == 10
    assert cfg.thresholds.tau_low is None and cfg.thresholds.tau_high is None


def test_the_current_schema_version_is_accepted():
    assert config_from_dict({"schema_version": CONFIG_SCHEMA_VERSION}).env_id == "DriftBot"


def test_integer_valued_numbers_are_accepted_as_floats():
    cfg = config_from_dict({"ensemble": {"learning_rate": 1}, "thresholds": {"tau_low": 0, "tau_high": 2}})
    assert cfg.train.learning_rate == 1.0 and isinstance(cfg.train.learning_rate, float)
    assert cfg.thresholds.tau_low == 0.0 and cfg.thresholds.tau_high == 2.0


def test_shift_level_shapes():
    cfg = config_from_dict({"grid": {"shift_levels": [None, ["gain_left", 0.5]]}})
    assert cfg.grid.shift_levels == (None, ("gain_left", 0.5))
    with pytest.raises(InputError):
        config_from_dict({"grid": {"shift_levels": [["gain_left"]]}})
    with pytest.raises(InputError):
        config_from_dict({"grid": {"shift_levels": ["gain_left=0.5"]}})


def test_shift_levels_validated_against_env():
    # stiffness is a MassSpring1D parameter, not a DriftBot one.
    with pytest.raises(InputError, match="DriftBot has no dynamics parameter 'stiffness'"):
        config_from_dict({"env_id": "DriftBot", "grid": {"shift_levels": [["stiffness", 3.0]]}})
    with pytest.raises(InputError, match="MassSpring1D has no dynamics parameter 'gain_left'"):
        config_from_dict({"env_id": "MassSpring1D", "grid": {"shift_levels": [None, ["gain_left", 0.5]]}})
    with pytest.raises(InputError, match=r"gain_left=1.5 outside bounds \[0.0, 1.0\]"):
        config_from_dict({"grid": {"shift_levels": [None, ["gain_left", 1.5]]}})
    with pytest.raises(InputError, match="unknown env_id 'Rover'"):
        config_from_dict({"env_id": "Rover", "grid": {"shift_levels": [None, ["mass", 2.0]]}})
    cfg = config_from_dict({"env_id": "MassSpring1D", "grid": {"shift_levels": [None, ["stiffness", 3.0]]}})
    assert cfg.grid.shift_levels[1] == ("stiffness", 3.0)


def test_threshold_overrides_set_as_a_pair_are_read():
    cfg = config_from_dict({"thresholds": {"tau_low": 0.2, "tau_high": 0.5}})
    assert cfg.thresholds.tau_low == 0.2 and cfg.thresholds.tau_high == 0.5


def test_hash_ignores_operational_fields():
    base = config_from_dict({})
    moved = config_from_dict({"output_dir": "elsewhere"})
    assert base.config_hash() == moved.config_hash()
    assert len(base.config_hash()) == 16


def test_hash_tracks_substantive_fields():
    base = config_from_dict({})
    assert base.config_hash() != config_from_dict({"horizon": 999}).config_hash()
    assert base.config_hash() != config_from_dict({"policy": {"alpha_max": 7.0}}).config_hash()


MASS_SPRING_INTEGERS = {
    "env_id": "MassSpring1D",
    "grid": {"po_levels": [0, 1], "shift_levels": [None, ["stiffness", 3]]},
    "thresholds": {"tau_low": 0, "tau_high": 1},
    "policy": {"alpha_max": 1},
}
MASS_SPRING_FLOATS = {
    "env_id": "MassSpring1D",
    "grid": {"po_levels": [0.0, 1.0], "shift_levels": [None, ["stiffness", 3.0]]},
    "thresholds": {"tau_low": 0.0, "tau_high": 1.0},
    "policy": {"alpha_max": 1.0},
}


@pytest.mark.parametrize(
    "make, expected",
    [
        (ExperimentConfig, "e545accb2080fe4e"),
        (lambda: config_from_dict({}), "e545accb2080fe4e"),
        # the DriftBot acceptance config of perfbench/workloads.py
        (
            lambda: config_from_dict(
                {"env_id": "DriftBot", "horizon": 220, "onset_t": 50, "ensemble": {"t_pre": 300, "m_members": 5}}
            ),
            "640a0640952bac89",
        ),
        # integer-valued floats hash like the floats they stand for
        (lambda: config_from_dict(MASS_SPRING_INTEGERS), "f80814122d479fb2"),
        (lambda: config_from_dict(MASS_SPRING_FLOATS), "f80814122d479fb2"),
        (lambda: ExperimentConfig(grid=GridSpec(po_levels=(0, 1))), "cea2efa1d1ed8d3e"),
        (lambda: config_from_dict({"grid": {"po_levels": [0.0, 1.0]}}), "cea2efa1d1ed8d3e"),
    ],
)
def test_config_hashes_are_pinned(make, expected):
    # Every snapshot and trace header embeds the hash, so parsing and
    # to_dict may change only when these values stay put.
    assert make().config_hash() == expected


def test_roundtrip_through_dict():
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 400,
            "onset_t": 150,
            "grid": {
                "po_levels": [0.0, 0.5],
                "delay_levels": [0, 1],
                "shift_levels": [None, ["stiffness", 3.0]],
                "seeds": [0, 1, 2],
            },
            "ensemble": {"m_members": 3, "t_pre": 120, "epochs": 40},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"env_id": "DriftBot", "horizon": 500, "onset_t": 200}))
    cfg = load_config(str(path))
    assert cfg.horizon == 500 and cfg.onset_t == 200
    assert isinstance(cfg, ExperimentConfig)


# One valid non-default value for every leaf of the schema.
ALTERNATIVES = {
    ("env_id",): "MassSpring1D",
    ("onset_t",): 60,
    ("horizon",): 500,
    ("grid", "po_levels"): [0.0, 0.75],
    ("grid", "delay_levels"): [0, 2],
    ("grid", "shift_levels"): [None, ["gain_right", 0.25]],
    ("grid", "seeds"): [3, 4],
    ("ensemble", "m_members"): 3,
    ("ensemble", "t_pre"): 200,
    ("ensemble", "clip_c"): 4.0,
    ("ensemble", "c_tau"): 0.5,
    ("ensemble", "hidden_width"): 16,
    ("ensemble", "epochs"): 20,
    ("ensemble", "learning_rate"): 0.01,
    ("ensemble", "batch_size"): 8,
    ("policy", "alpha_max"): 50.0,
    ("policy", "lambda_risk"): 2.0,
    ("policy", "delta_max"): 0.25,
    ("policy", "n_candidates"): 8,
    ("adaptive", "enabled"): False,
    ("adaptive", "every"): 5,
    ("adaptive", "window"): 60,
    ("adaptive", "epochs"): 3,
    ("thresholds", "tau_low"): 0.1,
    ("thresholds", "tau_high"): 0.9,
    ("thresholds", "round_to_decimal"): True,
    ("probe_episodes",): 2,
    ("calibration_seed",): 7,
    ("output_dir",): "elsewhere",
}

# Keys that cannot change alone, with the one other leaf each needs.
COMPANIONS = {
    ("env_id",): (("grid", "shift_levels"), [None, ["stiffness", 3.0]]),
    ("thresholds", "tau_low"): (("thresholds", "tau_high"), 0.5),
    ("thresholds", "tau_high"): (("thresholds", "tau_low"), 0.2),
}


def _leaves(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def test_alternatives_cover_every_schema_leaf():
    schema = dict(_leaves(ExperimentConfig().to_dict()))
    assert set(ALTERNATIVES) == set(schema) - {("schema_version",)}
    assert all(ALTERNATIVES[path] != schema[path] for path in ALTERNATIVES)


@pytest.mark.parametrize("path", sorted(ALTERNATIVES), ids="/".join)
def test_each_schema_leaf_parses_and_changes_only_itself(path):
    doc: dict = {}
    expected = {path: ALTERNATIVES[path]}
    if path in COMPANIONS:
        other, value = COMPANIONS[path]
        expected[other] = value
    for p, value in expected.items():
        _set(doc, p, value)
    default = dict(_leaves(ExperimentConfig().to_dict()))
    parsed = dict(_leaves(config_from_dict(doc).to_dict()))
    assert {p: v for p, v in parsed.items() if v != default[p]} == expected


def test_readme_configuration_block_is_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == ExperimentConfig().to_dict()
