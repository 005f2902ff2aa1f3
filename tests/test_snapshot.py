"""Calibration snapshot persistence and integrity tests."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from helpers import constant_ensemble

from compound_uq.config import ExperimentConfig, ThresholdOverrides, config_from_dict
from compound_uq.errors import InputError
from compound_uq.kappa import Thresholds
from compound_uq.rollout import calibrate
from compound_uq.snapshot import SNAPSHOT_FORMAT_VERSION, CalibrationSnapshot, atomic_write_text

CFG = ExperimentConfig()  # the config the fixture snapshot claims to be calibrated for


@pytest.fixture
def snap():
    ens = constant_ensemble([[0.1, -0.2], [0.3, 0.05]], in_dim=3, frozen=True)
    return CalibrationSnapshot(
        config_hash=CFG.config_hash(),
        env_id="DriftBot",
        mu0=0.02,
        sigma0=0.01,
        thresholds=Thresholds(tau_low=0.1, tau_high=0.5),
        ensemble=ens,
    )


def test_save_load_roundtrip(snap, tmp_path):
    path = str(tmp_path / "calibration.json")
    snap.save(path)
    loaded = CalibrationSnapshot.load(path, CFG)
    assert loaded.config_hash == snap.config_hash
    assert loaded.env_id == snap.env_id
    assert loaded.mu0 == snap.mu0 and loaded.sigma0 == snap.sigma0
    assert loaded.thresholds == snap.thresholds
    assert loaded.ensemble.frozen
    assert loaded.ensemble.weights_hash() == snap.ensemble.weights_hash()
    x = np.array([[0.5, -0.5, 2.0]])
    np.testing.assert_array_equal(loaded.ensemble.predict_members(x), snap.ensemble.predict_members(x))


def test_save_is_byte_deterministic(snap, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    snap.save(p1)
    snap.save(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_tampered_weights_rejected(snap, tmp_path):
    d = snap.to_dict()
    d["ensemble"]["b2"][0] += 1.0
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InputError, match="hash mismatch"):
        CalibrationSnapshot.load(str(path), CFG)


def test_missing_weights_hash_rejected(snap):
    d = snap.to_dict()
    del d["weights_hash"]
    with pytest.raises(InputError, match="hash mismatch"):
        CalibrationSnapshot.from_dict(d)
    d["ensemble"]["b2"][0] += 1.0
    with pytest.raises(InputError, match="hash mismatch"):
        CalibrationSnapshot.from_dict(d)


def test_format_version_mismatch(snap):
    d = snap.to_dict()
    d["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
    with pytest.raises(InputError, match="format_version"):
        CalibrationSnapshot.from_dict(d)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(InputError, match="not found"):
        CalibrationSnapshot.load(str(tmp_path / "nope.json"), CFG)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(InputError, match="JSON"):
        CalibrationSnapshot.load(str(bad), CFG)
    bad.write_bytes(b'{"mu0": "\xff"}')
    with pytest.raises(InputError, match="cannot be read"):
        CalibrationSnapshot.load(str(bad), CFG)
    with pytest.raises(InputError, match="cannot be read"):
        CalibrationSnapshot.load(str(tmp_path), CFG)


def _truncate_w1(d):
    d["ensemble"]["w1"] = d["ensemble"]["w1"][:-1]
    return d


def _as_format_2(d):
    """The document as format 2 wrote it: with the ensemble's seed and frozen flag."""
    d["ensemble"].update(seed=0, frozen=True)
    return dict(d, format_version=2)


def _set(*path, value):
    def edit(d):
        section = d
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return d

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {"format_version": SNAPSHOT_FORMAT_VERSION}, "snapshot is missing key 'tau_low'"),
        (lambda d: [1], "snapshot must be a JSON object"),
        (lambda d: dict(d, mu0="abc"), "snapshot value mu0 must be a finite number, got 'abc'"),
        (lambda d: dict(d, ensemble=None), "snapshot ensemble must be a JSON object"),
        (_truncate_w1, "snapshot value ensemble.w1 holds 5 numbers"),
        (lambda d: dict(d, format_version=1), "unsupported snapshot format_version 1; calibrate again"),
        (_as_format_2, "unsupported snapshot format_version 2; calibrate again"),
        (lambda d: dict(d, mu0="0.5"), "snapshot value mu0 must be a finite number, got '0.5'"),
        (lambda d: dict(d, env_id=None), "snapshot value env_id must be a string"),
        (_set("ensemble", "hidden_width", value=7), "snapshot value ensemble.w1 holds 6 numbers, which do not fill shape"),
    ],
)
def test_malformed_documents_are_input_errors(snap, edit, message):
    with pytest.raises(InputError, match=message):
        CalibrationSnapshot.from_dict(edit(snap.to_dict()))


def test_load_binds_the_snapshot_to_its_config(snap, tmp_path):
    path = str(tmp_path / "calibration.json")
    refused_for_cfg = f"snapshot {path} was calibrated for "
    replace(snap, env_id="MassSpring1D").save(path)
    with pytest.raises(InputError, match=re.escape(refused_for_cfg + f"MassSpring1D {snap.config_hash}, not this config")):
        CalibrationSnapshot.load(path, CFG)
    snap.save(path)
    assert CalibrationSnapshot.load(path, CFG).thresholds == snap.thresholds  # CFG sets no overrides
    with pytest.raises(InputError, match=re.escape(refused_for_cfg + f"DriftBot {snap.config_hash}, not this config")):
        CalibrationSnapshot.load(path, replace(CFG, horizon=500))

    # a config overriding the thresholds binds a snapshot holding exactly those
    overriding = replace(CFG, thresholds=ThresholdOverrides(tau_low=0.2, tau_high=0.5))
    replace(snap, config_hash=overriding.config_hash()).save(path)
    with pytest.raises(InputError, match=f"^snapshot {re.escape(path)} holds thresholds 0.1, 0.5, not this config's overrides 0.2, 0.5$"):
        CalibrationSnapshot.load(path, overriding)
    replace(snap, config_hash=overriding.config_hash(), thresholds=Thresholds(tau_low=0.2, tau_high=0.5)).save(path)
    assert CalibrationSnapshot.load(path, overriding).thresholds == Thresholds(tau_low=0.2, tau_high=0.5)


def test_a_snapshot_copies_no_config_value():
    # A config value the snapshot held again would have to be checked against
    # the config on every load; the run reads it from the config instead.
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 40,
            "onset_t": 10,
            "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 60, "m_members": 2, "epochs": 2},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    doc = calibrate(cfg).to_dict()
    assert set(doc) == {
        "format_version", "toolkit_version", "config_hash", "env_id", "mu0", "sigma0",
        "tau_low", "tau_high", "weights_hash", "ensemble",
    }
    assert set(doc["ensemble"]) == {
        "m_members", "in_dim", "hidden_width", "out_dim",
        "w1", "b1", "w2", "b2", "x_mean", "x_std", "y_mean", "y_std",
    }
    assert doc["format_version"] == SNAPSHOT_FORMAT_VERSION == 3


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "new" / "out.txt"  # the parent directory is created
    atomic_write_text(str(path), "first")
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert list(path.parent.iterdir()) == [path]
    # a write that fails, here onto a directory, is an input error and leaves no temp file
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(path.parent))}: Is a directory$"):
        atomic_write_text(str(path.parent), "third")
    assert list(tmp_path.iterdir()) == [path.parent] and list(path.parent.iterdir()) == [path]
