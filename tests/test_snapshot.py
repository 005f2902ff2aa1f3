"""Calibration snapshot persistence and integrity tests."""

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
