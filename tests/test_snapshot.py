"""Calibration snapshot persistence and integrity tests."""

import json

import numpy as np
import pytest
from helpers import constant_ensemble

from compound_uq.errors import InputError
from compound_uq.kappa import Thresholds
from compound_uq.snapshot import SNAPSHOT_FORMAT_VERSION, CalibrationSnapshot, atomic_write_text


@pytest.fixture
def snap():
    ens = constant_ensemble([[0.1, -0.2], [0.3, 0.05]], in_dim=3, frozen=True)
    return CalibrationSnapshot(
        config_hash="a" * 16,
        env_id="DriftBot",
        seed=3,
        mu0=0.02,
        sigma0=0.01,
        thresholds=Thresholds(tau_low=0.1, tau_high=0.5),
        ensemble=ens,
        clip_c=5.0,
        c_tau=0.3,
    )


def test_save_load_roundtrip(snap, tmp_path):
    path = str(tmp_path / "calibration.json")
    snap.save(path)
    loaded = CalibrationSnapshot.load(path)
    assert loaded.config_hash == snap.config_hash
    assert loaded.env_id == snap.env_id and loaded.seed == snap.seed
    assert loaded.mu0 == snap.mu0 and loaded.sigma0 == snap.sigma0
    assert loaded.thresholds == snap.thresholds
    assert loaded.clip_c == snap.clip_c and loaded.c_tau == snap.c_tau
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
        CalibrationSnapshot.load(str(path))


def test_unfrozen_ensemble_rejected(snap):
    d = snap.to_dict()
    live = constant_ensemble([[0.1, -0.2], [0.3, 0.05]], in_dim=3, frozen=False)
    d["ensemble"] = live.to_dict()
    d["weights_hash"] = live.weights_hash()
    with pytest.raises(InputError, match="frozen"):
        CalibrationSnapshot.from_dict(d)


def test_format_version_mismatch(snap):
    d = snap.to_dict()
    d["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
    with pytest.raises(InputError, match="format_version"):
        CalibrationSnapshot.from_dict(d)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(InputError, match="not found"):
        CalibrationSnapshot.load(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(InputError, match="JSON"):
        CalibrationSnapshot.load(str(bad))
    bad.write_bytes(b'{"mu0": "\xff"}')
    with pytest.raises(InputError, match="cannot be read"):
        CalibrationSnapshot.load(str(bad))
    with pytest.raises(InputError, match="cannot be read"):
        CalibrationSnapshot.load(str(tmp_path))


def _truncate_w1(d):
    d["ensemble"]["w1"] = d["ensemble"]["w1"][:-1]
    return d


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {"format_version": SNAPSHOT_FORMAT_VERSION}, "snapshot is missing key 'config_hash'"),
        (lambda d: [1], "snapshot must be a JSON object"),
        (lambda d: dict(d, mu0="abc"), "snapshot holds an ill-typed value"),
        (lambda d: dict(d, ensemble=None), "snapshot holds an ill-typed value"),
        (_truncate_w1, "snapshot holds an ill-typed value"),
    ],
)
def test_malformed_documents_are_input_errors(snap, edit, message):
    with pytest.raises(InputError, match=message):
        CalibrationSnapshot.from_dict(edit(snap.to_dict()))


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first")
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]
