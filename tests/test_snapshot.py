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


def test_missing_weights_hash_rejected(snap):
    d = snap.to_dict()
    del d["weights_hash"]
    with pytest.raises(InputError, match="hash mismatch"):
        CalibrationSnapshot.from_dict(d)
    d["ensemble"]["b2"][0] += 1.0
    with pytest.raises(InputError, match="hash mismatch"):
        CalibrationSnapshot.from_dict(d)


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
        (lambda d: dict(d, clip_c=float("inf")), "snapshot value clip_c must be a finite number"),
        (_set("ensemble", "frozen", value="false"), "snapshot value ensemble.frozen must be true or false"),
        (lambda d: dict(d, seed=1.9), "snapshot value seed must be an integer, got 1.9"),
        (lambda d: dict(d, seed=True), "snapshot value seed must be an integer, got True"),
        (lambda d: dict(d, mu0="0.5"), "snapshot value mu0 must be a finite number, got '0.5'"),
        (lambda d: dict(d, env_id=None), "snapshot value env_id must be a string"),
        (_set("ensemble", "settings", "epochs", value=1.5), "snapshot value ensemble.settings.epochs must be an integer"),
        (
            _set("ensemble", "settings", "hidden_width", value=7),
            "snapshot value ensemble.settings.hidden_width is 7, but the weights are 1 wide",
        ),
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
