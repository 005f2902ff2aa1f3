"""Calibration snapshots: frozen ensemble, noise floor, thresholds.

A snapshot is the single artifact a run needs besides its config: the
frozen ensemble weights, the noise floor (mu0, sigma0), the calibrated
regime thresholds, and reproducibility metadata (config hash, seed,
toolkit version, weights hash).

Serialization is canonical JSON (sorted keys, shortest round-trip float
repr), so equal calibrations produce byte-identical files, and loading a
snapshot reconstructs kappa values bit for bit. Writes go through a
temp-file rename so a crash can never leave a half-written snapshot
behind.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .ensemble import Ensemble
from .errors import InputError
from .kappa import Thresholds
from .parsing import parse_fields, parse_key
from .version import TOOLKIT_VERSION

SNAPSHOT_FORMAT_VERSION = 1


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see partial content."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


@contextmanager
def open_input(path: str, what: str):
    """Open a UTF-8 input file for the ``with`` block; failing to open,
    decode or parse it as JSON raises an ``InputError`` that names ``what``.

    A ``ValueError`` raised in the block counts as a JSON failure: ``json``
    raises a bare one for an integer literal longer than Python's
    int-conversion limit (4,300 digits by default)."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{what} file {path} cannot be read: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an integer literal too long to convert
        raise InputError(f"{what} file {path} is not valid JSON: {e}") from None


@dataclass(frozen=True)
class CalibrationSnapshot:
    config_hash: str
    env_id: str
    seed: int
    mu0: float
    sigma0: float
    thresholds: Thresholds
    ensemble: Ensemble
    clip_c: float
    c_tau: float

    def to_dict(self) -> dict:
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "toolkit_version": TOOLKIT_VERSION,
            "config_hash": self.config_hash,
            "env_id": self.env_id,
            "seed": self.seed,
            "mu0": float(self.mu0),
            "sigma0": float(self.sigma0),
            "tau_low": float(self.thresholds.tau_low),
            "tau_high": float(self.thresholds.tau_high),
            "clip_c": float(self.clip_c),
            "c_tau": float(self.c_tau),
            "weights_hash": self.ensemble.weights_hash(),
            "ensemble": self.ensemble.to_dict(),
        }

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    @classmethod
    def from_dict(cls, d) -> "CalibrationSnapshot":
        """The snapshot ``d`` describes; its ensemble must be frozen and match ``weights_hash``."""
        if parse_key(d, "format_version", "int", "snapshot") != SNAPSHOT_FORMAT_VERSION:
            raise InputError(f"unsupported snapshot format_version {d['format_version']!r}")
        thresholds = parse_fields(Thresholds, d, "snapshot")
        snapshot = parse_fields(cls, d, "snapshot", thresholds=thresholds, ensemble=Ensemble.from_dict(d.get("ensemble")))
        if snapshot.ensemble.weights_hash() != d.get("weights_hash"):
            raise InputError("snapshot weights hash mismatch; file corrupted or edited")
        if not snapshot.ensemble.frozen:
            raise InputError("snapshot must contain a frozen ensemble")
        return snapshot

    @classmethod
    def load(cls, path: str) -> "CalibrationSnapshot":
        with open_input(path, "snapshot") as fh:
            d = json.load(fh)
        return cls.from_dict(d)
