"""Calibration snapshots: frozen ensemble, noise floor, thresholds.

A snapshot holds what calibration measured: the frozen ensemble's weights and
normalizers, the noise floor (mu0, sigma0) and the regime thresholds, with the
env id, config hash, toolkit version and weights hash that identify it. It
copies no config value and no seed: a run reads them from its config.
``check_config`` binds the two; ``load`` calls it, and so does
``rollout.run_header`` at the start of every episode and sweep.

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
from .parsing import parse_fields, parse_key, refuse_unknown
from .version import TOOLKIT_VERSION

SNAPSHOT_FORMAT_VERSION = 3


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory, via a temp file and a rename, so readers never
    see partial content. A failed write removes the temp file and raises ``InputError("cannot write <path>: <reason>")``."""
    tmp = f"{path}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise InputError(f"cannot write {path}: {e.strerror}") from None


@contextmanager
def open_input(path: str, what: str):
    """Open a UTF-8 input file for the ``with`` block; failing to open,
    decode or parse it as JSON raises an ``InputError`` that names ``what``
    and ``path``, and so does an ``InputError`` the block raises itself
    (a document its parser refuses).

    A ``ValueError`` or ``RecursionError`` raised in the block counts as a
    JSON failure: ``json`` raises a bare ``ValueError`` for an integer literal
    longer than Python's int-conversion limit (4,300 digits by default), and a
    ``RecursionError`` for arrays or objects nested deeper than the
    interpreter's recursion limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{what} file {path} cannot be read: {e}") from None
    except InputError as e:  # before ValueError, which InputError subclasses
        raise InputError(f"{what} file {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, an integer literal too long to convert, or nesting too deep
        raise InputError(f"{what} file {path} is not valid JSON: {e}") from None


@dataclass(frozen=True)
class CalibrationSnapshot:
    config_hash: str
    env_id: str
    mu0: float
    sigma0: float
    thresholds: Thresholds
    ensemble: Ensemble

    def to_dict(self) -> dict:
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "toolkit_version": TOOLKIT_VERSION,
            "config_hash": self.config_hash,
            "env_id": self.env_id,
            "mu0": float(self.mu0),
            "sigma0": float(self.sigma0),
            "tau_low": float(self.thresholds.tau_low),
            "tau_high": float(self.thresholds.tau_high),
            "weights_hash": self.ensemble.weights_hash(),
            "ensemble": self.ensemble.to_dict(),
        }

    def check_config(self, config, what: str) -> None:
        """Refuse ``config`` unless this snapshot was calibrated for it: its env id and
        config hash, and its ``thresholds`` overrides if set. ``what`` names the snapshot."""
        if (self.env_id, self.config_hash) != (config.env_id, config.config_hash()):
            raise InputError(f"{what} was calibrated for {self.env_id} {self.config_hash}, not this config")
        held, given = self.thresholds, config.thresholds
        if given.tau_low is not None and (given.tau_low, given.tau_high) != (held.tau_low, held.tau_high):
            raise InputError(
                f"{what} holds thresholds {held.tau_low}, {held.tau_high}, not this config's overrides {given.tau_low}, {given.tau_high}"
            )

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    @classmethod
    def from_dict(cls, d) -> "CalibrationSnapshot":
        """The snapshot ``d`` describes, unknown keys refused, with a frozen ensemble that must match ``weights_hash``."""
        if parse_key(d, "format_version", "int", "snapshot") != SNAPSHOT_FORMAT_VERSION:
            raise InputError(f"unsupported snapshot format_version {d['format_version']!r}; calibrate again")
        thresholds = parse_fields(Thresholds, d, "snapshot")
        snapshot = parse_fields(cls, d, "snapshot", thresholds=thresholds, ensemble=Ensemble.from_dict(d.get("ensemble")))
        written = snapshot.to_dict()
        refuse_unknown(d, written, "snapshot", "root")  # the keys to_dict writes
        if written["weights_hash"] != d.get("weights_hash"):
            raise InputError("snapshot weights hash mismatch; file corrupted or edited")
        return snapshot

    @classmethod
    def load(cls, path: str, config) -> "CalibrationSnapshot":
        """The snapshot at ``path``, refused unless it was calibrated for ``config``; see ``check_config``."""
        with open_input(path, "snapshot") as fh:
            snapshot = cls.from_dict(json.load(fh))
        snapshot.check_config(config, f"snapshot {path}")
        return snapshot
