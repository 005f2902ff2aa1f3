"""Experiment configuration: schema, defaults, strict parsing, hashing.

Configs are JSON documents whose schema is ``ExperimentConfig().to_dict()``.
Parsing is strict: unknown keys at any level are errors, because a
silently ignored typo in a sweep config can burn hours of compute before
anyone notices.

``config_hash`` is a sha256 over the canonical JSON of the resolved
config, excluding the output directory, which must not affect emitted
bytes. Every output file embeds this hash, so two artifact trees with
equal hashes are comparable byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .ensemble import TrainSettings
from .errors import CompoundUQError, InputError
from .kappa import C_TAU, CLIP_C
from .perturb import (
    DEFAULT_DELAY_LEVELS,
    DEFAULT_PO_LEVELS,
    DEFAULT_SEEDS,
    DEFAULT_SHIFT_LEVELS,
    ONSET_T,
)
from .policy import PolicySettings

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    po_levels: tuple[float, ...] = DEFAULT_PO_LEVELS
    delay_levels: tuple[int, ...] = DEFAULT_DELAY_LEVELS
    shift_levels: tuple[tuple[str, float] | None, ...] = DEFAULT_SHIFT_LEVELS
    seeds: tuple[int, ...] = DEFAULT_SEEDS


@dataclass(frozen=True)
class AdaptiveSettings:
    enabled: bool = True  # no effect; kept because the config hash covers it
    every: int = 10
    window: int = 120
    epochs: int = 10


@dataclass(frozen=True)
class ThresholdOverrides:
    tau_low: float | None = None
    tau_high: float | None = None
    round_to_decimal: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    env_id: str = "DriftBot"
    onset_t: int = ONSET_T
    horizon: int = 1000
    grid: GridSpec = field(default_factory=GridSpec)
    m_members: int = 5
    t_pre: int = 300
    clip_c: float = CLIP_C
    c_tau: float = C_TAU
    train: TrainSettings = field(default_factory=TrainSettings)
    policy: PolicySettings = field(default_factory=PolicySettings)
    adaptive: AdaptiveSettings = field(default_factory=AdaptiveSettings)
    thresholds: ThresholdOverrides = field(default_factory=ThresholdOverrides)
    probe_episodes: int = 1
    calibration_seed: int = 0
    output_dir: str = "runs"

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "env_id": self.env_id,
            "onset_t": self.onset_t,
            "horizon": self.horizon,
            "grid": {
                "po_levels": [float(v) for v in self.grid.po_levels],
                "delay_levels": [int(v) for v in self.grid.delay_levels],
                "shift_levels": [None if s is None else [s[0], float(s[1])] for s in self.grid.shift_levels],
                "seeds": [int(v) for v in self.grid.seeds],
            },
            "ensemble": {
                "m_members": self.m_members,
                "t_pre": self.t_pre,
                "clip_c": self.clip_c,
                "c_tau": self.c_tau,
                "hidden_width": self.train.hidden_width,
                "epochs": self.train.epochs,
                "learning_rate": self.train.learning_rate,
                "batch_size": self.train.batch_size,
            },
            "policy": {
                "alpha_max": self.policy.alpha_max,
                "lambda_risk": self.policy.lambda_risk,
                "delta_max": self.policy.delta_max,
                "n_candidates": self.policy.n_candidates,
            },
            "adaptive": {
                "enabled": self.adaptive.enabled,
                "every": self.adaptive.every,
                "window": self.adaptive.window,
                "epochs": self.adaptive.epochs,
            },
            "thresholds": {
                "tau_low": self.thresholds.tau_low,
                "tau_high": self.thresholds.tau_high,
                "round_to_decimal": self.thresholds.round_to_decimal,
            },
            "probe_episodes": self.probe_episodes,
            "calibration_seed": self.calibration_seed,
            "output_dir": self.output_dir,
        }

    def config_hash(self) -> str:
        """Hash of everything that can influence emitted artifact bytes."""
        content = self.to_dict()
        content.pop("output_dir")
        blob = json.dumps(content, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _merge(doc, schema: dict, where: str) -> dict:
    """``schema`` with ``doc``'s values laid over it, section by section."""
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise InputError(f"unknown config keys in {where}: {sorted(unknown)}")
    merged = {}
    for key, default in schema.items():
        value = doc.get(key, default)
        merged[key] = _merge(value, default, key) if isinstance(default, dict) else value
    return merged


def _int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"config value {name} must be an integer, got {value!r}")
    return value


def _float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"config value {name} must be a number, got {value!r}")
    return float(value)


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"config value {name} must be true or false, got {value!r}")
    return value


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"config value {name} must be a string, got {value!r}")
    return value


def _shift_level(s) -> tuple[str, float] | None:
    if s is None:
        return None
    if isinstance(s, (list, tuple)) and len(s) == 2:
        return (_str(s[0], "grid.shift_levels parameter"), _float(s[1], "grid.shift_levels value"))
    raise InputError(f"shift level must be null or [param, value], got {s!r}")


def _build(d: dict) -> ExperimentConfig:
    if _int(d["schema_version"], "schema_version") != CONFIG_SCHEMA_VERSION:
        raise InputError(f"unsupported config schema_version {d['schema_version']}")
    grid, ens, pol, ad, th = (d[k] for k in ("grid", "ensemble", "policy", "adaptive", "thresholds"))
    if (th["tau_low"] is None) != (th["tau_high"] is None):
        raise InputError("threshold overrides must set both tau_low and tau_high or neither")
    return ExperimentConfig(
        env_id=_str(d["env_id"], "env_id"),
        onset_t=_int(d["onset_t"], "onset_t"),
        horizon=_int(d["horizon"], "horizon"),
        grid=GridSpec(
            po_levels=tuple(_float(v, "grid.po_levels") for v in grid["po_levels"]),
            delay_levels=tuple(_int(v, "grid.delay_levels") for v in grid["delay_levels"]),
            shift_levels=tuple(_shift_level(s) for s in grid["shift_levels"]),
            seeds=tuple(_int(v, "grid.seeds") for v in grid["seeds"]),
        ),
        m_members=_int(ens["m_members"], "ensemble.m_members"),
        t_pre=_int(ens["t_pre"], "ensemble.t_pre"),
        clip_c=_float(ens["clip_c"], "ensemble.clip_c"),
        c_tau=_float(ens["c_tau"], "ensemble.c_tau"),
        train=TrainSettings(
            hidden_width=_int(ens["hidden_width"], "ensemble.hidden_width"),
            epochs=_int(ens["epochs"], "ensemble.epochs"),
            learning_rate=_float(ens["learning_rate"], "ensemble.learning_rate"),
            batch_size=_int(ens["batch_size"], "ensemble.batch_size"),
        ),
        policy=PolicySettings(
            alpha_max=_float(pol["alpha_max"], "policy.alpha_max"),
            lambda_risk=_float(pol["lambda_risk"], "policy.lambda_risk"),
            delta_max=_float(pol["delta_max"], "policy.delta_max"),
            n_candidates=_int(pol["n_candidates"], "policy.n_candidates"),
        ),
        adaptive=AdaptiveSettings(
            enabled=_bool(ad["enabled"], "adaptive.enabled"),
            every=_int(ad["every"], "adaptive.every"),
            window=_int(ad["window"], "adaptive.window"),
            epochs=_int(ad["epochs"], "adaptive.epochs"),
        ),
        thresholds=ThresholdOverrides(
            tau_low=None if th["tau_low"] is None else _float(th["tau_low"], "thresholds.tau_low"),
            tau_high=None if th["tau_high"] is None else _float(th["tau_high"], "thresholds.tau_high"),
            round_to_decimal=_bool(th["round_to_decimal"], "thresholds.round_to_decimal"),
        ),
        probe_episodes=_int(d["probe_episodes"], "probe_episodes"),
        calibration_seed=_int(d["calibration_seed"], "calibration_seed"),
        output_dir=_str(d["output_dir"], "output_dir"),
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON document.

    The default config's ``to_dict()`` is the schema: its keys are the
    only ones allowed at the root and in each section, and its values
    fill in every key the document leaves out. A value of the wrong type
    is an ``InputError``: integer fields take integers only (not floats
    or booleans), number fields take integers or floats (not strings or
    booleans), boolean fields take ``true`` or ``false`` only, and string
    fields take strings only.
    """
    merged = _merge(raw, ExperimentConfig().to_dict(), "config root")
    try:
        cfg = _build(merged)
    except CompoundUQError:
        raise
    except (TypeError, ValueError) as e:
        raise InputError(f"config value has the wrong type: {e}") from e
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    from .envs import ENV_CLASSES
    from .perturb import validate_shift_for_env

    if cfg.env_id not in ENV_CLASSES:
        raise InputError(f"unknown env_id {cfg.env_id!r}; choose from {sorted(ENV_CLASSES)}")
    if cfg.horizon <= cfg.onset_t + 1:
        raise InputError(f"horizon {cfg.horizon} must exceed onset_t + 1 = {cfg.onset_t + 1}")
    if cfg.m_members < 2:
        raise InputError("ensemble needs at least 2 members")
    if cfg.t_pre < 1:
        raise InputError("t_pre must be positive")
    if cfg.probe_episodes < 1:
        raise InputError("probe_episodes must be positive")
    for shift in cfg.grid.shift_levels:
        validate_shift_for_env(cfg.env_id, shift)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"config file {path} is not valid JSON: {e}")
    return config_from_dict(raw)
