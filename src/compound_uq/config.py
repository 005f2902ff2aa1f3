"""Experiment configuration: schema, defaults, strict parsing, hashing.

Configs are JSON documents with a fixed nested schema. Parsing is strict:
unknown keys at any level are errors, because a silently ignored typo in
a sweep config can burn hours of compute before anyone notices.

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
from .errors import InputError
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


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise InputError(f"unknown config keys in {where}: {sorted(unknown)}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON document; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise InputError("config document must be a JSON object")
    _require_keys(
        raw,
        {
            "schema_version",
            "env_id",
            "onset_t",
            "horizon",
            "grid",
            "ensemble",
            "policy",
            "adaptive",
            "thresholds",
            "probe_episodes",
            "calibration_seed",
            "output_dir",
        },
        "config root",
    )
    if int(raw.get("schema_version", CONFIG_SCHEMA_VERSION)) != CONFIG_SCHEMA_VERSION:
        raise InputError(f"unsupported config schema_version {raw.get('schema_version')}")

    defaults = ExperimentConfig()

    grid_raw = raw.get("grid", {})
    _require_keys(grid_raw, {"po_levels", "delay_levels", "shift_levels", "seeds"}, "grid")
    shift_levels = []
    for s in grid_raw.get("shift_levels", [None if v is None else list(v) for v in defaults.grid.shift_levels]):
        if s is None:
            shift_levels.append(None)
        elif isinstance(s, (list, tuple)) and len(s) == 2:
            shift_levels.append((str(s[0]), float(s[1])))
        else:
            raise InputError(f"shift level must be null or [param, value], got {s!r}")
    grid = GridSpec(
        po_levels=tuple(float(v) for v in grid_raw.get("po_levels", defaults.grid.po_levels)),
        delay_levels=tuple(int(v) for v in grid_raw.get("delay_levels", defaults.grid.delay_levels)),
        shift_levels=tuple(shift_levels),
        seeds=tuple(int(v) for v in grid_raw.get("seeds", defaults.grid.seeds)),
    )

    ens_raw = raw.get("ensemble", {})
    _require_keys(
        ens_raw,
        {"m_members", "t_pre", "clip_c", "c_tau", "hidden_width", "epochs", "learning_rate", "batch_size"},
        "ensemble",
    )
    train = TrainSettings(
        hidden_width=int(ens_raw.get("hidden_width", defaults.train.hidden_width)),
        epochs=int(ens_raw.get("epochs", defaults.train.epochs)),
        learning_rate=float(ens_raw.get("learning_rate", defaults.train.learning_rate)),
        batch_size=int(ens_raw.get("batch_size", defaults.train.batch_size)),
    )

    pol_raw = raw.get("policy", {})
    _require_keys(pol_raw, {"alpha_max", "lambda_risk", "delta_max", "n_candidates"}, "policy")
    policy = PolicySettings(
        alpha_max=float(pol_raw.get("alpha_max", defaults.policy.alpha_max)),
        lambda_risk=float(pol_raw.get("lambda_risk", defaults.policy.lambda_risk)),
        delta_max=float(pol_raw.get("delta_max", defaults.policy.delta_max)),
        n_candidates=int(pol_raw.get("n_candidates", defaults.policy.n_candidates)),
    )

    ad_raw = raw.get("adaptive", {})
    _require_keys(ad_raw, {"enabled", "every", "window", "epochs"}, "adaptive")
    adaptive = AdaptiveSettings(
        enabled=bool(ad_raw.get("enabled", defaults.adaptive.enabled)),
        every=int(ad_raw.get("every", defaults.adaptive.every)),
        window=int(ad_raw.get("window", defaults.adaptive.window)),
        epochs=int(ad_raw.get("epochs", defaults.adaptive.epochs)),
    )

    th_raw = raw.get("thresholds", {})
    _require_keys(th_raw, {"tau_low", "tau_high", "round_to_decimal"}, "thresholds")
    tau_low = th_raw.get("tau_low")
    tau_high = th_raw.get("tau_high")
    if (tau_low is None) != (tau_high is None):
        raise InputError("threshold overrides must set both tau_low and tau_high or neither")
    thresholds = ThresholdOverrides(
        tau_low=None if tau_low is None else float(tau_low),
        tau_high=None if tau_high is None else float(tau_high),
        round_to_decimal=bool(th_raw.get("round_to_decimal", False)),
    )

    cfg = ExperimentConfig(
        env_id=str(raw.get("env_id", defaults.env_id)),
        onset_t=int(raw.get("onset_t", defaults.onset_t)),
        horizon=int(raw.get("horizon", defaults.horizon)),
        grid=grid,
        m_members=int(ens_raw.get("m_members", defaults.m_members)),
        t_pre=int(ens_raw.get("t_pre", defaults.t_pre)),
        clip_c=float(ens_raw.get("clip_c", defaults.clip_c)),
        c_tau=float(ens_raw.get("c_tau", defaults.c_tau)),
        train=train,
        policy=policy,
        adaptive=adaptive,
        thresholds=thresholds,
        probe_episodes=int(raw.get("probe_episodes", defaults.probe_episodes)),
        calibration_seed=int(raw.get("calibration_seed", defaults.calibration_seed)),
        output_dir=str(raw.get("output_dir", defaults.output_dir)),
    )
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
