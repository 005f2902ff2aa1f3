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
from dataclasses import asdict, dataclass, field

from .ensemble import TrainSettings
from .envs import env_class
from .errors import InputError
from .kappa import C_TAU, CLIP_C, Thresholds
from .parsing import parse_fields, parse_key, refuse_unknown
from .perturb import (
    DEFAULT_DELAY_LEVELS,
    DEFAULT_PO_LEVELS,
    DEFAULT_SEEDS,
    DEFAULT_SHIFT_LEVELS,
    ONSET_T,
    condition_matrix,
)
from .policy import PolicySettings
from .snapshot import open_input

CONFIG_SCHEMA_VERSION = 1

# ExperimentConfig fields that the document keeps in its "ensemble"
# section, beside the TrainSettings fields.
_ENSEMBLE_FIELDS = ("m_members", "t_pre", "clip_c", "c_tau")


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

    def __post_init__(self):
        if self.every < 1:
            raise InputError(f"adaptive.every must be at least 1, got {self.every}")
        if self.window < 0 or self.epochs < 0:
            raise InputError("adaptive.window and adaptive.epochs must be nonnegative")


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
        grid = self.grid
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "env_id": self.env_id,
            "onset_t": self.onset_t,
            "horizon": self.horizon,
            "grid": {
                "po_levels": [float(v) for v in grid.po_levels],
                "delay_levels": [int(v) for v in grid.delay_levels],
                "shift_levels": [None if s is None else [s[0], float(s[1])] for s in grid.shift_levels],
                "seeds": [int(v) for v in grid.seeds],
            },
            "ensemble": {**{k: getattr(self, k) for k in _ENSEMBLE_FIELDS}, **asdict(self.train)},
            "policy": asdict(self.policy),
            "adaptive": asdict(self.adaptive),
            "thresholds": asdict(self.thresholds),
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
    refuse_unknown(doc, schema, "config", where)
    merged = {}
    for key, default in schema.items():
        value = doc.get(key, default)
        merged[key] = _merge(value, default, key) if isinstance(default, dict) else value
    return merged


def _build(d: dict) -> ExperimentConfig:
    if parse_key(d, "schema_version", "int", "config") != CONFIG_SCHEMA_VERSION:
        raise InputError(f"unsupported config schema_version {d['schema_version']}")
    th = d["thresholds"]
    if (th["tau_low"] is None) != (th["tau_high"] is None):
        raise InputError("threshold overrides must set both tau_low and tau_high or neither")
    return parse_fields(
        ExperimentConfig,
        {**d, **d["ensemble"]},  # the root fields of _ENSEMBLE_FIELDS live there
        "config",
        grid=parse_fields(GridSpec, d["grid"], "config", "grid."),
        train=parse_fields(TrainSettings, d["ensemble"], "config", "ensemble."),
        policy=parse_fields(PolicySettings, d["policy"], "config", "policy."),
        adaptive=parse_fields(AdaptiveSettings, d["adaptive"], "config", "adaptive."),
        thresholds=parse_fields(ThresholdOverrides, th, "config", "thresholds."),
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON document.

    The default config's ``to_dict()`` is the schema: its keys are the
    only ones allowed at the root and in each section, and its values
    fill in every key the document leaves out. Each field is parsed by its
    dataclass annotation through the shared parser in ``parsing``, whose
    docstring gives the values each type takes.
    """
    cfg = _build(_merge(raw, ExperimentConfig().to_dict(), "config root"))
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    env_cls = env_class(cfg.env_id)
    if cfg.horizon <= cfg.onset_t + 1:
        raise InputError(f"horizon {cfg.horizon} must exceed onset_t + 1 = {cfg.onset_t + 1}")
    if cfg.m_members < 2:
        raise InputError("ensemble needs at least 2 members")
    if cfg.t_pre < 1:
        raise InputError("t_pre must be positive")
    if cfg.probe_episodes < 1:
        raise InputError("probe_episodes must be positive")
    if cfg.clip_c <= 0 or cfg.c_tau < 0:
        raise InputError(f"clip_c must be positive and c_tau nonnegative, got {cfg.clip_c} and {cfg.c_tau}")
    if min((cfg.calibration_seed, *cfg.grid.seeds)) < 0:
        raise InputError(
            f"seeds must be nonnegative, got calibration_seed {cfg.calibration_seed} and grid.seeds {list(cfg.grid.seeds)}"
        )
    for shift in cfg.grid.shift_levels:
        if shift is not None:
            env_cls.check_param(*shift)
    grid = cfg.grid
    condition_matrix(grid.po_levels, grid.delay_levels, grid.shift_levels, grid.seeds, onset_t=cfg.onset_t)
    if cfg.thresholds.tau_low is not None:
        Thresholds(tau_low=cfg.thresholds.tau_low, tau_high=cfg.thresholds.tau_high)


def load_config(path: str) -> ExperimentConfig:
    with open_input(path, "config") as fh:
        return config_from_dict(json.load(fh))
