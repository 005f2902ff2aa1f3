"""Compound uncertainty coefficient: components, regimes, calibration.

The coefficient kappa is an online proxy for how entangled the agent's
state and dynamics uncertainty have become. It is the sum of two
normalized deficits:

- ``sigma_theta``: the ensemble's one-step prediction error expressed as a
  z-score against the calibrated noise floor, clipped to [0, C] and
  rescaled to [0, 1]. Zero means "no worse than calibration", one means
  "at or beyond C baseline deviations".
- ``sigma_s``: the observability deficit. With masked fraction ``po`` and
  action delay ``tau`` steps it is

      sigma_s = po + min(1, tau * c_tau) * (1 + po)

  The multiplicative cross-term makes a delay hurt more when the agent is
  also partially blind; the value ranges over [0, 3], reaching the top
  only when everything is masked and the delay term saturates.

Regime boundaries are inclusive on the Transition side: kappa equal to a
threshold is Transition, not the neighboring regime.

Each formula also works entry by entry on arrays, so a lock-step batch
scores every cell's step with one call of each; ``compute_step`` puts
them together for one step. A regime code is a position in ``REGIMES``:
``REGIMES[regime_code(k, thresholds)]`` is the ``Regime`` of one value.

Threshold calibration follows a three-step recipe on post-onset kappa
samples from probe runs: anchor tau_low just above the no-stressor
distribution (nearest-rank 95th percentile plus a margin), then place
tau_high halfway between the strongest single-stressor mean and the
compound mean. A non-positive gap between the two is a calibration error,
not something to silently clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CalibrationError, InputError

CLIP_C = 5.0
C_TAU = 0.3
MARGIN_FLOOR = 0.05
MARGIN_RANGE_FRACTION = 0.05


class Regime(str, Enum):
    LOW = "LowDeficit"
    TRANSITION = "Transition"
    HIGH = "HighDeficit"


@dataclass(frozen=True)
class Thresholds:
    tau_low: float
    tau_high: float

    def __post_init__(self):
        if not (math.isfinite(self.tau_low) and math.isfinite(self.tau_high)):
            raise InputError("thresholds must be finite")
        if self.tau_low < 0 or self.tau_high <= self.tau_low:
            raise InputError(
                f"need 0 <= tau_low < tau_high, got ({self.tau_low}, {self.tau_high})"
            )


DEFAULT_THRESHOLDS = Thresholds(tau_low=0.2, tau_high=0.5)


@dataclass(frozen=True)
class KappaComponents:
    """Per-step deficit record carried through traces and analysis."""

    t: int
    mse: float
    sigma_theta: float
    sigma_s: float
    kappa: float
    regime: Regime


# The code order of the regimes: a regime code is a position in this tuple.
REGIMES = tuple(Regime)


def sigma_theta(mse, mu0: float, sigma0: float, clip_c: float = CLIP_C):
    """Normalized, clipped z-score of ensemble error against the noise floor, entry by entry for an array ``mse``."""
    if sigma0 <= 0 or not math.isfinite(sigma0):
        raise InputError(f"sigma0 must be positive and finite, got {sigma0}")
    if clip_c <= 0:
        raise InputError(f"clip_c must be positive, got {clip_c}")
    mse = np.asarray(mse, dtype=float)
    if not (np.isfinite(mse) & (mse >= 0.0)).all():
        raise InputError(f"mse must be finite and nonnegative, got {mse}")
    z = (mse - mu0) / sigma0
    # min(max(z, 0), clip_c), which is np.clip bit for bit, both zeros included;
    # a NaN z (from a NaN mu0) passes through to kappa()'s refusal
    z = np.where(z < 0.0, 0.0, z)
    return (np.where(z > clip_c, clip_c, z) / clip_c)[()]


def sigma_s(po, delay_steps, c_tau: float = C_TAU):
    """Observability deficit from masking fraction and action delay, entry by entry for arrays."""
    po = np.asarray(po, dtype=float)
    delay_steps = np.asarray(delay_steps, dtype=float)
    if not ((po >= 0.0) & (po <= 1.0)).all():
        raise InputError(f"po must be in [0, 1], got {po}")
    if not ((delay_steps >= 0.0) & np.isfinite(delay_steps)).all():
        raise InputError(f"delay_steps must be nonnegative, got {delay_steps}")
    if c_tau < 0 or not math.isfinite(c_tau):
        raise InputError(f"c_tau must be nonnegative, got {c_tau}")
    delay_term = delay_steps * c_tau
    delay_term = np.where(delay_term < 1.0, delay_term, 1.0)  # min(1, tau * c_tau)
    return (po + delay_term * (1.0 + po))[()]


def kappa(sig_theta, sig_s):
    """Compound uncertainty coefficient: the sum of the two deficits, entry by entry for arrays."""
    sig_theta, sig_s = np.asarray(sig_theta, dtype=float), np.asarray(sig_s, dtype=float)
    total = sig_theta + sig_s
    # the sum of two nonnegative deficits is finite exactly when both are; NaN fails the >= 0
    if not ((np.minimum(sig_theta, sig_s) >= 0.0) & np.isfinite(total)).all():
        raise InputError(f"deficit components must be finite and nonnegative, got ({sig_theta}, {sig_s})")
    return total[()]


def regime_code(value, thresholds: Thresholds):
    """The position in ``REGIMES`` of kappa's regime, entry by entry for an array;
    threshold values themselves are Transition."""
    value = np.asarray(value, dtype=float)
    if not (np.isfinite(value) & (value >= 0.0)).all():
        raise InputError(f"kappa must be finite and nonnegative, got {value}")
    # LOW below tau_low, TRANSITION from tau_low to tau_high, HIGH above (tau_high > tau_low)
    return ((value >= thresholds.tau_low).astype(np.int8) + (value > thresholds.tau_high))[()]


def compute_step(
    t: int,
    mse: float,
    mu0: float,
    sigma0: float,
    po: float,
    delay_steps: float,
    thresholds: Thresholds,
    clip_c: float = CLIP_C,
    c_tau: float = C_TAU,
) -> KappaComponents:
    """Assemble one per-step kappa record from raw ingredients."""
    st = sigma_theta(mse, mu0, sigma0, clip_c)
    ss = sigma_s(po, delay_steps, c_tau)
    k = kappa(st, ss)
    return KappaComponents(t=t, mse=float(mse), sigma_theta=float(st), sigma_s=float(ss), kappa=float(k), regime=REGIMES[regime_code(k, thresholds)])


def nearest_rank_percentile(values, q: float) -> float:
    """Nearest-rank percentile: smallest element with at least q coverage."""
    arr = sorted(float(v) for v in values)
    if not arr:
        raise InputError("percentile of an empty collection")
    if not (0.0 < q <= 100.0):
        raise InputError(f"q must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(arr)))
    return arr[rank - 1]


def calibrate_thresholds(
    baseline_kappas,
    single_stressor_kappas: dict,
    compound_kappas,
    round_to_decimal: bool = False,
) -> Thresholds:
    """Derive (tau_low, tau_high) from post-onset probe kappa samples.

    ``baseline_kappas``: per-step kappa under no stressor.
    ``single_stressor_kappas``: mapping from stressor name to per-step
    kappa samples with only that stressor active.
    ``compound_kappas``: per-step kappa with all stressors active.

    tau_low anchors just above the baseline: its nearest-rank 95th
    percentile plus a margin of max(0.05, 5% of the full observed kappa
    range). tau_high is the midpoint between the largest single-stressor
    mean and the compound mean. Raises CalibrationError when the inputs do
    not leave a positive gap, which usually means the probes were too
    short or the stressors too weak to separate.
    """
    baseline = [float(v) for v in baseline_kappas]
    compound = [float(v) for v in compound_kappas]
    if not baseline or not compound:
        raise CalibrationError("baseline and compound probe samples must be nonempty")
    if not single_stressor_kappas or any(len(list(v)) == 0 for v in single_stressor_kappas.values()):
        raise CalibrationError("each single-stressor probe must contribute samples")

    singles = {k: [float(x) for x in v] for k, v in single_stressor_kappas.items()}
    all_values = baseline + compound + [x for v in singles.values() for x in v]
    spread = max(all_values) - min(all_values)
    margin = max(MARGIN_FLOOR, MARGIN_RANGE_FRACTION * spread)
    tau_low = nearest_rank_percentile(baseline, 95.0) + margin

    max_single_mean = max(float(np.mean(v)) for v in singles.values())
    compound_mean = float(np.mean(compound))
    tau_high = 0.5 * (max_single_mean + compound_mean)

    if round_to_decimal:
        tau_low = round(tau_low, 1)
        tau_high = round(tau_high, 1)

    if tau_high <= tau_low:
        raise CalibrationError(
            f"threshold gap is not positive (tau_low={tau_low:.4f}, tau_high={tau_high:.4f}); "
            "probes do not separate single-stressor from compound conditions"
        )
    return Thresholds(tau_low=float(tau_low), tau_high=float(tau_high))
