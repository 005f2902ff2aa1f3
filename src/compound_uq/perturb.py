"""Observability and dynamics perturbations layered onto environments.

Three stressors, each independently switchable and all activating at a
shared onset step, are described by one ``ConditionSpec``:

- observation masking: a fixed fraction of observation dims, chosen by the
  environment's documented ``MASK_PRIORITY`` (``mask_dims_for_fraction``),
  is zeroed by ``apply_mask``;
- action delay: commanded actions reach the plant ``delay_steps`` steps
  late. The episode loop reads the executed action from the commanded
  ones its step table holds: from onset on, the one commanded
  ``delay_steps`` steps before, or the zero action while that step is
  still before onset;
- parameter shift: one dynamics parameter jumps to a new value at onset;
  the episode loop sets it on the plant once, at ``t == onset_t``.

Composition order when several are active in one step: the shift is
applied to the plant first, then the plant steps on the delayed action,
then the resulting observation is masked. Each stressor is
inactive for ``t < onset_t`` and active from ``t = onset_t`` onward, so
"post-onset" always means steps with ``t >= onset_t``.

``condition_matrix`` expands level lists into the full cross product of
condition cells. The default grid (``ExperimentConfig().grid``) is the
3 x 2 x 2 factorial over masking fraction {0, 0.25, 0.5}, delay {0, 1}
steps, and left-gain shift {off, 0.5}, replicated over 10 seeds: 120
cells. Cells are labeled C1 (no stressor), C2 (exactly one), C3 (two), or
C4 (all three).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .parsing import parse_fields

ONSET_T = 50

DEFAULT_PO_LEVELS: tuple[float, ...] = (0.0, 0.25, 0.5)
DEFAULT_DELAY_LEVELS: tuple[int, ...] = (0, 1)
DEFAULT_SHIFT_LEVELS: tuple[tuple[str, float] | None, ...] = (None, ("gain_left", 0.5))
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(10))


def mask_dims_for_fraction(env_cls, fraction: float) -> tuple[int, ...]:
    """Resolve a masking fraction to concrete observation dims.

    The count is round-half-up of ``fraction * d_total``; dims are taken
    from the front of the environment's ``MASK_PRIORITY``. The realized
    fraction ``len(dims) / d_total`` is what downstream deficit formulas
    should use, since it is what the agent actually loses.
    """
    if not (0.0 <= fraction <= 1.0) or not math.isfinite(fraction):
        raise InputError(f"mask fraction must be in [0, 1], got {fraction}")
    d = len(env_cls.OBS_NAMES)
    k = int(math.floor(fraction * d + 0.5))
    return tuple(env_cls.MASK_PRIORITY[:k])


def apply_mask(obs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Return a copy of the stacked observations ``obs`` with the entries that
    ``mask`` marks set to 0.0.

    ``mask`` is boolean with the shape of ``obs``: one row per observation,
    usually a cell's masked dims (``mask_dims_for_fraction``) ANDed with
    whether its stressors are active. Always copies, so callers may mutate
    the result without aliasing the environment's buffers.
    """
    obs, mask = np.asarray(obs, dtype=float), np.asarray(mask)
    if mask.dtype != bool or mask.shape != obs.shape:
        raise InputError(f"mask must be boolean with the observations' shape {obs.shape}, got {mask.dtype} {mask.shape}")
    return np.where(mask, 0.0, obs)


def shift_tag(shift: tuple[str, float] | None) -> str:
    """``none`` or ``param=value``, as cell and record ids spell a shift."""
    return "none" if shift is None else f"{shift[0]}={shift[1]:g}"


@dataclass(frozen=True)
class ConditionSpec:
    """One experimental condition: which stressors are on and how hard.

    Environment-agnostic; masking dims are resolved against a concrete
    environment class via ``mask_dims_for_fraction``.
    """

    po_fraction: float = 0.0
    delay_steps: int = 0
    shift: tuple[str, float] | None = None
    onset_t: int = ONSET_T

    def __post_init__(self):
        if not (0.0 <= self.po_fraction <= 1.0):
            raise InputError(f"po_fraction must be in [0, 1], got {self.po_fraction}")
        if self.delay_steps < 0 or int(self.delay_steps) != self.delay_steps:
            raise InputError(f"delay_steps must be a nonnegative integer, got {self.delay_steps}")
        if self.onset_t < 0:
            raise InputError(f"onset_t must be nonnegative, got {self.onset_t}")
        if self.shift is not None:
            param, value = self.shift
            if not isinstance(param, str) or not math.isfinite(float(value)):
                raise InputError(f"shift must be (param_name, finite value), got {self.shift}")

    @property
    def n_active(self) -> int:
        return int(self.po_fraction > 0) + int(self.delay_steps > 0) + int(self.shift is not None)

    @property
    def label(self) -> str:
        return ("C1", "C2", "C3", "C4")[self.n_active]

    def cell_id(self, seed: int) -> str:
        shift = shift_tag(self.shift)
        return f"po{self.po_fraction:g}_delay{self.delay_steps}_shift-{shift}_seed{seed}"

    def to_dict(self) -> dict:
        return {
            "po_fraction": float(self.po_fraction),
            "delay_steps": int(self.delay_steps),
            "shift": None if self.shift is None else [self.shift[0], float(self.shift[1])],
            "onset_t": int(self.onset_t),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d) -> "ConditionSpec":
        return parse_fields(cls, d, "condition")


def condition_matrix(
    po_levels,
    delay_levels,
    shift_levels,
    seeds,
    onset_t: int = ONSET_T,
) -> list[tuple[ConditionSpec, int]]:
    """Cross product of stressor levels and seeds, in documented order.

    Iteration order is (po, delay, shift, seed) with the seed axis
    innermost, so cell lists and output filenames are stable across runs.
    A level that repeats on an axis (``-0.0`` repeats ``0.0``) is refused,
    and so are two that print alike in ``cell_id`` (which formats with
    ``:g``): either way two cells would share one trace file or one record.
    """
    for name, levels in (("po_levels", po_levels), ("delay_levels", delay_levels), ("shift_levels", shift_levels), ("seeds", seeds)):
        if len(list(levels)) == 0:
            raise InputError(f"{name} must be nonempty")
    cells: list[tuple[ConditionSpec, int]] = []
    seen: set = set()  # cell ids and (po, delay, shift, seed) levels
    for po, delay, shift, seed in itertools.product(po_levels, delay_levels, shift_levels, seeds):
        spec = ConditionSpec(po_fraction=float(po), delay_steps=int(delay), shift=shift, onset_t=onset_t)
        keys = {spec.cell_id(int(seed)), (spec.po_fraction, spec.delay_steps, spec.shift, int(seed))}
        if keys & seen:
            raise InputError(f"grid levels repeat: cell {spec.cell_id(int(seed))} repeats an earlier cell")
        seen |= keys
        cells.append((spec, int(seed)))
    return cells

