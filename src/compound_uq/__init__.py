"""Compound uncertainty toolkit.

Online estimation of a compound uncertainty coefficient from bootstrapped
dynamics-ensemble error and observability metadata, a regime-adaptive
information-seeking policy under a tightening risk budget, and
super-additivity analysis of stressor combinations on two small,
fully seeded environments.
"""

from .analysis import (
    DegradationRecord,
    StratifiedRateResult,
    SynergyReport,
    degradation,
    stratified_rate_test,
    superadditive_rate,
)
from .belief import (
    BoundCheck,
    DiscreteJointBelief,
    coupling_family,
    exact_mi,
    joint_entropy,
    marginal_entropies,
    random_belief,
    verify_bound,
)
from .config import ExperimentConfig, GridSpec, config_from_dict, load_config
from .ensemble import (
    Ensemble,
    TrainSettings,
    adaptive_update,
    bootstrap_train,
    calibrate_noise_floor,
    disagreement,
)
from .envs import DriftBot, MassSpring1D
from .errors import (
    CalibrationError,
    CompoundUQError,
    InputError,
    InvariantViolation,
    LifecycleError,
)
from .kappa import (
    KappaComponents,
    Regime,
    Thresholds,
    calibrate_thresholds,
    compute_step,
    kappa,
    sigma_s,
    sigma_theta,
)
from .perturb import (
    ConditionSpec,
    apply_mask,
    condition_matrix,
    mask_dims_for_fraction,
)
from .policy import (
    ActionChoice,
    PolicySettings,
    candidate_actions,
    schedule,
    select_action,
    task_affinity,
)
from .rollout import (
    RolloutResult,
    SweepOutcome,
    calibrate,
    run_cells,
    run_condition,
    run_sweep,
)
from .snapshot import CalibrationSnapshot
from .version import TOOLKIT_VERSION

__version__ = TOOLKIT_VERSION
