"""The benchmark's span tracer must find every layer it wraps.

``perfbench/tracing.py`` swaps toolkit functions and class methods for
wrappers by name. A renamed or moved target would otherwise break only a
traced benchmark run, so this test loads the package the way the
benchmark does, enters ``instrument``, checks that every target was
swapped, and drives one calibration, three episodes and one 4-cell sweep
through the wrappers. Each episode must pass every control step through
the wrapped entry points: a loop that called a private shortcut instead
would read zero or half of the benchmark's per-layer counts, so the
per-episode counts are checked exactly. The sweep's cells step in lock
step, so it must make one forward pass, one realized-risk call and one
masking call per control step, and its cells share one seed and onset, so
one of them steps alone until the step before onset. The episode loop
selects with the batched ``select_actions`` and scores kappa with the
array forms of the kappa formulas, so the spans of ``select_action`` and
``compute_step``, the one-cell forms, read exactly zero there; one direct
call of each checks that their wrappers still record.
"""

import os
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Spans one calibration, one adaptive episode and one trace round trip
# must record; the analysis, belief and CLI layers are not on that path.
EPISODE_SPANS = (
    "rollout.episode",
    "rollout.baseline_buffer",
    "rollout.trace_write",
    "rollout.trace_read",
    "ensemble.forward",
    "ensemble.mse",
    "ensemble.sgd",
    "ensemble.train",
    "ensemble.noise_floor",
    "envs.step",
    "envs.risk",
    "policy.candidates",
    "perturb.mask",
    "config.hash",
)


def test_every_tracing_target_resolves(tmp_path):
    cq = workloads.load_toolkit(os.path.join(ROOT, "src"))
    cfg = cq.package.config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 40,
            "onset_t": 10,
            "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 2},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    functions = tracing._function_targets(cq)
    methods = tracing._method_targets(cq)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, cq):
        for fn, name, _, _ in functions:
            assert getattr(sys.modules[fn.__module__], fn.__name__).__wrapped__ is fn, name
        for cls, attr, name, _ in methods:
            assert hasattr(getattr(cls, attr), "__wrapped__"), f"{cls.__name__}.{attr} ({name})"
        snapshot = cq.package.calibrate(cfg)
        cond = cq.package.ConditionSpec(delay_steps=1, onset_t=cfg.onset_t)
        for mode, adaptive_enabled in (("monitor", False), ("adaptive", False), ("adaptive", True)):
            calls, counts = Counter(tracer.calls), Counter(tracer.counts)
            result = cq.package.run_condition(cfg, snapshot, cond, 0, policy_mode=mode, adaptive_enabled=adaptive_enabled)
            calls, counts = Counter(tracer.calls) - calls, Counter(tracer.counts) - counts
            # an adapting episode also collects its anchor buffer: t_pre more env steps, which score no risk
            buffer_steps = cfg.t_pre if adaptive_enabled else 0
            expected = {
                "rollout.episode": 1,
                "ensemble.forward": cfg.horizon,
                "policy.candidates": cfg.horizon,
                "policy.select": 0,
                "kappa.step": 0,
                "envs.step": cfg.horizon + buffer_steps,
                "envs.risk": 2 * cfg.horizon,  # the candidates' and the realized risk
                "perturb.mask": cfg.horizon + 1,  # the first observation and each next one
            }
            assert {name: calls[name] for name in expected} == expected, (mode, adaptive_enabled)
            if mode == "monitor":  # the task and zero rows only
                assert counts["ensemble.forward.rows"] == 2 * cfg.horizon
        # A sweep steps its seed's cells together: one forward pass per control
        # step over every stepping cell's rows. Its 4 cells share seed 0 and
        # onset 10, so the first steps 0 ... 8 alone and each cell steps 9 ... 39.
        calls, counts = Counter(tracer.calls), Counter(tracer.counts)
        outcome = cq.package.run_sweep(cfg, snapshot)
        calls, counts = Counter(tracer.calls) - calls, Counter(tracer.counts) - counts
        n_cells = len(outcome.cell_summaries)
        cell_steps = (cfg.onset_t - 1) + n_cells * (cfg.horizon - cfg.onset_t + 1)
        expected = {
            "rollout.sweep": 1,
            "ensemble.forward": cfg.horizon,
            "policy.candidates": cell_steps,
            "policy.select": 0,
            "kappa.step": 0,
            "envs.step": cell_steps,
            "envs.risk": 2 * cfg.horizon,  # the stacked candidates' and the stacked realized risk
            "perturb.mask": cfg.horizon + 1,  # the stacked first observations and each step's next ones
            "config.hash": 1,
        }
        assert n_cells == 4 and {name: calls[name] for name in expected} == expected
        assert calls["rollout.episode"] == 0
        assert counts["ensemble.forward.rows"] == 2 * cell_steps  # monitor: task and zero rows
        # the one-cell forms, called directly, still record through their wrappers
        alpha, delta, _ = cq.policy.schedule([0.0], snapshot.thresholds, cfg.policy)
        cq.policy.select_action(np.eye(2), np.zeros(2), np.zeros(2), np.array([1.0, 2.0]), float(alpha[0]), float(delta[0]), cfg.policy)
        cq.kappa.compute_step(0, 0.0, snapshot.mu0, snapshot.sigma0, 0.0, 0, snapshot.thresholds)
        assert (tracer.calls["policy.select"], tracer.calls["kappa.step"], tracer.counts["policy.select.forced"]) == (1, 1, 1)
        path = str(tmp_path / f"trace_{result.cell_id}.jsonl")
        cq.rollout.write_trace(path, result)
        cq.rollout.read_trace(path)
    assert [name for name in EPISODE_SPANS if tracer.calls[name] == 0] == []
    for fn, _, _, _ in functions:
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn
    for cls, attr, _, _ in methods:
        assert not hasattr(getattr(cls, attr), "__wrapped__")
