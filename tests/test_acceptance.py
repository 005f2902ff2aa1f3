"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each test prints exactly one bracketed PASS/FAIL line with the measured
numbers (written through the capture so it shows up in a plain pytest
run), then asserts. The expensive fixtures, one calibrated snapshot per
environment, one full 120-cell sweep and one 36-cell adaptive grid, are
session-scoped and shared across tests.
"""

import json
import math
import time

import numpy as np
import pytest
from helpers import build_eval_rows, trace_steps
from scipy.special import stdtrit

from compound_uq import policy
from compound_uq.analysis import degradation, superadditive_rate
from compound_uq.belief import coupling_family, exact_mi, random_bound_checks
from compound_uq.config import config_from_dict
from compound_uq.ensemble import input_rows
from compound_uq.kappa import REGIMES, Regime, regime_code, sigma_s, sigma_theta
from compound_uq.perturb import ConditionSpec, condition_matrix
from compound_uq.rollout import RISK_TOL, calibrate, read_trace, run_cells, run_condition, run_header, run_sweep

EXACT = 1e-12
BOUND_TOL = 1e-9


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def _budget_recount(trace_dir, horizon):
    """Recount risk-budget breaches from the step lines of every trace.

    Returns the number of traces, the traces whose step count is not
    ``horizon``, the number of steps that had a compliant candidate, and
    (trace, t) for each of those steps where the chosen action's predicted
    risk exceeds its budget.
    """
    paths = sorted(trace_dir.glob("trace_*.jsonl"))
    short, breaches, checked = [], [], 0
    for path in paths:
        steps = [r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "step"]
        if len(steps) != horizon:
            short.append(path.name)
        for s in steps:
            if s["any_compliant"]:
                checked += 1
                if s["predicted_risk"] > s["delta_budget"] + RISK_TOL:
                    breaches.append((path.name, s["t"]))
    return len(paths), short, checked, breaches


@pytest.fixture(scope="session")
def driftbot():
    cfg = config_from_dict(
        {
            "env_id": "DriftBot",
            "horizon": 220,
            "onset_t": 50,
            "ensemble": {"t_pre": 300, "m_members": 5},
        }
    )
    return cfg, calibrate(cfg)


@pytest.fixture(scope="session")
def driftbot_sweep(driftbot, tmp_path_factory):
    cfg, snap = driftbot
    trace_dir = tmp_path_factory.mktemp("driftbot_sweep")
    t0 = time.perf_counter()
    outcome = run_sweep(cfg, snap, out_dir=str(trace_dir))
    return outcome, time.perf_counter() - t0, trace_dir


ADAPTIVE_SEEDS = (0, 1, 2)
# criterion 15: the scheduled run's post-onset risk mass must be below this share of the pinned run's
SCHEDULED_RISK_RATIO = 0.9
# and the pinned run's must reach this floor in every seed, so that a grid that barely enters the
# risk zone fails by name instead of passing on a ratio of near-zero masses (the lowest seed reads 8.98)
PINNED_RISK_MASS_FLOOR = 5.0


def _adaptive_grid(cfg, snap) -> dict:
    """The acceptance grid in adaptive mode on ``ADAPTIVE_SEEDS``, one ``run_cells`` batch per seed: results by seed."""
    run, g = run_header(cfg, snap, "adaptive"), cfg.grid
    return {
        seed: run_cells(cfg, snap, run, condition_matrix(g.po_levels, g.delay_levels, g.shift_levels, [seed], onset_t=cfg.onset_t))
        for seed in ADAPTIVE_SEEDS
    }


@pytest.fixture(scope="session")
def driftbot_adaptive(driftbot):
    """The adaptive grid with the kappa-scheduled risk budget, shared by criteria 13 and 15."""
    return _adaptive_grid(*driftbot)


@pytest.fixture(scope="session")
def oscillator():
    cfg = config_from_dict(
        {
            "env_id": "MassSpring1D",
            "horizon": 220,
            "onset_t": 50,
            "grid": {
                "po_levels": [0.0, 0.5],
                "delay_levels": [0, 1],
                "shift_levels": [None, ["stiffness", 3.0]],
                "seeds": list(range(10)),
            },
            "ensemble": {"t_pre": 300, "m_members": 5},
            "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
        }
    )
    return cfg, calibrate(cfg)


def test_deficit_formula_hand_values(capsys):
    s_struct = sigma_s(0.5, 1, c_tau=0.3)
    mu0, sig0 = 0.02, 0.005
    s_theta = sigma_theta(mu0 + 5.0 * sig0, mu0, sig0)
    ramp = np.array([np.full((1, 4), float(t * t)) for t in (5, 6, 7)])
    acc = input_rows(ramp, np.zeros(1))[0, 4:8]
    errs = (
        abs(s_struct - 0.95),
        abs(s_theta - 1.0),
        float(np.abs(acc - 2.0).max()),
    )
    ok = max(errs) <= EXACT
    _report(
        capsys,
        1,
        ok,
        f"sigma_s(0.5,1,0.3)={s_struct!r}, sigma_theta(mu0+5sigma0)={s_theta!r}, "
        f"quadratic-ramp acc err={errs[2]:.1e} (tol {EXACT:g})",
    )
    assert ok


def test_information_bound_on_random_beliefs(capsys):
    t0 = time.perf_counter()
    checks = [check for _, _, check in random_bound_checks(0, 10_000)]
    violations = sum(c.mi > c.bound + BOUND_TOL for c in checks)
    worst_slack_dev = max(abs(c.slack - c.h_joint) for c in checks)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst_slack_dev <= BOUND_TOL and elapsed < 10.0
    _report(
        capsys,
        2,
        ok,
        f"10000 beliefs: violations={violations}, max |slack - H_joint|={worst_slack_dev:.2e}, "
        f"{elapsed:.1f}s (budget 10s)",
    )
    assert ok


def test_coupling_monotonicity(capsys):
    lams = np.linspace(0.0, 1.0, 101)
    inversions = 0
    for n in (2, 4, 8):
        mis = [exact_mi(coupling_family(float(lam), n)) for lam in lams]
        inversions += sum(1 for a, b in zip(mis, mis[1:]) if b < a - EXACT)
    ok = inversions == 0
    _report(capsys, 3, ok, f"mutual information across 101-point grids (n=2,4,8): inversions={inversions}")
    assert ok


def test_kappa_ordering_across_stressor_counts(driftbot, driftbot_sweep, capsys):
    cfg, _ = driftbot
    outcome, elapsed, _ = driftbot_sweep
    k = outcome.kappa_by_label
    ordered = k["C1"] < k["C2"] < k["C3"] < k["C4"]
    ok = ordered and len(cfg.grid.seeds) >= 10 and elapsed < 120.0
    _report(
        capsys,
        4,
        ok,
        f"seed-averaged post-onset kappa {k['C1']:.4f} < {k['C2']:.4f} < {k['C3']:.4f} < {k['C4']:.4f} "
        f"({len(cfg.grid.seeds)} seeds, sweep {elapsed:.1f}s, budget 120s)",
    )
    assert ok


def test_delay_detectability_on_oscillator(oscillator, capsys):
    cfg, snap = oscillator
    bar = snap.mu0 + 2.0 * snap.sigma0
    cond = ConditionSpec(delay_steps=1, onset_t=cfg.onset_t)
    hits = 0
    for seed in range(10):
        res = run_condition(cfg, snap, cond, seed=seed, policy_mode="monitor")
        hits += res.summary()["post_onset_mse_mean"] > bar
    ok = hits >= 9
    _report(
        capsys,
        5,
        ok,
        f"1-step delay drives post-onset model error above mu0+2sigma0={bar:.2e} in {hits}/10 seeds (need >=9)",
    )
    assert ok


def test_threshold_placement_classifies_regimes(driftbot, driftbot_sweep, capsys):
    cfg, snap = driftbot
    outcome, _, _ = driftbot_sweep
    k = outcome.kappa_by_label
    benign = (Regime.LOW, Regime.TRANSITION)
    r1 = REGIMES[regime_code(k["C1"], snap.thresholds)]
    r2 = REGIMES[regime_code(k["C2"], snap.thresholds)]
    ok = r1 in benign and r2 in benign and k["C4"] > k["C3"] and len(cfg.grid.seeds) >= 10
    _report(
        capsys,
        6,
        ok,
        f"C1 -> {r1.value}, C2 -> {r2.value} (neither HighDeficit); "
        f"C4 mean {k['C4']:.4f} > C3 mean {k['C3']:.4f}",
    )
    assert ok


def test_synergy_rate_recovery_and_worked_example(capsys):
    rng = np.random.default_rng(7)
    records = []
    for i in range(120):
        if i < 30:
            s = float(rng.normal(0.4, 0.05))
            records.append(degradation(f"p{i}", 1.0, 0.9, 0.9, 0.8 - s))
        else:
            records.append(degradation(f"a{i}", 1.0, 0.9, 0.9, 0.8))
    report = superadditive_rate(records)
    worked = degradation("worked", 1.0, 0.81, 0.73, 0.23)
    worked_errs = (
        abs(worked.delta_po - 0.19),
        abs(worked.delta_theta - 0.27),
        abs(worked.delta_compound - 0.77),
        abs(worked.synergy_frac - 0.31),
    )
    ok = (
        report.rate == 0.25
        and report.n_superadditive == 30
        and report.p_value is not None
        and report.p_value < 1e-3
        and max(worked_errs) <= EXACT
    )
    _report(
        capsys,
        7,
        ok,
        f"planted rate recovered {report.n_superadditive}/120={report.rate!r}, t-test p={report.p_value:.2e}; "
        f"worked-example deltas (0.19, 0.27, 0.77) -> synergy 0.31, max err={max(worked_errs):.1e}",
    )
    assert ok


def test_risk_budget_compliance_in_sweep(driftbot, driftbot_sweep, capsys):
    cfg, _ = driftbot
    outcome, _, trace_dir = driftbot_sweep
    n_traces, short, checked, breaches = _budget_recount(trace_dir, cfg.horizon)
    ok = n_traces == len(outcome.cell_summaries) and not short and checked > 0 and not breaches
    _report(
        capsys,
        8,
        ok,
        f"selected-action risk within delta(kappa) whenever a compliant candidate exists: "
        f"{len(breaches)} breaches recounted over {checked} compliant steps in {n_traces} traces "
        f"({len(short)} traces without {cfg.horizon} steps)",
    )
    assert ok


def test_budget_recount_reports_an_edited_breach(driftbot, driftbot_sweep, tmp_path):
    cfg, _ = driftbot
    _, _, trace_dir = driftbot_sweep
    source = sorted(trace_dir.glob("trace_*.jsonl"))[0]
    lines = source.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if json.loads(line).get("any_compliant"))
    step = json.loads(lines[i])
    step["predicted_risk"] = step["delta_budget"] + 1e-9
    lines[i] = json.dumps(step, sort_keys=True)
    (tmp_path / source.name).write_text("\n".join(lines) + "\n")
    assert _budget_recount(tmp_path, cfg.horizon)[3] == [(source.name, step["t"])]

    del lines[i]
    (tmp_path / source.name).write_text("\n".join(lines) + "\n")
    assert _budget_recount(tmp_path, cfg.horizon)[1] == [source.name]


def test_probing_speeds_dynamics_identification(capsys):
    cfg = config_from_dict(
        {
            "env_id": "DriftBot",
            "horizon": 150,
            "onset_t": 50,
            "ensemble": {"t_pre": 300, "m_members": 5},
        }
    )
    snap = calibrate(cfg)  # a snapshot binds one config; the acceptance snapshot's horizon differs
    cells = [(ConditionSpec(shift=("gain_left", 0.5), onset_t=cfg.onset_t), seed) for seed in range(10)]
    # one batch per policy mode: a cell's result does not depend on which cells share its batch
    probes, tasks = (run_cells(cfg, snap, run_header(cfg, snap, mode), cells, adaptive_enabled=True) for mode in ("adaptive", "monitor"))
    wins = 0
    for (_, seed), probe, task in zip(cells, probes, tasks):
        x_eval, y_eval = build_eval_rows("DriftBot", {"gain_left": 0.5}, seed=seed, n_rows=400, horizon=220)
        wins += probe.adaptive_ensemble.mse(x_eval, y_eval).mean() < task.adaptive_ensemble.mse(x_eval, y_eval).mean()
    ok = wins >= 8
    _report(
        capsys,
        9,
        ok,
        f"after 100 post-onset steps under a gain fault, probing beats the monitor policy (the task "
        f"action behind the kappa-scheduled risk budget) on shifted-dynamics error in {wins}/10 seeds (need >=8)",
    )
    assert ok


def test_sweep_byte_determinism(tmp_path_factory, capsys):
    cfg = config_from_dict(
        {
            "env_id": "DriftBot",
            "horizon": 220,
            "onset_t": 50,
            "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None], "seeds": [0]},
            "ensemble": {"t_pre": 300, "m_members": 5},
        }
    )
    snap = calibrate(cfg)  # a snapshot binds one config; the acceptance snapshot's grid differs
    dir_a = tmp_path_factory.mktemp("det_a")
    dir_b = tmp_path_factory.mktemp("det_b")
    run_sweep(cfg, snap, out_dir=str(dir_a))
    run_sweep(cfg, snap, out_dir=str(dir_b))
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    identical = names_a == names_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes() for name in names_a
    )
    ok = identical and len(names_a) == 8  # 4 traces + 4 reports
    _report(
        capsys,
        10,
        ok,
        f"4-cell sweep run twice: {len(names_a)} output files byte-identical={identical}",
    )
    assert ok


def test_learned_deficit_rises_under_a_shift_alone(driftbot, driftbot_sweep, capsys):
    # sigma_theta is the only part of kappa that the model's error sets. With no
    # masking and no delay, a gain fault must raise it above the clean cell's.
    cfg, _ = driftbot
    _, _, trace_dir = driftbot_sweep
    mean_by_cell, at_clip = {}, {}
    for path in sorted(trace_dir.glob("trace_*.jsonl")):
        _, footer = read_trace(str(path))
        post = [s["sigma_theta"] for s in trace_steps(path) if s["t"] >= cfg.onset_t]
        cond = ConditionSpec.from_dict(footer["condition"])
        mean_by_cell[cond.po_fraction, cond.delay_steps, cond.shift, footer["seed"]] = float(np.mean(post))
        counts = at_clip.setdefault(footer["label"], [0, 0])
        counts[0] += sum(v == 1.0 for v in post)
        counts[1] += len(post)
    shift = next(s for s in cfg.grid.shift_levels if s is not None)
    shifted = [mean_by_cell[0.0, 0, shift, seed] for seed in cfg.grid.seeds]
    clean = [mean_by_cell[0.0, 0, None, seed] for seed in cfg.grid.seeds]
    wins = sum(a > b for a, b in zip(shifted, clean))
    ok = wins >= 9 and len(cfg.grid.seeds) >= 10
    clip = ", ".join(f"{label} {n / total:.1%}" for label, (n, total) in sorted(at_clip.items()))
    _report(
        capsys,
        11,
        ok,
        f"shift-only post-onset sigma_theta mean exceeds the clean cell's in {wins}/{len(clean)} seeds (need >=9): "
        f"{min(shifted):.4f}-{max(shifted):.4f} against <= {max(clean):.4f}; post-onset steps at the clip: {clip}",
    )
    assert ok


def test_superadditivity_holds_on_the_acceptance_sweep(driftbot_sweep, capsys):
    # The paper's headline on the sweep itself, not on synthetic records (criterion 7). Without
    # masking every delta_po is 0, the compound loss equals the dynamics-only loss, and this reads 0/60.
    # The third half can fail on its own: a one-sample t-test over every record's synergy, flagged or not.
    # Without masking every synergy is exactly 0, so its CI low is 0.
    outcome, _, _ = driftbot_sweep
    report = outcome.report
    synergy = np.array([r.synergy_frac for r in outcome.records])
    half_width = float(stdtrit(len(synergy) - 1, 0.975)) * float(synergy.std(ddof=1)) / math.sqrt(len(synergy))
    all_low, all_high = float(synergy.mean()) - half_width, float(synergy.mean()) + half_width
    ok = (
        report.n_configs == 60
        and report.n_superadditive >= 50
        and report.ci_low is not None
        and report.ci_low > 0
        and all_low > 0
    )
    ci_low = "none" if report.ci_low is None else f"{report.ci_low:.4f}"
    _report(
        capsys,
        12,
        ok,
        f"{report.n_superadditive}/{report.n_configs} matched quadruples super-additive (need >=50 of 60); "
        f"flagged-mean t-test 95% CI low {ci_low} (need > 0); all {len(synergy)} synergies: mean "
        f"{float(synergy.mean()):.4f}, 95% CI [{all_low:.4f}, {all_high:.4f}] (need low > 0)",
    )
    assert ok


# criterion 13: the fewest risky steps its share may rest on, so that a grid that barely enters
# the risk zone fails by name instead of passing on a handful of anticipated steps
RISKY_STEPS_FLOOR = 100


def test_predicted_risk_anticipates_realized_risk(driftbot_adaptive, capsys):
    # The risk model is what the budget filters on: where the plant turns out risky,
    # the chosen row's predicted risk must have said so.
    risky = anticipated = 0
    for results in driftbot_adaptive.values():
        for res in results:
            hit = res.steps.risk > 0.0
            risky += int(hit.sum())
            anticipated += int((res.steps.predicted_risk[hit] > 0.0).sum())
    ok = risky >= RISKY_STEPS_FLOOR and anticipated >= 0.9 * risky
    share = anticipated / risky if risky else 0.0
    n_cells = sum(map(len, driftbot_adaptive.values()))
    _report(
        capsys,
        13,
        ok,
        f"adaptive grid, seeds {list(driftbot_adaptive)} ({n_cells} cells): {risky} steps with realized risk > 0 "
        f"(need >={RISKY_STEPS_FLOOR}); the chosen row's predicted risk is > 0 on {anticipated}/{risky} of them "
        f"({share:.1%}, need >=90%)",
    )
    assert ok


def _post_onset_risk_mass(batches, onset_t) -> tuple[dict, dict]:
    """Realized risk summed over the steps from onset on: by seed, and by label over all seeds."""
    by_seed, by_label = {}, {}
    for seed, results in batches.items():
        for res in results:
            mass = float(res.steps.risk[onset_t:].sum())
            by_seed[seed] = by_seed.get(seed, 0.0) + mass
            by_label[res.condition.label] = by_label.get(res.condition.label, 0.0) + mass
    return by_seed, dict(sorted(by_label.items()))


def test_the_scheduled_budget_lowers_realized_risk(driftbot, driftbot_adaptive, monkeypatch, capsys):
    # The budget that tightens as kappa rises must do something: against the same grid with
    # delta pinned at delta_max (alpha and the spread still follow kappa), it lowers the
    # post-onset realized risk in every seed, below 0.9 of the pinned run's, whose mass must
    # reach PINNED_RISK_MASS_FLOOR for the ratio to mean anything. An inverted
    # ramp, never above delta_max, reads about 1.0 of pinned, so the margin tells the
    # ramp's direction.
    cfg, snap = driftbot
    scheduled = policy.schedule

    def pinned_schedule(kappas, thresholds, settings):
        alpha, delta, spread = scheduled(kappas, thresholds, settings)
        return alpha, np.full_like(delta, settings.delta_max), spread

    monkeypatch.setattr(policy, "schedule", pinned_schedule)
    pinned = _adaptive_grid(cfg, snap)
    seed_s, label_s = _post_onset_risk_mass(driftbot_adaptive, cfg.onset_t)
    seed_p, label_p = _post_onset_risk_mass(pinned, cfg.onset_t)
    ok = all(seed_p[seed] >= PINNED_RISK_MASS_FLOOR and seed_s[seed] < SCHEDULED_RISK_RATIO * seed_p[seed] for seed in ADAPTIVE_SEEDS)
    per_seed = ", ".join(f"seed {seed} {seed_s[seed]:.2f} / {seed_p[seed]:.2f}" for seed in ADAPTIVE_SEEDS)
    per_label = ", ".join(f"{label} {label_s[label]:.2f} / {label_p[label]:.2f}" for label in label_s)
    _report(
        capsys,
        15,
        ok,
        f"post-onset realized risk mass, kappa-scheduled budget against budget pinned at delta_max "
        f"(need below {SCHEDULED_RISK_RATIO} of pinned, and pinned >={PINNED_RISK_MASS_FLOOR}, in every seed): {per_seed}; "
        f"by label, scheduled / pinned: {per_label}",
    )
    assert ok
