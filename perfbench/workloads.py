"""The three benchmark workloads: configs, timed repeats and output checks.

Each workload goes through the toolkit's public entry points only
(``calibrate``, ``run_sweep``, ``cli.main``). A repeat returns a ``Rep``:
its wall time, the cells it attempted, the failures its output checks
found, and digests of its outputs that must be equal in every repeat.

A failure names the cell it belongs to, or ``None`` when it concerns the
whole grid (a raised sweep, a kappa ordering, a report that does not
reproduce); a whole-grid failure counts every cell of the repeat as
failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

WORKLOADS = ("monitor_sweep", "adaptive_probe", "analyze_traces")
SIMULATING = ("monitor_sweep", "adaptive_probe")

# The DriftBot acceptance config (horizon 220, onset 50, t_pre 300, M=5).
ACCEPTANCE = {"env_id": "DriftBot", "horizon": 220, "onset_t": 50, "ensemble": {"t_pre": 300, "m_members": 5}}
GAIN_FAULT = ["gain_left", 0.5]
# (po levels, delay levels, shift levels); the simulating workloads run
# one cell seed per stressor combination, analyze_traces the acceptance
# grid's ten.
LEVELS = {
    "monitor_sweep": ([0.0, 0.25, 0.5], [0, 1], [None, GAIN_FAULT]),
    "adaptive_probe": ([0.0, 0.5], [0, 1], [None, GAIN_FAULT]),
    "analyze_traces": ([0.0, 0.25, 0.5], [0, 1], [None, GAIN_FAULT]),
}
ACCEPTANCE_SEEDS = list(range(10))

REPORT_FILES = ("synergy_report.json", "degradation.csv")
RISK_TOL = 1e-12
ORACLE_SAMPLES = 10_000
MODULES = ("rollout", "cli", "policy", "analysis", "belief", "ensemble", "kappa", "perturb", "config", "snapshot", "envs")
EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_digests.json")


def workload_config(name: str, seed: int) -> dict:
    """Config document for a workload and workload seed.

    The simulating workloads run every stressor combination once, with
    cell seed ``seed``; seed 0 gives the acceptance grid's seed-0 cells.
    ``analyze_traces`` always reads the full 120-cell acceptance grid, so
    its tree can be checked against known digests; its seed goes to
    ``oracle-check``.
    """
    po, delay, shift = LEVELS[name]
    seeds = ACCEPTANCE_SEEDS if name == "analyze_traces" else [seed]
    grid = {"po_levels": po, "delay_levels": delay, "shift_levels": shift, "seeds": seeds}
    return {**ACCEPTANCE, "grid": grid}


def expected_digests(name: str) -> dict:
    """Checked-in output digests of the workload's reference inputs (seed 0)."""
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)["digests"][name]


def check_expected(name: str, digests: dict) -> list[str]:
    """Failures where ``digests`` differ from the checked-in ones."""
    if not expected_digests(name):
        return [f"no expected digests for {name} in {os.path.basename(EXPECTED_FILE)}"]
    return [
        f"{key} sha256 {digests.get(key)} differs from the expected {ref}"
        for key, ref in expected_digests(name).items()
        if digests.get(key) != ref
    ]


def load_toolkit(src: str) -> types.SimpleNamespace:
    """Import ``compound_uq`` from ``src`` and refuse any other copy."""
    if not os.path.isfile(os.path.join(src, "compound_uq", "__init__.py")):
        raise SystemExit(f"perfbench: no toolkit source at {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("compound_uq")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != os.path.abspath(src):
        raise SystemExit(f"perfbench: imported compound_uq from {package.__file__}, not from {src}")
    cq = types.SimpleNamespace(package=package, MODULES=MODULES)
    for name in MODULES:
        setattr(cq, name, importlib.import_module(f"compound_uq.{name}"))
    return cq


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    seconds: float
    cells: list[str]
    failures: list[tuple[str | None, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def failed_cells(self) -> int:
        if any(cell is None for cell, _ in self.failures):
            return len(self.cells)
        return len({cell for cell, _ in self.failures})


def cell_ids(cq, cfg) -> list[str]:
    g = cfg.grid
    return [c.cell_id(s) for c, s in cq.perturb.condition_matrix(g.po_levels, g.delay_levels, g.shift_levels, g.seeds)]


def compare_digests(reps: list[Rep]) -> None:
    """Each output digest must equal the first repeat's; a mismatch fails the repeat."""
    for rep in reps[1:]:
        for key, ref in reps[0].digests.items():
            if rep.digests.get(key) != ref:
                rep.failures.append((None, f"{key} sha256 {rep.digests.get(key)} differs from first repeat {ref}"))


# ---------------------------------------------------------------------------
# Checks on written traces


def trace_path(tree: str, cell: str) -> str:
    return os.path.join(tree, f"trace_{cell}.jsonl")


def recount_trace(path: str, horizon: int) -> list[str]:
    """Budget breaches and structural faults in one trace, parsed here.

    The recount reads the JSONL directly rather than trusting any count
    the toolkit writes: wherever ``any_compliant`` holds, the selected
    action's ``predicted_risk`` must be within ``delta_budget``.
    """
    problems = []
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as e:
        return [f"unreadable trace: {e}"]
    if not lines or lines[0].get("kind") != "header" or lines[-1].get("kind") != "footer":
        return ["trace lacks header or footer"]
    steps = lines[1:-1]
    if len(steps) != horizon:
        problems.append(f"{len(steps)} steps recorded, expected {horizon}")
    breaches = [
        s["t"] for s in steps if s["any_compliant"] and not s["predicted_risk"] <= s["delta_budget"] + RISK_TOL
    ]
    if breaches:
        problems.append(f"{len(breaches)} risk-budget breaches, first at t={breaches[0]}")
    return problems


def check_trace_tree(tree: str, cells: list[str], horizon: int) -> tuple[list, str]:
    """Recount every cell's trace; returns (failures, digest of all trace bytes)."""
    shas = {}
    failures = []
    for cell in cells:
        path = trace_path(tree, cell)
        if os.path.exists(path):
            shas[cell] = sha256_file(path)
        else:
            failures.append((cell, "trace file missing"))
    for cell in shas:
        failures.extend((cell, p) for p in recount_trace(trace_path(tree, cell), horizon))
    return failures, sha256_text(json.dumps(shas, sort_keys=True))


def kappa_ordering(kappa_by_label: dict) -> list:
    k = [kappa_by_label.get(label, math.nan) for label in ("C1", "C2", "C3", "C4")]
    if not (k[0] < k[1] < k[2] < k[3]):
        return [(None, f"kappa ordering C1<C2<C3<C4 fails: {k}")]
    return []


# ---------------------------------------------------------------------------
# Workloads


def monitor_rep(cq, cfg, snapshot, tree: str) -> Rep:
    """One monitor sweep into a fresh directory, then its checks."""
    cells = cell_ids(cq, cfg)
    t0 = perf_counter()
    try:
        outcome = cq.package.run_sweep(cfg, snapshot, out_dir=tree, policy_mode="monitor")
    except Exception as e:  # an episode that raised fails every cell of the repeat
        return Rep(perf_counter() - t0, cells, [(None, f"run_sweep raised {type(e).__name__}: {e}")])
    rep = Rep(perf_counter() - t0, cells)
    rep.failures += kappa_ordering(outcome.kappa_by_label)
    if len(outcome.cell_summaries) != len(cells):
        rep.failures.append((None, f"{len(outcome.cell_summaries)} cell summaries for {len(cells)} cells"))
    for name in REPORT_FILES:
        rep.digests[name] = sha256_file(os.path.join(tree, name))
    failures, rep.digests["traces"] = check_trace_tree(tree, cells, cfg.horizon)
    rep.failures += failures
    return rep


def adaptive_rep(cq, cfg, snapshot) -> Rep:
    """One adaptive sweep held in memory (no trace directory)."""
    cells = cell_ids(cq, cfg)
    t0 = perf_counter()
    try:
        outcome = cq.package.run_sweep(cfg, snapshot, policy_mode="adaptive")
    except Exception as e:  # an episode that raised fails every cell of the repeat
        return Rep(perf_counter() - t0, cells, [(None, f"run_sweep raised {type(e).__name__}: {e}")])
    rep = Rep(perf_counter() - t0, cells)
    got = [s["cell_id"] for s in outcome.cell_summaries]
    if got != cells:
        rep.failures.append((None, f"cell summaries {len(got)} do not match the grid's {len(cells)} cells"))
    for s in outcome.cell_summaries:
        if not all(math.isfinite(s[k]) for k in ("episode_return", "post_onset_kappa_mean", "peak_kappa")):
            rep.failures.append((s["cell_id"], "non-finite summary value"))
    rep.digests["cell_summaries"] = sha256_text(json.dumps(outcome.cell_summaries, sort_keys=True))
    rep.digests["synergy_report.json"] = sha256_text(outcome.report.to_json() + "\n")
    rep.digests["degradation_records"] = sha256_text(json.dumps([r.to_dict() for r in outcome.records], sort_keys=True))
    return rep


def tree_paths(work: str) -> dict:
    """Where the analyst commands find their config, snapshot and tree.

    The ``analyze --out`` report lies outside the tree.
    """
    names = {"config": "config.json", "snapshot": "calibration.json", "tree": "sweep", "report": "analyze_report.json"}
    return {key: os.path.join(work, name) for key, name in names.items()}


def prepare_tree(cq, cfg_doc: dict, work: str) -> dict:
    """Calibrate, save the snapshot and write a complete monitor sweep tree.

    Returns the paths the analyst commands take. Nothing here is timed.
    """
    os.makedirs(work, exist_ok=True)
    paths = tree_paths(work)
    with open(paths["config"], "w") as fh:
        json.dump(cfg_doc, fh, sort_keys=True)
    cfg = cq.package.config_from_dict(cfg_doc)
    snapshot = cq.package.calibrate(cfg)
    snapshot.save(paths["snapshot"])
    cq.package.run_sweep(cfg, snapshot, out_dir=paths["tree"], policy_mode="monitor")
    # flush the tree now, so that its write-back does not run during the timed repeats
    for name in os.listdir(paths["tree"]):
        fsync_path(os.path.join(paths["tree"], name))
    fsync_path(paths["tree"])
    return paths


def fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def tree_state(tree: str, cells: list[str]) -> dict:
    """(inode, mtime, size) of each cell's trace; a rewritten trace changes it."""
    state = {}
    for cell in cells:
        try:
            st = os.stat(trace_path(tree, cell))
        except FileNotFoundError:
            continue
        state[cell] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return state


class AnalyzeBaseline:
    """What the untimed tree holds before any analyst command runs."""

    def __init__(self, cq, paths: dict):
        with open(paths["config"]) as fh:
            cfg = cq.package.config_from_dict(json.load(fh))
        self.paths = paths
        self.cells = cell_ids(cq, cfg)
        self.state = tree_state(paths["tree"], self.cells)
        self.report_shas = {n: sha256_file(os.path.join(paths["tree"], n)) for n in REPORT_FILES}


ORACLE_LINE = re.compile(r"samples=(\d+) violations=(\d+) coupling_inversions=(\d+)")


def analyze_rep(cq, base: AnalyzeBaseline, seed: int, n_samples: int = ORACLE_SAMPLES) -> Rep:
    """Resume the sweep, re-analyze the tree and run the belief oracle via ``cli.main``."""
    p = base.paths
    commands = [
        ["sweep", "--config", p["config"], "--snapshot", p["snapshot"], "--out-dir", p["tree"]],
        ["analyze", "--config", p["config"], "--trace-dir", p["tree"], "--out", p["report"]],
        ["oracle-check", "--n-samples", str(n_samples), "--seed", str(seed)],
    ]
    # the commands must write these afresh; a stale copy would hide a missing write
    for path in [p["report"]] + [os.path.join(p["tree"], n) for n in REPORT_FILES]:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    codes = []
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in commands:
                codes.append(cq.cli.main(argv))
    except Exception as e:  # a command that raised fails every cell of the repeat
        return Rep(perf_counter() - t0, base.cells, [(None, f"cli.main raised {type(e).__name__}: {e}")])
    rep = Rep(perf_counter() - t0, base.cells)
    for argv, code in zip(commands, codes):
        if code != 0:
            rep.failures.append((None, f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"))
    after = tree_state(p["tree"], base.cells)
    for cell in base.cells:
        if cell not in base.state:
            rep.failures.append((cell, "no trace before resume; the cell was re-simulated"))
        elif after.get(cell) != base.state[cell]:
            rep.failures.append((cell, "trace rewritten on resume; the cell was re-simulated"))
    for name, ref in base.report_shas.items():
        path = os.path.join(p["tree"], name)
        got = sha256_file(path) if os.path.exists(path) else None
        rep.digests[name] = got
        if got != ref:
            rep.failures.append((None, f"{name} after resume sha256 {got} != {ref} before"))
    got = sha256_file(p["report"]) if os.path.exists(p["report"]) else None
    if got != base.report_shas["synergy_report.json"]:
        rep.failures.append((None, f"analyze --out report sha256 {got} != the sweep's synergy_report.json"))
    m = ORACLE_LINE.search(out.getvalue())
    if m is None or int(m.group(1)) != n_samples or m.group(2) != "0" or m.group(3) != "0":
        rep.failures.append((None, f"oracle-check did not report 0 violations and 0 inversions: {m and m.group(0)}"))
    return rep
