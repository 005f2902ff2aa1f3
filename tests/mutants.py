"""Semantic mutants of the toolkit, each run against the acceptance criteria.

Run from the root of a source checkout (it takes about 16 s per mutant):

    python tests/mutants.py

Each mutant is one exact string replacement in one file under ``src/``, and
it must match exactly once, so a refactor that moves the patched code stops
the runner instead of leaving it to test an unchanged copy;
``tests/test_mutants.py`` checks that in the normal test run. For each mutant
the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there and runs ``tests/test_acceptance.py``
on that copy. It runs the unmutated copy first, which must pass.

It prints one table row per mutant with the criteria that fail, then the
FAIL line of each. It exits non-zero when the unmutated copy fails, when a
replacement does not match exactly once, when pytest stops for another
reason than failed tests, when a mutant survives that is not listed as an
expected survivor with a reason, when a listed survivor is killed (the list
is then out of date), or when a mutant passes a criterion it must fail.

This is mutation analysis (DeMillo, Lipton and Sayward 1978; Jia and Harman
2011) done by hand, with no package beyond pytest. The file is not named
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION = re.compile(r"^\[criterion +(\d+)\] FAIL .*$", re.MULTILINE)
FAILED = re.compile(r"^(?:FAILED|ERROR) .*$", re.MULTILINE)  # pytest's -rfE summary, for a test that raised before its line


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/compound_uq/
    old: str
    new: str
    must_fail: tuple[int, ...] = ()  # criteria that must catch it
    survives: str = ""  # why it is expected to pass every criterion, if it is


MUTANTS = (
    Mutant(
        "no masking (apply_mask returns its copy unmasked)",
        "perturb.py",
        "    return np.where(mask, 0.0, obs)\n",
        "    return obs.copy()\n",
        must_fail=(12,),
    ),
    Mutant(
        "realized risk never scored (zeros for the batched risk_from_obs call)",
        "rollout.py",
        "risks = env_cls.risk_from_obs(true_next)",
        "risks = np.zeros(k)",
        must_fail=(13, 15),
    ),
    Mutant(
        "predicted risk always 0, in policy.act",
        "policy.py",
        "predicted_risk = risk_fn(x[:, : mean_delta.shape[1]] + mean_delta)",
        "predicted_risk = np.zeros(len(actions))",
        must_fail=(13,),
    ),
    Mutant(
        "monitor budget off (the monitor runs the task action alone)",
        "policy.py",
        "cands = [candidate_actions(task, rng, settings, s) for task, rng, s in zip(tasks, rngs, spread.tolist())]",
        "cands = [candidate_actions(task, rng, settings, s)[: 1 if settings.alpha_max == 0.0 else None] for task, rng, s in zip(tasks, rngs, spread.tolist())]",
        survives="it is the bare-controller baseline that ROADMAP item 8 adopts; item 8 replaces it by its inverse",
    ),
    Mutant(
        "budget pinned (delta stays at delta_max)",
        "policy.py",
        "settings.delta_max * (1.0 - ramp)",
        "settings.delta_max + 0.0 * ramp",
        must_fail=(15,),
    ),
    Mutant(
        "ramp inverted (delta grows with kappa)",
        "policy.py",
        "settings.delta_max * (1.0 - ramp)",
        "settings.delta_max * ramp",
        must_fail=(15,),
    ),
    Mutant(
        "the policy never sees kappa (it is passed zeros)",
        "rollout.py",
        "kappas = table.kappa[:k, t - 1] if t > 0 else np.zeros(k)",
        "kappas = np.zeros(k)",
        must_fail=(9, 13, 15),
    ),
    Mutant(
        "no action delay (every cell executes this step's command)",
        "rollout.py",
        "source = np.where(steps < onset[:, None], steps, steps - delays[:, None])",
        "source = np.tile(steps, (len(eps), 1))",
        must_fail=(5,),
    ),
    Mutant(
        "no dynamics shift (the shift never reaches the plant)",
        "rollout.py",
        "e.env.set_param(*e.condition.shift)",
        "pass",
        must_fail=(9, 11, 12, 15),
    ),
    Mutant(
        "no adaptive SGD (the clone is never updated)",
        "rollout.py",
        "adaptive_update(e.adaptive, x_up, y_up, config.train, e.update_rng, epochs=config.adaptive.epochs)",
        "pass",
        must_fail=(9,),
    ),
    Mutant(
        "no information gain (selection ignores the info-gain term)",
        "policy.py",
        "values = r + alpha[owner] * g - settings.lambda_risk * risk",
        "values = r - settings.lambda_risk * risk",
        must_fail=(9, 15),
    ),
    Mutant(
        "acc feature zeroed (every model row's acc is 0)",
        "ensemble.py",
        "x[:, d : 2 * d] = h[-1] - 2.0 * h[-2] + h[-3]",
        "x[:, d : 2 * d] = 0.0",
        must_fail=(1, 9, 13, 15),
    ),
)


def run_acceptance(mutant: Mutant | None) -> tuple[int, str]:
    """pytest's exit code and output on ``tests/test_acceptance.py`` over a
    copy of the source with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="compound_uq_mutant_") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            target = copy / "src" / "compound_uq" / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"mutant {mutant.name!r}: its text occurs {text.count(mutant.old)} times in {mutant.path}, not once")
            target.write_text(text.replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True,
            text=True,
        )
    return done.returncode, done.stdout


def failure_lines(output: str) -> list[str]:
    return [m.group(0) for m in CRITERION.finditer(output)] + FAILED.findall(output)


def verdict(mutant: Mutant, code: int, failed: list[int]) -> tuple[str, bool]:
    """What became of ``mutant``, and whether that is what the list says."""
    if code not in (0, 1):
        return f"pytest stopped (exit {code})", False
    if code == 0:
        return (f"survives, as expected: {mutant.survives}", True) if mutant.survives else ("UNEXPECTED SURVIVOR", False)
    if mutant.survives:
        return "killed, but listed as a survivor: update the list", False
    missed = [c for c in mutant.must_fail if c not in failed]
    return (f"killed, but criteria {missed} pass", False) if missed else ("killed", True)


def main() -> int:
    code, output = run_acceptance(None)
    if code != 0:
        print(f"the unmutated source fails the acceptance criteria (pytest exit {code}):", *failure_lines(output), sep="\n")
        return 1
    problems, rows, details = [], [], []
    for mutant in MUTANTS:
        code, output = run_acceptance(mutant)
        failed = sorted({int(n) for n in CRITERION.findall(output)})
        text, as_listed = verdict(mutant, code, failed)
        if not as_listed:
            problems.append(mutant.name)
        rows.append((mutant.name, ", ".join(map(str, failed)) or "none", text))
        details += [f"{mutant.name}: {line}" for line in failure_lines(output)]
    print("| mutant | acceptance criteria that fail | verdict |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print(*details, sep="\n")
    if problems:
        print(f"{len(problems)} mutant(s) not as listed: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
