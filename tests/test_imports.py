"""Import guards: the CLI starts without scipy or a process pool, the agent
side never reaches the environments, and every public name has a caller.

Only ``analysis.superadditive_rate`` and ``analysis.stratified_rate_test``
need scipy, and they import ``scipy.special`` when called. Each scipy check
runs in a fresh interpreter, because this test process may already hold
scipy.
"""

import ast
import json
import os
import subprocess
import sys

import compound_uq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(compound_uq.__file__)))

BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

CONFIG = {
    "env_id": "MassSpring1D",
    "horizon": 40,
    "onset_t": 10,
    "grid": {"po_levels": [0.0], "delay_levels": [0], "shift_levels": [None], "seeds": [0]},
    "ensemble": {"t_pre": 80, "m_members": 2, "epochs": 3},
    "thresholds": {"tau_low": 0.2, "tau_high": 0.5},
}


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = _python(
        "import json, sys\n"
        "import compound_uq.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # rollout imports its pool when a sweep or an analysis first has two units to share out
    proc = _python(
        "import json, sys\n"
        "import compound_uq.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_calibrate_run_and_oracle_check_work_with_scipy_blocked(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    proc = _python(
        BLOCK_SCIPY
        + "from compound_uq.cli import main\n"
        + "assert main(['calibrate', '--config', 'cfg.json', '--out', 'snap.json']) == 0\n"
        + "assert main(['run', '--config', 'cfg.json', '--snapshot', 'snap.json', '--out', 'trace.jsonl']) == 0\n"
        + "assert main(['oracle-check', '--n-samples', '50', '--out', 'oracle.csv']) == 0\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("snap.json", "trace.jsonl", "oracle.csv"):
        assert (tmp_path / name).exists()


# The modules an agent's decisions are computed in; privileged simulator
# state must have no import path into them.
AGENT_SIDE = ("policy", "kappa", "ensemble", "belief")


def _package_imports(module: str) -> set[str]:
    """The sibling modules that ``module``'s ``from .x import`` lines name."""
    with open(os.path.join(os.path.dirname(compound_uq.__file__), f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
    return found


def test_agent_side_modules_never_import_envs_or_rollout():
    for start in AGENT_SIDE:
        reached, todo = set(), [start]
        while todo:
            for name in _package_imports(todo.pop()) - reached:
                reached.add(name)
                todo.append(name)
        assert not reached & {"envs", "rollout"}, f"{start} reaches {sorted(reached)}"


def _parse_modules(root: str) -> dict[str, ast.Module]:
    """The syntax tree of each module in directory ``root`` but ``__init__.py`` and tests, by path."""
    trees = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py") and name != "__init__.py" and not name.startswith("test_"):
            with open(os.path.join(root, name)) as fh:
                trees[f"{os.path.basename(root)}/{name}"] = ast.parse(fh.read())
    return trees


def _public_definitions(module: str, tree: ast.Module):
    """``(name, node, attribute_only)`` for each public module-level function and class of
    ``tree``, and each public method or property of any of its classes, ``_``-prefixed
    ones included (found by attribute only)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}:{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}:{node.name}.{member.name}", member, True


def test_every_public_name_has_a_caller():
    # The system is the package and the benchmark, not their tests: a name only tests use has no caller.
    trees = {**_parse_modules(os.path.dirname(compound_uq.__file__)), **_parse_modules(os.path.join(os.path.dirname(SRC), "perfbench"))}
    references = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    uncalled = []
    for module, tree in trees.items():
        for qualname, definition, attribute_only in _public_definitions(module, tree):
            inside = {id(node) for node in ast.walk(definition)}
            name = definition.name
            if not any(
                id(node) not in inside
                and (node.attr == name if isinstance(node, ast.Attribute) else not attribute_only and node.id == name)
                for node in references
            ):
                uncalled.append(qualname)
    assert not uncalled, f"public names that nothing in the package or perfbench references: {uncalled}"
