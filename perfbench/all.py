"""Run the self-tests and every workload, untraced and traced; print a table.

    python3 perfbench/all.py [--seed N] [--seconds S]

Exits non-zero if a self-test fails or any run reports ``correct: false``.
Takes about four minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    tests = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", HERE, "-p", "test_*.py"], cwd=ROOT)
    ok = tests.returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exited {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"\n{workload} trace={trace} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
