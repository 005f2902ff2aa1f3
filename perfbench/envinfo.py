"""The machine and software a result was measured on, and its speed now."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from time import perf_counter

# Symbol names under which OpenBLAS builds export their thread count.
OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")


# A round figure near the time of ``host_reference`` on the machine whose
# figures perfbench/README.md quotes (0.07-0.10 s there). Times scaled by it
# read as seconds on that machine at a fixed speed.
REFERENCE_S = 0.1
_REFERENCE_STEPS = 1800


def host_reference() -> float:
    """Wall time of a fixed loop of small batched matrix products and Python arithmetic.

    The loop is the benchmark's own code, the same in every commit, and
    its mix is that of a control step: a forward pass over 5 members and
    32 rows, then scalar Python work. Its time tracks how fast the host
    runs such work at the moment, which on a shared machine changes by
    tens of percent from one half-minute to the next. numpy is imported
    here, on first use, so that the toolkit's import is timed cold.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.standard_normal((32, 8)), rng.standard_normal((5, 8, 64)), rng.standard_normal((5, 64, 4))
    t0 = perf_counter()
    acc = 0.0
    for _ in range(_REFERENCE_STEPS):
        acc += float((np.tanh(x @ w1) @ w2).sum())
        for j in range(30):
            acc += j * 0.5
    return perf_counter() - t0


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while ``host_reference`` took ``reference_s``, scaled to ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference_s


def _loaded_libraries() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if line.rstrip().endswith(".so") or ".so." in line})
    except OSError:
        return []


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS (numpy and scipy may bundle one each)."""
    found = {}
    for path in _loaded_libraries():
        name = os.path.basename(path)
        if not (name.startswith("lib") and "blas" in name.lower()):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[name] = int(fn())
                break
    return found


def thread_count() -> int | None:
    """Operating-system threads of this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over the toolkit's source files, so a result names its code."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload_seed": seed,
    }
