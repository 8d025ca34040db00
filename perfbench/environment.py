"""What a result was measured on: commit, interpreter, libraries, BLAS threads, caches."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def clear_thread_vars() -> dict[str, str | None]:
    """Remove the BLAS thread variables so the library default applies; return them as found."""
    return {var: os.environ.pop(var, None) for var in THREAD_VARS}


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes of cpu0, e.g. {"L2": 2097152, "L3": 110100480}."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError, KeyError, IndexError):
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def blas_libraries() -> list[dict]:
    """Every loaded OpenBLAS with its thread count, read through its own get_num_threads."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def record(root: Path, thread_vars: dict, working_set: dict[str, int]) -> dict:
    """Environment of one result, with each working-set array (label -> bytes) against L2 and L3."""
    import numpy
    import scipy

    caches = cache_sizes()
    sized = {label: {"bytes": b, **{f"fits_{lvl}": b <= caches[lvl] for lvl in ("L2", "L3") if lvl in caches}}
             for label, b in working_set.items()}
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "process_threads": len(os.listdir("/proc/self/task")),
        "thread_vars_found": thread_vars,
        "caches": caches,
        "working_set": sized,
    }
