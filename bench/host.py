"""Host and provenance record for one benchmark run."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _loaded_blas_library() -> str | None:
    """Path of the BLAS shared library numpy has loaded into this process."""
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower() and ".so" in path:
                    return path
    except OSError:   # no /proc: not Linux
        pass
    return None


def blas_record() -> dict:
    """BLAS name, version and the thread count in effect, read without changing it."""
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 prints its config only
        config = {}
    record = {"name": config.get("name"), "version": config.get("version"),
              "library": None, "threads": None}
    path = _loaded_blas_library()
    if path is None:
        return record
    record["library"] = os.path.basename(path)
    lib = ctypes.CDLL(path)
    for symbol in _BLAS_THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            record["threads"] = fn()
            break
    return record


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: str) -> str:
    """sha256 over the package's Python files, so a checkout without git is identified."""
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record(root: str, src: str, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "seed": seed,
    }
