"""Fixtures shared by several test modules."""
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from breakscore import shards
from breakscore.checkpoint import MAGIC


def blas_threads() -> int | None:
    """The BLAS thread count in effect, or None when it cannot be read."""
    fns = shards._blas_thread_fns()
    return None if fns is None else fns[0]()


def run_capped(statement: str, *argv):
    """Python `statement` in a child process whose address space is capped at
    2 GiB, with `argv` as its `sys.argv[1:]`, so a model that asks for more
    fails there and leaves the host's memory alone. Returns (exit code,
    stderr)."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            + statement)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, proc.stderr


def _rewrite_checkpoint(path, edit):
    """Re-save the checkpoint at `path` after `edit(meta, params)` changed its
    metadata or its named arrays. The stored table and the blob follow the
    edited arrays, so the file stays well formed and only the check of the
    table against `kind` and `model_cfg` can catch the edit."""
    with open(path, "rb") as f:
        f.readline()
        meta, blob = json.loads(f.readline()), f.read()
    params, offset = {}, 0
    for name, shape in meta["params"]:
        count = int(np.prod(shape))
        params[name] = np.frombuffer(blob, "<f4", count, offset).reshape(shape)
        offset += 4 * count
    edit(meta, params)
    names = sorted(params)
    meta["params"] = [[n, list(params[n].shape)] for n in names]
    with open(path, "wb") as f:
        f.write(MAGIC + json.dumps(meta).encode() + b"\n")
        f.write(b"".join(params[n].astype("<f4").tobytes() for n in names))


@pytest.fixture()
def rewrite_checkpoint():
    return _rewrite_checkpoint


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running, say a shard worker
    that was never stopped, and end the process so later tests start clean."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    assert not leaked, f"the test left child processes running: {leaked}"
