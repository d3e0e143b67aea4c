"""Fixtures shared by several test modules."""
import json
import multiprocessing

import numpy as np
import pytest

from breakscore.checkpoint import MAGIC


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
