"""Work split over two processes: one worker forked for a run serves either
a train step's second row shard or every other cross-validation fold.

A large batch trains as row shards whose gradients are summed in shard order
(Goyal et al. 2017, arXiv:1706.02677, inside one batch). Shard 0 runs in the
training process, shard 1 in the worker; both read the parameters from, and
write their gradients to, one anonymous shared mapping. Cross-validation runs
the even folds in its own process and the odd ones in the worker, which the
fork gives the dataset without pickling it. An open worker holds a CPU
(`usable_cpus`), so on two CPUs neither process forks a shard worker while
the folds run. Training and cross-validation pin BLAS to one thread per
process, so their bytes do not depend on the CPU or BLAS thread count.
`keep_freed_memory` has glibc reuse freed blocks instead of returning them to
the kernel; the CLI sets it once per process, and a forked worker inherits it.
"""
from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import traceback
from contextlib import contextmanager

import numpy as np

# Padded tokens (rows x padded length) from which a train batch is split.
# Median ms per train step at d_model 64 on a 2-vCPU host, one OpenBLAS
# thread per process, whole batch against two shards. Encoder: 16x22 (352
# tokens) 6.7 / 7.3, 16x30 (480) 10.6 / 9.8, 16x45 (720) 14.2 / 13.5, 64x43
# (2752) 61.7 / 32.4. Bi-LSTM: 16x16 (256) 10.9 / 7.9, 16x45 (720)
# 23.6 / 14.8. On one thread a whole batch-16 batch runs about 25% slower
# than on two, so batches that small split as well.
SHARD_TOKENS = 384
# Seconds a stopping worker gets before it is killed.
_STOP_SECONDS = 5.0


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


@functools.cache
def _blas_thread_fns():
    """(get, set) of the loaded BLAS library's thread count, or None."""
    path = _loaded_blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for prefix in ("openblas", "scipy_openblas"):
        for suffix in ("", "64_"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Pin BLAS to one thread for the block, then restore the old count. Yields
    whether the pin took; without the thread symbols BLAS is left alone."""
    fns = _blas_thread_fns()
    if fns is None:
        yield False
        return
    get, put = fns
    old = get()
    put(1)
    try:
        yield True
    finally:
        put(old)


@functools.cache
def keep_freed_memory() -> bool:
    """Have glibc malloc keep freed memory for the rest of the process, so each
    train step's temporaries reuse the blocks the last step freed instead of
    being given back to the kernel and page-faulted in again. Blocks up to
    32 MiB, glibc's largest mmap threshold, come from the heap, which is
    trimmed only once over 1 GiB of it is free. Never undone: glibc cannot turn
    its dynamic thresholds back on. Returns whether both settings took;
    without `mallopt` (musl, macOS) nothing changes."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30))


def usable_cpus() -> int:
    """CPUs this process may give work to; a new worker needs a second one.
    That is the CPUs it may run on, less one per child it has running, such as
    an open worker. A worker has one only: it is a daemon process, which may
    fork no worker of its own."""
    if multiprocessing.current_process().daemon:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1   # macOS has no affinity call
    return max(1, cpus - len(multiprocessing.active_children()))


def shared_rows(n: int, size: int) -> np.ndarray:
    """A zeroed [n, size] float32 matrix in one anonymous shared mapping, which
    a forked child shares. Raises OverflowError or OSError when the mapping
    cannot be made."""
    buf = np.frombuffer(mmap.mmap(-1, 4 * max(1, n * size)), dtype=np.float32)
    return buf[: n * size].reshape(n, size)


class _RemoteTraceback(Exception):
    """The worker's traceback, chained to the exception the parent re-raises."""


class ShardWorker:
    """`step(*args)` in one process forked on entry: a train step's shard 1, or
    one cross-validation fold. The parent `submit`s the arguments, one or more
    times, and later takes each `result` in order, or the exception the step
    raised, re-raised with its type. `name` says which in messages."""

    def __init__(self, step, name: str):
        self._step, self._name = step, name

    def __enter__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(child, self._step), daemon=True)
        self._proc.start()
        child.close()
        return self

    def submit(self, *args) -> None:
        try:
            self._conn.send(args)
        except OSError:   # a broken pipe: the worker is gone
            raise self._gone() from None

    def result(self):
        try:
            ok, value, tb = self._conn.recv()
        except EOFError:
            raise self._gone() from None
        if not ok:
            raise value from _RemoteTraceback(tb)
        return value

    def _gone(self) -> ChildProcessError:
        self._proc.join(_STOP_SECONDS)
        return ChildProcessError(f"{self._name} worker exited with code {self._proc.exitcode}")

    def __exit__(self, exc_type, *exc):
        # After an error the worker may be busy with work no one will take.
        if exc_type is None:
            try:
                self._conn.send(None)
            except OSError:   # the worker is gone already
                pass
            self._proc.join(_STOP_SECONDS)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


def _serve(conn, step) -> None:
    """The worker's loop: run `step` on each submission until told to stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops the worker
    while True:
        try:
            args = conn.recv()
        except EOFError:   # the parent is gone
            return
        if args is None:
            return
        try:
            reply = (True, step(*args), None)
        except Exception as e:
            reply = (False, e, traceback.format_exc())
        # One that does not pickle ends the worker, which the parent reports.
        conn.send(reply)
