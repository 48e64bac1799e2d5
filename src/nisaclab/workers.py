"""Blocks of work dealt over every usable CPU, to the caller and to forked children that pipe rows back."""

import contextlib
import ctypes
import functools
import os
import signal

import numpy as np

# Fewest blocks per process before work forks.  Serial -> forked generation on 2 CPUs, medians of 9, L_b=1:
# 4 blocks 21.7 -> 18.1 ms, but 13.7 -> 18.6 ms with 160 MiB more held; 6 blocks 27.9 -> 23.7 ms.
_FORK_BLOCKS = 3


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None."""
    try:  # the handle of numpy's extension module finds its dependencies' symbols too
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, if it can be set, and restore the old count however it ends."""
    get, set_threads = _openblas_threads() or (lambda: None, lambda count: None)
    old = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def _deal_blocks(fill, count, rows, blas=False, landed=lambda j: None):
    """Run fill(j) for blocks j < count; it writes in place the contiguous arrays rows(j) yields.
    Block j goes to process j % workers: this one or a forked child, which pipes rows(j) here.
    A block a child did not send, and its later blocks, are filled here, so a block's fault raises
    here as itself.  landed(j) runs here once block j's rows are in place, in block order.  With blas
    (fill calls BLAS) BLAS runs one thread per process, as 2 processes x 2 threads on 2 cores stall;
    without OpenBLAS's thread control the work stays serial."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and (not blas or _openblas_threads())
    workers = max(1, min(len(os.sched_getaffinity(0)), count // _FORK_BLOCKS)) if can_fork else 1
    pids, pipes = [0], []  # pids[k] is worker k's; 0 for this process and a reaped child
    with _one_blas_thread() if blas else contextlib.nullcontext():
        try:
            for k in range(1, workers):
                read_end, write_end = os.pipe()
                pipes.append(open(read_end, "rb"))
                with open(write_end, "wb") as out:
                    if (pid := os.fork()) == 0:
                        try:
                            for pipe in pipes:  # its own read end and its elder siblings'
                                pipe.close()
                            for j in range(k, count, workers):
                                fill(j)
                                out.writelines(rows(j))
                                out.flush()
                            os._exit(0)
                        finally:
                            os._exit(1)
                pids.append(pid)
            for j in range(count):
                k = j % workers
                if (child := pids[k]) and any(pipes[k - 1].readinto(row) != row.nbytes for row in rows(j)):
                    os.kill(child, signal.SIGKILL)  # it stopped early: reap it and fill its blocks here
                    os.waitpid(child, 0)
                    pids[k] = child = 0
                if not child:
                    fill(j)
                landed(j)
        finally:  # a child still running here has failed or is no longer needed
            for pipe in pipes:
                pipe.close()
            for pid in filter(None, pids):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
