"""Training batches for ``harness.train_run``, augmented ahead of the step.

A batch's augmentation ``acti(G.T x)`` does not depend on the weights, so
it can be computed while the model steps through earlier batches. One
worker thread, owned by the generator that yields the batches, augments
the next block of batches while the caller steps through the current one.
"""

from __future__ import annotations

import os
from collections import deque

from .data import batches

# training columns augmented per job of the worker thread
BLOCK_COLUMNS = 128

# variables that set the threads of a BLAS call, in the order read here
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """Threads a BLAS call may use: the first of ``BLAS_THREAD_VARS`` set to
    a positive integer, else ``cpus``, as OpenBLAS and MKL use every CPU
    when none is set."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _augmented_batches(augmenter, train, bs, epoch_seeds):
    """``(x_tilde, targets, epoch_end)`` for every training step, in order.

    Epoch ``e`` walks ``batches(train, bs, shuffle=True,
    seed=epoch_seeds[e])``, and ``epoch_end`` marks its last batch. Each
    batch is augmented on its own, as a serial loop does it.

    The worker runs only when the map has a hidden block (without one,
    augmentation is a copy) and the process may run on more CPUs than a
    BLAS call uses threads, so that a CPU is left for it. Without it, each
    epoch's batches are gathered together, and a batch is augmented when
    the caller asks for it. With it, the batches are gathered and augmented
    in blocks of ``max(1, BLOCK_COLUMNS // bs)`` consecutive batches, one
    job per block on a worker thread that this generator owns: block
    ``i + 1`` is augmented while the caller steps through block ``i``,
    across epoch ends too. No epoch's batches are gathered all at once
    then, and a batch is dropped once the caller moves past it, so about
    two blocks are alive. An exception in the worker reaches the caller,
    with its own type, when it takes that block. The worker is shut down
    when the generator ends, raises or is closed.
    """
    n_batches = train.n_windows // bs
    # the worker costs more than it saves where it is off: it made
    # train-lowrr (hidden 0) calls about 10% slower in perfbench pairs; on
    # one CPU, train-paper's set-up, which includes a first call, about
    # 0.25 s slower; and on two CPUs with BLAS on both, train-paper calls
    # about 15% slower in process
    cpus = _cpu_count()
    if not (augmenter.config.hidden > 0 and cpus > _blas_threads(cpus)):
        # each epoch's batches are gathered together before its steps, as
        # a serial loop gathers them (a gather before each step made a
        # train-lowrr call about 3% slower), and the list is not named, so
        # it is freed before the next epoch's is gathered
        for seed in epoch_seeds:
            for i, (feats, targs) in enumerate(
                list(batches(train, bs, shuffle=True, seed=seed))
            ):
                yield augmenter.augment(feats), targs, i == n_batches - 1
        return

    per_block = max(1, BLOCK_COLUMNS // bs)

    def blocks():
        for seed in epoch_seeds:
            cut = batches(train, bs, shuffle=True, seed=seed)
            for start in range(0, n_batches, per_block):
                yield cut, range(start, min(start + per_block, n_batches))

    def augmented(cut, indices):
        for i in indices:
            feats, targs = cut[i]
            yield augmenter.augment(feats), targs, i == n_batches - 1

    jobs = blocks()
    # imported only here: a process whose runs start no worker (no hidden
    # block, or one CPU) does not load the module, about 75 KB from source
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="aopu-augment")
    try:
        pending = pool.submit(deque, augmented(*next(jobs)))
        while pending is not None:
            block = pending.result()
            job = next(jobs, None)
            pending = None if job is None else pool.submit(deque, augmented(*job))
            while block:
                yield block.popleft()
    finally:
        # waits for a block still in progress, whose result is no longer
        # wanted once the caller stops early, so no thread outlives the run
        pool.shutdown(cancel_futures=True)
