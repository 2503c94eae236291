"""Training batches for ``harness.train_run``, augmented ahead of the step
(see :func:`_augmented_batches`).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import islice

import numpy as np

# training columns augmented ahead of the step: the worker's window holds
# max(2, WINDOW_COLUMNS // bs) batches. train-paper calls (bs 64, one BLAS
# thread, two CPUs; medians of 8 in one process at seeds 3 and 7) took
# 0.79 and 0.93 s with 2 batches, 0.74 and 0.87 s with 3, 0.68 and 0.79 s
# with 4 and 0.67 and 0.72 s with 6, and each batch more keeps one more
# augmented batch (1.2 MB there) alive
WINDOW_COLUMNS = 256

# variables that set the threads of an OpenBLAS call (numpy's BLAS), in the
# order OpenBLAS reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """Threads a BLAS call may use: the first of ``BLAS_THREAD_VARS`` set to
    a positive integer, else ``cpus``, as OpenBLAS uses every CPU when none
    is set."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _augmented_batches(augmenter, cuts):
    """``(x_tilde, targets, last)`` for every batch of every cut in the
    non-empty list ``cuts``, in order; ``last`` marks a cut's last batch.

    A cut is a :class:`data.Batches`: ``train_run`` passes one shuffled cut
    per epoch, and a chronological pass would be ``[batches(ws, bs)]``.
    Each batch is augmented by one ``augment`` call of its own, as a serial
    loop does it, so every output is bit for bit the serial loop's. ``G``
    is frozen, so a batch's augmentation does not depend on the weights and
    may run ahead of the step.

    The worker runs only when the map has a hidden block (without one,
    augmentation is a copy) and the process may run on more CPUs than a
    BLAS call uses threads, so that a CPU is left for it. Without it, a
    batch is gathered and augmented only when the caller asks for it. With
    it, a window of the next ``max(2, WINDOW_COLUMNS // bs)`` batches,
    ``bs`` read off the first cut, is queued in order across cut ends on a
    worker thread that this generator owns; each job gathers one batch and
    augments it into a buffer that this thread allocates when it queues the
    job, so the worker allocates nothing of an augmented batch's size (when
    it allocated them, its own malloc arena held about 4.6 MiB more at
    train-paper). When the caller takes a batch the worker has not
    finished, it cancels the job and augments the batch itself, into the
    same buffer, if the worker has not started it; if the worker runs it,
    the caller augments the farthest batch of the window the worker has not
    started (:meth:`Future.cancel` succeeds only on those) and checks again,
    and waits only when none is left. A batch is dropped once the caller
    moves past it, so about a window of batches is alive. Either way, no
    cut's batches are gathered all at once. An exception in a batch reaches
    the caller, with its own type, when it takes that batch, whichever
    thread augmented it. The worker is shut down when the generator ends,
    raises or is closed.
    """
    # the worker costs more than it saves where it is off: it made
    # train-lowrr (hidden 0) calls about 10% slower in perfbench pairs; on
    # one CPU, train-paper's set-up, which includes a first call, about
    # 0.25 s slower; and on two CPUs with BLAS on both, train-paper calls
    # about 15% slower in process
    cpus = _cpu_count()
    if not (augmenter.config.hidden > 0 and cpus > _blas_threads(cpus)):
        for cut in cuts:
            for i, (feats, targs) in enumerate(cut):
                yield augmenter.augment(feats), targs, i == len(cut) - 1
        return

    def augmented(cut, i, out):
        feats, targs = cut[i]
        return augmenter.augment(feats, out=out), targs, i == len(cut) - 1

    def stolen(job):
        """A finished future of ``augmented(*job)``, computed on this thread."""
        future = Future()
        try:
            future.set_result(augmented(*job))
        except Exception as exc:  # raised when the caller takes this batch
            future.set_exception(exc)
        return future

    def steal():
        """Augment the farthest batch of the window that the worker has not
        started; False if it has started them all."""
        for k in range(len(window) - 1, -1, -1):
            job, future = window[k]
            if future.cancel():
                window[k] = job, stolen(job)
                return True
        return False

    def queued(cut, i):
        """Batch ``i`` of ``cut`` queued for the worker, with the buffer it
        is augmented into, allocated on this thread."""
        job = cut, i, np.empty((augmenter.output_dim, cut.bs))
        return job, pool.submit(augmented, *job)

    def take():
        """The next batch; the window moves on by one batch first."""
        job, future = window.popleft()
        more = next(todo, None)
        if more is not None:
            window.append(queued(*more))
        if future.cancel():  # the worker has not started it
            return augmented(*job)
        # the worker runs it: augment batches it has not started meanwhile
        while not future.done() and steal():
            pass
        return future.result()

    todo = ((cut, i) for cut in cuts for i in range(len(cut)))
    pool = ThreadPoolExecutor(1, thread_name_prefix="aopu-augment")
    try:
        window = deque(
            queued(*job) for job in islice(todo, max(2, WINDOW_COLUMNS // cuts[0].bs))
        )
        while window:
            yield take()
    finally:
        # waits for a batch still in progress, whose result is no longer
        # wanted once the caller stops early, so no thread outlives the run
        pool.shutdown(cancel_futures=True)
