"""Ranks of every shuffled training batch of several sizes, for the
rank-ratio survey (``harness.rr_survey``).

Each training window is augmented at most once, with only as many hidden
units as the largest batch needs, and a batch is certified full rank from
the Gram blocks of its segments, so a survey takes no SVD on a batch it
certifies.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .augment import ACTIVATION_SLACK, Augmenter
from .data import batches


def _survey_ranks(train, augmenter: Augmenter, sizes, seed: int) -> dict:
    """Ranks of the full shuffled training batches of every size in ``sizes``.

    ``augmenter`` may be wider than the windows: the survey uses the map of
    its first ``train.dim`` inputs (:meth:`Augmenter.prefix`), which is the
    map an ``Augmenter`` of that input dim draws, so one draw of ``G``
    serves every window length. The shuffled split is cut at the union of all
    sizes' batch boundaries and each segment between two cuts is gathered
    and augmented once; the split is never gathered whole. A batch of at
    most ``max(sizes)`` columns needs no more hidden rows than that to show
    full rank, so without layer norm a segment gets only the first
    ``k = min(h, max(sizes))`` hidden units plus the raw rows
    (:meth:`Augmenter.prefix`); layer norm couples all hidden rows, so with
    it ``k = h``.

    Augmentation acts on each column alone, so a batch's augmented columns
    are its segments side by side, and its column Gram is the block matrix
    of the products ``Si.T @ Sj`` of its segments. Each new segment is
    multiplied with itself and with every earlier live segment that shares
    a tall batch (more augmented rows than columns) in progress with it.
    When a cut closes a tall batch, its Gram is assembled from those blocks
    and certified with its own shifted Cholesky
    (:func:`linalg._certifies_full_rank`), given a bound on the squared
    norm of the ``h - k`` hidden rows never computed. Every activation has
    ``|f(z)| <= |z| + 6`` and a computed product has
    ``|fl(g.x)| <= (1 + gamma_d) ||g|| ||x||``, so by Cauchy-Schwarz that
    norm is at most ``2 (1 + gamma_d)**2 ||G_R||_F**2 ||x||_F**2 + 72 (h - k) b``
    for the skipped columns ``G_R`` of ``G``. The survey takes
    ``||G_R||_F`` over all the inputs of ``augmenter``: a superset of the
    entries can only raise the norm, and those columns are one contiguous
    block of ``G.T``, so the norm needs no copy. A certified batch has full
    rank. A product of another shape may round the leading rows differently
    in their last bits, as the segments of a batch already may; that is far
    inside the certificate's margin.

    If ``k < h``, every batch is tall, and one the certificate fails is
    augmented whole and ranked by :func:`linalg.rank`. If ``k = h``, a
    wide, square or uncertified batch has its segments joined and ranked
    so. A non-finite entry anywhere in a batch fails the certificate, and
    :func:`linalg.rank` rejects it. A segment and its products are dropped
    once no batch in progress needs them, so about one largest batch of
    augmented columns, and at most the products among them, are live.
    """
    n = train.n_windows
    shuffled = batches(train, n, shuffle=True, seed=seed)
    ends = {bs: n - n % bs for bs in sizes}  # end of each size's last full batch
    cuts = sorted({c for bs in sizes for c in range(bs, ends[bs] + 1, bs)})
    d = train.dim
    h = augmenter.config.hidden
    k = h if augmenter.config.layer_norm else min(h, max(sizes))
    full = augmenter.prefix(d, h)
    lead = augmenter.prefix(d, k)
    rows = full.output_dim
    tall = {bs for bs in sizes if lead.output_dim > bs}
    # (1 + gamma_d) * ||G_R||_F, and the activations' share of the bound per
    # batch column
    g_rest = (1.0 + d * linalg.EPS / (1.0 - d * linalg.EPS)) * linalg.frobenius_norm(
        augmenter.g_hat.T[k:]
    )
    slack = 2.0 * ACTIVATION_SLACK**2 * (h - k)
    ranks = {bs: [] for bs in sizes}
    live = []  # (first column, augmented segment, norm of its raw rows)
    blocks = {}  # (first, first') of two live segments -> S.T @ S'
    start = 0
    for cut in cuts:
        seg = lead.augment(shuffled.columns(start, cut))
        live.append((start, seg, linalg.frobenius_norm(seg[k:])))
        # first column of the earliest tall batch in progress that holds seg
        reach = min(
            (start - start % bs for bs in tall if start < ends[bs]), default=cut
        )
        with np.errstate(over="ignore", invalid="ignore"):
            for first, other, _ in live:
                if first >= reach:
                    blocks[first, start] = other.T @ seg
        start = cut
        for bs in sizes:
            if cut % bs == 0:
                batch = [entry for entry in live if entry[0] >= cut - bs]
                if bs in tall:
                    # Python floats: an overflow is inf, with no warning
                    scaled = g_rest * math.hypot(*(norm for _, _, norm in batch))
                    rest = 2.0 * scaled * scaled + slack * bs
                    gram = _batch_gram([first for first, _, _ in batch], blocks)
                    if linalg._certifies_full_rank(gram, lead.output_dim, rows, rest):
                        ranks[bs].append(bs)
                        continue
                if k < h:
                    whole = full.augment(shuffled.columns(cut - bs, cut))
                elif len(batch) == 1:
                    whole = batch[0][1]
                else:
                    whole = np.hstack([part for _, part, _ in batch])
                ranks[bs].append(linalg.rank(whole))
        # first column of the earliest batch still in progress; every batch
        # boundary is a cut, so no segment straddles it
        keep = min(
            (cut - cut % bs for bs in sizes if cut - cut % bs < ends[bs]),
            default=cut,
        )
        live = [entry for entry in live if entry[0] >= keep]
        blocks = {key: block for key, block in blocks.items() if key[0] >= keep}
    return ranks


def _batch_gram(firsts, blocks) -> np.ndarray:
    """A batch's column Gram, written block by block into one array from
    the products of its segments (by first column); only ``blocks[a, b]``
    with ``a <= b`` is stored."""
    base, last = firsts[0], firsts[-1]
    size = last - base + blocks[last, last].shape[1]
    gram = np.empty((size, size))
    for i, a in enumerate(firsts):
        for b in firsts[i:]:
            block = blocks[a, b]
            rows = slice(a - base, a - base + block.shape[0])
            cols = slice(b - base, b - base + block.shape[1])
            gram[rows, cols] = block
            if a < b:
                gram[cols, rows] = block.T
    return gram
