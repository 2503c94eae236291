"""The rank-ratio survey: the distribution of batch rank ratios over a
(batch size, window length) grid (:func:`rr_survey`).

The shuffled split is walked one block of the largest batch size at a time.
Each block is augmented once and certified full rank by one shifted
Cholesky of its Gram; a smaller batch that lies inside a certified block
has full rank with no work of its own, so a survey takes no SVD on a batch
it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .augment import ACTIVATION_SLACK, AugmentConfig, Augmenter
from .data import Dataset, batches, check_shape, prepare_windows
from .errors import InvalidInputError

RR_HIST_EDGES = np.linspace(0.0, 1.0, 21)


@dataclass(frozen=True)
class RrSummary:
    """Rank-ratio distribution for one (batch size, sequence length) cell."""

    bs: int
    seq: int
    count: int
    mean: float
    std: float
    hist: tuple  # counts over RR_HIST_EDGES bins; total mass equals count


def rr_survey(
    ds: Dataset,
    bs_grid,
    seq_grid,
    hidden: int = 2048,
    activation: str = "tanh",
    layer_norm: bool = False,
    seed: int = 0,
    standardize_data: bool = True,
):
    """Rank-ratio distributions of augmented training batches over a grid.

    For every (bs, seq) pair the training split is cut into shuffled
    fixed-size batches, as :func:`data.batches` with ``shuffle=True`` cuts
    them, and each batch's rank ratio is recorded into a histogram. Every
    batch size slices the same seeded permutation, so each seq walks the
    shuffled split once, one block of the largest batch size at a time, and
    augments each training window at most once, however many batch sizes
    the grid holds; a smaller batch inside a block certified full rank has
    full rank with no work of its own (see :func:`_survey_ranks`).
    ``G`` is drawn once, for the longest window: the map of each seq is the
    prefix of its first ``seq * n_inputs`` input rows, the same map an
    ``Augmenter`` of that input dim draws (:meth:`Augmenter.prefix`).
    Every (bs, seq) pair is checked (:func:`data.check_shape`) before that
    draw, so a bad shape anywhere in the grid raises before any seq is
    surveyed. A batch size repeated in the grid gets its own, identical
    cell.
    """
    bs_grid = list(bs_grid)
    seq_grid = list(seq_grid)
    if not bs_grid or not seq_grid:
        raise InvalidInputError("bs and seq grids must be non-empty")
    for seq, bs in product(seq_grid, bs_grid):
        check_shape(ds.n_rows, seq, bs)
    augmenter = Augmenter(
        AugmentConfig(
            input_dim=max(seq_grid) * ds.n_inputs,
            hidden=hidden,
            activation=activation,
            layer_norm=layer_norm,
            seed=seed,
        )
    )
    summaries = []
    for seq in seq_grid:
        train, _, _ = prepare_windows(ds, seq, standardize_data)
        ranks = _survey_ranks(train, augmenter, set(bs_grid), seed)
        # freed before the next window length builds its own
        del train
        for bs in bs_grid:
            arr = np.asarray(ranks[bs]) / bs
            counts, _ = np.histogram(arr, bins=RR_HIST_EDGES)
            summaries.append(
                RrSummary(
                    bs=bs,
                    seq=seq,
                    count=arr.size,
                    mean=float(arr.mean()),
                    std=float(arr.std()),
                    hist=tuple(int(c) for c in counts),
                )
            )
    return summaries


def _survey_ranks(train, augmenter: Augmenter, sizes, seed: int) -> dict:
    """Ranks of the full shuffled training batches of every size in ``sizes``.

    ``augmenter`` may be wider than the windows: the survey uses the map of
    its first ``train.dim`` inputs (:meth:`Augmenter.prefix`), which is the
    map an ``Augmenter`` of that input dim draws, so one draw of ``G``
    serves every window length.

    With ``B = max(sizes)``, the shuffled split is cut into blocks of ``B``
    columns, up to the end of the last full batch of any size, so the last
    block (the tail) may be narrower. Each block is gathered and augmented
    once with the first ``k = min(h, B + 8)`` hidden units and the raw
    rows (:meth:`Augmenter.prefix`); layer norm couples all hidden rows, so
    with it ``k = h``. A full block is a batch of size ``B``. The column
    Gram of each block that holds a batch and has more Gram rows than
    columns is formed once and certified by
    :func:`linalg._certificate`:

    - if ``k < h``, the Gram is that of the ``k`` hidden rows alone, and the
      certificate's ``rest`` bounds the squared norm of every row left out.
      The raw rows add ``||x||_F**2``, their squared column norms summed and
      rounded up, so an overflow is infinite and fails the certificate.
      Every activation has ``|f(z)| <= |z| + 6`` and a computed product has
      ``|fl(g.x)| <= (1 + gamma_d) ||g|| ||x||``, so by Cauchy-Schwarz the
      ``h - k`` hidden units never computed add at most
      ``2 (1 + gamma_d)**2 ||G_R||_F**2 ||x||_F**2 + 72 (h - k) b`` for the
      skipped columns ``G_R`` of ``G``, whose norm is taken over all the
      inputs of ``augmenter`` (a superset of the entries can only raise it);
    - if ``k = h``, the Gram is that of every row, and ``rest`` is 0.

    A smaller batch is a column slice of the blocks. The singular values of
    a subset of a matrix's columns interlace its own, ``s_min`` no lower and
    ``s_max`` no higher, and the cutoff ``n * eps * s_max`` has the same
    ``n``, so a batch inside a certified block, the tail included, has full
    rank. Any other batch, inside an uncertified block or across two
    blocks, is certified from its own Gram: a slice of its block's Gram,
    or, across two blocks, the two diagonal slices and the product of its
    two column slices. The batches that run across into a block are certified before
    it, and only the trailing columns of a block that such batches need are
    kept into the next one, so a block's Gram can be factored in place;
    it is formed again only if its certificate fails, for the batches
    inside it. A product of another shape may round the leading rows
    differently in their last bits, as the blocks of a batch already may;
    that is far inside the certificate's margin.

    A batch that is not certified, or has no more Gram rows than columns,
    is ranked by :func:`linalg.rank`: augmented whole if ``k < h``, else
    from its block's columns. A non-finite entry anywhere in a batch fails
    the certificate, and :func:`linalg.rank` rejects it.
    """
    n = train.n_windows
    shuffled = batches(train, n, shuffle=True, seed=seed)
    ends = {bs: n - n % bs for bs in sizes}  # end of each size's last full batch
    top = max(ends.values())
    big = max(sizes)
    d = train.dim
    h = augmenter.config.hidden
    # 8 hidden units past the largest batch give the hidden rows alone room
    # to show its full rank: with 1, surveys of smoothed random walks fell
    # back to the SVD on some batches
    k = h if augmenter.config.layer_norm else min(h, big + 8)
    full = augmenter.prefix(d, h)
    lead = augmenter.prefix(d, k)
    used = k if k < h else lead.output_dim  # rows of every Gram
    # rest = x2 * per_x2 + per_col * b for b columns whose raw rows have
    # squared norm x2, which is rounded up: each column's sum of d squares
    # and the sum of b <= big of them each lose less than gamma of their count
    g_rest = (1.0 + d * linalg.EPS / (1.0 - d * linalg.EPS)) * linalg.frobenius_norm(
        augmenter.g_hat.T[k:]
    )
    per_x2 = (1.0 + 2.0 * g_rest * g_rest) * (1.0 + 2.0 * (d + big) * linalg.EPS)
    per_col = 2.0 * ACTIVATION_SLACK**2 * (h - k)

    def certified(gram, *x2, overwrite=False) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            raw = sum(float(part.sum()) for part in x2)
            rest = 0.0 if k == h else raw * per_x2 + per_col * len(gram)
            factor = linalg._certificate(gram, used, full.output_dim, rest, overwrite)
            return factor is not None

    def exact(first, stop, *parts) -> int:
        if k < h:
            return linalg.rank(full.augment(shuffled.columns(first, stop)))
        return linalg.rank(parts[0] if len(parts) == 1 else np.hstack(parts))

    def gram_of(rows):
        with np.errstate(over="ignore", invalid="ignore"):
            return rows.T @ rows

    ranks = {bs: [] for bs in sizes}
    # the trailing columns of the last block that batches in progress at its
    # end still need: first column, Gram rows, Gram and raw squared norms
    kept = kept_rows = kept_gram = kept_x2 = None
    for start in range(0, top, big):
        stop = min(start + big, top)
        aug = lead.augment(shuffled.columns(start, stop))
        rows = aug[:used]
        gram = gram_of(rows) if used > min(sizes) else None
        with np.errstate(over="ignore"):
            x2 = np.einsum("ij,ij->j", aug[k:], aug[k:]) if k < h else np.zeros(0)
        ending = [
            (bs, end - bs, end)
            for bs in sorted(sizes)
            for end in range(start - start % bs + bs, min(stop, ends[bs]) + 1, bs)
        ]
        # first, the batches that began in the last block
        for bs, first, end in ending:
            if first < start:
                i, c = first - kept, end - start
                ok = used > bs and certified(
                    _joined(
                        kept_gram[i:, i:],
                        gram[:c, :c],
                        kept_rows[:, i:],
                        rows[:, :c],
                    ),
                    kept_x2[i:],
                    x2[:c],
                )
                ranks[bs].append(
                    bs if ok else exact(first, end, kept_rows[:, i:], rows[:, :c])
                )
        # first column of the earliest batch still in progress at stop
        kept = min(
            (stop - stop % bs for bs in sizes if stop - stop % bs < ends[bs]),
            default=stop,
        )
        kept_rows = rows[:, kept - start :].copy()
        kept_x2 = x2[kept - start :].copy()
        if gram is not None:
            kept_gram = gram[kept - start :, kept - start :].copy()
        # a block that holds a batch is certified in its own Gram, which is
        # formed again only if the certificate fails
        block_ok = False
        if used > stop - start >= min(sizes):
            block_ok = certified(gram, x2, overwrite=True)
            if not block_ok:
                gram = gram_of(rows)
        for bs, first, end in ending:
            if first >= start:
                a, b = first - start, end - start
                ok = block_ok or (
                    bs < min(stop - start, used)
                    and certified(gram[a:b, a:b], x2[a:b])
                )
                ranks[bs].append(bs if ok else exact(first, end, aug[:, a:b]))
        # freed before the next block is augmented: no other name holds a
        # view of them
        del aug, rows, gram
    return ranks


def _joined(left_gram, right_gram, left, right) -> np.ndarray:
    """The column Gram of ``[left, right]`` from the Grams of its two parts
    and their product, written into one array with no join of the columns."""
    m = len(left_gram)
    gram = np.empty((m + len(right_gram),) * 2)
    gram[:m, :m] = left_gram
    gram[m:, m:] = right_gram
    with np.errstate(over="ignore", invalid="ignore"):
        gram[:m, m:] = left.T @ right
    gram[m:, :m] = gram[:m, m:].T
    return gram
