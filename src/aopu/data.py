"""Data pipeline: CSV ingestion, standardization, windowing, batching, synth.

Layout conventions
------------------
Raw datasets are row-per-time-step tables whose first ``n_inputs`` columns
are process variables and whose remaining columns are candidate targets.
Windowed features are column-per-sample matrices of shape (seq * n_inputs, N)
where window k concatenates input rows k .. k+seq-1 in time order
(variable-major within each step) and the target is taken at row k+seq-1.
They are a read-only strided view over one private, C-ordered copy of the
input columns: window k starts k * n_inputs floats into that copy and is its
next seq * n_inputs floats, so a column of the features is contiguous and
the series is held once, not seq times. Splits are column slices of the
view, and batches are fresh, writeable copies gathered from it.

Standardization statistics are always fitted on the chronologically earliest
fraction of raw rows and applied unchanged everywhere else; nothing is ever
re-fitted on validation or test data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .augment import check_count, check_real
from .errors import AopuError, InvalidInputError

AR_COEFF = 0.8  # synthetic per-variable autoregression coefficient

# chronological train/validation/test split; standardization statistics are
# fitted on the train fraction of raw rows
SPLIT_RATIOS = (0.6, 0.2, 0.2)


class CsvError(AopuError, ValueError):
    """Base class for CSV ingestion problems."""


class CsvReadError(CsvError):
    """The file cannot be opened or decoded as UTF-8 text."""


class EmptyCsvError(CsvError):
    """The file contains no data rows."""


class ColumnCountError(CsvError):
    """A row's column count disagrees with the expected schema."""


class RowCountError(CsvError):
    """The file's row count disagrees with a known dataset schema."""


class NonNumericValueError(CsvError):
    """A cell could not be parsed as a (dot-decimal) number."""


class ZeroVarianceError(AopuError, ValueError):
    """A column cannot be standardized because its training std is zero."""


@dataclass(frozen=True)
class CsvSchema:
    """Expected layout of a known dataset file."""

    name: str
    n_cols: int
    n_inputs: int
    default_target: int
    n_rows: int | None = None


DEBUTANIZER_SCHEMA = CsvSchema(
    name="debutanizer", n_cols=8, n_inputs=7, default_target=7, n_rows=2394
)
SRU_SCHEMA = CsvSchema(
    name="sru", n_cols=7, n_inputs=5, default_target=5, n_rows=10080
)
SCHEMAS = {s.name: s for s in (DEBUTANIZER_SCHEMA, SRU_SCHEMA)}


@dataclass(frozen=True)
class Dataset:
    """In-memory numeric table with input/target column roles."""

    values: np.ndarray  # (n_rows, n_cols) float64
    columns: tuple
    n_inputs: int
    target_col: int
    meta: dict = field(default_factory=dict)
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise InvalidInputError(f"dataset values must be 2-D, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("dataset contains non-finite values")
        if len(self.columns) != v.shape[1]:
            raise InvalidInputError("column names do not match value width")
        if not (0 < self.n_inputs < v.shape[1]):
            raise InvalidInputError(
                f"n_inputs must be in (0, {v.shape[1]}), got {self.n_inputs}"
            )
        if not (self.n_inputs <= self.target_col < v.shape[1]):
            raise InvalidInputError(
                f"target column {self.target_col} must be one of the "
                f"non-input columns {self.n_inputs}..{v.shape[1] - 1}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def inputs(self) -> np.ndarray:
        return self.values[:, : self.n_inputs]

    def target(self) -> np.ndarray:
        return self.values[:, self.target_col]


def _is_number(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_cell(text, row_idx, col_idx):
    text = text.strip()
    if text == "":
        raise NonNumericValueError(
            f"row {row_idx}, column {col_idx}: empty cell (missing values rejected)"
        )
    try:
        return float(text)
    except ValueError:
        raise NonNumericValueError(
            f"row {row_idx}, column {col_idx}: cannot parse {text!r} as a number"
        ) from None


def load_csv(path, schema=None, target_col=None) -> Dataset:
    """Load a comma-separated numeric table.

    ``schema`` is a known schema name ("debutanizer", "sru") or ``None`` for a
    generic table whose last column is the target. An optional single header
    row of column names is detected automatically: the first row is a header
    when none of its cells parses as a number. Parsing is locale-independent
    (dot decimal separator only); a leading UTF-8 byte-order mark is skipped.
    """
    if schema is not None:
        try:
            schema = SCHEMAS[schema]
        except (KeyError, TypeError):
            raise InvalidInputError(
                f"unknown schema {schema!r}; known: {sorted(SCHEMAS)}"
            ) from None

    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if any(cell.strip() for cell in r)]
    except OSError as exc:
        raise CsvReadError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvReadError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    if not rows:
        raise EmptyCsvError(f"{path}: no data rows")

    header = None
    first = rows[0]
    # a header has no numeric cell; a first row mixing numbers and text is a
    # data row and fails to parse below, naming row 0 and the column
    if not any(_is_number(c) for c in first):
        header = [c.strip() for c in first]
        rows = rows[1:]
        if not rows:
            raise EmptyCsvError(f"{path}: header only, no data rows")

    n_cols = len(rows[0]) if schema is None else schema.n_cols
    if header is not None and len(header) != n_cols:
        raise ColumnCountError(
            f"{path}: header has {len(header)} columns, expected {n_cols}"
        )
    data = np.empty((len(rows), n_cols))
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise ColumnCountError(
                f"{path}: row {i} has {len(row)} columns, expected {n_cols}"
            )
        for j, cell in enumerate(row):
            data[i, j] = _parse_cell(cell, i, j)

    if schema is not None:
        if schema.n_rows is not None and data.shape[0] != schema.n_rows:
            raise RowCountError(
                f"{path}: found {data.shape[0]} rows, "
                f"schema {schema.name!r} expects {schema.n_rows}"
            )
        n_inputs = schema.n_inputs
        target = schema.default_target if target_col is None else target_col
    else:
        n_inputs = n_cols - 1
        target = n_cols - 1 if target_col is None else target_col

    columns = tuple(header) if header else tuple(f"c{j}" for j in range(n_cols))
    return Dataset(
        values=data, columns=columns, n_inputs=n_inputs, target_col=target
    )


@dataclass(frozen=True)
class ColumnStats:
    """Per-column mean/std frozen from the training fraction of raw rows."""

    mean: np.ndarray
    std: np.ndarray


def train_column_stats(ds: Dataset) -> ColumnStats:
    """Mean/std per column over the chronologically first
    ``SPLIT_RATIOS[0]`` of the rows."""
    n_fit = int(ds.n_rows * SPLIT_RATIOS[0])
    if n_fit < 2:
        raise InvalidInputError("training fraction leaves fewer than 2 rows")
    head = ds.values[:n_fit]
    return ColumnStats(mean=head.mean(axis=0), std=head.std(axis=0))


def standardize(ds: Dataset, stats: ColumnStats) -> Dataset:
    """Apply (value - mean) / std per column, targets included.

    The statistics must come from :func:`train_column_stats`; they are never
    re-fitted here, so transformed validation/test rows generally do not have
    zero mean.
    """
    zero = np.flatnonzero(stats.std <= 0.0)
    if zero.size:
        names = ", ".join(ds.columns[j] for j in zero)
        raise ZeroVarianceError(f"zero training std in column(s): {names}")
    values = (ds.values - stats.mean) / stats.std
    return replace(ds, values=values, norm_mean=stats.mean, norm_std=stats.std)


@dataclass(frozen=True)
class WindowedSet:
    """Flattened sliding windows: features (seq*n_inputs, N), targets (N, o).

    ``features`` is a read-only view (see the module's layout conventions);
    gather batches from it with :func:`batches` to get arrays to write.
    """

    features: np.ndarray
    targets: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[0]


def window(ds: Dataset, seq: int) -> WindowedSet:
    """Flatten length-``seq`` sliding windows of the input variables.

    Window k spans raw rows [k, k+seq) and takes its target at row k+seq-1,
    giving N = n_rows - seq + 1 windows.

    The features are a read-only strided view over a private C-ordered copy
    of the input columns, the only array made here: n_rows * n_inputs
    floats, where a copy of every window would take seq times as many. The
    view shares no memory with ``ds.values``.
    """
    check_count("seq", seq, 1)
    if seq > ds.n_rows:
        raise InvalidInputError(f"seq must be in [1, {ds.n_rows}], got {seq}")
    x = np.array(ds.inputs(), order="C")
    d = ds.n_inputs
    # feature row t*d + i of window k is x[k + t, i], flat index (k + t)*d + i
    # of x: the seq*d floats from k*d on
    features = sliding_window_view(x.ravel(), seq * d)[::d].T
    targets = ds.target()[seq - 1 :][:, None]
    return WindowedSet(features=features, targets=targets)


def _partition_sizes(n: int) -> tuple:
    """Sizes of the ``SPLIT_RATIOS`` partitions of ``n`` windows: train and
    validation are floored, and the remainder goes to test."""
    n_train, n_val = int(n * SPLIT_RATIOS[0]), int(n * SPLIT_RATIOS[1])
    sizes = (n_train, n_val, n - n_train - n_val)
    if min(sizes) < 1:
        raise InvalidInputError(f"split of {n} windows leaves an empty partition")
    return sizes


def split(ws: WindowedSet):
    """Chronological, contiguous train/validation/test split at
    ``SPLIT_RATIOS``.

    Other ratios and shuffled splits are rejected by construction - there is
    no option. Each part's features are a column slice of ``ws.features``,
    so a split of a :func:`window` view is a read-only view of the same
    private copy.
    """
    parts = []
    start = 0
    for size in _partition_sizes(ws.n_windows):
        sl = slice(start, start + size)
        parts.append(
            WindowedSet(features=ws.features[:, sl], targets=ws.targets[sl])
        )
        start += size
    return tuple(parts)


def prepare_windows(ds: Dataset, seq: int, standardize_data: bool = True):
    """Standardize (train-fraction stats), window and chronologically split."""
    if standardize_data:
        ds = standardize(ds, train_column_stats(ds))
    return split(window(ds, seq))


def check_shape(n_rows: int, seq: int, bs: int) -> None:
    """Check, by arithmetic alone, that ``seq`` and ``bs`` are integers
    (:func:`augment.check_count`) and that length-``seq`` windows of
    ``n_rows`` raw rows split into non-empty partitions whose training split
    holds a full batch of ``bs`` columns; nothing is windowed or drawn."""
    check_count("seq", seq, 1)
    check_count("batch size", bs, 1)
    if seq > n_rows:
        raise InvalidInputError(f"seq must be in [1, {n_rows}], got {seq}")
    if bs > _partition_sizes(n_rows - seq + 1)[0]:
        raise InvalidInputError(
            f"batch size {bs} leaves no full training batch at seq {seq}"
        )


class Batches:
    """The full ``bs``-column mini-batches of a windowed set, in a fixed
    column order, each gathered only when it is indexed or iterated.

    Batch ``i``, ``0 <= i < len``, is ``(features[:, cols], targets[cols])``
    for the ``i``-th run of ``bs`` entries of the order; the short remainder
    is dropped. It holds the order alone, so iterating an epoch keeps at
    most the batch in use and the one being gathered, never every batch at
    once.
    Every gather is a fresh, writeable array, also from the read-only view
    of a :func:`window` set, whose columns it reads as contiguous runs of
    ``dim`` floats.
    """

    def __init__(self, ws: WindowedSet, bs: int, order: np.ndarray):
        self._ws, self.bs, self._order = ws, bs, order

    def __len__(self) -> int:
        return self._order.size // self.bs

    def __getitem__(self, i: int):
        if not 0 <= i < len(self):
            raise IndexError(f"batch {i} out of range for {len(self)} batches")
        cols = self._order[i * self.bs : (i + 1) * self.bs]
        return self._ws.features[:, cols], self._ws.targets[cols]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def columns(self, start: int, stop: int) -> np.ndarray:
        """A fresh copy of the features of entries ``start:stop`` of the
        order, which may span several batches or part of one."""
        return self._ws.features[:, self._order[start:stop]]


def batches(ws: WindowedSet, bs: int, shuffle: bool = False, seed: int = 0) -> Batches:
    """Cut a windowed set into (features, targets) mini-batches.

    Shuffling uses a seeded permutation. The final short batch is dropped so
    every batch has exactly ``bs`` columns (the rank-ratio semantics assume a
    constant batch size). The batches come as a lazy :class:`Batches`: only
    the permutation is made here, and each batch is a fresh copy gathered
    when it is indexed or iterated. It has a length, indices from 0 up to
    it and iteration in that order, and holds no mutable state, so any
    thread may index it.
    """
    check_count("batch size", bs, 1)
    check_count("seed", seed, 0)
    n = ws.n_windows
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    return Batches(ws, bs, order)


def synth_generate(n: int, n_vars: int, noise: float = 0.0,
                   nonlinear: bool = False, seed: int = 0) -> Dataset:
    """Seeded synthetic process data for oracle tests.

    Each input variable follows a stationary AR(1) process with coefficient
    0.8 and unit marginal variance. The target is a linear read-out of the
    current row, plus (when ``nonlinear``) a product of two saturated tanh
    units - an even component that no linear model can capture - plus
    Gaussian noise. Generating coefficients are echoed in ``meta``.
    """
    check_count("n", n, 1)
    check_count("n_vars", n_vars, 1)
    check_real("noise", noise)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    x = np.empty((n, n_vars))
    x[0] = rng.standard_normal(n_vars)
    innov_scale = np.sqrt(1.0 - AR_COEFF**2)
    for t in range(1, n):
        x[t] = AR_COEFF * x[t - 1] + innov_scale * rng.standard_normal(n_vars)

    w = rng.standard_normal(n_vars)
    w *= 0.55 / np.linalg.norm(w)
    y = x @ w
    meta = {"w": w, "noise": float(noise), "nonlinear": bool(nonlinear), "seed": seed}
    if nonlinear:
        v1 = rng.standard_normal(n_vars) * (2.0 / np.sqrt(n_vars))
        v2 = rng.standard_normal(n_vars) * (2.0 / np.sqrt(n_vars))
        amp = 1.4
        y = y + amp * np.tanh(x @ v1) * np.tanh(x @ v2)
        meta.update({"v1": v1, "v2": v2, "amp": amp})
    if noise > 0:
        y = y + noise * rng.standard_normal(n)

    values = np.column_stack([x, y])
    columns = tuple(f"x{j}" for j in range(n_vars)) + ("y",)
    return Dataset(
        values=values, columns=columns, n_inputs=n_vars, target_col=n_vars, meta=meta
    )
