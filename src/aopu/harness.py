"""Training runs, their metrics and seed-repeated sweeps over config grids.

Every run is fully determined by (dataset, config): the config seed drives
the frozen feature map and the per-epoch shuffling jointly, weights start at
zero, and the validation cadence is fixed (per epoch for checkpoint
selection, every 50 iterations for curves). Reports therefore reproduce
bit-identically for identical inputs.

Nothing here writes a file: :mod:`aopu.cli` formats the reports, and the
rank-ratio survey is :mod:`aopu.survey`.
"""

from __future__ import annotations

import hashlib
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product

import numpy as np

from .augment import AugmentConfig, Augmenter, check_count, check_real
from .baselines import RvflnnModel
from .data import Dataset, batches, check_shape, prepare_windows
from .errors import ConstantTargetError, DivergenceError, InvalidInputError
from .model import AopuModel
from .pipeline import _augmented_batches

# the benchmark (perfbench/) looks the survey up on this module
from .survey import RR_HIST_EDGES, rr_survey  # noqa: F401

CURVE_EVERY = 50  # validation-curve sampling cadence, in training iterations
LOW_RR_THRESHOLD = 0.5  # mean train RR below this flags the run as rank-starved

MODELS = {"aopu": AopuModel, "rvflnn": RvflnnModel}
STRATEGIES = ("best", "final")

SELECTION_CAVEAT = (
    "checkpoint selected on validation MSE; the best/final ordering is "
    "guaranteed for validation only and transfers to test just insofar as "
    "validation and test agree"
)


@dataclass(frozen=True)
class Metrics:
    mse: float
    mape: float
    r2: float


def metrics(y, yhat) -> Metrics:
    """MSE, MAPE (percent, no epsilon guard) and R-squared.

    MAPE is deliberately unguarded: near-zero targets may blow it up, which
    is reported as-is. A constant target series makes R-squared undefined and
    raises :class:`ConstantTargetError`.
    """
    ya = np.asarray(y, dtype=np.float64).ravel()
    ph = np.asarray(yhat, dtype=np.float64).ravel()
    if ya.size != ph.size:
        raise InvalidInputError(f"length mismatch: {ya.size} vs {ph.size}")
    if ya.size < 2:
        raise InvalidInputError("need at least 2 points to compute metrics")
    # overflow/zero-division produce inf here by design (diverged runs,
    # zero-crossing targets); they are reported rather than masked
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resid = ya - ph
        mse = float(np.mean(resid**2))
        mape = float(np.mean(np.abs(resid) / np.abs(ya)) * 100.0)
        ss_tot = float(np.sum((ya - ya.mean()) ** 2))
        if ss_tot == 0.0:
            raise ConstantTargetError("R-squared undefined: target series is constant")
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return Metrics(mse=mse, mape=mape, r2=r2)


@dataclass(frozen=True)
class StabilityIndices:
    fluctuation: float  # std of validation MSE over the final half of evaluations
    max_regression: float  # largest increase between consecutive evaluations


def stability_report(curve) -> StabilityIndices:
    """Quantify late-training wobble of a validation-MSE curve."""
    values = np.asarray(curve, dtype=np.float64).ravel()
    if values.size < 4:
        raise InvalidInputError(f"need at least 4 evaluations, got {values.size}")
    tail = values[values.size // 2 :]
    # a diverging curve's squares overflow, and an inf value makes inf - inf;
    # the resulting inf or nan is reported as-is, like in metrics(), so the
    # maximum propagates a nan step (the builtin max(0.0, nan) is 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        fluctuation = float(tail.std())
        diffs = np.diff(values)
    return StabilityIndices(
        fluctuation=fluctuation,
        max_regression=float(np.maximum(0.0, diffs.max())),
    )


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a single training run. An AOPU step has
    step size ``mu = 2 * lr / bs`` (an affine projection), and training is
    stable only for ``mu < 2``, that is ``lr < bs``."""

    model: str = "aopu"
    bs: int = 64
    seq: int = 48
    hidden: int = 2048
    activation: str = "tanh"
    layer_norm: bool = False
    lr: float | None = None
    epochs: int = 40
    strategy: str = "final"
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidInputError(f"model must be one of {tuple(MODELS)}")
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(f"strategy must be one of {STRATEGIES}")
        for name in ("bs", "seq", "epochs"):
            check_count(name, getattr(self, name), 1)
        # the feature map checks hidden, seed, activation and layer norm
        self.augment_config(1)
        if self.lr is not None:
            check_real("lr", self.lr, positive=True)

    def augment_config(self, input_dim: int) -> AugmentConfig:
        """The feature map of this run on ``input_dim``-row windows; building
        it checks the map's fields (activation, layer norm, seed)."""
        return AugmentConfig(
            input_dim=input_dim,
            hidden=self.hidden,
            activation=self.activation,
            layer_norm=self.layer_norm,
            seed=self.seed,
        )


def make_model(config: TrainConfig, augmenter: Augmenter):
    return MODELS[config.model](augmenter, lr=config.lr)


def _weights_hash(w: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w, dtype="<f8").tobytes()).hexdigest()


@dataclass
class RunReport:
    """Deterministic record of one training run."""

    config: TrainConfig
    mse: float
    mape: float
    r2: float
    val_curve: list  # (iteration, validation MSE) pairs, every CURVE_EVERY steps
    val_by_epoch: list
    best_epoch: int  # -1: the final weights, strictly better than every epoch end
    val_mse_best: float
    val_mse_final: float  # validation MSE of the final weights
    val_mse_zero: float  # validation MSE of the all-zero predictor
    stability: StabilityIndices | None
    mean_train_rr: float
    min_train_rr: float
    low_rr_warning: bool
    diverged: bool
    divergence_rr: float | None
    n_iterations: int
    epoch_weight_hashes: list
    selected_weights: np.ndarray
    caveat: str = SELECTION_CAVEAT

    def to_dict(self) -> dict:
        d = asdict(self)
        d["weights_sha256"] = _weights_hash(d.pop("selected_weights"))
        return d


def _predictions(augmenter: Augmenter, ws, bs: int, weights) -> np.ndarray:
    """Row ``j`` holds the predictions of ``weights[j]`` on every window of
    ``ws``: ``augment(block).T @ weights[j]`` over consecutive blocks of
    ``bs`` columns (the last may be shorter), so no more than one augmented
    block is held. Each block's product with each weight is one
    matrix-vector product, whatever the other weights, so a weight's
    predictions do not depend on how many are scored together."""
    preds = np.empty((len(weights), ws.n_windows))
    for start in range(0, ws.n_windows, bs):
        block = augmenter.augment(ws.features[:, start : start + bs])
        with np.errstate(over="ignore"):
            for row, w in zip(preds, weights):
                row[start : start + block.shape[1]] = (block.T @ w)[:, 0]
        # dropped before the next block is augmented
        del block
    return preds


class _Checkpoints:
    """The validation side of a run: weights recorded during training, scored
    later and folded in training order into the curve, the epoch log and the
    best record.

    A step replaces ``w_tilde`` and never mutates it, so a reference records
    the weights and recording the last array again is a no-op. Pending
    weights are scored in one pass over the validation split
    (:func:`_predictions`), by :meth:`select` at the end of the run, or
    early once one more would make the pending weights and their predictions,
    ``k * (d+h + n_val)`` floats, outgrow the ``(d+h) * n_val`` of the whole
    augmented split.
    """

    def __init__(self, augmenter: Augmenter, val, bs: int):
        self._augmenter, self._val, self._bs = augmenter, val, bs
        dh, n = augmenter.output_dim, val.n_windows
        self._capacity = max(1, dh * n // (dh + n))
        self._pending = []  # (weights, curve iteration or None, epoch end)
        self.curve = []
        self.by_epoch = []
        self.best = None  # (validation MSE, epoch, weights)
        self.last_w = None  # the last weights recorded
        self.last = None  # and their validation MSE, once scored

    def record(self, w, iteration=None, epoch_end=False) -> None:
        if w is self.last_w:
            return
        if len(self._pending) == self._capacity:
            self.score()
        self._pending.append((w, iteration, epoch_end))
        self.last_w = w

    def score(self) -> None:
        """Score the pending weights and fold them in, in recorded order."""
        preds = _predictions(
            self._augmenter, self._val, self._bs, [w for w, _, _ in self._pending]
        )
        for (w, iteration, epoch_end), pred in zip(self._pending, preds):
            with np.errstate(over="ignore"):
                mse = float(np.mean((self._val.targets - pred[:, None]) ** 2))
            # an overflow reads inf, also one that left inf - inf (nan) in
            # the predictions: the builtin min(inf, nan) is inf
            self.last = min(np.inf, mse)
            if iteration is not None:
                self.curve.append((iteration, self.last))
            if epoch_end:
                self.by_epoch.append(self.last)
                self._offer(self.last, len(self.by_epoch) - 1, w)
        self._pending = []

    def _offer(self, mse, epoch, w):
        # the earlier record wins a tie
        if self.best is None or mse < self.best[0]:
            self.best = (mse, epoch, w)

    def select(self):
        """Score what is pending; return the ``(validation MSE, epoch,
        weights)`` of the best epoch end or, as epoch -1, the last record."""
        self.score()
        self._offer(self.last, -1, self.last_w)
        return self.best


def _steps(model, augmenter: Augmenter, cuts):
    """``(StepReport, last)`` for each step of ``model`` over the batches of
    ``cuts``, augmented by :func:`pipeline._augmented_batches`; ``last``
    marks a cut's last batch. A :class:`DivergenceError` ends the stream: it
    reaches the consumer, the weights unchanged, once the pipeline is closed.
    """
    with closing(_augmented_batches(augmenter, cuts)) as stream:
        for x_tilde, targs, last in stream:
            # the step reports the rank ratio off its own factorization, so
            # no separate rank is taken here
            try:
                report = model.step(x_tilde, targs)
            finally:
                # dropped before the next batch is augmented: without the
                # worker, a run then holds one augmented batch at a time (one
                # held across the test split's augmentation grew the next
                # call's peak RSS by about 10 MB at the paper shape)
                del x_tilde
            yield report, last


def train_run(ds: Dataset, config: TrainConfig) -> RunReport:
    """Train one model under ``config`` and evaluate per its strategy.

    Strategy ``final`` tests with the final weights, from before the step
    that diverged if one did (the partial curves and its rank ratio are
    kept); ``best`` with the minimum of validation MSE over the epoch ends
    and then the final weights (epoch -1), the earlier on a tie.

    The shape is checked before any windowing (:func:`data.check_shape`).
    Each epoch steps through one shuffled cut, ``batches(train, bs,
    shuffle=True, seed=s)`` with its own seed ``s`` drawn from the config's.
    Every training output is bit for bit that of augmenting each batch just
    before its step; a worker thread augments batches ahead of the step only
    when the map has a hidden block and a CPU is left beside BLAS's threads
    (see :func:`pipeline._augmented_batches`), and no thread outlives the
    call.

    No augmented validation or test split is held. Training records the
    weights at every ``CURVE_EVERY`` iterations, at every epoch end and at
    the end, each array once (:class:`_Checkpoints`); they are scored on
    the validation split augmented ``bs`` columns at a time, the checkpoint
    is selected, and the test split streams through the same blocks with
    the selected weights alone (:func:`_predictions`).
    The zero predictor's validation MSE is the mean of the squared targets.
    """
    check_shape(ds.n_rows, config.seq, config.bs)
    train, val, test = prepare_windows(ds, config.seq, config.standardize)
    augmenter = Augmenter(config.augment_config(train.dim))
    model = make_model(config, augmenter)

    rng = np.random.default_rng(config.seed)
    epoch_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(config.epochs)]
    cuts = [batches(train, config.bs, shuffle=True, seed=s) for s in epoch_seeds]
    checkpoints = _Checkpoints(augmenter, val, config.bs)
    epoch_hashes = []
    rr_seen = []
    iteration = 0
    divergence_rr = None
    with np.errstate(over="ignore"):
        val_zero = float(np.mean(val.targets**2))

    try:
        with closing(_steps(model, augmenter, cuts)) as steps:
            for report, epoch_end in steps:
                rr_seen.append(report.rank_ratio)
                iteration += 1
                on_curve = iteration % CURVE_EVERY == 0
                if epoch_end:
                    epoch_hashes.append(_weights_hash(model.w_tilde))
                if on_curve or epoch_end:
                    checkpoints.record(
                        model.w_tilde, iteration if on_curve else None, epoch_end
                    )
    except DivergenceError as exc:
        divergence_rr = exc.rank_ratio
        rr_seen.append(divergence_rr)
    checkpoints.record(model.w_tilde)
    best_val, best_epoch, best_w = checkpoints.select()
    val_final = checkpoints.last
    # selection property: the kept checkpoint can never validate worse than
    # the final one (test-set transfer is only a correlation, see the caveat)
    assert best_val <= val_final
    selected = best_w if config.strategy == "best" else model.w_tilde
    test_pred = _predictions(augmenter, test, config.bs, [selected])[0]
    test_metrics = metrics(test.targets[:, 0], test_pred)

    curve_values = [v for _, v in checkpoints.curve]
    stability = stability_report(curve_values) if len(curve_values) >= 4 else None
    mean_rr = float(np.mean(rr_seen))  # a run steps or diverges at least once

    return RunReport(
        config=config,
        **asdict(test_metrics),
        val_curve=checkpoints.curve,
        val_by_epoch=checkpoints.by_epoch,
        best_epoch=best_epoch,
        val_mse_best=best_val,
        val_mse_final=val_final,
        val_mse_zero=val_zero,
        stability=stability,
        mean_train_rr=mean_rr,
        min_train_rr=float(np.min(rr_seen)),
        low_rr_warning=mean_rr < LOW_RR_THRESHOLD,
        diverged=divergence_rr is not None,
        divergence_rr=divergence_rr,
        n_iterations=iteration,
        epoch_weight_hashes=epoch_hashes,
        selected_weights=selected,
    )


AGGREGATE_FIELDS = ("mse", "mape", "r2")


@dataclass
class RepeatReport:
    """One cell of a sweep: its per-seed runs, the mean and std of each of
    ``AGGREGATE_FIELDS`` over the finite runs, and the seeds that diverged."""

    config: TrainConfig  # the cell's config at seeds[0]
    seeds: list
    runs: list  # RunReport per seed
    mean: dict = field(init=False)
    std: dict = field(init=False)
    diverged_seeds: list = field(init=False)

    def __post_init__(self):
        self.mean, self.std = {}, {}
        for name in AGGREGATE_FIELDS:
            vals = np.asarray([getattr(r, name) for r in self.runs], dtype=np.float64)
            finite = vals[np.isfinite(vals)]
            self.mean[name] = float(finite.mean()) if finite.size else float("nan")
            self.std[name] = float(finite.std()) if finite.size else float("nan")
        self.diverged_seeds = [s for s, r in zip(self.seeds, self.runs) if r.diverged]

    def cell(self, name: str) -> str:
        """The mean of ``name`` with the spread attached, e.g.
        ``0.6054±0.0094``."""
        return f"{self.mean[name]:.4f}±{self.std[name]:.4f}"


def sweep(ds: Dataset, config: TrainConfig, grid: dict, seeds) -> list:
    """Run ``config`` under every seed in each cell of ``grid``'s product.

    ``grid`` maps ``TrainConfig`` field names other than ``seed`` to lists of
    values; the first key is the outermost loop, and an empty grid is one
    cell. Returns one :class:`RepeatReport` per cell. Seeds vary the frozen
    feature map and the shuffling order jointly (the weights always start at
    zero). Divergent seeds stay in the table and are listed explicitly,
    never silently dropped. Every cell's shape (:func:`data.check_shape`)
    and config, feature map included, is checked under every seed before
    the first run trains.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise InvalidInputError(f"need at least 2 seeds, got {len(seeds)}")
    grid = {name: list(values) for name, values in grid.items()}
    names = {f.name for f in fields(TrainConfig)}
    for name, values in grid.items():
        if name == "seed":
            raise InvalidInputError("seed is set by the seeds argument, not by the grid")
        if name not in names:
            raise InvalidInputError(f"grid key {name!r} is not a TrainConfig field")
        if not values:
            raise InvalidInputError(f"grid key {name!r} has no values")
    cells = [
        [replace(config, **dict(zip(grid, values)), seed=s) for s in seeds]
        for values in product(*grid.values())
    ]
    for configs in cells:
        for c in configs:
            check_shape(ds.n_rows, c.seq, c.bs)
    return [
        RepeatReport(configs[0], seeds, [train_run(ds, c) for c in configs])
        for configs in cells
    ]
