"""Training loops, metrics, rank-ratio surveys and repeat-seed aggregation.

Every run is fully determined by (dataset, config): the config seed drives
the frozen feature map and the per-epoch shuffling jointly, weights start at
zero, and the validation cadence is fixed (per epoch for checkpoint
selection, every 50 iterations for curves). Reports therefore reproduce
bit-identically for identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import linalg
from .augment import AugmentConfig, Augmenter
from .baselines import RvflnnModel
from .data import (
    Dataset,
    batches,
    split,
    standardize,
    train_column_stats,
    window,
)
from .errors import ConstantTargetError, DivergenceError, InvalidInputError
from .model import AopuModel

CURVE_EVERY = 50  # validation-curve sampling cadence, in training iterations
LOW_RR_THRESHOLD = 0.5  # mean train RR below this flags the run as rank-starved

# chronological train/validation/test split; standardization statistics are
# fitted on the train fraction of raw rows
SPLIT_RATIOS = (0.6, 0.2, 0.2)

MODEL_KINDS = ("aopu", "rvflnn")
STRATEGIES = ("best", "final")
DEFAULT_LR = {"aopu": 1.0, "rvflnn": 0.005}

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
    """Everything that determines a single training run."""

    dataset: str = "synth"
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
        if self.model not in MODEL_KINDS:
            raise InvalidInputError(f"model must be one of {MODEL_KINDS}")
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(f"strategy must be one of {STRATEGIES}")
        for name in ("bs", "seq", "epochs"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if self.hidden < 0:
            raise InvalidInputError("hidden must be >= 0")
        if self.lr is not None and not 0 < self.lr < np.inf:
            raise InvalidInputError(f"lr must be positive and finite, got {self.lr}")

    def resolved_lr(self) -> float:
        return self.lr if self.lr is not None else DEFAULT_LR[self.model]


def make_model(config: TrainConfig, augmenter: Augmenter):
    cls = AopuModel if config.model == "aopu" else RvflnnModel
    return cls(augmenter, lr=config.resolved_lr())


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
    best_epoch: int
    val_mse_best: float
    val_mse_final: float
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


def prepare_windows(ds: Dataset, seq: int, standardize_data: bool = True):
    """Standardize (train-fraction stats), window and chronologically split."""
    if standardize_data:
        ds = standardize(ds, train_column_stats(ds, SPLIT_RATIOS[0]))
    return split(window(ds, seq), SPLIT_RATIOS)


def _val_mse(w, x_eval, y_eval) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean((y_eval - x_eval.T @ w) ** 2))


def train_run(ds: Dataset, config: TrainConfig) -> RunReport:
    """Train one model under ``config`` and evaluate per its strategy.

    Strategy ``best`` keeps the epoch checkpoint with minimal validation MSE
    and tests with it; ``final`` tests with the last-epoch weights. A
    divergent batch aborts training but the partial curves, the last rank
    ratio and the metrics of the last finite weights are all preserved.
    """
    train, val, test = prepare_windows(ds, config.seq, config.standardize)
    if train.n_windows < config.bs:
        raise InvalidInputError(
            f"batch size {config.bs} exceeds the {train.n_windows} training "
            "windows; no full batch can be formed"
        )
    aug_config = AugmentConfig(
        input_dim=train.dim,
        hidden=config.hidden,
        activation=config.activation,
        layer_norm=config.layer_norm,
        seed=config.seed,
    )
    augmenter = Augmenter(aug_config)
    model = make_model(config, augmenter)

    x_val = augmenter.augment(val.features)
    x_test = augmenter.augment(test.features)

    rng = np.random.default_rng(config.seed)
    curve = []
    val_by_epoch = []
    epoch_hashes = []
    rr_seen = []
    iteration = 0
    best_val = np.inf
    best_epoch = -1
    best_w = model.w_tilde.copy()
    diverged = False
    divergence_rr = None
    val_zero = _val_mse(np.zeros_like(model.w_tilde), x_val, val.targets)

    for epoch in range(config.epochs):
        epoch_seed = int(rng.integers(0, 2**31 - 1))
        for feats, targs in batches(train, config.bs, shuffle=True, seed=epoch_seed):
            # the step reports the rank ratio off its own factorization, so no
            # separate rank is taken here
            try:
                rr_seen.append(model.step(augmenter.augment(feats), targs).rank_ratio)
            except DivergenceError as exc:
                diverged = True
                divergence_rr = exc.rank_ratio
                rr_seen.append(divergence_rr)
                break
            iteration += 1
            if iteration % CURVE_EVERY == 0:
                curve.append((iteration, _val_mse(model.w_tilde, x_val, val.targets)))
        if diverged:
            break
        epoch_val = _val_mse(model.w_tilde, x_val, val.targets)
        val_by_epoch.append(epoch_val)
        epoch_hashes.append(_weights_hash(model.w_tilde))
        if epoch_val < best_val:
            best_val = epoch_val
            best_epoch = epoch
            best_w = model.w_tilde.copy()

    val_final = (
        val_by_epoch[-1]
        if val_by_epoch
        else _val_mse(model.w_tilde, x_val, val.targets)
    )
    if not np.isfinite(best_val):
        best_val = val_final
        best_w = model.w_tilde.copy()
    # selection property: the kept checkpoint can never validate worse than
    # the final one (test-set transfer is only a correlation, see the caveat)
    assert best_val <= val_final
    selected = best_w if config.strategy == "best" else model.w_tilde
    test_metrics = metrics(test.targets[:, 0], (x_test.T @ selected)[:, 0])

    curve_values = [v for _, v in curve]
    stability = stability_report(curve_values) if len(curve_values) >= 4 else None
    mean_rr = float(np.mean(rr_seen)) if rr_seen else float("nan")
    min_rr = float(np.min(rr_seen)) if rr_seen else float("nan")

    return RunReport(
        config=config,
        mse=test_metrics.mse,
        mape=test_metrics.mape,
        r2=test_metrics.r2,
        val_curve=curve,
        val_by_epoch=val_by_epoch,
        best_epoch=best_epoch,
        val_mse_best=float(best_val),
        val_mse_final=float(val_final),
        val_mse_zero=val_zero,
        stability=stability,
        mean_train_rr=mean_rr,
        min_train_rr=min_rr,
        low_rr_warning=bool(rr_seen) and mean_rr < LOW_RR_THRESHOLD,
        diverged=diverged,
        divergence_rr=divergence_rr,
        n_iterations=iteration,
        epoch_weight_hashes=epoch_hashes,
        selected_weights=selected,
    )


AGGREGATE_FIELDS = ("mse", "mape", "r2")


@dataclass
class RepeatReport:
    """Per-seed table plus mean/std aggregation of a repeated experiment."""

    config: TrainConfig
    seeds: list
    runs: list  # RunReport per seed
    mean: dict
    std: dict
    diverged_seeds: list

    def cell(self, name: str, digits: int = 4) -> str:
        return format_mean_std(self.mean[name], self.std[name], digits)


def format_mean_std(mean: float, std: float, digits: int = 4) -> str:
    """Mean with the spread attached, e.g. ``0.6054±0.0094``."""
    return f"{mean:.{digits}f}±{std:.{digits}f}"


def repeat_experiments(ds: Dataset, config: TrainConfig, seeds) -> RepeatReport:
    """Run one config under several seeds and aggregate mean/std per metric.

    Seeds vary the frozen feature map and the shuffling order jointly (the
    weights always start at zero). Divergent seeds stay in the table and are
    listed explicitly, never silently dropped.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise InvalidInputError(f"need at least 2 seeds, got {len(seeds)}")
    runs = [train_run(ds, replace(config, seed=s)) for s in seeds]
    mean = {}
    std = {}
    for name in AGGREGATE_FIELDS:
        vals = np.asarray([getattr(r, name) for r in runs], dtype=np.float64)
        finite = vals[np.isfinite(vals)]
        mean[name] = float(finite.mean()) if finite.size else float("nan")
        std[name] = float(finite.std()) if finite.size else float("nan")
    return RepeatReport(
        config=config,
        seeds=seeds,
        runs=runs,
        mean=mean,
        std=std,
        diverged_seeds=[s for s, r in zip(seeds, runs) if r.diverged],
    )


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
    shuffled split once and augments each training window at most once,
    however many batch sizes the grid holds (see :func:`_survey_ranks`).
    A batch size repeated in the grid gets its own, identical cell.
    """
    bs_grid = list(bs_grid)
    seq_grid = list(seq_grid)
    if not bs_grid or not seq_grid:
        raise InvalidInputError("bs and seq grids must be non-empty")
    for bs in bs_grid:
        if bs < 1:
            raise InvalidInputError(f"batch size must be >= 1, got {bs}")
    summaries = []
    for seq in seq_grid:
        train, _, _ = prepare_windows(ds, seq, standardize_data)
        augmenter = Augmenter(
            AugmentConfig(
                input_dim=train.dim,
                hidden=hidden,
                activation=activation,
                layer_norm=layer_norm,
                seed=seed,
            )
        )
        for bs in bs_grid:
            if bs > train.n_windows:
                raise InvalidInputError(
                    f"batch size {bs} leaves no full training batch at seq {seq}"
                )
        ranks = _survey_ranks(train, augmenter, set(bs_grid), seed)
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

    The shuffled split is cut at the union of all sizes' batch boundaries and
    each segment between two cuts is augmented once. Augmentation acts on
    each column alone, so a batch's augmented columns are its segments side
    by side, and its column Gram is the block matrix of the products
    ``Si.T @ Sj`` of its segments. Each new segment is multiplied with
    itself and with every earlier live segment that shares a tall batch
    (more augmented rows than columns) in progress with it. When a cut
    closes a tall batch, its Gram is assembled from those blocks and
    certified with its own shifted Cholesky (see
    :func:`linalg._certifies_full_rank`); a certified batch has full rank.
    A wide, square or uncertified batch, or one with a non-finite entry, has
    its segments joined and ranked by :func:`linalg.rank`, which also
    rejects the non-finite entry. A segment and its products are dropped
    once no batch in progress needs them, so about one largest batch of
    augmented columns, and at most the products among them, are live.
    """
    n = train.n_windows
    ((shuffled, _),) = batches(train, n, shuffle=True, seed=seed)
    ends = {bs: n - n % bs for bs in sizes}  # end of each size's last full batch
    cuts = sorted({c for bs in sizes for c in range(bs, ends[bs] + 1, bs)})
    rows = augmenter.output_dim
    tall = {bs for bs in sizes if rows > bs}
    ranks = {bs: [] for bs in sizes}
    live = []  # (first column, augmented segment), in column order
    blocks = {}  # (first, first') of two live segments -> S.T @ S'
    start = 0
    for cut in cuts:
        seg = augmenter.augment(shuffled[:, start:cut])
        live.append((start, seg))
        # first column of the earliest tall batch in progress that holds seg
        reach = min(
            (start - start % bs for bs in tall if start < ends[bs]), default=cut
        )
        with np.errstate(over="ignore", invalid="ignore"):
            for first, other in live:
                if first >= reach:
                    blocks[first, start] = other.T @ seg
        start = cut
        for bs in sizes:
            if cut % bs == 0:
                firsts = [first for first, _ in live if first >= cut - bs]
                if bs in tall and linalg._certifies_full_rank(
                    _batch_gram(firsts, blocks), rows
                ):
                    ranks[bs].append(bs)
                else:
                    parts = [seg for first, seg in live if first >= cut - bs]
                    ranks[bs].append(
                        linalg.rank(parts[0] if len(parts) == 1 else np.hstack(parts))
                    )
        # first column of the earliest batch still in progress; every batch
        # boundary is a cut, so no segment straddles it
        keep = min(
            (cut - cut % bs for bs in sizes if cut - cut % bs < ends[bs]),
            default=cut,
        )
        live = [(first, seg) for first, seg in live if first >= keep]
        blocks = {key: block for key, block in blocks.items() if key[0] >= keep}
    return ranks


def _batch_gram(firsts, blocks) -> np.ndarray:
    """A batch's column Gram, from the products of its segments (by first
    column); only ``blocks[a, b]`` with ``a <= b`` is stored."""
    return np.block(
        [[blocks[a, b] if a <= b else blocks[b, a].T for b in firsts] for a in firsts]
    )


@dataclass
class AblationRow:
    activation: str
    layer_norm: bool
    report: RepeatReport


def ablate(ds: Dataset, activations, norm_flags, config: TrainConfig, seeds):
    """Repeat the experiment for every activation x normalization combination."""
    activations = list(activations)
    norm_flags = [bool(f) for f in norm_flags]
    if not activations or not norm_flags:
        raise InvalidInputError("activation and normalization lists must be non-empty")
    rows = []
    for norm in norm_flags:
        for acti in activations:
            combo = replace(config, activation=acti, layer_norm=norm)
            rows.append(
                AblationRow(
                    activation=acti,
                    layer_norm=norm,
                    report=repeat_experiments(ds, combo, seeds),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_run_metrics_csv(path, reports) -> None:
    header = [
        "seed", "model", "strategy", "mse", "mape", "r2",
        "val_mse_best", "val_mse_final", "fluctuation", "max_regression",
        "mean_train_rr", "low_rr_warning", "diverged", "divergence_rr",
    ]
    rows = []
    for r in reports:
        stab = r.stability
        rows.append([
            r.config.seed, r.config.model, r.config.strategy, r.mse, r.mape, r.r2,
            r.val_mse_best, r.val_mse_final,
            None if stab is None else stab.fluctuation,
            None if stab is None else stab.max_regression,
            r.mean_train_rr, r.low_rr_warning, r.diverged, r.divergence_rr,
        ])
    write_csv(path, header, rows)


def write_curve_csv(path, reports) -> None:
    rows = []
    for r in reports:
        for it, v in r.val_curve:
            rows.append([r.config.seed, it, v])
    write_csv(path, ["seed", "iteration", "val_mse"], rows)


def write_rr_hist_csv(path, summaries) -> None:
    rows = []
    for s in summaries:
        for k, count in enumerate(s.hist):
            rows.append(
                [s.bs, s.seq, RR_HIST_EDGES[k], RR_HIST_EDGES[k + 1], count]
            )
    write_csv(path, ["bs", "seq", "bin_lo", "bin_hi", "count"], rows)


def write_rr_summary_csv(path, summaries) -> None:
    rows = [[s.bs, s.seq, s.count, s.mean, s.std] for s in summaries]
    write_csv(path, ["bs", "seq", "count", "mean_rr", "std_rr"], rows)


def write_ablation_csv(path, rows) -> None:
    header = [
        "activation", "layer_norm",
        "mse_mean", "mse_std", "mape_mean", "mape_std", "r2_mean", "r2_std",
        "n_seeds", "diverged_seeds",
    ]
    out = []
    for row in rows:
        rep = row.report
        out.append([
            row.activation, row.layer_norm,
            rep.mean["mse"], rep.std["mse"],
            rep.mean["mape"], rep.std["mape"],
            rep.mean["r2"], rep.std["r2"],
            len(rep.seeds), ";".join(str(s) for s in rep.diverged_seeds),
        ])
    write_csv(path, header, out)


def content_hash(paths) -> str:
    """Combined content hash of the written artifacts, in path-sorted order."""
    digest = hashlib.sha1()
    for p in sorted(str(p) for p in paths):
        with open(p, "rb") as fh:
            digest.update(hashlib.sha1(fh.read()).digest())
    return digest.hexdigest()


def write_manifest(path, config_echo: dict, output_paths, wall_time: float,
                   extra: dict | None = None) -> None:
    import json
    import os

    doc = {
        "config": config_echo,
        "outputs": {os.path.basename(str(p)): None for p in output_paths},
        "content_hash": content_hash(output_paths),
        "wall_time_s": wall_time,
    }
    for p in output_paths:
        with open(p, "rb") as fh:
            doc["outputs"][os.path.basename(str(p))] = hashlib.sha1(fh.read()).hexdigest()
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
