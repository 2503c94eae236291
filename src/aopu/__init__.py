"""Approximated orthogonal projection unit (AOPU) for stable regression.

A random-feature regression unit whose training truncates gradient
backpropagation at a dual image of the weights, approximating natural-
gradient descent and minimum-variance estimation, with rank-ratio
diagnostics that predict when those approximations are trustworthy.
"""

from .augment import (
    ACTIVATIONS,
    ZERO_MEAN_ACTIVATIONS,
    AugmentConfig,
    Augmenter,
    activation_apply,
    layer_norm,
)
from .baselines import (
    LinearMve,
    RvflnnModel,
    adam_step,
    conditional_mean_mve,
    linear_mve_fit,
    mse_gradient,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    CsvSchema,
    Dataset,
    WindowedSet,
    batches,
    load_csv,
    split,
    standardize,
    synth_generate,
    train_column_stats,
    window,
)
from .errors import (
    AopuError,
    ConstantTargetError,
    DivergenceError,
    InvalidInputError,
    NumericalError,
    UndefinedConditionalError,
)
from .harness import (
    Metrics,
    RepeatReport,
    RrSummary,
    RunReport,
    StabilityIndices,
    TrainConfig,
    ablate,
    metrics,
    repeat_experiments,
    rr_survey,
    stability_report,
    train_run,
)
from .linalg import pinv, rank, rank_ratio
from .model import (
    AopuModel,
    StepReport,
    dual,
    forward,
    loss_value,
    natural_gradient_reference,
    reconstruct,
    truncated_gradient,
)

__version__ = "0.1.0"
