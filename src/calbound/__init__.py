"""Calibration-error estimation with certificates and recalibration.

The package measures how far a classifier's confidence sits from its realized
accuracy (binned 1-D and K-D estimators), certifies those estimates with
finite-sample high-probability bounds, and shrinks the miscalibration by
fitting parametric recalibration maps, either by classic temperature scaling
or as a variational posterior with a KL budget.
"""

from .bounds import (
    BoundCertificate,
    BoundInputs,
    BoundKind,
    evaluate_bound,
    heuristic_lambda,
    kl_gaussian_diag,
    mc_validate_bound,
    optimize_lambda,
)
from .core import (
    PredictionSet,
    Rng,
    ValidationError,
    validate_prediction_set,
)
from .ece import (
    ece_full_k,
    ece_gap,
    ece_top_label,
    ece_top_label_reformulated,
    optimal_bins_1d,
    optimal_bins_per_dim,
)
from .recal import (
    GaussianPosterior,
    PbrConfig,
    PbrResult,
    RecalMap,
    apply_recal,
    brier_score,
    pbr_gradient,
    pbr_objective,
    recalibrate_set,
    softmax_cross_entropy,
    temperature_scaling_fit,
    train_pbr,
)
from .synthetic import (
    BinarySpec,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    gen_binary,
    gen_multiclass,
    true_ce_k,
    true_tce,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySpec",
    "BoundCertificate",
    "BoundInputs",
    "BoundKind",
    "ConfidenceLaw",
    "GaussianPosterior",
    "MiscalibrationMap1D",
    "MiscalibrationMapK",
    "MulticlassSpec",
    "PbrConfig",
    "PbrResult",
    "PredictionSet",
    "RecalMap",
    "Rng",
    "ValidationError",
    "apply_recal",
    "brier_score",
    "ece_full_k",
    "ece_gap",
    "ece_top_label",
    "ece_top_label_reformulated",
    "evaluate_bound",
    "gen_binary",
    "gen_multiclass",
    "heuristic_lambda",
    "kl_gaussian_diag",
    "mc_validate_bound",
    "optimal_bins_1d",
    "optimal_bins_per_dim",
    "optimize_lambda",
    "pbr_gradient",
    "pbr_objective",
    "recalibrate_set",
    "softmax_cross_entropy",
    "temperature_scaling_fit",
    "train_pbr",
    "true_ce_k",
    "true_tce",
    "validate_prediction_set",
]
