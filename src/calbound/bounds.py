"""High-probability certificates for binned calibration-error estimates.

Every certificate has the shape

    value = binning_term + (a + c * lambda^2) / lambda        [+ empirical]

where the binning term pays for discretizing a Lipschitz conditional and the
statistical term pays for estimating cell means from n samples at confidence
1 - epsilon. Concretely, per kind (natural logs throughout):

    TotalBiasTest   (1+L)/B        a = B ln2 + ln(1/eps)            c = 2/n
    PacBiasTrain    (1+L)/B        a = kl + B ln2 + ln(1/eps)       c = 2/n
    CeKBias         K(1+L)/B^(1/K) a = kl + B K ln2 + ln(1/eps)     c = K^2/(2n)
    GenRecal        0              a = kl + B ln2 + ln(1/eps)       c = 4/n
    BiasRecal       (1+L)/B        a = kl + B ln2 + ln(1/eps)       c = 2/n
    JointAccTce     2(1+L)/B       a = 3 kl + 2B ln2 + 3 ln(2/eps)  c = 65/(8n)

For the three 1-D bias kinds and GenRecal a smoothness assumption on the
confidence distribution sharpens c to 1/(2n) and 1/n; that variant is opted
into with assume_density. CeKBias already relies on the density assumption.
JointAccTce additionally adds the empirical loss-plus-Brier term to the value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional, Union

import numpy as np

from .core import Rng, ValidationError, _array, _choice, _count, _keys, _real
from .ece import _ece_top_label_sets
from .synthetic import BinarySpec, MulticlassSpec, _gen_sets, true_tce

LAMBDA_MIN = 1e-6
LAMBDA_MAX = 1e12

# mc_validate_bound and the convergence grids draw and score their sets in chunks
# of at most this many rows (one set when a set is larger): about 4 MB of arrays
# at a time for a binary spec.
COVERAGE_CHUNK_ROWS = 50_000


class BoundKind(enum.Enum):
    TotalBiasTest = "total_bias_test"  # fixed predictor on held-out data
    PacBiasTrain = "pac_bias_train"  # posterior-averaged, on the training sample
    CeKBias = "ce_k_bias"  # K-dimensional L1 estimator
    GenRecal = "gen_recal"  # generalization gap of recalibration
    BiasRecal = "bias_recal"  # bias on the recalibration sample
    JointAccTce = "joint_acc_tce"  # 0-1 loss plus squared calibration, plus empirical term


# Kinds whose left-hand side is a 1-D binned bias, i.e. |TCE - ECE|-shaped.
_BIAS_1D = (BoundKind.TotalBiasTest, BoundKind.PacBiasTrain, BoundKind.BiasRecal)


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of a certificate.

    B is the total bin count; for CeKBias pass B = (bins per dim)^K along
    with the class count. lam may be a positive number or "auto" for the
    closed-form optimizer. kl is the posterior-to-prior divergence and must
    stay 0 for TotalBiasTest, which certifies a fixed predictor.
    """

    n: int
    num_bins: int
    epsilon: float
    lipschitz: float = 0.0
    lam: Union[float, str] = "auto"
    kl: float = 0.0
    num_classes: Optional[int] = None
    assume_density: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "sample count"))
        object.__setattr__(self, "num_bins", _count(self.num_bins, "bin count"))
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon", "> 0", "< 1"))
        object.__setattr__(self, "lipschitz", _real(self.lipschitz, "Lipschitz constant", ">= 0"))
        if not (isinstance(self.lam, str) and self.lam == "auto"):
            object.__setattr__(self, "lam", _real(self.lam, "lam", "> 0"))
        object.__setattr__(self, "kl", _real(self.kl, "kl", ">= 0"))
        if self.num_classes is not None:
            object.__setattr__(self, "num_classes", _count(self.num_classes, "class count", 2))
        if not isinstance(self.assume_density, bool):
            raise ValidationError(f"assume_density must be a bool, got {self.assume_density!r}")


@dataclass(frozen=True)
class BoundCertificate:
    kind: BoundKind
    value: float
    binning_term: float
    statistical_term: float
    lambda_used: float
    empirical_term: float = 0.0
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bound_kind": self.kind.value,
            "inputs": self.inputs,
            "value": self.value,
            "binning_term": self.binning_term,
            "statistical_term": self.statistical_term,
            "empirical_term": self.empirical_term,
            "lambda_used": self.lambda_used,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoundCertificate":
        terms = ("value", "binning_term", "statistical_term", "lambda_used")
        d = _keys(d, "certificate", ("bound_kind", *terms), ("empirical_term", "inputs"))
        kind = BoundKind(_choice(d["bound_kind"], "bound kind", [k.value for k in BoundKind]))
        inputs = d.get("inputs", {})
        _keys(inputs, "certificate inputs", optional=inputs)  # an object, of any keys
        return cls(kind, *(_real(d[key], f"certificate {key}") for key in terms),
                   _real(d.get("empirical_term", 0.0), "certificate empirical_term"), dict(inputs))


def _terms(kind: BoundKind, inputs: BoundInputs) -> tuple[float, float, float]:
    """Return (binning, a, c) for one row of the table in the module docstring.

    The three 1-D bias rows share one formula; TotalBiasTest only differs in
    that evaluate_bound holds its kl at 0.
    """
    kind = _choice(kind, "bound kind", tuple(BoundKind))
    b, n, eps, kl = inputs.num_bins, inputs.n, inputs.epsilon, inputs.kl
    one_plus_l = 1.0 + inputs.lipschitz
    ln2 = math.log(2.0)
    if kind in _BIAS_1D:
        return (one_plus_l / b,
                kl + b * ln2 + math.log(1.0 / eps),
                0.5 / n if inputs.assume_density else 2.0 / n)
    if kind is BoundKind.GenRecal:
        return (0.0,
                kl + b * ln2 + math.log(1.0 / eps),
                1.0 / n if inputs.assume_density else 4.0 / n)
    if kind is BoundKind.CeKBias:
        k = inputs.num_classes
        if k is None:
            raise ValidationError("CeKBias needs the class count")
        return (k * one_plus_l / b ** (1.0 / k),
                kl + b * k * ln2 + math.log(1.0 / eps),
                k**2 / (2.0 * n))
    assert kind is BoundKind.JointAccTce
    return (2.0 * one_plus_l / b,
            3.0 * kl + 2.0 * b * ln2 + 3.0 * math.log(2.0 / eps),
            65.0 / (8.0 * n))


def _best_lambda(a: float, c: float) -> float:
    return min(max(math.sqrt(a / c), LAMBDA_MIN), LAMBDA_MAX)


def heuristic_lambda(n: int, num_bins: int) -> float:
    """The sqrt(B n) default; optimize_lambda is never worse."""
    return math.sqrt(_count(num_bins, "bin count") * _count(n, "sample count"))


def optimize_lambda(kind: BoundKind, inputs: BoundInputs) -> float:
    """Closed-form minimizer of a/lam + c*lam, clamped to [1e-6, 1e12]."""
    _, a, c = _terms(kind, inputs)
    return _best_lambda(a, c)


def evaluate_bound(
    kind: BoundKind, inputs: BoundInputs, empirical_term: float = 0.0
) -> BoundCertificate:
    """Evaluate a certificate of any kind.

    empirical_term is JointAccTce's posterior-averaged 0-1 loss plus Brier
    score, added to the value; every other kind takes none. Finite inputs
    whose certificate overflows to infinity raise ValidationError.
    """
    empirical_term = _real(empirical_term, "empirical term", ">= 0")
    binning, a, c = _terms(kind, inputs)  # refuses anything but a BoundKind first
    if kind is BoundKind.TotalBiasTest and inputs.kl != 0.0:
        raise ValidationError("TotalBiasTest certifies a fixed predictor; kl must be 0")
    if kind is not BoundKind.JointAccTce and empirical_term != 0.0:
        raise ValidationError(f"{kind.value} takes no empirical term")
    lam = _best_lambda(a, c) if inputs.lam == "auto" else inputs.lam
    statistical = a / lam + c * lam
    value = empirical_term + binning + statistical
    if not math.isfinite(value):
        raise ValidationError(f"{kind.value} certificate overflows to {value}; inputs too large")
    # Every input but lam, which the certificate reports as lambda_used.
    echo = {f.name: getattr(inputs, f.name) for f in fields(inputs) if f.name != "lam"}
    return BoundCertificate(
        kind=kind,
        value=value,
        binning_term=binning,
        statistical_term=statistical,
        lambda_used=lam,
        empirical_term=empirical_term,
        inputs=echo,
    )


def kl_gaussian_diag(
    mu_q: np.ndarray, var_q: np.ndarray, mu_p: np.ndarray, var_p: np.ndarray
) -> float:
    """KL(N(mu_q, diag var_q) || N(mu_p, diag var_p)) in nats."""
    mu_q, mu_p = _array(mu_q, "means", finite=True), _array(mu_p, "means", finite=True)
    var_q, var_p = _array(var_q, "variances"), _array(var_p, "variances")
    if not (mu_q.shape == var_q.shape == mu_p.shape == var_p.shape):
        raise ValidationError("mean and variance arrays must share one shape")
    # An inclusion, since NaN fails every comparison and so would pass (var <= 0).any().
    if not ((0 < var_q) & (var_q < math.inf) & (0 < var_p) & (var_p < math.inf)).all():
        raise ValidationError("variances must be positive and finite")
    return _kl_gaussian_diag(mu_q, var_q, mu_p, var_p)


def _kl_gaussian_diag(mu_q, var_q, mu_p, var_p) -> float:
    """kl_gaussian_diag without its checks, for callers that hold checked float arrays."""
    terms = var_q / var_p + (mu_p - mu_q) ** 2 / var_p - 1.0 + np.log(var_p / var_q)
    return float(0.5 * terms.sum())


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    certificate: float
    deviations: np.ndarray = field(repr=False)


def mc_validate_bound(
    kind: BoundKind,
    spec: BinarySpec,
    num_bins: int,
    epsilon: float,
    trials: int,
) -> CoverageResult:
    """Fraction of synthetic trials whose realized |TCE - ECE| the bound covers.

    Only the 1-D bias kinds describe the quantity this harness realizes, on a binary spec.
    """
    if _choice(kind, "bound kind", tuple(BoundKind)) not in _BIAS_1D:
        raise ValidationError(
            f"{kind.value} does not bound a 1-D binned bias; cannot validate here"
        )
    if not isinstance(spec, BinarySpec):
        raise ValidationError(f"coverage is checked on a BinarySpec, got {type(spec).__name__}")
    trials = _count(trials, "trial count")
    inputs = BoundInputs(
        n=spec.n,
        num_bins=num_bins,
        epsilon=epsilon,
        lipschitz=spec.map.lipschitz_constant,
    )
    certificate = evaluate_bound(kind, inputs).value
    oracle = true_tce(spec)
    deviations = np.empty(trials)
    estimate = partial(_ece_top_label_sets, num_bins=num_bins)
    for first, stop, score in _chunks(spec, spec.rng, estimate, trials):
        deviations[first:stop] = np.abs(oracle - score())
    coverage = float(np.mean(deviations <= certificate))
    return CoverageResult(coverage, certificate, deviations)


def _chunks(spec: Union[BinarySpec, MulticlassSpec], rng: Rng, estimate, count: int):
    """(first, stop, score) for each chunk of draws 0..count-1 of spec, in order.

    Draw s comes from ``rng.stream(s)``. A chunk holds at most
    COVERAGE_CHUNK_ROWS rows, or one draw when a draw is larger, and score()
    returns ``estimate(data, sets=...)``, a ``_sets`` estimator of the caller's
    choosing, of the chunk's draws stacked.
    """
    step = max(1, COVERAGE_CHUNK_ROWS // spec.n)
    for first in range(0, count, step):
        stop = min(first + step, count)
        yield first, stop, partial(_score_chunk, spec, rng, estimate, first, stop)


def _score_chunk(spec, rng: Rng, estimate, first: int, stop: int) -> np.ndarray:
    """estimate(data, sets=...) of draws first..stop-1 of spec, drawn and scored stacked."""
    gens, sets = rng.stream_generators(range(first, stop)), stop - first
    return estimate(_gen_sets(spec, gens, sets), sets=sets)
