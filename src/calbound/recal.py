"""Parametric recalibration maps and their variational training loop.

A map acts on a probability row by taking floored logs (``core.log_probs``), applying a
family-specific linear transform, and renormalizing through a softmax. Three
families are supported: a scalar temperature, a per-class scale-and-offset,
and a full affine transform of the log-probabilities.

Training follows a PAC-Bayes recipe: fit a diagonal Gaussian posterior over
the map parameters by minimizing

    mean_j Brier(map(v_j) applied to data) + alpha * KL(posterior || prior) / n

with v_j = mu + sigma * xi_j reparameterized draws, optionally adding the cross-entropy
-log p[label], in log-sum-exp form and not floored (only the input logs are), to the Brier
term. The draws xi are one (mc_samples, d) matrix fixed for the whole fit, so the objective
is a deterministic function of (mu, log sigma), and a quasi-Newton method (L-BFGS with
Armijo backtracking) minimizes it. The returned point map is the family at the posterior
mean mu.
Temperature scaling (Guo et al., ICML 2017) is the same fit of the temperature family with
the Brier term weighed 0, one draw xi = 0 and alpha = 0, where only log(t) moves.

The temperature family is carried internally as log(t) so that Gaussian
posteriors cannot leave the valid domain; constructors and reports still speak
in t.

Scores, probabilities and residuals of the forward and backward pass are laid
out class-major, as (J, K, n) arrays over J parameter draws, K classes and n
rows, with the data's log-probabilities transposed once to (K, n). K is small
(often 2 to 20), and numpy reduces a short inner axis far more slowly than a
long one, so every softmax and per-row sum over K runs with the n rows as the
contiguous inner loop. Public functions still take and return (n, K)
probability rows.

Each fit holds a workspace of two (J, K, n) arrays, and every (J, K, n) write of an
evaluation lands there; no buffer outlives its fit or is shared between fits. The
family writes the scores into the first, and the softmax overwrites them with the
probabilities. The second holds the softmax's (J, n) maximum and the gathered
s[label] while it is idle, then the residual p - onehot, taken against a (K, n) bool
label mask: the cross-entropy's gradient with respect to the scores, contracted when
that term is on, then overwritten in place by the Brier one. Sums and
chain rules are contractions in numpy's own ``einsum`` (no BLAS, so no dependence on
the BLAS thread count; only the affine family's matmuls use BLAS), and the factors
2/n and 1/n scale the small (J, d) gradient, never a (J, K, n) array.

A family is one ``_FAMILIES`` row: identity vector, whose size is the parameter
count, scores in that layout and their chain rule back to the parameters. Nothing
else names a family, so a new one (a Gaussian process, say) adds a row and no branch.

An objective evaluation does only its arithmetic. What a fit holds fixed (that
layout, the label mask, the prior's mean and variance, the family and weight rows, the
draws, J, K, n and alpha) and its workspace are built once, and the optimizer carries one
bare vector x = (mu, log_sigma).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import _kl_gaussian_diag, kl_gaussian_diag
from .core import (PredictionSet, Rng, ValidationError, _array, _choice, _count, _keys,
                   _optional, _real, _seed, _softmax_parts, log_probs, row_sums, softmax)

# L-BFGS: curvature pairs kept, Armijo constant, halvings before a line search gives up,
# and the two stops (max |gradient| below _GRAD_TOL, a relative fall of at most _FALL_TOL).
_MEMORY = 10
_ARMIJO = 1e-4
_HALVINGS = 40
_GRAD_TOL = 1e-6
_FALL_TOL = 1e-9

_LOG_T_RANGE = (-5.0, 5.0)  # temperature scaling clips log(t) to it

# Each objective's weights of (Brier, cross-entropy); temperature scaling fits at (0, 1).
_OBJECTIVES = {"brier": (1.0, 0.0), "brier_plus_loss": (1.0, 1.0)}


class _Family(NamedTuple):
    """scores takes (J, d) draws, (K, n) log-probabilities, K and an optional (J, K, n) out to
    (J, K, n) scores, written to out when given; grad contracts dObjective/dscores, (J, K, n),
    with zt back to (J, d), given the draws, and is linear in it, so the step scales the small
    result instead of the (J, K, n) array; t reads t off v."""

    identity: Callable
    scores: Callable
    grad: Callable
    t: Optional[Callable] = None


def _with_offsets(g_weights: np.ndarray, g_scores: np.ndarray) -> np.ndarray:
    return np.concatenate([g_weights, g_scores.sum(axis=2)], axis=1)


_FAMILIES = {
    "temperature": _Family(  # scores = z * exp(-v), so dscores/dv = -exp(-v) * z
        identity=lambda k: np.zeros(1),
        scores=lambda vs, zt, k, out=None: np.multiply(zt, np.exp(-vs[:, 0])[:, None, None],
                                                       out=out),
        grad=lambda g, zt, vs: (-np.exp(-vs[:, 0]) * np.einsum("jkn,kn->j", g, zt))[:, None],
        t=lambda v: math.exp(v[0]),
    ),
    "vector_scale": _Family(
        identity=lambda k: np.concatenate([np.ones(k), np.zeros(k)]),
        scores=lambda vs, zt, k, out=None: np.add(np.multiply(zt, vs[:, :k, None], out=out),
                                                  vs[:, k:, None], out=out),
        grad=lambda g, zt, vs: _with_offsets(np.einsum("jkn,kn->jk", g, zt), g),
    ),
    "affine": _Family(
        identity=lambda k: np.concatenate([np.eye(k).ravel(), np.zeros(k)]),
        scores=lambda vs, zt, k, out=None: np.add(
            np.matmul(vs[:, : k * k].reshape(-1, k, k), zt, out=out), vs[:, k * k :, None],
            out=out),
        grad=lambda g, zt, vs: _with_offsets((g @ zt.T).reshape(len(g), -1), g),
    ),
}
FAMILIES = tuple(_FAMILIES)


def _family(family: str) -> _Family:
    return _FAMILIES[_choice(family, "family", FAMILIES)]


def param_dim(family: str, num_classes: int) -> int:
    return identity_params(family, num_classes).size


def identity_params(family: str, num_classes: int) -> np.ndarray:
    """Parameter vector of the identity map in each family."""
    return _family(family).identity(num_classes)


@dataclass(frozen=True)
class RecalMap:
    """A fitted recalibration map.

    params, a read-only copy, is the unconstrained vector the posterior lives on:
    [ln t] for temperature, [w, b] for vector_scale, [W.ravel(), b] for affine.
    """

    family: str
    num_classes: int
    params: np.ndarray = field(repr=False)

    def __post_init__(self):
        family = _family(self.family)
        object.__setattr__(self, "num_classes", _count(self.num_classes, "class count", 2))
        params = _array(self.params, f"{self.family} map params", 1, finite=True).copy()
        want = family.identity(self.num_classes).size
        if params.shape != (want,):
            raise ValidationError(
                f"{self.family} over {self.num_classes} classes needs {want} "
                f"parameters, got shape {params.shape}"
            )
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    @classmethod
    def temperature(cls, t: float, num_classes: int = 2) -> "RecalMap":
        log_t = math.log(_real(t, "temperature", "> 0"))
        return cls("temperature", num_classes, np.array([log_t]))

    @classmethod
    def vector_scale(cls, weights, offsets) -> "RecalMap":
        w, b = _array(weights, "weights", 1), _array(offsets, "offsets", 1)
        if w.shape != b.shape:
            raise ValidationError("weights and offsets must be equal-length vectors")
        return cls("vector_scale", w.size, np.concatenate([w, b]))

    @classmethod
    def affine(cls, matrix, offsets) -> "RecalMap":
        mat, b = _array(matrix, "matrix", 2), _array(offsets, "offsets", 1)
        if mat.shape != (b.size, b.size):
            raise ValidationError("matrix must be square and match the offset length")
        return cls("affine", b.size, np.concatenate([mat.ravel(), b]))

    @classmethod
    def identity(cls, family: str, num_classes: int) -> "RecalMap":
        return cls(family, num_classes, identity_params(family, num_classes))

    @property
    def t(self) -> float:
        if _FAMILIES[self.family].t is None:
            raise ValidationError(f"{self.family} map has no temperature")
        return _FAMILIES[self.family].t(self.params)

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "num_classes": self.num_classes,
            "params": self.params.tolist(),
        }
        if _FAMILIES[self.family].t is not None:
            d["t"] = self.t
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RecalMap":
        d = _keys(d, "recalibration map", ("family", "num_classes", "params"), ("t",))
        recal_map = cls(d["family"], d["num_classes"], d["params"])
        # .t refuses a family without a t; a temperature map's t is exp(params[0]) exactly.
        if "t" in d and _real(d["t"], "recalibration map t") != recal_map.t:
            raise ValidationError(f"recalibration map t {d['t']!r} is not exp(params[0])")
        return recal_map


def apply_recal(recal_map: RecalMap, probs: np.ndarray) -> np.ndarray:
    """Apply a map to a 2-D batch of probability rows."""
    probs = _array(probs, "probs", 2, finite=True)
    if probs.shape[1] != recal_map.num_classes:
        raise ValidationError(
            f"map expects {recal_map.num_classes} classes, got {probs.shape[1]}"
        )
    zt = np.ascontiguousarray(log_probs(probs).T)
    scores = _FAMILIES[recal_map.family].scores(recal_map.params[None], zt, recal_map.num_classes)
    return np.ascontiguousarray(softmax(scores[0], axis=0, out=scores[0]).T)


def recalibrate_set(recal_map: RecalMap, data: PredictionSet) -> PredictionSet:
    return PredictionSet._owned(apply_recal(recal_map, data.probs), data.labels)


def brier_score(data: PredictionSet) -> float:
    """Mean squared L2 distance between probability rows and one-hot labels."""
    resid = data.probs.copy()  # the only full-size array: probs - one-hot, squared in place
    resid[np.arange(data.n), data.labels] -= 1.0
    return float(np.mean(row_sums(np.square(resid, out=resid))))


def softmax_cross_entropy(data: PredictionSet) -> float:
    """Mean -log of the label probability floored at 1e-12 (core.log_probs): at most 27.63."""
    picked = data.probs[np.arange(data.n), data.labels]
    return float(-np.mean(log_probs(picked)))


def _draws(rng: Rng, count: int, dim: int) -> np.ndarray:
    return rng.generator().standard_normal((count, dim))


@dataclass(frozen=True)
class GaussianPosterior:
    """Diagonal Gaussian over map parameters, stored as (mu, log_sigma)."""

    mu: np.ndarray = field(repr=False)
    log_sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        mu, ls = _array(self.mu, "mu", 1), _array(self.log_sigma, "log_sigma", 1)
        if mu.shape != ls.shape:
            raise ValidationError("mu and log_sigma must be equal-length vectors")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "log_sigma", ls)

    @classmethod
    def at(cls, mu: np.ndarray) -> "GaussianPosterior":
        """Unit-sigma posterior centred at mu."""
        return cls(mu, np.zeros(np.shape(mu)))

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def kl_to(self, prior: "GaussianPosterior") -> float:
        return kl_gaussian_diag(self.mu, self.sigma**2, prior.mu, prior.sigma**2)

    def to_dict(self) -> dict:
        return {"mu": self.mu.tolist(), "log_sigma": self.log_sigma.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianPosterior":
        return cls(**_keys(d, "posterior", ("mu", "log_sigma")))


@dataclass(frozen=True)
class PbrConfig:
    """Knobs for the variational fit; defaults suit desk-scale experiments.

    mc_samples is the number of posterior draws in the fixed draw matrix the
    objective averages over, and max_iters caps the optimizer's iterations. The
    returned map is the family at the posterior mean, so no other draw is taken.
    step_size and step_decay are checked and recorded but not read by the fit.
    """

    family: str = "temperature"
    alpha: float = 0.25
    mc_samples: int = 4
    step_size: float = 0.2
    step_decay: float = 0.995
    max_iters: int = 300
    seed: int = 0
    objective: str = "brier"
    prior: Optional[GaussianPosterior] = None

    def __post_init__(self):
        _family(self.family)  # rejects an unknown family
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", ">= 0"))
        object.__setattr__(self, "mc_samples", _count(self.mc_samples, "mc_samples"))
        object.__setattr__(self, "step_size", _real(self.step_size, "step size", "> 0"))
        object.__setattr__(self, "step_decay", _real(self.step_decay, "step decay", "> 0", "<= 1"))
        object.__setattr__(self, "max_iters", _count(self.max_iters, "max_iters"))
        object.__setattr__(self, "seed", _seed(self.seed, "seed"))
        _choice(self.objective, "objective", tuple(_OBJECTIVES))
        _optional(self.prior, "prior", GaussianPosterior)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["prior"] = self.prior.to_dict() if self.prior else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PbrConfig":
        d = dict(_keys(d, "PbrConfig", optional=[f.name for f in fields(cls)]))
        prior = d.pop("prior", None)
        return cls(prior=None if prior is None else GaussianPosterior.from_dict(prior), **d)


def _default_prior(cfg: PbrConfig, num_classes: int) -> GaussianPosterior:
    if cfg.prior is not None:
        want = param_dim(cfg.family, num_classes)
        if cfg.prior.dim != want:
            raise ValidationError(
                f"prior dimension {cfg.prior.dim} does not match {cfg.family} "
                f"over {num_classes} classes ({want})"
            )
        cfg.prior.kl_to(cfg.prior)  # rejects a non-finite mean or variance; steps do not
        return cfg.prior
    return GaussianPosterior.at(identity_params(cfg.family, num_classes))


class _Fit(NamedTuple):
    """Per-fit constants and workspace: the class-major data, the prior, the family row, the
    objective's weights w_brier and w_xent of its Brier and cross-entropy terms (a w_xent of 0
    skips the cross-entropy), and the two (J, K, n) arrays every evaluation writes in place."""

    zt: np.ndarray  # floored log-probabilities, (K, n)
    label_at: np.ndarray  # flat index of each row's label cell in a (K, n) array
    is_label: np.ndarray  # (K, n) bool, True at each row's label cell
    prior_mu: np.ndarray
    prior_var: np.ndarray
    family: _Family
    j: int  # draws per evaluation
    k: int
    n: int
    alpha: float
    w_brier: float
    w_xent: float
    scores: np.ndarray  # (J, K, n): the scores, then the probabilities
    resid: np.ndarray  # (J, K, n): the max and s[label], then p - onehot, then the Brier gradient


def _fit_constants(data: PredictionSet, prior: GaussianPosterior, family: str, weights: tuple,
                   j: int, alpha: float) -> _Fit:
    zt = np.ascontiguousarray(log_probs(data.probs).T)
    label_at = data.labels * data.n + np.arange(data.n)
    is_label = np.zeros(zt.shape, dtype=bool)
    is_label.reshape(-1)[label_at] = True
    # One block for both arrays: glibc keeps a freed block of this size for the next fit,
    # where it trimmed two of half the size and every fit faulted their pages in again.
    return _Fit(zt, label_at, is_label, prior.mu, prior.sigma**2, _FAMILIES[family], j,
                data.num_classes, data.n, alpha, *weights, *np.empty((2, j, *zt.shape)))


def _step(x: np.ndarray, fit: _Fit, xi: np.ndarray) -> tuple:
    """Objective, exact gradient and row (KL, mean sigma) at x = (mu, log_sigma), for _lbfgs.

    The cross-entropy -log p[label] = log sum exp(s - max) - (s[label] - max), taken only when
    fit.w_xent is on, is not floored, and is finite wherever the scores are, also where
    p[label] underflows to 0. The softmax is core's, in place in fit.scores; its (J, n) maximum
    and the gathered s[label] sit in the idle fit.resid, and its (J, n) sums take their log in
    place. The residual p - onehot, then in fit.resid, is the cross-entropy's gradient with
    respect to the scores; (resid - <p, resid>) * p, the Brier gradient over 2/n, overwrites
    it. The KL is _kl_gaussian_diag, which skips kl_gaussian_diag's checks.
    """
    mu, log_sigma = x[: len(x) // 2], x[len(x) // 2 :]
    sigma = np.exp(log_sigma)
    vs = mu[None, :] + sigma[None, :] * xi
    scores = fit.family.scores(vs, fit.zt, fit.k, fit.scores)
    picked, top = fit.resid.reshape(-1)[: 2 * fit.j * fit.n].reshape(2, fit.j, 1, fit.n)
    if fit.w_xent:  # s[label], before the softmax overwrites it; mode "raise" would copy out
        np.take(scores.reshape(fit.j, -1), fit.label_at, axis=1, mode="clip", out=picked[:, 0])
    p, top, norm = _softmax_parts(scores, 1, scores, top)
    value = 0.0
    if fit.w_xent:
        np.subtract(picked, top, out=picked)
        log_norm = np.log(norm, out=norm)
        value = fit.w_xent * np.add.reduce(np.subtract(log_norm, picked, out=log_norm), axis=None)
    resid = np.subtract(p, fit.is_label, out=fit.resid)
    value = fit.w_brier * np.einsum("jkn,jkn->", resid, resid) + value
    inner = np.einsum("jkn,jkn->jn", p, resid)
    g_xent = fit.w_xent * fit.family.grad(resid, fit.zt, vs) if fit.w_xent else 0.0
    resid -= inner[:, None, :]
    resid *= p
    g_vs = (2.0 * fit.w_brier * fit.family.grad(resid, fit.zt, vs) + g_xent) / fit.n
    g_mu = np.add.reduce(g_vs) / fit.j
    g_log_sigma = np.add.reduce(g_vs * xi) / fit.j * sigma

    var, var_p = sigma**2, fit.prior_var
    kl = _kl_gaussian_diag(mu, var, fit.prior_mu, var_p)
    value = float(value / (fit.n * fit.j) + fit.alpha * kl / fit.n)

    g_mu = g_mu + fit.alpha / fit.n * (mu - fit.prior_mu) / var_p
    g_log_sigma = g_log_sigma + fit.alpha / fit.n * (var / var_p - 1.0)
    return value, np.concatenate([g_mu, g_log_sigma]), (kl, np.add.reduce(sigma) / sigma.size)


def _checked_step(posterior, prior, data, cfg, rng) -> tuple:
    cfg = _optional(cfg, "cfg", PbrConfig) or PbrConfig()
    prior = _default_prior(replace(cfg, prior=prior), data.num_classes)
    posterior.kl_to(prior)  # kl_gaussian_diag checks shapes, means and variances
    xi = _draws(rng, cfg.mc_samples, posterior.dim)
    fit = _fit_constants(data, prior, cfg.family, _OBJECTIVES[cfg.objective], cfg.mc_samples,
                         cfg.alpha)
    return _step(np.concatenate([posterior.mu, posterior.log_sigma]), fit, xi)


def pbr_objective(
    posterior: GaussianPosterior,
    prior: Optional[GaussianPosterior],
    data: PredictionSet,
    cfg: Optional[PbrConfig],
    rng: Rng,
) -> float:
    """Monte Carlo objective; the same rng value always yields the same draws. A cfg of None
    means PbrConfig(), and a prior of None the default prior, as in a PbrConfig."""
    return _checked_step(posterior, prior, data, cfg, rng)[0]


def pbr_gradient(
    posterior: GaussianPosterior,
    prior: Optional[GaussianPosterior],
    data: PredictionSet,
    cfg: Optional[PbrConfig],
    rng: Rng,
) -> np.ndarray:
    """Exact gradient of :func:`pbr_objective` as concat(d/dmu, d/dlog_sigma)."""
    return _checked_step(posterior, prior, data, cfg, rng)[1]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return np.einsum("i,i->", a, b)  # not BLAS's ddot, whose summing order varies by CPU


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS direction -H g from the stored (s, y, 1 / s.y) pairs, oldest first."""
    q = g.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        coefs.append(rho * _dot(s, q))
        q -= coefs[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= _dot(s, y) / _dot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * _dot(y, q)) * s
    return -q


def _lbfgs(f: Callable, x: np.ndarray, max_iters: int) -> tuple:
    """Minimize f from x by L-BFGS with Armijo backtracking.

    f(x) returns (value, gradient, row). Each line search starts at the step 1,
    or min(1, 1 / max|g|) along -g while no curvature pair is kept, and halves it
    until the trial is finite and falls enough. Floating-point warnings are off
    throughout: a trial may overflow, and the search rejects it. Each iteration
    appends (value, *row, max|g|, step) at the point it accepts. Returns that
    point, its value, the stop reason and the rows.
    """
    with np.errstate(all="ignore"):
        value, g, _ = f(x)
        if not (math.isfinite(value) and np.isfinite(g).all()):
            raise RuntimeError(f"objective is not finite at the start ({value})")
        pairs, rows = deque(maxlen=_MEMORY), []
        g_max = np.abs(g).max()
        for _ in range(max_iters):
            if g_max < _GRAD_TOL:
                return x, value, "converged", rows
            d = _two_loop(g, pairs)
            slope = _dot(g, d)
            if not slope < 0.0:  # rounding has spoilt the curvature pairs; restart from -g
                pairs.clear()
                d, slope = -g, -_dot(g, g)
            step = 1.0 if pairs else min(1.0, 1.0 / g_max)
            for _ in range(_HALVINGS):
                trial = x + step * d
                new, g_new, row = f(trial)
                if (math.isfinite(new) and new <= value + step * (_ARMIJO * slope)
                        and np.isfinite(g_new).all()):
                    break
                step /= 2.0
            else:
                return x, value, "line_search_failed", rows
            s, y = trial - x, g_new - g
            sy = _dot(s, y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
            stalled = value - new <= _FALL_TOL * abs(value)
            x, value, g, g_max = trial, new, g_new, np.abs(g_new).max()
            rows.append((value, *row, g_max, step))
            if stalled:
                return x, value, "stalled", rows
    return x, value, "converged" if g_max < _GRAD_TOL else "max_iters", rows


@dataclass(frozen=True)
class PbrResult:
    """Outcome of :func:`train_pbr`, with the config it was fitted with.

    steps counts the optimizer's iterations. stop_reason is "converged" when
    max |gradient| fell below 1e-6, "stalled" when an iteration lowered the
    objective by at most 1e-9 relative, "line_search_failed" when no halved
    step lowered it enough, and "max_iters" when the iteration budget ran out.
    The read-only traces hold one value per iteration, at the point it
    accepted: the objective, the KL, the mean posterior sigma, max |gradient|
    and the accepted step length.
    """

    posterior: GaussianPosterior
    map: RecalMap
    prior: GaussianPosterior
    final_objective: float
    steps: int
    stop_reason: str
    cfg: PbrConfig
    trace_objective: np.ndarray = field(repr=False)
    trace_kl: np.ndarray = field(repr=False)
    trace_mean_sigma: np.ndarray = field(repr=False)
    trace_grad_norm: np.ndarray = field(repr=False)
    trace_step: np.ndarray = field(repr=False)

    @property
    def kl(self) -> float:
        return self.posterior.kl_to(self.prior)


def train_pbr(data: PredictionSet, cfg: Optional[PbrConfig]) -> PbrResult:
    """Fit the posterior by L-BFGS on the objective under one fixed draw matrix.

    Deterministic given (data, cfg), where None means PbrConfig(): the cfg.mc_samples draws
    come from stream 0 of cfg.seed, the fit starts at the prior, and the returned map is the
    family at the posterior mean mu. The result holds the last accepted point; final_objective
    is its objective, which is trace_objective[-1] whenever the fit took a step.
    """
    cfg = _optional(cfg, "cfg", PbrConfig) or PbrConfig()
    prior = _default_prior(cfg, data.num_classes)
    fit = _fit_constants(data, prior, cfg.family, _OBJECTIVES[cfg.objective], cfg.mc_samples,
                         cfg.alpha)
    xi = _draws(Rng(cfg.seed).stream(0), fit.j, prior.dim)
    x, value, stop_reason, rows = _lbfgs(partial(_step, fit=fit, xi=xi),
                                         np.concatenate([prior.mu, prior.log_sigma]), cfg.max_iters)
    posterior = GaussianPosterior(x[: prior.dim], x[prior.dim :])
    traces = np.array(rows, dtype=float).reshape(-1, 5).T.copy()
    traces.setflags(write=False)
    return PbrResult(posterior, RecalMap(cfg.family, data.num_classes, posterior.mu), prior,
                     float(value), len(rows), stop_reason, cfg, *traces)


def temperature_scaling_fit(data: PredictionSet) -> RecalMap:
    """Temperature scaling: the point fit of the temperature family under the cross-entropy.

    _lbfgs minimizes _step from log(t) = 0 at log sigma = 0, with the weights (0, 1), one draw
    xi = 0, alpha = 0 and the unit prior at 0: the objective is the mean cross-entropy at t,
    and its log sigma gradient is exactly 0, so only log(t) moves. The result is clipped to
    _LOG_T_RANGE, [-5, 5]. Labels all of one class fall back to t = 1 with a warning.
    """
    if np.unique(data.labels).size < 2:
        warnings.warn("all labels identical; temperature fit falls back to t=1")
        return RecalMap.temperature(1.0, data.num_classes)
    unit_prior = GaussianPosterior.at(np.zeros(1))
    fit = _fit_constants(data, unit_prior, "temperature", (0.0, 1.0), 1, 0.0)
    x = _lbfgs(partial(_step, fit=fit, xi=np.zeros((1, 1))), np.zeros(2), PbrConfig.max_iters)[0]
    return RecalMap("temperature", data.num_classes, np.clip(x[:1], *_LOG_T_RANGE))
