import importlib.resources
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from calbound import (
    GaussianPosterior,
    MiscalibrationMapK,
    MulticlassSpec,
    PbrConfig,
    PredictionSet,
    RecalMap,
    Rng,
    ValidationError,
    apply_recal,
    brier_score,
    pbr_gradient,
    pbr_objective,
    recalibrate_set,
    softmax_cross_entropy,
    temperature_scaling_fit,
    train_pbr,
)
from calbound.core import _softmax_parts, log_probs, softmax
import calbound.recal as recal
from calbound.harness import load_dump
from calbound.harness.experiments import _split_source
from calbound.recal import _FAMILIES, FAMILIES, _lbfgs, identity_params, param_dim
from tests.conftest import random_prediction_set


def _row_major_scores(family, k, vs, z):
    """Reference forward map in the (J, n, K) layout: vs is (J, d), z is (n, K)."""
    if family == "temperature":
        return z[None, :, :] * np.exp(-vs[:, 0])[:, None, None]
    if family == "vector_scale":
        w, b = vs[:, :k], vs[:, k:]
        return z[None, :, :] * w[:, None, :] + b[:, None, :]
    mats = vs[:, : k * k].reshape(-1, k, k)
    b = vs[:, k * k :]
    return np.einsum("jkl,nl->jnk", mats, z) + b[:, None, :]


def _label_log_probs(scores, labels):
    """log softmax(scores)[label] of (J, n, K) scores, by log-sum-exp: finite where p underflows."""
    shifted = scores - scores.max(axis=2, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    return log_p[:, np.arange(len(labels)), labels]


def _row_major_objective_and_gradient(posterior, prior, data, cfg, xi):
    """Reference objective and (d/dmu, d/dlog_sigma) in the (J, n, K) layout."""
    k = data.num_classes
    sigma = posterior.sigma
    vs = posterior.mu[None, :] + sigma[None, :] * xi
    z = log_probs(data.probs)
    scores = _row_major_scores(cfg.family, k, vs, z)
    p = softmax(scores)
    e = np.eye(k)[data.labels]

    resid = p - e[None, :, :]
    briers = (resid**2).sum(axis=2).mean(axis=1)
    xents = -_label_log_probs(scores, data.labels).mean(axis=1)

    inner = (p * resid).sum(axis=2, keepdims=True)
    g_scores = 2.0 * p * (resid - inner)
    if cfg.objective == "brier_plus_loss":
        g_scores = g_scores + resid
    g_scores = g_scores / data.n

    if cfg.family == "temperature":
        g_vs = -(g_scores * scores).sum(axis=(1, 2))[:, None]
    elif cfg.family == "vector_scale":
        gw = (g_scores * z[None, :, :]).sum(axis=1)
        g_vs = np.concatenate([gw, g_scores.sum(axis=1)], axis=1)
    else:
        gmat = np.einsum("jnk,nl->jkl", g_scores, z)
        g_vs = np.concatenate([gmat.reshape(g_scores.shape[0], -1), g_scores.sum(axis=1)], axis=1)
    g_mu = g_vs.mean(axis=0)
    g_log_sigma = (g_vs * xi).mean(axis=0) * sigma

    value = briers.mean()
    if cfg.objective == "brier_plus_loss":
        value += xents.mean()
    value = float(value + cfg.alpha * posterior.kl_to(prior) / data.n)

    var_p = prior.sigma**2
    g_mu = g_mu + cfg.alpha / data.n * (posterior.mu - prior.mu) / var_p
    g_log_sigma = g_log_sigma + cfg.alpha / data.n * (sigma**2 / var_p - 1.0)
    return value, np.concatenate([g_mu, g_log_sigma])


def test_param_dims_per_family():
    assert param_dim("temperature", 5) == 1
    assert param_dim("vector_scale", 5) == 10
    assert param_dim("affine", 5) == 30
    for reject in (
        lambda: param_dim("spline", 3),
        lambda: identity_params("spline", 3),
        lambda: RecalMap("spline", 3, np.zeros(1)),
        lambda: RecalMap.from_dict({"family": "spline", "num_classes": 3, "params": [0.0]}),
        lambda: PbrConfig(family="spline"),
    ):
        with pytest.raises(ValidationError, match="unknown family 'spline'"):
            reject()


def test_identity_params_are_fixed_points(gen):
    probs = gen.dirichlet(np.ones(4), 50)
    for family in ("temperature", "vector_scale", "affine"):
        m = RecalMap.identity(family, 4)
        assert np.allclose(apply_recal(m, probs), probs, atol=1e-9)
        assert np.array_equal(m.params, identity_params(family, 4))


def test_temperature_two_flattens_hand_example():
    out = apply_recal(RecalMap.temperature(2.0), np.array([[0.8, 0.2]]))
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_temperature_constructor_validates_and_round_trips():
    m = RecalMap.temperature(1.7, num_classes=3)
    assert m.t == pytest.approx(1.7)
    with pytest.raises(ValidationError):
        RecalMap.temperature(0.0)
    clone = RecalMap.from_dict(m.to_dict())
    assert clone == m
    assert m.to_dict()["t"] == pytest.approx(1.7)


def test_temperature_below_one_sharpens(gen):
    probs = gen.dirichlet(np.ones(3), 100)
    sharp = apply_recal(RecalMap.temperature(0.5, 3), probs)
    assert (sharp.max(axis=1) >= probs.max(axis=1) - 1e-12).all()


def test_vector_scale_and_affine_apply(gen):
    probs = gen.dirichlet(np.ones(3), 20)
    w, b = np.array([2.0, 1.0, 0.5]), np.array([0.1, 0.0, -0.1])
    mv = RecalMap.vector_scale(w, b)
    z = np.log(probs)
    expect = np.exp(z * w + b)
    expect /= expect.sum(axis=1, keepdims=True)
    assert np.allclose(apply_recal(mv, probs), expect, atol=1e-12)

    mat = np.eye(3) + 0.1
    ma = RecalMap.affine(mat, b)
    expect = np.exp(z @ mat.T + b)
    expect /= expect.sum(axis=1, keepdims=True)
    assert np.allclose(apply_recal(ma, probs), expect, atol=1e-12)


def test_apply_recal_rejects_a_single_row():
    m = RecalMap.vector_scale(np.array([1.5, 1.0, 0.7, 1.1]), np.zeros(4))
    with pytest.raises(ValidationError, match="2-D"):
        apply_recal(m, np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValidationError, match="4 classes"):
        apply_recal(m, np.full((2, 3), 1.0 / 3.0))


def test_recalibrate_set_keeps_labels(gen):
    data = random_prediction_set(gen, 40, 3)
    out = recalibrate_set(RecalMap.temperature(2.0, 3), data)
    assert np.array_equal(out.labels, data.labels)
    assert out.n == data.n


def test_recalibrate_set_rejects_a_map_that_makes_nan_rows(gen):
    # t = exp(-800) underflows to 0, so the scaled scores are infinite
    data = random_prediction_set(gen, 5, 2)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="NaN"):
        recalibrate_set(RecalMap("temperature", 2, [-800.0]), data)


@pytest.mark.parametrize("saved, message", [
    (RecalMap.temperature(1.0).to_dict() | {"t": 5.0},
     r"^recalibration map t 5.0 is not exp\(params\[0\]\)$"),
    (RecalMap.temperature(2.0).to_dict() | {"t": True},
     r"^recalibration map t must be finite, got True$"),
    (RecalMap.temperature(2.0).to_dict() | {"t": "2.0"},
     r"^recalibration map t must be finite, got '2.0'$"),
    (RecalMap.identity("vector_scale", 2).to_dict() | {"t": 1.0},
     r"^vector_scale map has no temperature$"),
    (RecalMap.identity("affine", 3).to_dict() | {"t": 1.0}, r"^affine map has no temperature$"),
])
def test_recal_map_from_dict_refuses_a_t_its_params_do_not_give(saved, message):
    with pytest.raises(ValidationError, match=message):
        RecalMap.from_dict(saved)


@pytest.mark.parametrize("m", [RecalMap.temperature(t, 3) for t in (0.1, 1.0, 1.7, 2.0, 1e3)]
                         + [RecalMap.identity(f, 3) for f in ("vector_scale", "affine")])
def test_recal_map_to_dict_loads_back(m):
    saved = m.to_dict()
    assert RecalMap.from_dict(json.loads(json.dumps(saved))).to_dict() == saved


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_recal_map_refuses_non_finite_params(bad):
    with pytest.raises(ValidationError, match="affine map params must be finite"):
        RecalMap("affine", 2, [bad] * 6)
    saved = json.loads(json.dumps(RecalMap.temperature(2.0).to_dict() | {"params": [bad]}))
    with pytest.raises(ValidationError, match="temperature map params must be finite"):
        RecalMap.from_dict(saved)


def test_brier_and_cross_entropy_hand_values():
    ps = PredictionSet.from_probs([[0.8, 0.2]], [0])
    assert brier_score(ps) == pytest.approx(0.04 + 0.04, abs=1e-12)
    assert softmax_cross_entropy(ps) == pytest.approx(-np.log(0.8), abs=1e-12)
    perfect = PredictionSet.from_probs([[1.0, 0.0]], [0])
    assert brier_score(perfect) == 0.0


@pytest.mark.parametrize("k", [2, 5, 10, 100])
def test_brier_score_is_the_one_hot_formula_bit_for_bit(k):
    data = random_prediction_set(np.random.default_rng(k), 2000, k)
    one_hot = np.eye(k)[data.labels]
    assert brier_score(data) == float(np.mean(((data.probs - one_hot) ** 2).sum(axis=1)))


def test_brier_score_holds_one_copy_of_the_probabilities():
    data = random_prediction_set(np.random.default_rng(0), 2000, 100)
    brier_score(data)  # a first call may allocate numpy's own caches; keep that out
    tracemalloc.start()
    try:
        brier_score(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One (n, K) copy plus n-long label indexes and row sums; a one-hot build and a
    # difference array make two.
    assert peak <= 1.2 * data.probs.nbytes


def test_brier_decreases_when_confidence_matches_truth():
    wrong = PredictionSet.from_probs([[0.9, 0.1]], [1])
    right = PredictionSet.from_probs([[0.9, 0.1]], [0])
    assert brier_score(right) < brier_score(wrong)


def test_gaussian_posterior_helpers():
    p = GaussianPosterior.at(np.zeros(3))
    assert p.dim == 3
    assert np.allclose(p.sigma, 1.0)
    assert p.kl_to(p) == 0.0
    q = GaussianPosterior.at(np.array([1.0, 0.0, 0.0]))
    assert q.kl_to(p) == pytest.approx(0.5, abs=1e-12)
    clone = GaussianPosterior.from_dict(q.to_dict())
    assert np.allclose(clone.mu, q.mu) and np.allclose(clone.log_sigma, q.log_sigma)


def test_pbr_config_validation_and_round_trip():
    cfg = PbrConfig(family="vector_scale", alpha=0.5, mc_samples=2, seed=9)
    clone = PbrConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    with pytest.raises(ValidationError):
        PbrConfig(alpha=-0.1)
    with pytest.raises(ValidationError):
        PbrConfig(family="nope")
    with pytest.raises(ValidationError):
        PbrConfig(objective="hinge")
    with pytest.raises(ValidationError):
        PbrConfig(mc_samples=0)
    with pytest.raises(ValidationError, match=r"^unknown PbrConfig key 'step'$"):
        PbrConfig.from_dict({**cfg.to_dict(), "step": 0.1})


@pytest.mark.parametrize("field", ["alpha", "step_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_pbr_config_rejects_alpha_and_step_size_out_of_range(field, value):
    with pytest.raises(ValidationError, match="must be finite"):
        PbrConfig(**{field: value})


def test_objective_is_deterministic_given_rng(gen):
    data = random_prediction_set(gen, 60, 3)
    cfg = PbrConfig(family="temperature", alpha=0.25)
    post = GaussianPosterior(np.array([0.3]), np.array([math.log(0.8)]))
    prior = GaussianPosterior.at(np.zeros(1))
    v1 = pbr_objective(post, prior, data, cfg, Rng(5))
    v2 = pbr_objective(post, prior, data, cfg, Rng(5))
    assert v1 == v2
    # alpha scales only the KL part
    cfg0 = PbrConfig(family="temperature", alpha=0.0)
    v0 = pbr_objective(post, prior, data, cfg0, Rng(5))
    assert v1 == pytest.approx(v0 + 0.25 * post.kl_to(prior) / data.n, abs=1e-12)


@pytest.mark.parametrize("k", [2, 5, 10, 20])
@pytest.mark.parametrize("objective", ["brier", "brier_plus_loss"])
@pytest.mark.parametrize("family", FAMILIES)
def test_class_major_pass_matches_row_major_reference(gen, family, objective, k):
    # Sums over n and K run in another order than in the reference (einsum's
    # unrolled loops, numpy's pairwise sums), so agreement is to rounding, not bit
    # for bit. n = 1000 runs einsum's long sums; one draw takes the single-draw path.
    for n, mc_samples in ((60, 3), (1000, 1)):
        data = random_prediction_set(gen, n, k)
        dim = param_dim(family, k)
        cfg = PbrConfig(family=family, alpha=0.3, mc_samples=mc_samples, objective=objective)
        post = GaussianPosterior(
            identity_params(family, k) + gen.normal(0.0, 0.2, dim), gen.normal(-1.0, 0.2, dim)
        )
        prior = GaussianPosterior.at(np.zeros(dim))
        xi = Rng(11).generator().standard_normal((cfg.mc_samples, dim))
        value, grad = _row_major_objective_and_gradient(post, prior, data, cfg, xi)
        assert pbr_objective(post, prior, data, cfg, Rng(11)) == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(pbr_gradient(post, prior, data, cfg, Rng(11)), grad,
                                   rtol=1e-12)

        m = RecalMap(family, k, post.mu)
        expect = softmax(_row_major_scores(family, k, post.mu[None, :],
                                           log_probs(data.probs))[0])
        np.testing.assert_allclose(apply_recal(m, data.probs), expect, rtol=1e-12)


@pytest.mark.parametrize("family, dim", [("temperature", 3), ("vector_scale", 5), ("affine", 4)])
def test_pbr_objective_and_gradient_refuse_a_prior_of_another_dimension(gen, family, dim):
    data = random_prediction_set(gen, 20, 3)
    wrong = GaussianPosterior.at(np.zeros(dim))
    message = (rf"^prior dimension {dim} does not match {family} over 3 classes "
               rf"\({param_dim(family, 3)}\)$")
    for call in (pbr_objective, pbr_gradient):
        with pytest.raises(ValidationError, match=message):
            call(wrong, wrong, data, PbrConfig(family=family), Rng(0))


def test_pbr_objective_and_gradient_read_none_as_the_defaults(gen):
    data = random_prediction_set(gen, 20, 3)
    post = GaussianPosterior(np.array([0.3]), np.array([-0.5]))
    unit = GaussianPosterior.at(np.zeros(1))
    for call in (pbr_objective, pbr_gradient):
        assert np.array_equal(call(post, None, data, None, Rng(2)),
                              call(post, unit, data, PbrConfig(), Rng(2)))


def _assert_gradient_matches_finite_differences(data, family, objective, post):
    h = 1e-5
    dim = post.dim
    cfg = PbrConfig(family=family, alpha=0.3, mc_samples=3, objective=objective)
    prior = GaussianPosterior.at(np.zeros(dim))
    grad = pbr_gradient(post, prior, data, cfg, Rng(11))
    theta = np.concatenate([post.mu, post.log_sigma])
    for j in (0, dim - 1, dim, 2 * dim - 1):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        pu = GaussianPosterior(up[:dim], up[dim:])
        pd = GaussianPosterior(dn[:dim], dn[dim:])
        fd = (
            pbr_objective(pu, prior, data, cfg, Rng(11))
            - pbr_objective(pd, prior, data, cfg, Rng(11))
        ) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_gradient_matches_finite_differences(gen):
    # smaller sibling of the acceptance sweep, one config per family; K = 10
    # sums over the classes with numpy's pairwise summation
    for k, objective in ((3, "brier_plus_loss"), (10, "brier")):
        for family in FAMILIES:
            data = random_prediction_set(gen, 30, k)
            dim = param_dim(family, k)
            post = GaussianPosterior(gen.normal(0.0, 0.3, dim), gen.normal(-0.5, 0.2, dim))
            _assert_gradient_matches_finite_differences(data, family, objective, post)


def test_loss_gradient_where_the_probability_floor_is_active():
    # W = 20 I sends the first row's label probability to about 1e-25, below
    # PROB_FLOOR; the objective is not floored, so its gradient still follows the scores there.
    data = PredictionSet.from_probs([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]], [1, 1])
    mu = RecalMap.affine(20.0 * np.eye(3), np.zeros(3)).params
    post = GaussianPosterior(mu, np.full(mu.size, -5.0))
    _assert_gradient_matches_finite_differences(data, "affine", "brier_plus_loss", post)


def _one_hot_objectives(weight):
    """One-hot rows over 10 classes, 20% wrong, a vector_scale posterior with every weight at
    weight (sigma e^-3), its prior, and the configs of both objectives."""
    data = _one_hot(50, 10, 0.2)
    mu = RecalMap.vector_scale(np.full(10, weight), np.zeros(10)).params
    post, prior = GaussianPosterior(mu, np.full(20, -3.0)), GaussianPosterior.at(np.zeros(20))
    cfgs = [PbrConfig(family="vector_scale", mc_samples=3, objective=objective)
            for objective in ("brier", "brier_plus_loss")]
    return data, post, prior, cfgs


@pytest.mark.parametrize("weight", [2.0, 40.0])
def test_loss_is_the_unfloored_cross_entropy_on_one_hot_rows(weight):
    # Weights 2 send a wrong row's label probability to about (1e-12)^2 = 1e-24, so its
    # cross-entropy is about 55, not the floor's -log 1e-12 = 27.63; weights 40 send it to
    # e^-1105, which underflows to 0, and the cross-entropy is still finite, about 1105.
    data, post, prior, cfgs = _one_hot_objectives(weight)
    brier, total = (pbr_objective(post, prior, data, cfg, Rng(4)) for cfg in cfgs)
    vs = post.mu + post.sigma * Rng(4).generator().standard_normal((3, 20))
    scores = log_probs(data.probs)[None] * vs[:, None, :10] + vs[:, None, 10:]
    picked = _label_log_probs(scores, data.labels)
    assert picked.min() < -25.0 * weight
    assert total - brier == pytest.approx(-picked.mean(), rel=1e-12)
    assert np.isfinite(pbr_gradient(post, prior, data, cfgs[1], Rng(4))).all()


def test_train_pbr_learns_from_a_start_where_label_probabilities_underflow():
    # A temperature prior at log t = -4 sends most start draws' wrong label probabilities on
    # one-hot rows to 0 (27.63 / t > 745). The cross-entropy is finite there and its gradient
    # raises t to about 7.7; a floored loss would be flat and the fit would stay at the start.
    cfg = PbrConfig(objective="brier_plus_loss", prior=GaussianPosterior.at([-4.0]))
    result = train_pbr(_one_hot(200, 10, 0.2), cfg)
    assert np.isfinite(result.trace_objective).all() and result.steps > 0
    assert 5.0 < result.map.t < 10.0


def _reference_step(posterior, prior, data, cfg, xi):
    """The training step before its per-fit constants were hoisted: the class-major
    layout built per step, a posterior object per step, kl_to and ndarray.mean."""
    sigma = posterior.sigma
    vs = posterior.mu[None, :] + sigma[None, :] * xi
    zt = np.ascontiguousarray(log_probs(data.probs).T)
    label_at = data.labels * data.n + np.arange(data.n)
    n = zt.shape[1]
    family = _FAMILIES[cfg.family]
    scores = family.scores(vs, zt)
    picked, top = scores.reshape(len(xi), -1)[:, label_at], scores.max(axis=1)
    norm = np.exp(scores - top[:, None, :]).sum(axis=1)
    p = softmax(scores, axis=1)

    resid = p.copy()
    resid.reshape(len(xi), -1)[:, label_at] -= 1.0
    value = np.einsum("jkn,jkn->", resid, resid)
    inner = np.einsum("jkn,jkn->jn", p, resid)
    g_loss = 0.0
    if cfg.objective == "brier_plus_loss":
        value += (np.log(norm) - (picked - top)).sum()
        g_loss = family.grad(resid, zt, vs)
    g_vs = (2.0 * family.grad((resid - inner[:, None, :]) * p, zt, vs) + g_loss) / n
    g_mu = g_vs.mean(axis=0)
    g_log_sigma = (g_vs * xi).mean(axis=0) * sigma

    kl = posterior.kl_to(prior)
    value = float(value / (n * len(xi)) + cfg.alpha * kl / n)

    var_p = prior.sigma**2
    g_mu = g_mu + cfg.alpha / n * (posterior.mu - prior.mu) / var_p
    g_log_sigma = g_log_sigma + cfg.alpha / n * (sigma**2 / var_p - 1.0)
    return value, kl, g_mu, g_log_sigma


def _row_major_step(posterior, prior, data, cfg, xi):
    value, grad = _row_major_objective_and_gradient(posterior, prior, data, cfg, xi)
    return value, posterior.kl_to(prior), grad[: posterior.dim], grad[posterior.dim :]


def _dot(a, b):
    return np.einsum("i,i->", a, b)


def _reference_lbfgs(data, cfg, step=_reference_step):
    """The fit written out per iteration, driving step: a posterior object per
    evaluation at the draws fixed for the fit, the curvature pairs as plain lists
    (10 kept), the two-loop recursion, and Armijo backtracking by halving from 1,
    or from min(1, 1 / max|g|) with no pair kept. Returns the posterior, the map
    parameters, the last objective, the stop reason and, per iteration, the
    objective, KL, mean sigma, max |gradient| and step."""
    prior = cfg.prior or GaussianPosterior.at(identity_params(cfg.family, data.num_classes))
    d = prior.dim
    xi = Rng(cfg.seed).stream(0).generator().standard_normal((cfg.mc_samples, d))

    def evaluate(x):
        posterior = GaussianPosterior(x[:d], x[d:])
        with np.errstate(all="ignore"):
            value, kl, g_mu, g_log_sigma = step(posterior, prior, data, cfg, xi)
            return value, np.concatenate([g_mu, g_log_sigma]), kl, posterior.sigma.mean()

    x = np.concatenate([prior.mu, prior.log_sigma])
    value, g = evaluate(x)[:2]
    ss, ys, rows, stop_reason = [], [], [], "max_iters"
    for _ in range(cfg.max_iters):
        if np.abs(g).max() < 1e-6:
            stop_reason = "converged"
            break
        q, coefs = g.copy(), []
        for s, y in zip(ss[::-1], ys[::-1]):
            coefs.append(1.0 / _dot(s, y) * _dot(s, q))
            q -= coefs[-1] * y
        if ss:
            q *= _dot(ss[-1], ys[-1]) / _dot(ys[-1], ys[-1])
        for s, y, a in zip(ss, ys, coefs[::-1]):
            q += (a - 1.0 / _dot(s, y) * _dot(y, q)) * s
        direction = -q
        slope = _dot(g, direction)
        if not slope < 0.0:
            ss, ys, direction, slope = [], [], -g, -_dot(g, g)
        t = 1.0 if ss else min(1.0, 1.0 / np.abs(g).max())
        for _ in range(40):
            new, g_new, kl, mean_sigma = evaluate(x + t * direction)
            if (math.isfinite(new) and new <= value + t * (1e-4 * slope)
                    and np.isfinite(g_new).all()):
                break
            t /= 2.0
        else:
            stop_reason = "line_search_failed"
            break
        s, y = x + t * direction - x, g_new - g
        if _dot(s, y) > 0.0:
            ss, ys = (ss + [s])[-10:], (ys + [y])[-10:]
        stalled = value - new <= 1e-9 * abs(value)
        x, value, g = x + t * direction, new, g_new
        rows.append((value, kl, mean_sigma, np.abs(g).max(), t))
        if stalled:
            stop_reason = "stalled"
            break
    else:
        if np.abs(g).max() < 1e-6:
            stop_reason = "converged"

    posterior = GaussianPosterior(x[:d], x[d:])
    return posterior, posterior.mu, value, stop_reason, np.array(rows).reshape(-1, 5)


TRACES = ("trace_objective", "trace_kl", "trace_mean_sigma", "trace_grad_norm", "trace_step")


def _assert_fit_matches_reference(data, cfg):
    res = train_pbr(data, cfg)
    posterior, params, value, stop_reason, rows = _reference_lbfgs(data, cfg)
    assert np.array_equal(res.posterior.mu, posterior.mu)
    assert np.array_equal(res.posterior.log_sigma, posterior.log_sigma)
    assert np.array_equal(res.map.params, params)
    assert res.final_objective == value
    assert (res.steps, res.stop_reason) == (len(rows), stop_reason)
    for name, column in zip(TRACES, rows.T):
        assert np.array_equal(getattr(res, name), column), name


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("objective", ["brier", "brier_plus_loss"])
@pytest.mark.parametrize("family", FAMILIES)
def test_train_pbr_matches_the_per_iteration_reference_bit_for_bit(gen, family, objective,
                                                                    alpha, k):
    # max_iters 150 lets some fits stop on their own and caps the others; 3 draws
    # make every mean over the draws a division that rounds
    data = random_prediction_set(gen, 60, k)
    cfg = PbrConfig(family=family, alpha=alpha, objective=objective, mc_samples=3, seed=3,
                    max_iters=150)
    _assert_fit_matches_reference(data, cfg)


def test_train_pbr_matches_the_per_iteration_reference_under_a_narrow_prior(gen):
    # criterion 9's config: affine over 10 classes, prior sigma 0.1
    data = random_prediction_set(gen, 100, 10)
    prior = GaussianPosterior(identity_params("affine", 10), np.full(110, math.log(0.1)))
    cfg = PbrConfig(family="affine", step_size=0.1, step_decay=0.999, max_iters=120, prior=prior)
    _assert_fit_matches_reference(data, cfg)


@pytest.mark.parametrize("objective", ["brier", "brier_plus_loss"])
@pytest.mark.parametrize("family", FAMILIES)
def test_train_pbr_returns_the_family_at_the_posterior_mean(gen, family, objective):
    data = random_prediction_set(gen, 60, 4)
    res = train_pbr(data, PbrConfig(family=family, objective=objective, max_iters=20))
    assert res.map.family == family and res.map.num_classes == 4
    assert np.array_equal(res.map.params, res.posterior.mu)


def test_pbr_config_refuses_a_recorded_j_final():
    # a cfg recorded when the map was the mean of j_final fresh draws: replaying it here
    # would give other numbers than the report holds
    with pytest.raises(ValidationError, match=r"^unknown PbrConfig key 'j_final'$"):
        PbrConfig.from_dict({**PbrConfig().to_dict(), "j_final": 100})


@pytest.mark.parametrize("objective", ["brier", "brier_plus_loss"])
@pytest.mark.parametrize("family", FAMILIES)
def test_train_pbr_stops_where_the_row_major_loop_stops(gen, family, objective):
    # The fused step sums in another order than the row-major reference. The
    # temperature and vector_scale fits agree to rounding and stop at the same
    # iteration. The affine fit (30 parameters on 80 rows) is nearly flat along
    # some directions, and the rounding differences grow along them: its
    # objective agrees to 1e-8 relative, and it stalls an iteration or two apart.
    data = random_prediction_set(gen, 80, 5)
    cfg = PbrConfig(family=family, alpha=0.25, objective=objective, seed=7)
    res = train_pbr(data, cfg)
    posterior, _, value, stop_reason, rows = _reference_lbfgs(data, cfg, _row_major_step)
    assert res.stop_reason == stop_reason
    if family == "affine":
        assert abs(res.steps - len(rows)) <= 2
        assert res.final_objective == pytest.approx(value, rel=1e-7)
        np.testing.assert_allclose(res.posterior.mu, posterior.mu, atol=1e-3)
    else:
        assert res.steps == len(rows)
        np.testing.assert_allclose(res.trace_objective, rows[:, 0], rtol=1e-12)
        np.testing.assert_allclose(res.posterior.mu, posterior.mu, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 5])
def test_train_pbr_evaluates_every_point_at_one_fixed_draw_matrix(gen, monkeypatch, seed):
    draws = []

    def record(x, fit):
        draws.append(fit.xi.copy())
        return real_step(x, fit)

    real_step = recal._step
    monkeypatch.setattr(recal, "_step", record)
    data = random_prediction_set(gen, 20, 3)
    res = train_pbr(data, PbrConfig(family="vector_scale", mc_samples=4, seed=seed))
    expect = Rng(seed).stream(0).generator().standard_normal((4, 6))
    assert len(draws) > res.steps > 1  # the start, and at least one trial per iteration
    for xi in draws:
        assert np.array_equal(xi, expect)


@pytest.mark.parametrize("objective", ["brier", "brier_plus_loss", "temperature_scaling"])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_warm_step_writes_its_arrays_into_the_fit_workspace(family, objective):
    # The scores, probabilities and residual live in the fit's two (J, K, n) arrays, and the
    # (J, n) maximum and s[label] in the idle residual one; a step that allocated them took
    # 2.1 (J, K, n) arrays. What is left is one (J, n) array, 0.1 of one at K = 10.
    # temperature_scaling is the weight row (0, 1) that temperature_scaling_fit steps with.
    j, k, n = 4, 10, 5000
    data = random_prediction_set(np.random.default_rng(k), n, k)
    weights = {**recal._OBJECTIVES, "temperature_scaling": (0.0, 1.0)}[objective]
    prior = recal._default_prior(PbrConfig(family=family), k)
    fit = recal._fit_constants(data, prior, family, weights,
                               recal._draws(Rng(0).stream(0), j, prior.dim), 0.25)
    x = np.concatenate([prior.mu, prior.log_sigma])
    first = recal._step(x, fit)  # a first call may allocate numpy's own caches; keep that out
    tracemalloc.start()
    try:
        again = recal._step(x, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again[0] == first[0] and np.array_equal(again[1], first[1])
    assert peak < 0.5 * (j * k * n * 8)


def test_fits_run_side_by_side_in_threads_equal_the_serial_fits():
    # Fits of one shape, so a buffer shared between fits would be written by both at once.
    jobs = [(random_prediction_set(np.random.default_rng(seed), 2000, 5),
             PbrConfig(family="vector_scale", objective=objective, seed=seed, max_iters=40))
            for seed in (1, 2) for objective in ("brier", "brier_plus_loss")]
    serial = [train_pbr(data, cfg) for data, cfg in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock between the fits often
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            side_by_side = list(pool.map(lambda job: train_pbr(*job), jobs, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for alone, together in zip(serial, side_by_side):
        assert together.final_objective == alone.final_objective
        assert together.steps == alone.steps
        for name in ("mu", "log_sigma"):
            assert np.array_equal(getattr(together.posterior, name),
                                  getattr(alone.posterior, name))
        assert np.array_equal(together.map.params, alone.map.params)
        for name in TRACES:
            assert np.array_equal(getattr(together, name), getattr(alone, name))


@pytest.mark.parametrize("family", FAMILIES)
def test_train_pbr_trace_follows_the_fit(gen, family):
    data = random_prediction_set(gen, 80, 3)
    res = train_pbr(data, PbrConfig(family=family, alpha=0.5, seed=2))
    for name in TRACES:
        trace = getattr(res, name)
        assert trace.shape == (res.steps,)
        assert trace.dtype == float
        assert not trace.flags.writeable
    assert res.trace_objective[-1] == res.final_objective
    assert res.trace_kl[-1] == pytest.approx(res.kl, rel=1e-12)
    assert res.trace_mean_sigma[-1] == pytest.approx(res.posterior.sigma.mean(), rel=1e-12)
    assert (np.diff(res.trace_objective) < 0.0).all()  # Armijo: every accepted step falls
    assert (res.trace_step > 0.0).all() and (res.trace_step <= 1.0).all()
    assert (res.trace_grad_norm > 0.0).all()


def test_train_pbr_reports_why_it_stopped(gen):
    data = random_prediction_set(gen, 80, 2)
    converged = train_pbr(data, PbrConfig(alpha=0.25, seed=1))
    assert converged.stop_reason == "converged"
    assert converged.trace_grad_norm[-1] < 1e-6 <= converged.trace_grad_norm[:-1].min()

    stalled = train_pbr(data, PbrConfig(family="vector_scale", alpha=0.25, seed=1))
    assert stalled.stop_reason == "stalled"
    before, last = stalled.trace_objective[-2:]
    assert before - last <= 1e-9 * abs(before)
    assert stalled.steps < 300

    capped = train_pbr(data, PbrConfig(family="vector_scale", alpha=0.25, seed=1, max_iters=5))
    assert capped.stop_reason == "max_iters"
    assert capped.steps == 5
    assert np.array_equal(capped.trace_objective, stalled.trace_objective[:5])


def test_train_pbr_reports_a_line_search_that_finds_no_fall(gen, monkeypatch):
    # a stand-in objective whose gradient points uphill: no halved step lowers it
    def uphill(x, fit):
        return float(np.sum(x**2)), -2.0 * x - 1.0, (0.0, 1.0)

    monkeypatch.setattr(recal, "_step", uphill)
    res = train_pbr(random_prediction_set(gen, 20, 3), PbrConfig())
    assert (res.stop_reason, res.steps) == ("line_search_failed", 0)
    assert res.final_objective == 0.0
    assert np.array_equal(res.posterior.mu, res.prior.mu)
    assert all(getattr(res, name).shape == (0,) for name in TRACES)


def test_lbfgs_finds_the_minimizer_of_a_strictly_convex_quadratic():
    # 0.5 (x - c)' A (x - c): minimum 0 at c, so every iteration falls by a large
    # share of the value and only the gradient test can stop the fit
    gen = np.random.default_rng(3)
    q = np.linalg.qr(gen.normal(size=(8, 8)))[0]
    a = q @ np.diag(np.logspace(-2, 2, 8)) @ q.T  # condition number 1e4
    c = gen.normal(size=8)

    def f(x):
        return 0.5 * (x - c) @ a @ (x - c), a @ (x - c), ()

    x, value, stop_reason, rows = _lbfgs(f, np.zeros(8), 500)
    assert stop_reason == "converged"
    assert np.abs(a @ (x - c)).max() < 1e-6
    np.testing.assert_allclose(x, c, atol=1e-5)
    assert rows[-1][0] == value and rows[-1][1] < 1e-6
    assert all(later[0] < earlier[0] for earlier, later in zip(rows, rows[1:]))


def test_lbfgs_restarts_from_the_gradient_when_its_direction_climbs(monkeypatch):
    # a two-loop that points uphill is dropped for -g, and the fit still descends
    monkeypatch.setattr(recal, "_two_loop", lambda g, pairs: g.copy())
    x, value, stop_reason, rows = _lbfgs(
        lambda x: (float(x @ x), 2.0 * x, ()), np.array([0.3, -0.2]), 200)
    assert stop_reason == "converged"
    assert np.abs(x).max() < 1e-6
    assert all(later[0] < earlier[0] for earlier, later in zip(rows, rows[1:]))


def test_lbfgs_rejects_a_non_finite_trial_and_backtracks():
    # (x - 1)^2 is finite only below 1.2; the first trial, 0.5 + 1, lands past it
    def f(x):
        trials.append(float(x[0]))
        value = np.where(x[0] < 1.2, (x[0] - 1.0) ** 2, np.nan)
        return float(value), 2.0 * (x - 1.0), ()

    trials = []
    x, value, stop_reason, rows = _lbfgs(f, np.array([0.5]), 50)
    assert trials[:3] == [0.5, 1.5, 1.0]  # the start, the rejected trial, the halved step
    assert (stop_reason, x[0], value) == ("converged", 1.0, 0.0)
    assert rows == [(0.0, 0.0, 0.5)]


def test_lbfgs_refuses_a_start_that_is_not_finite():
    with pytest.raises(RuntimeError, match="not finite at the start"):
        _lbfgs(lambda x: (math.inf, x, ()), np.zeros(2), 10)


def test_train_pbr_improves_objective_and_is_deterministic(gen):
    # sharpened reports on calibrated labels: the identity map is clearly
    # suboptimal, so the fit must beat it by more than Monte Carlo noise
    probs = gen.dirichlet(np.ones(3), 400)
    u = gen.uniform(size=400)
    labels = np.minimum((u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1), 2)
    sharp = probs**2.0
    sharp /= sharp.sum(axis=1, keepdims=True)
    data = PredictionSet.from_probs(sharp, labels)

    cfg = PbrConfig(family="temperature", alpha=0.25, seed=4, max_iters=200)
    res = train_pbr(data, cfg)
    assert brier_score(recalibrate_set(res.map, data)) < brier_score(data) - 0.01
    assert res.steps <= 200
    assert res.kl >= 0.0
    again = train_pbr(data, cfg)
    assert np.allclose(res.posterior.mu, again.posterior.mu)
    assert res.final_objective == again.final_objective
    assert res.map == again.map


@pytest.mark.parametrize("family, dim", [("temperature", 2), ("vector_scale", 4), ("affine", 6)])
def test_train_pbr_rejects_a_prior_of_the_wrong_dimension(gen, family, dim):
    # over 3 classes the families have 1, 6 and 12 parameters
    data = random_prediction_set(gen, 40, 3)
    cfg = PbrConfig(family=family, prior=GaussianPosterior.at(np.zeros(dim)), max_iters=5)
    with pytest.raises(ValidationError, match="prior dimension"):
        train_pbr(data, cfg)


def test_train_pbr_rejects_a_prior_whose_variance_underflows(gen):
    # exp(-400) ** 2 underflows to 0
    data = random_prediction_set(gen, 40, 3)
    cfg = PbrConfig(prior=GaussianPosterior(np.zeros(1), np.full(1, -400.0)), max_iters=5)
    with pytest.raises(ValidationError, match="variances must be positive"):
        train_pbr(data, cfg)


@pytest.mark.parametrize("log_sigma", [math.nan, math.inf], ids=["nan", "inf"])
def test_train_pbr_rejects_a_prior_whose_variance_is_not_finite(gen, log_sigma):
    data = random_prediction_set(gen, 40, 3)
    cfg = PbrConfig(prior=GaussianPosterior(np.zeros(1), np.full(1, log_sigma)), max_iters=5)
    with pytest.raises(ValidationError, match="variances must be positive"):
        train_pbr(data, cfg)


@pytest.mark.parametrize("mu", [math.nan, math.inf], ids=["nan", "inf"])
def test_train_pbr_rejects_a_prior_whose_mean_is_not_finite(gen, mu):
    data = random_prediction_set(gen, 40, 3)
    cfg = PbrConfig(prior=GaussianPosterior(np.full(1, mu), np.zeros(1)), max_iters=5)
    with pytest.raises(ValidationError, match="means must be finite"):
        train_pbr(data, cfg)


def test_train_pbr_zero_alpha_ignores_prior(gen):
    data = random_prediction_set(gen, 80, 2)
    cfg0 = PbrConfig(alpha=0.0, seed=1, max_iters=60)
    res = train_pbr(data, cfg0)
    assert res.final_objective <= brier_score(data) + 0.05


def _sharpened():
    """Calibrated 3-class reports squared and renormalized: overconfident by t = 2."""
    gen = np.random.default_rng(42)
    probs = gen.dirichlet(np.ones(3), 4000)
    u = gen.uniform(size=4000)
    labels = np.minimum((u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1), 2)
    sharp = probs ** 2.0
    sharp /= sharp.sum(axis=1, keepdims=True)
    return PredictionSet.from_probs(sharp, labels)


def test_temperature_scaling_recovers_distortion():
    # the fit should undo the sharpening
    data = _sharpened()
    m = temperature_scaling_fit(data)
    assert 1.6 <= m.t <= 2.4
    assert softmax_cross_entropy(recalibrate_set(m, data)) <= softmax_cross_entropy(data)


def _reference_temperature_fit(data):
    """Temperature scaling by golden-section search over log(t) in [-5, 5], down to a
    bracket 1e-6 wide; a tie keeps the lower half."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def nll(log_t):
        return _nll(RecalMap("temperature", data.num_classes, np.array([log_t])), data)

    lo, hi = -5.0, 5.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = nll(x1), nll(x2)
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = nll(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = nll(x2)
    return RecalMap("temperature", data.num_classes, np.array([(lo + hi) / 2.0]))


def _nll(recal_map, data):
    return softmax_cross_entropy(recalibrate_set(recal_map, data))


def _closure_temperature_fit(data):
    """Temperature scaling as a one-parameter fit of its own: _lbfgs over log(t) from 0 on the
    mean cross-entropy log sum exp(s - max) - (s[label] - max) and its gradient p - onehot
    through the temperature family's chain rule, with no Brier term, sigma or KL, clipped to
    [-5, 5]."""
    zt = np.ascontiguousarray(log_probs(data.probs).T)
    is_label = np.arange(data.num_classes)[:, None] == data.labels[None, :]
    family = _FAMILIES["temperature"]

    def nll(v):
        scores = family.scores(v[None], zt)
        picked = scores[:, data.labels, np.arange(data.n)][:, None, :]
        p, top, norm = _softmax_parts(scores, 1, None)
        xent = np.add.reduce(np.log(norm) - (picked - top), axis=None)
        return xent / data.n, family.grad(p - is_label, zt, v[None])[0] / data.n, ()

    log_t = _lbfgs(nll, np.zeros(1), PbrConfig.max_iters)[0]
    return RecalMap("temperature", data.num_classes, np.clip(log_t, -5.0, 5.0))


def _assert_bit_equal(fitted, reference):
    assert fitted.params.tobytes() == reference.params.tobytes(), (fitted.params, reference.params)


def _dump_fold(fold):
    """compare_methods' fit set of fold on the bundled dump: 100 of its 500 rows."""
    dump = load_dump(str(importlib.resources.files("calbound") / "data" / "example_logits.csv"))
    return _split_source(dump.data, 100, 400, fold, 0)[0]


def _spec_fold(fold):
    """A fit set of 1000 rows from a 5-class spec overconfident by t = 2."""
    spec = MulticlassSpec(5, (1.0,) * 5, MiscalibrationMapK.temperature(2.0), 1000, Rng(6, 0))
    return _split_source(spec, 1000, 1000, fold, 0)[0]


def _one_hot(n, k, wrong):
    """n one-hot rows over k classes, a share wrong of them labelled another class: every
    label probability is 1 or 0, at or below PROB_FLOOR."""
    gen = np.random.default_rng(3)
    top = gen.integers(0, k, n)
    labels = top.copy()
    moved = np.arange(n) < round(wrong * n)
    labels[moved] = (top[moved] + gen.integers(1, k, moved.sum())) % k
    return PredictionSet.from_probs(np.eye(k)[top], labels)


TEMPERATURE_SETS = {
    **{f"dump-fold-{f}": partial(_dump_fold, f) for f in range(3)},
    **{f"spec-fold-{f}": partial(_spec_fold, f) for f in range(3)},
    "sharpened": _sharpened,
    "one-hot-20%-wrong": partial(_one_hot, 200, 10, 0.2),
}


@pytest.mark.parametrize("name", TEMPERATURE_SETS)
def test_temperature_scaling_matches_the_golden_section_reference(monkeypatch, name):
    evaluations = []

    def counted(f, x, max_iters):
        def objective(x):
            evaluations.append(None)
            return f(x)

        return real_lbfgs(objective, x, max_iters)

    real_lbfgs = recal._lbfgs
    monkeypatch.setattr(recal, "_lbfgs", counted)
    data = TEMPERATURE_SETS[name]()
    fitted, reference = temperature_scaling_fit(data), _reference_temperature_fit(data)
    _assert_bit_equal(fitted, _closure_temperature_fit(data))
    assert abs(fitted.params[0] - reference.params[0]) <= 1e-5
    assert _nll(fitted, data) <= _nll(reference, data) + 1e-12
    assert len(evaluations) <= 20  # the search made 36; the fit makes 6 to 8


def test_temperature_scaling_steps_at_a_zero_draw_with_only_the_cross_entropy(monkeypatch):
    # The point fit is _step at one draw xi = 0, alpha = 0 and the weights (0, 1), so its
    # log sigma gradient is exactly 0 and log sigma stays at 0 at every point evaluated.
    calls = []

    def record(x, fit):
        calls.append((x.copy(), fit, fit.xi.copy()))
        return real_step(x, fit)

    real_step = recal._step
    monkeypatch.setattr(recal, "_step", record)
    temperature_scaling_fit(_sharpened())
    assert len(calls) > 1
    for x, fit, xi in calls:
        assert np.array_equal(xi, np.zeros((1, 1))) and xi.shape == (1, 1)
        assert fit.alpha == 0.0 and (fit.w_brier, fit.w_xent) == (0.0, 1.0)
        assert x.shape == (2,) and x[1] == 0.0


def _confident(right: bool):
    """50 Dirichlet rows over 3 classes, each labelled its top class or the next one."""
    probs = np.random.default_rng(7).dirichlet(np.ones(3), 50)
    return PredictionSet.from_probs(probs, (probs.argmax(axis=1) + (not right)) % 3)


def test_temperature_scaling_at_the_edges_of_the_range():
    # Flat NLL: the gradient is 0 at the start, so the fit stays at t = 1 (the search's
    # ties went low, to the bracket's floor).
    flat = PredictionSet.from_probs(np.full((6, 3), 1.0 / 3.0), [0, 1, 2, 0, 1, 2])
    assert temperature_scaling_fit(flat).t == 1.0
    right, wrong, all_wrong = _confident(True), _confident(False), _one_hot(50, 10, 1.0)
    for data in (flat, right, wrong, all_wrong):
        _assert_bit_equal(temperature_scaling_fit(data), _closure_temperature_fit(data))
    assert _reference_temperature_fit(flat).t < math.exp(-4.99)

    # Every prediction right: the NLL falls as t -> 0, flatter and flatter, and the fit
    # stops at the floor e^-5 or short of it, where |dNLL/dlog t| < 1e-6.
    fitted = temperature_scaling_fit(right)
    assert math.exp(-5.0) <= fitted.t < 1.0
    assert abs(_nll(fitted, right) - _nll(_reference_temperature_fit(right), right)) <= 1e-8

    # Every prediction wrong: the NLL falls as t -> inf, and the fit is clipped to e^5,
    # also where every label probability is 0, on the floor.
    assert temperature_scaling_fit(wrong).t == math.exp(5.0)
    assert temperature_scaling_fit(all_wrong).t == math.exp(5.0)


def test_temperature_scaling_single_class_falls_back():
    data = PredictionSet.from_probs([[0.7, 0.3], [0.6, 0.4]], [0, 0])
    with pytest.warns(UserWarning):
        m = temperature_scaling_fit(data)
    assert m.t == 1.0
