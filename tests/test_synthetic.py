import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from calbound import (
    BinarySpec,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    Rng,
    ValidationError,
    gen_binary,
    gen_multiclass,
    true_ce_k,
    true_tce,
)
from calbound import synthetic
from calbound.synthetic import QuadratureError, spec_from_json, with_n


def test_confidence_law_support_must_sit_in_upper_half():
    with pytest.raises(ValidationError):
        ConfidenceLaw.uniform(0.3, 0.9)
    with pytest.raises(ValidationError):
        ConfidenceLaw.uniform(0.6, 1.1)
    with pytest.raises(ValidationError):
        ConfidenceLaw.uniform(0.9, 0.6)
    with pytest.raises(ValidationError):
        ConfidenceLaw.beta(0.0, 2.0)


def test_confidence_law_samples_stay_in_support():
    for law in (ConfidenceLaw.uniform(0.55, 0.95), ConfidenceLaw.beta(2.0, 3.0, 0.6, 0.9)):
        c = law.sample(Rng(3).generator(), 5000)
        assert c.min() >= law.lo and c.max() <= law.hi


def test_confidence_law_pdf_normalizes():
    # integrate over the support itself; a grid straddling the jump would
    # charge the trapezoid rule half a cell per endpoint
    for law in (ConfidenceLaw.uniform(0.55, 0.95), ConfidenceLaw.beta(2.0, 5.0, 0.5, 0.8)):
        grid = np.linspace(law.lo, law.hi, 20001)
        mass = np.trapezoid(law.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (0.6, 0.9)])
def test_beta_pdf_is_scipys_in_closed_form(lo, hi):
    stats = pytest.importorskip("scipy.stats")
    # the ends of the support, a dense grid on it, and points on either side
    c = np.concatenate([[lo, hi], np.linspace(lo, hi, 10_001), [0.0, lo - 0.01, hi + 0.01, 1.5]])
    shapes = (1.0, 1.5, 2.0, 3.0, 7.0)
    for a in shapes:
        for b in shapes:
            ours = ConfidenceLaw.beta(a, b, lo, hi).pdf(c)
            theirs = stats.beta.pdf((c - lo) / (hi - lo), a, b) / (hi - lo)
            assert np.allclose(ours, theirs, rtol=1e-12, atol=0.0), (a, b)
            assert np.array_equal(ours[-4:], np.zeros(4)), (a, b)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 2.0), (2.0, 0.9)])
def test_beta_pdf_below_shape_one_is_infinite_at_that_end_without_a_warning(a, b):
    stats = pytest.importorskip("scipy.stats")
    law = ConfidenceLaw.beta(a, b, 0.6, 0.9)
    width = law.hi - law.lo
    c = np.array([0.6, 0.75, 0.9, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = law.pdf(c)
    assert np.array_equal(ours[[0, 2]] == np.inf, [a < 1, b < 1])
    assert np.allclose(ours, stats.beta.pdf((c - 0.6) / width, a, b) / width, rtol=1e-12, atol=0.0)
    assert np.array_equal(ours[3:], [0.0, 0.0])


def test_map_1d_shapes_and_clipping():
    c = np.array([0.55, 0.7, 0.95])
    assert np.allclose(MiscalibrationMap1D.identity()(c), c)
    assert np.allclose(MiscalibrationMap1D.shift(0.2)(c), [0.75, 0.9, 1.0])
    sine = MiscalibrationMap1D.sine(0.1, 2.0)
    assert np.allclose(sine(c), np.clip(c + 0.1 * np.sin(2.0 * np.pi * c), 0, 1))
    assert np.allclose(MiscalibrationMap1D.power(2.0)(c), c**2)


def test_map_1d_declared_lipschitz_constants():
    assert MiscalibrationMap1D.identity().lipschitz_constant == 1.0
    assert MiscalibrationMap1D.shift(-0.3).lipschitz_constant == 1.0
    assert MiscalibrationMap1D.sine(0.1, 2.0).lipschitz_constant == pytest.approx(
        1.0 + 0.1 * 2.0 * np.pi
    )
    assert MiscalibrationMap1D.power(3.0).lipschitz_constant == 3.0
    with pytest.raises(ValidationError):
        MiscalibrationMap1D.power(0.5)


def test_unknown_and_non_numeric_maps_are_rejected():
    for reject in (
        lambda: MiscalibrationMap1D("spline"),
        lambda: MiscalibrationMapK("spline"),
        lambda: MiscalibrationMap1D("sine", ("0.05", 2.0)),
        lambda: MiscalibrationMapK("mixture", (True,)),
    ):
        with pytest.raises(ValidationError):
            reject()


@pytest.mark.parametrize("make", [
    lambda v: MiscalibrationMap1D("sine", v),
    lambda v: MiscalibrationMapK("mixture", v),
    lambda v: MulticlassSpec(3, v, MiscalibrationMapK.identity(), 10, Rng(0)),
], ids=["map-1d-params", "map-k-params", "concentration"])
@pytest.mark.parametrize("value", [5, None, "ab", {"a": 1}, np.float64(1.0), np.ones((1, 3))],
                         ids=["int", "none", "string", "dict", "numpy-scalar", "2-d-array"])
def test_param_and_concentration_containers_must_be_lists(make, value):
    with pytest.raises(ValidationError, match="must be a list of"):
        make(value)


def test_numpy_params_and_concentrations_are_still_accepted():
    assert MiscalibrationMap1D("sine", np.array([0.05, 2.0])) == MiscalibrationMap1D.sine(0.05, 2.0)
    assert MiscalibrationMapK("mixture", np.array([0.25])) == MiscalibrationMapK.mixture(0.25)
    spec = MulticlassSpec(3, np.array([1.0, 0.5, 2.0]), MiscalibrationMapK.identity(), 10, Rng(0))
    assert spec.concentration == (1.0, 0.5, 2.0)


def test_map_1d_lipschitz_bounds_finite_differences(gen):
    for m in (
        MiscalibrationMap1D.sine(0.25, 3.0),
        MiscalibrationMap1D.power(2.5),
        MiscalibrationMap1D.shift(0.1),
    ):
        c = np.sort(gen.uniform(0.0, 1.0, 2000))
        slopes = np.abs(np.diff(m(c)) / np.diff(c))
        assert slopes.max() <= m.lipschitz_constant + 1e-6


def test_gen_binary_layout_and_determinism():
    spec = BinarySpec(
        ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.1, 2.0), 500, Rng(11)
    )
    a = gen_binary(spec)
    b = gen_binary(spec)
    assert a.n == 500 and a.num_classes == 2
    assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)
    # class 0 always carries the confidence, so it is always the top class
    assert np.all(a.probs[:, 0] > 0.5)
    assert np.all(a.top_label()[0] == a.probs[:, 0])


def test_gen_binary_hit_rate_tracks_the_map():
    spec = BinarySpec(
        ConfidenceLaw.uniform(0.6, 0.9), MiscalibrationMap1D.shift(-0.2), 200_000, Rng(5)
    )
    data = gen_binary(spec)
    conf, hits = data.top_label()
    hit_rate = hits.mean()
    expect = np.mean(spec.map(conf))
    assert hit_rate == pytest.approx(expect, abs=0.005)


def test_true_tce_identity_is_zero():
    spec = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.identity(), 1, Rng(0))
    assert true_tce(spec) == pytest.approx(0.0, abs=1e-12)


def test_true_tce_shift_without_clipping_is_the_offset():
    spec = BinarySpec(ConfidenceLaw.uniform(0.55, 0.9), MiscalibrationMap1D.shift(0.05), 1, Rng(0))
    assert true_tce(spec) == pytest.approx(0.05, abs=1e-9)


def test_true_tce_matches_dense_trapezoid():
    law = ConfidenceLaw.beta(2.0, 3.0, 0.55, 0.95)
    m = MiscalibrationMap1D.sine(0.08, 3.0)
    spec = BinarySpec(law, m, 1, Rng(0))
    grid = np.linspace(law.lo, law.hi, 400_001)
    expect = np.trapezoid(np.abs(m(grid) - grid) * law.pdf(grid), grid)
    assert true_tce(spec) == pytest.approx(expect, abs=1e-7)


def test_true_tce_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(synthetic, "QUADRATURE_TOL", 0.0)
    spec = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.1, 2.0), 1, Rng(0))
    with pytest.raises(QuadratureError):
        true_tce(spec)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 2.0), (2.0, 0.9)])
def test_true_tce_refuses_beta_shapes_below_one_that_gen_binary_samples(a, b):
    # Below 1 a shape makes the density infinite at that end of the support.
    spec = BinarySpec(ConfidenceLaw.beta(a, b), MiscalibrationMap1D.sine(0.05, 2.0), 200, Rng(5))
    with pytest.raises(ValidationError, match=f"beta shapes >= 1, got a={a}, b={b}"):
        true_tce(spec)
    conf = gen_binary(spec).probs[:, 0]
    assert conf.min() >= 0.5 and conf.max() <= 1.0


def test_binary_spec_json_round_trip():
    spec = BinarySpec(
        ConfidenceLaw.beta(2.0, 3.0, 0.6, 0.9), MiscalibrationMap1D.sine(0.1, 2.0), 777, Rng(9, 4)
    )
    clone = spec_from_json(json.dumps(spec.to_dict()))
    assert clone == spec
    assert gen_binary(clone).probs.shape == (777, 2)


def test_uniform_law_may_omit_its_shapes():
    spec = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.shift(0.05), 50, Rng(1))
    d = spec.to_dict()
    d["law"] = {"kind": "uniform", "lo": 0.55, "hi": 0.95}
    clone = spec_from_json(json.dumps(d))
    assert clone == spec
    assert spec_from_json(json.dumps(clone.to_dict())) == spec


def test_map_k_temperature_flattens():
    m = MiscalibrationMapK.temperature(2.0)
    out = m(np.array([0.8, 0.2]))
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])


def test_map_k_mixture_pulls_toward_uniform():
    m = MiscalibrationMapK.mixture(0.5)
    out = m(np.array([0.8, 0.2]))
    assert np.allclose(out, [0.65, 0.35])
    with pytest.raises(ValidationError):
        MiscalibrationMapK.mixture(1.5)
    with pytest.raises(ValidationError):
        MiscalibrationMapK.temperature(0.0)


def test_map_k_preserves_simplex(gen):
    f = gen.dirichlet(np.ones(5), 200)
    for m in (
        MiscalibrationMapK.identity(),
        MiscalibrationMapK.temperature(0.5),
        MiscalibrationMapK.temperature(3.0),
        MiscalibrationMapK.mixture(0.25),
    ):
        out = m(f)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_gen_multiclass_layout_and_determinism():
    spec = MulticlassSpec(4, (1.0, 2.0, 0.5, 1.0), MiscalibrationMapK.temperature(2.0), 300, Rng(6))
    a = gen_multiclass(spec)
    b = gen_multiclass(spec)
    assert a.n == 300 and a.num_classes == 4
    assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)
    assert a.labels.min() >= 0 and a.labels.max() < 4


def _row_major_draw(spec: MulticlassSpec):
    """gen_multiclass with its labels drawn from row-major cumulative sums."""
    gen = spec.rng.generator()
    probs = gen.dirichlet(spec.concentration, spec.n)
    truth = spec.map(probs)
    u = gen.uniform(0.0, 1.0, spec.n)
    labels = (u[:, None] > np.cumsum(truth, axis=1)).sum(axis=1)
    return probs / probs.sum(axis=1, keepdims=True), np.minimum(labels, spec.num_classes - 1)


@pytest.mark.parametrize("kind", sorted(synthetic._MAPS_K))
@pytest.mark.parametrize("k", [2, 3, 10, 100])
def test_gen_multiclass_matches_the_row_major_label_draw(k, kind):
    m = MiscalibrationMapK(kind, (0.6,) * synthetic._MAPS_K[kind].num_params)
    rows = synthetic.BLOCK_CELLS // k
    # one row: the transposed rows are a view of m(f), which may be f; then around one
    # block of rows, and several blocks with a short last one
    for n in (1, 3000, rows - 1, rows, rows + 1, 3 * rows + 7):
        spec = MulticlassSpec(k, (0.4,) * k, m, n, Rng(k, n))
        data = gen_multiclass(spec)
        probs, labels = _row_major_draw(spec)
        assert np.array_equal(data.probs, probs) and np.array_equal(data.labels, labels)


@pytest.mark.parametrize("k, n, sets", [(2, 1, 5), (3, 4000, 4), (10, 777, 7), (3, 20_000, 1)])
def test_gen_multiclass_sets_stack_the_one_set_draws(k, n, sets):
    spec = MulticlassSpec(k, (0.7,) * k, MiscalibrationMapK.temperature(1.3), n, Rng(k, 2))
    gens = spec.rng.stream_generators(range(sets + 1))  # one spare generator stays untaken
    data = synthetic._gen_multiclass_sets(spec, gens, sets)
    parts = [gen_multiclass(with_n(spec, n, spec.rng.stream(t))) for t in range(sets)]
    assert data.probs.tobytes() == np.concatenate([p.probs for p in parts]).tobytes()
    assert np.array_equal(data.labels, np.concatenate([p.labels for p in parts]))
    assert next(gens).random() == spec.rng.stream(sets).generator().random()


@pytest.mark.parametrize("spec, one_set", [
    (BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.05, 2.0), 700,
                Rng(3, 1)), gen_binary),
    (MulticlassSpec(4, (0.5,) * 4, MiscalibrationMapK.mixture(0.3), 700, Rng(3, 2)),
     gen_multiclass),
], ids=["binary", "multiclass"])
def test_gen_sets_with_one_generator_is_the_one_set_draw(spec, one_set):
    data, expect = synthetic._gen_sets(spec, [spec.rng.generator()], 1), one_set(spec)
    assert data.probs.tobytes() == expect.probs.tobytes()
    assert data.labels.tobytes() == expect.labels.tobytes()


@pytest.mark.parametrize("k", [3, 10])
def test_gen_multiclass_memory_stays_near_its_output(k):
    spec = MulticlassSpec(k, (1.0,) * k, MiscalibrationMapK.mixture(0.2), 50_000, Rng(k))
    gen_multiclass(with_n(spec, 1))  # a first draw imports numpy.random; keep that out
    tracemalloc.start()
    try:
        data = gen_multiclass(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # probs, and n floats each for the label uniforms, the labels and the row sums; then
    # four blocks: m(f) and its one temporary, the class-major copy, and room for numpy's
    # comparison and reduction buffers. A whole (n, K) copy of m(f) is over 4 blocks more.
    whole_arrays = data.probs.nbytes + 3 * spec.n * 8
    assert peak <= whole_arrays + 4 * synthetic.BLOCK_CELLS * 8


def test_gen_multiclass_label_frequencies_track_the_map():
    spec = MulticlassSpec(3, (2.0, 1.0, 1.0), MiscalibrationMapK.mixture(0.4), 150_000, Rng(8))
    data = gen_multiclass(spec)
    truth = spec.map(data.probs)
    freq = np.bincount(data.labels, minlength=3) / data.n
    assert np.allclose(freq, truth.mean(axis=0), atol=0.005)


def test_multiclass_spec_validation():
    with pytest.raises(ValidationError):
        MulticlassSpec(1, (1.0,), MiscalibrationMapK.identity(), 10, Rng(0))
    with pytest.raises(ValidationError):
        MulticlassSpec(3, (1.0, 1.0), MiscalibrationMapK.identity(), 10, Rng(0))
    with pytest.raises(ValidationError):
        MulticlassSpec(3, (1.0, -1.0, 1.0), MiscalibrationMapK.identity(), 10, Rng(0))


def test_multiclass_spec_json_round_trip():
    spec = MulticlassSpec(3, (0.5, 1.5, 1.0), MiscalibrationMapK.mixture(0.3), 42, Rng(2, 7))
    clone = spec_from_json(json.dumps(spec.to_dict()))
    assert clone == spec
    # counts written as whole floats, such as 4.2e1, still read as integers
    assert spec_from_json(json.dumps(spec.to_dict() | {"num_classes": 3.0, "n": 42.0})) == spec


def test_true_ce_k_identity_is_zero():
    spec = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.identity(), 1, Rng(0))
    mean, stderr = true_ce_k(spec, oracle_samples=10_000)
    assert mean == 0.0 and stderr == 0.0


def test_true_ce_k_matches_independent_monte_carlo():
    spec = MulticlassSpec(4, (1.0, 0.7, 1.3, 1.0), MiscalibrationMapK.mixture(0.3), 1, Rng(13))
    mean, stderr = true_ce_k(spec, oracle_samples=400_000)
    other = np.random.default_rng(555)
    f = other.dirichlet(spec.concentration, 400_000)
    check = np.abs(spec.map(f) - f).sum(axis=1)
    assert mean == pytest.approx(check.mean(), abs=4 * (stderr + check.std() / 630.0))
    assert 0 < stderr < 0.01


def _one_shot_groups_ce_k(spec: MulticlassSpec, oracle_samples: int) -> tuple[float, float]:
    """true_ce_k with each 200 000-row summation group drawn and mapped whole."""
    gen = spec.rng.stream(synthetic._STREAM_ORACLE).generator()
    total = total_sq = 0.0
    remaining = oracle_samples
    while remaining > 0:
        chunk = min(remaining, 200_000)
        f = gen.dirichlet(spec.concentration, chunk)
        vals = np.abs(spec.map(f) - f).sum(axis=1)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        remaining -= chunk
    mean = total / oracle_samples
    return mean, math.sqrt(max(total_sq / oracle_samples - mean**2, 0.0) / oracle_samples)


@pytest.mark.parametrize("m", [MiscalibrationMapK.identity(), MiscalibrationMapK.mixture(0.3),
                               MiscalibrationMapK.temperature(1.7)], ids=lambda m: m.kind)
@pytest.mark.parametrize("alpha", [1.0, 0.05])  # below 0.1 numpy draws by stick breaking
@pytest.mark.parametrize("k", [2, 3, 10])
def test_true_ce_k_blocks_give_the_one_shot_bits(k, alpha, m):
    spec = MulticlassSpec(k, (alpha,) * k, m, 1, Rng(k, 5))
    assert true_ce_k(spec, 450_001) == _one_shot_groups_ce_k(spec, 450_001)


@pytest.mark.parametrize("k, limit_mb", [(3, 6), (10, 10)])
def test_true_ce_k_memory_does_not_grow_with_the_group(k, limit_mb):
    spec = MulticlassSpec(k, (1.0,) * k, MiscalibrationMapK.mixture(0.02), 1, Rng(0))
    true_ce_k(spec, 2)  # a first draw imports numpy.random; keep that out
    tracemalloc.start()
    try:
        true_ce_k(spec, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6  # a (200 000, K) group and its temporaries took 16 / 50 MB


def test_with_n_swaps_count_and_stream():
    spec = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.identity(), 10, Rng(1))
    bigger = with_n(spec, 99)
    assert bigger.n == 99 and bigger.rng == spec.rng
    moved = with_n(spec, 99, Rng(1).stream(5))
    assert moved.rng == Rng(1).stream(5)
