import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbound import PredictionSet, ValidationError
from calbound.ece import (
    _ece_full_k_sets,
    assign_bins_1d,
    ece_full_k,
    ece_gap,
    ece_top_label,
    ece_top_label_reformulated,
    optimal_bins_1d,
    optimal_bins_per_dim,
)
from calbound import MiscalibrationMapK, MulticlassSpec, Rng, gen_multiclass
from tests.conftest import random_prediction_set, reference_bins, reference_cell_ece


def binary_set(confidences, hits):
    probs = np.array([[c, 1.0 - c] for c in confidences])
    labels = np.array([0 if h else 1 for h in hits])
    return PredictionSet.from_probs(probs, labels)


def test_bin_assignment_is_right_closed():
    assert assign_bins_1d(np.array([0.5, 0.500001]), 2).tolist() == [1, 2]
    assert assign_bins_1d(np.array([0.0, 1.0]), 4).tolist() == [1, 4]
    with pytest.raises(ValidationError):
        assign_bins_1d(np.array([1.0001]), 4)


def test_bin_edges_exact_on_boundaries():
    # p = i/B lands in bin i, the next float up lands in bin i+1
    b = 10
    i = np.arange(1, b)
    edges = i / b
    assert assign_bins_1d(edges, b).tolist() == i.tolist()
    assert assign_bins_1d(np.nextafter(edges, 1.0), b).tolist() == (i + 1).tolist()


def test_vector_bins_reject_nan():
    for values in ([0.2, np.nan], [np.nan, 0.2], [np.nan]):
        with pytest.raises(ValidationError):
            assign_bins_1d(np.array(values), 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200))
def test_vector_bins_exact_on_and_next_to_every_edge(b):
    # i/B and the float just below it land in bin i, the float just above in bin i+1
    i = np.arange(1, b + 1)
    edges = i / b
    assert assign_bins_1d(edges, b).tolist() == i.tolist()
    assert assign_bins_1d(np.nextafter(edges, 0.0), b).tolist() == i.tolist()
    assert assign_bins_1d(np.nextafter(edges[:-1], 1.0), b).tolist() == (i[:-1] + 1).tolist()
    assert assign_bins_1d(np.array([0.0, 5e-324]), b).tolist() == [1, 1]


def test_bins_match_the_edge_search_on_and_next_to_every_edge():
    for b in [*range(1, 65), 1000, 10**6]:
        edges = np.arange(b + 1) / b
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        assert np.array_equal(assign_bins_1d(values, b), reference_bins(values, b)), b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), st.integers(1, 10**6))
def test_bins_match_the_edge_search_on_any_float(values, b):
    values = np.array(values)
    assert np.array_equal(assign_bins_1d(values, b), reference_bins(values, b))


def _unique_ece_full_k(data: PredictionSet, b: int) -> float:
    """ece_full_k with every key numbered by np.unique."""
    n, d = data.probs.shape
    idx = reference_bins(data.probs.ravel(), b).reshape(n, d) - 1
    return reference_cell_ece(idx @ b ** np.arange(d), data.probs, np.eye(d)[data.labels])


@pytest.mark.parametrize("n, k, b", [
    (125, 3, 5), (4000, 3, 15), (1000, 4, 5), (100, 2, 10),  # b**k <= n: keys kept as they are
    (124, 3, 5), (200, 3, 6), (1000, 4, 6), (100, 10, 2),  # b**k > n: np.unique numbers them
])
def test_ece_full_k_matches_unique_numbering_on_both_sides_of_dense_keys(n, k, b):
    spec = MulticlassSpec(k, (0.7,) * k, MiscalibrationMapK.mixture(0.3), n, Rng(k, b))
    data = gen_multiclass(spec)
    assert ece_full_k(data, b) == _unique_ece_full_k(data, b)
    edgy = lattice_set(np.random.default_rng(n + b), 2 * b, k)  # entries on bin edges
    assert ece_full_k(edgy, b) == _unique_ece_full_k(edgy, b)


@pytest.mark.parametrize("n, k, b", [(125, 3, 5), (1000, 4, 5), (124, 3, 5), (100, 10, 2), (7, 3, 40)])
def test_ece_full_k_sets_give_each_set_its_own_value(n, k, b):
    parts = [gen_multiclass(MulticlassSpec(k, (0.7,) * k, MiscalibrationMapK.mixture(0.3), n,
                                           Rng(k, b).stream(t))) for t in range(5)]
    gen = np.random.default_rng(n + b)
    counts = gen.multinomial(2 * b, gen.dirichlet(np.ones(k)), size=n)  # entries on bin edges
    parts.append(PredictionSet.from_probs(counts / (2 * b), gen.integers(0, k, n)))
    stacked = PredictionSet(np.concatenate([p.probs for p in parts]),
                            np.concatenate([p.labels for p in parts]))
    values = _ece_full_k_sets(stacked, b, len(parts))
    assert values.tolist() == [_unique_ece_full_k(p, b) for p in parts]


def lattice_set(gen, total: int, k: int) -> PredictionSet:
    """Rows of multiples of 1/total: entries sit on bin edges and maxima often tie."""
    n = int(gen.integers(1, 120))
    counts = gen.multinomial(total, gen.dirichlet(np.ones(k)), size=n)
    return PredictionSet.from_probs(counts / total, gen.integers(0, k, n))


def test_ece_top_label_hand_example():
    ps = binary_set([0.9, 0.6, 0.7, 0.55], [1, 0, 1, 1])
    assert ece_top_label(ps, 2) == pytest.approx(0.0625, abs=1e-15)
    assert ece_top_label_reformulated(ps, 2) == pytest.approx(0.0625, abs=1e-15)


def test_ece_zero_for_perfect_one_hot():
    probs = np.eye(3)[[0, 1, 2, 1]]
    ps = PredictionSet.from_probs(probs, [0, 1, 2, 1])
    for b in (1, 4, 17):
        assert ece_top_label(ps, b) == 0.0


def test_ece_single_sample_is_absolute_gap():
    ps = binary_set([0.8], [0])
    assert ece_top_label(ps, 1) == pytest.approx(0.8, abs=1e-15)


def test_ece_with_one_bin_is_mean_gap(gen):
    ps = random_prediction_set(gen, 500, 4)
    conf, hits = ps.top_label()
    expect = abs(conf.mean() - hits.mean())
    assert ece_top_label(ps, 1) == pytest.approx(expect, abs=1e-12)


def test_ece_invariant_under_permutation_and_duplication(gen):
    ps = random_prediction_set(gen, 100, 3)
    perm = gen.permutation(100)
    shuffled = ps.subset(perm)
    doubled = PredictionSet.from_probs(
        np.vstack([ps.probs, ps.probs]), np.concatenate([ps.labels, ps.labels])
    )
    for b in (1, 7, 12):
        val = ece_top_label(ps, b)
        assert ece_top_label(shuffled, b) == pytest.approx(val, abs=1e-12)
        assert ece_top_label(doubled, b) == pytest.approx(val, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(2, 5))
def test_reformulated_matches_definitional(seed, bins, k):
    gen = np.random.default_rng(seed)
    ps = random_prediction_set(gen, int(gen.integers(1, 200)), k)
    a = ece_top_label(ps, bins)
    b = ece_top_label_reformulated(ps, bins)
    assert abs(a - b) < 1e-12
    assert 0.0 <= a <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 5))
def test_reformulated_matches_with_ties_and_edge_values(seed, bins, k):
    gen = np.random.default_rng(seed)
    ps = lattice_set(gen, bins * int(gen.integers(1, 4)), k)
    assert abs(ece_top_label(ps, bins) - ece_top_label_reformulated(ps, bins)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 5), st.booleans())
def test_k_estimators_invariant_under_class_permutation(seed, bins, k, on_lattice):
    gen = np.random.default_rng(seed)
    if on_lattice:
        # totals f*m*B put entries on every bin edge; unless the total is a
        # power of two, a row's float sum depends on the class order
        total = int(gen.integers(1, 4)) * int(gen.integers(1, 4)) * bins
        ps = lattice_set(gen, total, k)
    else:
        ps = random_prediction_set(gen, int(gen.integers(1, 200)), k)
    perm = gen.permutation(k)  # new class j is old class perm[j]
    moved = np.argsort(perm)  # old class c is new class moved[c]
    permuted = PredictionSet.from_probs(ps.probs[:, perm], moved[ps.labels])
    assert abs(ece_full_k(permuted, bins) - ece_full_k(ps, bins)) < 1e-12


def test_full_k_hand_example():
    ps = PredictionSet.from_probs([[0.7, 0.3], [0.4, 0.6]], [0, 1])
    assert ece_full_k(ps, 1) == pytest.approx(0.1, abs=1e-12)


def test_full_k_single_cell_equals_mean_residual_norm(gen):
    ps = random_prediction_set(gen, 300, 3)
    expect = np.abs((np.eye(3)[ps.labels] - ps.probs).mean(axis=0)).sum()
    assert ece_full_k(ps, 1) == pytest.approx(expect, abs=1e-12)


def test_full_k_zero_for_perfect_one_hot():
    probs = np.eye(4)[[0, 3, 1, 2]]
    ps = PredictionSet.from_probs(probs, [0, 3, 1, 2])
    assert ece_full_k(ps, 6) == 0.0


def test_full_k_bounded_by_simplex_diameter(gen):
    for _ in range(20):
        ps = random_prediction_set(gen, int(gen.integers(2, 80)), int(gen.integers(2, 5)))
        assert 0.0 <= ece_full_k(ps, int(gen.integers(1, 8))) <= 2.0


def test_full_k_rejects_huge_cell_space(gen):
    ps = random_prediction_set(gen, 10, 5)
    with pytest.raises(ValidationError):
        ece_full_k(ps, 2000)  # 2000^5 > 2^48


def test_optimal_bins_integer_exact():
    assert optimal_bins_1d(1000) == 10
    assert optimal_bins_1d(999) == 9
    assert optimal_bins_1d(8) == 2
    assert optimal_bins_1d(1) == 1
    assert optimal_bins_per_dim(1024, 2) == 5
    assert optimal_bins_per_dim(1, 9) == 1
    assert optimal_bins_per_dim(10**5, 3) == 10


@pytest.mark.parametrize("k", [2, 3, 10, 100])
def test_optimal_bins_per_dim_leaves_no_more_cells_than_rows(k):
    # b^K <= n, so at the default bin count the K-D cell keys are never numbered densely.
    for n in sorted({int(x) for x in np.logspace(0, 6, 300)}):
        assert optimal_bins_per_dim(n, k) ** k <= n


def test_optimal_bins_exact_at_large_perfect_powers():
    # float cube roots drift below the integer at this scale; integer search must not
    for m in (10, 100, 1234):
        assert optimal_bins_1d(m**3) == m
        assert optimal_bins_1d(m**3 - 1) == m - 1


def test_ece_gap_examples(gen):
    a = binary_set([0.9, 0.6, 0.7, 0.55], [1, 0, 1, 1])
    b = binary_set([1.0, 1.0], [1, 1])
    assert ece_gap(a, a, 2) == 0.0
    assert ece_gap(a, b, 2) == pytest.approx(0.0625, abs=1e-12)
    assert ece_gap(a, b, 2) == ece_gap(b, a, 2)
    three = random_prediction_set(gen, 10, 3)
    with pytest.raises(ValidationError):
        ece_gap(a, three, 2)
