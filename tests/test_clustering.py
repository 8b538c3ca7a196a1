"""K-means, BIC k-selection, and random projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    bic_score,
    choose_k,
    kmeans,
    project,
    random_projection_matrix,
)
from repro.clustering.kmeans import (
    _kmeans_pp_init,
    _lloyd,
    _maximin_init,
    _pairwise_sq_dists,
    _random_init,
)
from repro.errors import ClusteringError
from repro.workloads.spec2017 import build_program

from conftest import QUICK


def blobs(rng, k=4, per=40, dim=8, spread=0.02, sep=5.0):
    """Well-separated Gaussian blobs with ground-truth labels."""
    centers = rng.normal(0, sep, size=(k, dim))
    data = np.vstack([
        centers[i] + rng.normal(0, spread, size=(per, dim)) for i in range(k)
    ])
    labels = np.repeat(np.arange(k), per)
    return data, labels, centers


class TestKMeans:
    def test_recovers_clean_clusters(self, rng):
        data, truth, _ = blobs(rng, k=4)
        result = kmeans(data, 4, seed=0)
        # Partition must match ground truth up to relabeling.
        for cluster in range(4):
            members = truth[result.labels == cluster]
            assert len(set(members.tolist())) == 1

    def test_inertia_nonincreasing_in_k(self, rng):
        data, _, _ = blobs(rng, k=4)
        inertias = [kmeans(data, k, seed=1).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_deterministic(self, rng):
        data, _, _ = blobs(rng)
        a = kmeans(data, 4, seed=3)
        b = kmeans(data, 4, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_labels_in_range_and_no_empty_clusters(self, rng):
        data = rng.normal(size=(50, 5))
        result = kmeans(data, 7, seed=0)
        sizes = result.cluster_sizes()
        assert result.labels.min() >= 0 and result.labels.max() < 7
        assert (sizes > 0).all()

    def test_k_equals_n(self, rng):
        data = rng.normal(size=(6, 3))
        result = kmeans(data, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one(self, rng):
        data = rng.normal(size=(20, 3))
        result = kmeans(data, 1, seed=0)
        assert np.allclose(result.centers[0], data.mean(axis=0))

    def test_cluster_variances_shape(self, rng):
        data, _, _ = blobs(rng, k=3)
        result = kmeans(data, 3, seed=0)
        assert result.cluster_variances.shape == (3,)
        assert (result.cluster_variances >= 0).all()

    def test_average_cluster_variance_decreases_with_k(self, rng):
        data, _, _ = blobs(rng, k=6, spread=0.5)
        high = kmeans(data, 2, seed=0).average_cluster_variance()
        low = kmeans(data, 6, seed=0).average_cluster_variance()
        assert low < high

    @pytest.mark.parametrize("init", ["maximin", "k-means++", "random"])
    def test_all_inits_recover_clean_clusters(self, init, rng):
        data, truth, _ = blobs(rng, k=3, per=30)
        result = kmeans(data, 3, seed=0, n_init=5, init=init)
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(set(members.tolist())) == 1

    def test_maximin_seeds_tiny_cluster(self, rng):
        # One dominant blob (300 pts) + one 2-point blob far away.
        big = rng.normal(0, 0.05, size=(300, 6))
        tiny = rng.normal(8, 0.05, size=(2, 6))
        data = np.vstack([big, tiny])
        result = kmeans(data, 2, seed=0, init="maximin")
        sizes = sorted(result.cluster_sizes().tolist())
        assert sizes == [2, 300]

    def test_rejects_bad_k(self, rng):
        data = rng.normal(size=(5, 2))
        with pytest.raises(ClusteringError):
            kmeans(data, 0)
        with pytest.raises(ClusteringError):
            kmeans(data, 6)

    def test_rejects_empty_data(self):
        with pytest.raises(ClusteringError):
            kmeans(np.empty((0, 3)), 1)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(10, 2)), 2, init="bogus")

    def test_rejects_bad_n_init(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(10, 2)), 2, n_init=0)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 40), k=st.integers(1, 5), seed=st.integers(0, 99))
    def test_property_partition_is_total(self, n, k, seed):
        k = min(k, n)
        data = np.random.default_rng(seed).normal(size=(n, 4))
        result = kmeans(data, k, seed=seed)
        assert result.labels.size == n
        assert result.cluster_sizes().sum() == n


class TestBic:
    def test_bic_prefers_true_k(self, rng):
        data, _, _ = blobs(rng, k=5, per=50)
        scores = [
            bic_score(data, kmeans(data, k, seed=k)) for k in (2, 5)
        ]
        assert scores[1] > scores[0]

    def test_choose_k_finds_true_k(self, rng):
        data, _, _ = blobs(rng, k=5, per=50)
        k, result, scores = choose_k(data, max_k=10, seed=0)
        assert k == 5
        assert result.k == 5
        assert len(scores) == 10

    def test_choose_k_respects_max_k(self, rng):
        data, _, _ = blobs(rng, k=6, per=30)
        k, _, _ = choose_k(data, max_k=3, seed=0)
        assert k <= 3

    def test_choose_k_single_cluster_data(self, rng):
        data = rng.normal(0, 0.1, size=(80, 4))
        k, _, _ = choose_k(data, max_k=8, seed=0)
        assert k <= 2

    def test_penalty_weight_shrinks_k(self, rng):
        data, _, _ = blobs(rng, k=4, per=60, spread=1.0, sep=2.5)
        k_soft, _, _ = choose_k(data, max_k=12, seed=0, penalty_weight=0.25)
        k_hard, _, _ = choose_k(data, max_k=12, seed=0, penalty_weight=8.0)
        assert k_hard <= k_soft

    def test_bic_rejects_too_few_points(self, rng):
        data = rng.normal(size=(3, 2))
        result = kmeans(data, 3, seed=0)
        with pytest.raises(ClusteringError):
            bic_score(data, result)

    def test_choose_k_rejects_bad_args(self, rng):
        data = rng.normal(size=(10, 2))
        with pytest.raises(ClusteringError):
            choose_k(data, max_k=0)
        with pytest.raises(ClusteringError):
            choose_k(data, max_k=3, coverage=0.0)

    def test_perfect_clustering_wins(self):
        # Duplicated points: some k gives zero inertia -> +inf BIC.
        data = np.repeat(np.eye(3), 5, axis=0)
        k, result, scores = choose_k(data, max_k=6, seed=0)
        assert k == 3
        assert result.inertia == pytest.approx(0.0, abs=1e-15)


def masked_mean_lloyd(data, centers, max_iter, tol, reseeds):
    """Reference Lloyd loop: one masked ``mean`` per cluster.

    Appends every reseeded cluster index to ``reseeds``.
    """
    k = centers.shape[0]
    iteration = 0
    for iteration in range(1, max_iter + 1):
        dists = _pairwise_sq_dists(data, centers)
        labels = dists.argmin(axis=1)
        point_costs = dists[np.arange(data.shape[0]), labels]
        new_centers = np.empty_like(centers)
        counts = np.bincount(labels, minlength=k)
        for cluster in range(k):
            if counts[cluster] == 0:
                worst = int(point_costs.argmax())
                new_centers[cluster] = data[worst]
                point_costs[worst] = 0.0
                reseeds.append(cluster)
            else:
                new_centers[cluster] = data[labels == cluster].mean(axis=0)
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol:
            break
    dists = _pairwise_sq_dists(data, centers)
    labels = dists.argmin(axis=1)
    point_costs = dists[np.arange(data.shape[0]), labels]
    return labels, centers, float(point_costs.sum()), point_costs, iteration


INITS = (_maximin_init, _kmeans_pp_init, _random_init)


def projected_bbvs(bench):
    program = build_program(bench, **QUICK)
    bbv = np.array([trace.bbv() for trace in program.iter_slices()])
    return project(bbv, random_projection_matrix(bbv.shape[1], 15, seed=7))


def assert_same_fits(data, ks, reseeds):
    for init in INITS:
        for k in ks:
            centers = init(data, k, np.random.default_rng(k))
            got = _lloyd(data, centers, 100, 1e-7)
            want = masked_mean_lloyd(data, centers, 100, 1e-7, reseeds)
            assert got[0].tobytes() == want[0].tobytes(), (init, k)
            assert got[1].tobytes() == want[1].tobytes(), (init, k)
            assert got[2] == want[2], (init, k)
            assert got[3].tobytes() == want[3].tobytes(), (init, k)
            assert got[4] == want[4], (init, k)


class TestLloydBytes:
    """The bincount centroid update reproduces the masked-mean loop bit for bit."""

    @pytest.mark.parametrize("bench", ["505.mcf_r", "557.xz_r"])
    def test_projected_bbvs_every_k_and_init(self, bench):
        assert_same_fits(projected_bbvs(bench), range(1, 36), [])

    def test_blobs(self, rng):
        data, _, _ = blobs(rng, k=6, per=50, dim=22, spread=0.5, sep=2.0)
        assert_same_fits(data, range(1, 36), [])

    def test_duplicate_points_reseed_empty_clusters(self, rng):
        data = np.repeat(rng.normal(size=(4, 3)), 6, axis=0)
        reseeds = []
        assert_same_fits(data, range(1, 13), reseeds)
        assert reseeds

    def test_single_column_within_rounding(self, rng):
        """One column: ``mean`` sums pairwise, ``bincount`` in row order."""
        data = np.concatenate([
            rng.normal(loc, 0.1, size=(200, 1)) for loc in (-4.0, 1.0, 9.0)
        ])
        for k in (1, 3, 5):
            centers = _maximin_init(data, k, np.random.default_rng(k))
            got = _lloyd(data, centers, 100, 1e-7)
            want = masked_mean_lloyd(data, centers, 100, 1e-7, [])
            assert np.array_equal(got[0], want[0])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)


class TestProjection:
    def test_shapes(self):
        matrix = random_projection_matrix(100, 15, seed=0)
        assert matrix.shape == (100, 15)
        out = project(np.ones((7, 100)), matrix)
        assert out.shape == (7, 15)

    def test_deterministic(self):
        a = random_projection_matrix(50, 15, seed=9)
        b = random_projection_matrix(50, 15, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_matrix(self):
        a = random_projection_matrix(50, 15, seed=1)
        b = random_projection_matrix(50, 15, seed=2)
        assert not np.array_equal(a, b)

    def test_distance_preservation_on_average(self, rng):
        data = rng.normal(size=(30, 400))
        matrix = random_projection_matrix(400, 64, seed=0)
        projected = project(data, matrix)
        orig = np.linalg.norm(data[0] - data[1])
        proj = np.linalg.norm(projected[0] - projected[1])
        # 1/sqrt(dim) scaling keeps distances the same order of magnitude.
        assert 0.2 * orig < proj * np.sqrt(400 / 64) / 1.0 < 5.0 * orig

    def test_rejects_dimension_mismatch(self, rng):
        matrix = random_projection_matrix(10, 4)
        with pytest.raises(ClusteringError):
            project(rng.normal(size=(3, 11)), matrix)

    def test_rejects_bad_dims(self):
        with pytest.raises(ClusteringError):
            random_projection_matrix(0, 5)
        with pytest.raises(ClusteringError):
            random_projection_matrix(5, 0)

    def test_rejects_non_2d(self, rng):
        matrix = random_projection_matrix(4, 2)
        with pytest.raises(ClusteringError):
            project(rng.normal(size=4), matrix)
