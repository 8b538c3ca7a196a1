"""K-means clustering with k-means++ seeding and Lloyd iterations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.telemetry.recorder import get_recorder


@dataclass
class KMeansResult:
    """Outcome of one k-means run.

    Attributes:
        labels: ``(n,)`` cluster assignment per point.
        centers: ``(k, d)`` cluster centroids.
        inertia: Sum of squared distances of points to their centroids.
        iterations: Lloyd iterations executed before convergence.
        cluster_variances: ``(k,)`` mean squared distance to the centroid,
            per cluster (zero for empty clusters).
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    cluster_variances: np.ndarray

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centers.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.k)

    def average_cluster_variance(self) -> float:
        """Mean of the per-cluster variances over non-empty clusters.

        This is the Figure 4 metric: how far, on average, phases within a
        cluster deviate from the cluster's representative behaviour.
        """
        sizes = self.cluster_sizes()
        nonempty = sizes > 0
        if not nonempty.any():
            return 0.0
        return float(self.cluster_variances[nonempty].mean())


def _pairwise_sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances via the expansion trick."""
    data_sq = np.einsum("ij,ij->i", data, data)[:, None]
    center_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    dists = data_sq + center_sq - 2.0 * (data @ centers.T)
    np.maximum(dists, 0.0, out=dists)
    return dists


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seeding: spread initial centers proportionally to D^2."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = _pairwise_sq_dists(data, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center; pick any.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centers[i] = data[idx]
        np.minimum(
            closest_sq, _pairwise_sq_dists(data, centers[i : i + 1]).ravel(),
            out=closest_sq,
        )
    return centers


def _random_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain random seeding (for the k-means init ablation)."""
    idx = rng.choice(data.shape[0], size=k, replace=False)
    return data[idx].astype(np.float64)


def _maximin_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Gonzalez farthest-first seeding.

    After a random first center, each subsequent center is the point
    farthest from its nearest chosen center.  On well-separated clustered
    data this deterministically seeds every cluster before ever placing a
    second seed inside one — exactly the property needed to recover tiny
    program phases next to dominant ones, where D^2-sampling (k-means++)
    can leave a two-slice phase unseeded.
    """
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = _pairwise_sq_dists(data, centers[:1]).ravel()
    for i in range(1, k):
        idx = int(closest_sq.argmax())
        centers[i] = data[idx]
        np.minimum(
            closest_sq, _pairwise_sq_dists(data, centers[i : i + 1]).ravel(),
            out=closest_sq,
        )
    return centers


def _lloyd(data: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    """Lloyd iterations with farthest-point reseeding of empty clusters.

    Centroids come from one flattened ``bincount`` over ``(cluster,
    column)`` bins: it sums each bin's rows in row order, as
    ``mean(axis=0)`` does for two or more columns, so the bits match a
    masked ``mean`` per cluster (except for one column, which ``mean``
    sums pairwise, and an all ``-0.0`` column, which ``bincount`` sums
    to ``+0.0``).
    """
    n, d = data.shape
    k = centers.shape[0]
    columns = np.arange(d)
    flat = data.ravel()
    iteration = 0
    for iteration in range(1, max_iter + 1):
        dists = _pairwise_sq_dists(data, centers)
        labels = dists.argmin(axis=1)
        point_costs = dists[np.arange(n), labels]
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount(
            (labels[:, None] * d + columns).ravel(), weights=flat,
            minlength=k * d,
        )
        new_centers = sums.reshape(k, d) / np.maximum(counts, 1)[:, None]
        for cluster in np.flatnonzero(counts == 0):
            # Reseed an empty cluster at the most expensive point.
            worst = int(point_costs.argmax())
            new_centers[cluster] = data[worst]
            point_costs[worst] = 0.0
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol:
            break
    dists = _pairwise_sq_dists(data, centers)
    labels = dists.argmin(axis=1)
    point_costs = dists[np.arange(n), labels]
    inertia = float(point_costs.sum())
    return labels, centers, inertia, point_costs, iteration


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    n_init: int = 3,
    max_iter: int = 100,
    tol: float = 1e-7,
    init: str = "maximin",
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups, keeping the best of ``n_init`` runs.

    Args:
        data: ``(n, d)`` float matrix of points.
        k: Number of clusters, ``1 <= k <= n``.
        seed: Seed for all randomness (results are deterministic).
        n_init: Independent restarts; the lowest-inertia run wins.
        max_iter: Lloyd iteration cap per restart.
        tol: Convergence threshold on the max center movement.
        init: ``"maximin"`` (default), ``"k-means++"``, or ``"random"``.

    Returns:
        The best :class:`KMeansResult` across restarts.

    Raises:
        ClusteringError: On an invalid ``k``, empty data, or unknown init.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ClusteringError("data must be a non-empty (n, d) matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    initializers = {
        "maximin": _maximin_init,
        "k-means++": _kmeans_pp_init,
        "random": _random_init,
    }
    if init not in initializers:
        raise ClusteringError(f"unknown init strategy {init!r}")
    if n_init < 1:
        raise ClusteringError("n_init must be at least 1")
    if init == "maximin":
        # Farthest-first is deterministic after the first pick; restarts
        # only vary that pick, so a couple suffice.
        n_init = min(n_init, 2)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = initializers[init](data, k, rng)
        labels, centers, inertia, costs, iters = _lloyd(data, centers, max_iter, tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia, iters, costs)

    labels, centers, inertia, iters, costs = (
        best[0], best[1], best[2], best[3], best[4],
    )
    sums = np.bincount(labels, weights=costs, minlength=k)
    counts = np.bincount(labels, minlength=k)
    variances = np.zeros(k)
    nonempty = counts > 0
    variances[nonempty] = sums[nonempty] / counts[nonempty]
    recorder = get_recorder()
    if recorder is not None:
        recorder.count("clustering.iterations", int(iters), k=k)
        recorder.count("clustering.runs", 1)
    return KMeansResult(labels, centers, inertia, iters, variances)
