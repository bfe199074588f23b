"""Lloyd's k-means with k-means++ initialisation (numpy implementation).

Used by the dynamic-topology builder to form "global information" hyperedges:
each cluster of nodes in embedding space becomes one hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from repro.errors import ShapeError
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class KMeansResult:
    """Result of a k-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_members(self) -> list[np.ndarray]:
        """Node indices of every cluster (possibly empty arrays)."""
        return [np.nonzero(self.labels == cluster)[0] for cluster in range(self.n_clusters)]


def _kmeans_plus_plus(features: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance²."""
    n = features.shape[0]
    centroids = np.empty((n_clusters, features.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = features[first]
    closest_sq = np.sum((features - centroids[0]) ** 2, axis=1)
    for position in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; pick randomly.
            choice = int(rng.integers(0, n))
        else:
            probabilities = closest_sq / total
            choice = int(rng.choice(n, p=probabilities))
        centroids[position] = features[choice]
        closest_sq = np.minimum(closest_sq, np.sum((features - centroids[position]) ** 2, axis=1))
    return centroids


def assign_to_centroids(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One k-means assignment step: the nearest-centroid label of every row.

    The serving layer's cluster re-assignment primitive
    (:meth:`repro.serving.InferenceSession.reassign_clusters`): memberships
    move to the nearest of the *existing* centroids — no Lloyd iteration, no
    re-seeding — so the step is deterministic (ties resolve to the lowest
    centroid index, matching :func:`kmeans`'s argmin), independent of any
    k-NN state and O(n·c·d).
    """
    features = np.asarray(features, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if features.ndim != 2 or centroids.ndim != 2:
        raise ShapeError(
            f"features and centroids must be 2-D, got shapes "
            f"{features.shape} and {centroids.shape}"
        )
    if centroids.shape[0] == 0 or centroids.shape[1] != features.shape[1]:
        raise ShapeError(
            f"centroids must be non-empty with {features.shape[1]} columns, "
            f"got shape {centroids.shape}"
        )
    return np.argmin(cdist(features, centroids), axis=1).astype(np.int64)


def kmeans(
    features: np.ndarray,
    n_clusters: int,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    seed=None,
) -> KMeansResult:
    """Cluster rows of ``features`` into ``n_clusters`` groups.

    Parameters
    ----------
    features:
        ``(n, d)`` feature matrix.
    n_clusters:
        Number of clusters; must satisfy ``1 <= n_clusters <= n``.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Convergence threshold on the total centroid movement.
    seed:
        Seed or generator for the k-means++ initialisation.

    Returns
    -------
    KMeansResult
        Centroids, per-node labels, inertia and convergence information.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    if max_iterations <= 0:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")

    rng = as_rng(seed)
    centroids = _kmeans_plus_plus(features, n_clusters, rng)
    labels = np.zeros(n, dtype=np.int64)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        distances = cdist(features, centroids)
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for cluster in range(n_clusters):
            members = features[labels == cluster]
            if members.shape[0] > 0:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                # Re-seed empty clusters at the point farthest from its centroid.
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centroids[cluster] = features[farthest]
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        if movement <= tolerance:
            converged = True
            break

    distances = cdist(features, centroids)
    labels = np.argmin(distances, axis=1)
    inertia = float(np.sum((features - centroids[labels]) ** 2))
    return KMeansResult(
        centroids=centroids,
        labels=labels.astype(np.int64),
        inertia=inertia,
        n_iterations=iteration,
        converged=converged,
    )
