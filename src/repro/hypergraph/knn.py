"""Nearest-neighbour search in Euclidean feature space.

This module is the *exact* kernel of the neighbour-search layer:

* :func:`knn_indices_bruteforce` materialises the full ``(n, n)`` distance
  matrix and sorts every row — simple, but O(n²) memory;
* :func:`knn_indices` (the default) walks the query rows in blocks of
  ``block_size``, keeps only an ``(block, n)`` distance slab alive at a time
  and extracts the top-``k`` per row with ``argpartition`` — O(n·block)
  memory;
* :func:`knn_query_rows` answers the same question for an arbitrary *subset*
  of query rows (the primitive the incremental index re-queries moved nodes
  with).

Each dynamic layer keeps its neighbours in an incremental index
(:class:`repro.hypergraph.neighbors.IncrementalBackend`): its full rebuild
runs this kernel, and its partial refreshes are pinned bit-identical to it by
``tests/test_neighbor_backends.py``.

Tie-breaking (the index contract)
---------------------------------
Neighbour order is **fully deterministic**: rows are sorted by
``(distance, node_index)``, so among equidistant neighbours the *smaller node
index always wins*.  Both the brute-force and the chunked path implement this
via a stable lexsort, which makes their outputs bit-identical and gives the
incremental index a well-defined equivalence target (pinned by
``tests/test_refresh_engine.py`` and the index contract suite, including
duplicated-point inputs where every distance ties at zero).

Distance slabs follow the feature dtype: float64 features use
:func:`scipy.spatial.distance.cdist` (bit-identical to the seed behaviour),
float32 features keep every temporary in float32 (:func:`distance_block`), so
a float32 precision-policy pipeline never silently allocates float64 slabs.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from repro.errors import ShapeError

#: Default query-block size of the chunked k-NN.  Each block materialises a
#: ``(block_size, n)`` float64 slab, so the default keeps peak extra memory
#: around ``512 * n * 8`` bytes regardless of ``n``.
DEFAULT_BLOCK_SIZE = 512


class DistanceCounters:
    """Process-wide tally of distance-kernel work (:data:`DISTANCE_COUNTERS`).

    ``blocks`` counts :func:`distance_block` invocations, ``pairs`` the total
    number of pairwise distances computed.  The serving layer asserts a warm
    operator-store start performs *zero* k-NN distance computations by
    snapshotting these counters; they are diagnostics only and never change
    behaviour.
    """

    __slots__ = ("blocks", "pairs")

    def __init__(self) -> None:
        self.blocks = 0
        self.pairs = 0

    def reset(self) -> None:
        self.blocks = 0
        self.pairs = 0

    def snapshot(self) -> dict[str, int]:
        return {"blocks": self.blocks, "pairs": self.pairs}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceCounters(blocks={self.blocks}, pairs={self.pairs})"


#: The single shared counter instance every :func:`distance_block` call ticks.
DISTANCE_COUNTERS = DistanceCounters()


def distance_block(queries: np.ndarray, points: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Distance slab ``(len(queries), len(points))`` in the query dtype.

    float64 inputs go through :func:`scipy.spatial.distance.cdist` unchanged
    (bit-identical to the historical behaviour).  float32 euclidean inputs are
    computed entirely in float32 via the ``|a|² + |b|² − 2a·b`` expansion, so
    the float32 precision-policy pipeline allocates no silent float64
    temporaries.  The inputs are mean-centred first (euclidean distances are
    translation-invariant): without it the expansion cancels catastrophically
    for data away from the origin — |a|² grows with the offset squared while
    the true squared distances stay small — e.g. post-ReLU embeddings, which
    are all-positive with a large mean.  Non-euclidean float32 metrics fall
    back to cdist and cast (documented exception — nothing in the library
    uses them on the hot path).
    """
    DISTANCE_COUNTERS.blocks += 1
    DISTANCE_COUNTERS.pairs += queries.shape[0] * points.shape[0]
    if queries.dtype == np.float32:
        if metric == "euclidean":
            center = points.mean(axis=0)
            queries = queries - center
            points = points - center
            q_norms = np.einsum("ij,ij->i", queries, queries)
            p_norms = np.einsum("ij,ij->i", points, points)
            sq = q_norms[:, None] + p_norms[None, :] - 2.0 * (queries @ points.T)
            np.maximum(sq, np.float32(0.0), out=sq)
            return np.sqrt(sq, out=sq)
        return cdist(queries, points, metric=metric).astype(np.float32)
    return cdist(queries, points, metric=metric)


def pairwise_distances(features: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Full ``(n, n)`` pairwise distance matrix (in the feature dtype)."""
    features = as_feature_matrix(features)
    return distance_block(features, features, metric=metric)


def as_feature_matrix(features: np.ndarray) -> np.ndarray:
    """2-D float feature matrix; float32 is preserved, everything else
    becomes float64 (the historical default).

    The dtype gate of the structural pipeline: construction code normalises
    inputs through this instead of a hard ``float64`` cast so that a float32
    embedding keeps its dtype all the way into the distance slabs.
    """
    features = np.asarray(features)
    if features.dtype != np.float32:
        features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {features.shape}")
    return features


def _validate(
    features: np.ndarray, k: int, include_self: bool, *, clamp_k: bool = False
) -> tuple[np.ndarray, int]:
    """Normalise ``features`` and validate (or clamp) ``k``.

    Returns ``(features, k)``.  By default an infeasible ``k`` raises — the
    historical contract, pinned by the index suite.  With ``clamp_k=True``
    the requested ``k`` is reduced to the largest feasible value instead,
    which is what churned serving sessions need: after heavy deletion a
    session can drop below ``k + 1`` rows, and the refresh should degrade to
    "every survivor is a neighbour" rather than crash the writer.  A
    population with no feasible neighbour at all (``n == 0``, or ``n == 1``
    without ``include_self``) still raises.
    """
    features = as_feature_matrix(features)
    n = features.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    limit = n if include_self else n - 1
    if k > limit:
        if not clamp_k or limit < 1:
            raise ValueError(f"k={k} is too large for {n} nodes (include_self={include_self})")
        k = limit
    return features, k


def knn_indices_bruteforce(
    features: np.ndarray,
    k: int,
    *,
    include_self: bool = False,
    metric: str = "euclidean",
    clamp_k: bool = False,
) -> np.ndarray:
    """Reference k-NN via the full distance matrix (O(n²) memory).

    Kept as the ground truth the chunked kernel and the incremental index are
    verified against; prefer :func:`knn_indices` everywhere else.
    """
    features, k = _validate(features, k, include_self, clamp_k=clamp_k)
    n = features.shape[0]
    distances = distance_block(features, features, metric=metric)
    if not include_self:
        np.fill_diagonal(distances, np.inf)
    # Deterministic tie-breaking: lexsort on (distance, index).
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), distances), axis=1)
    return order[:, :k].astype(np.int64)


def knn_indices(
    features: np.ndarray,
    k: int,
    *,
    include_self: bool = False,
    metric: str = "euclidean",
    block_size: int | None = None,
    clamp_k: bool = False,
) -> np.ndarray:
    """Indices of the ``k`` nearest neighbours of every row of ``features``.

    Parameters
    ----------
    features:
        ``(n, d)`` feature matrix.
    k:
        Number of neighbours per node (excluding the node itself unless
        ``include_self``).
    include_self:
        When ``True`` the node itself counts as its own first neighbour.
    block_size:
        Query rows processed per distance slab (default
        :data:`DEFAULT_BLOCK_SIZE`).  Any positive value — including one
        larger than ``n`` — yields the same result; it only trades memory
        for the number of ``cdist`` calls.
    clamp_k:
        When ``True`` an infeasible ``k`` is clamped to the population limit
        (``n - 1``, or ``n`` with ``include_self``) instead of raising; a
        population with no feasible neighbour still raises.

    Returns
    -------
    ndarray
        ``(n, k)`` integer array of neighbour indices, ordered by increasing
        distance (ties broken deterministically by node index — see the
        module docstring).
    """
    features, k = _validate(features, k, include_self, clamp_k=clamp_k)
    n = features.shape[0]
    indices, _ = knn_query_rows(
        features,
        np.arange(n, dtype=np.int64),
        k,
        include_self=include_self,
        metric=metric,
        block_size=block_size,
    )
    return indices


def knn_query_rows(
    features: np.ndarray,
    rows: np.ndarray,
    k: int,
    *,
    include_self: bool = False,
    metric: str = "euclidean",
    block_size: int | None = None,
    clamp_k: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN restricted to the query ``rows`` (chunked, tie-safe).

    The primitive shared by the full chunked search (``rows = arange(n)``)
    and the incremental index (``rows`` = the invalidated nodes).  Returns
    ``(indices, distances)``, both ``(len(rows), k)``, where ``distances``
    holds each selected neighbour's distance **as computed by the distance
    kernel** — the incremental index compares mover distances against (and
    locally re-sorts) these values, so they must come from the same kernel,
    not a recomputation.
    """
    features, k = _validate(features, k, include_self, clamp_k=clamp_k)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ShapeError(f"rows must be 1-D, got shape {rows.shape}")
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    block_size = int(block_size)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")

    indices = np.empty((rows.shape[0], k), dtype=np.int64)
    distances = np.empty((rows.shape[0], k), dtype=features.dtype)
    for start in range(0, rows.shape[0], block_size):
        chunk = rows[start : start + block_size]
        slab = distance_block(features[chunk], features, metric=metric)
        if not include_self:
            slab[np.arange(chunk.shape[0]), chunk] = np.inf
        out = indices[start : start + chunk.shape[0]]
        _topk_rows(slab, k, out=out)
        distances[start : start + chunk.shape[0]] = np.take_along_axis(slab, out, axis=1)
    return indices, distances


def _topk_rows(distances: np.ndarray, k: int, out: np.ndarray) -> None:
    """Tie-safe top-``k`` of every row of ``distances`` into ``out``.

    ``argpartition`` alone splits ties at the k-th boundary arbitrarily, so the
    partition is only used to find the k-th smallest value; the final selection
    re-sorts every entry at or below that threshold by ``(distance, index)``,
    which reproduces the brute-force lexsort exactly.
    """
    n = distances.shape[1]
    if k < n:
        partition = np.argpartition(distances, k - 1, axis=1)[:, :k]
        thresholds = np.take_along_axis(distances, partition, axis=1).max(axis=1)
    else:
        thresholds = distances.max(axis=1)
    for row in range(distances.shape[0]):
        candidates = np.flatnonzero(distances[row] <= thresholds[row])
        order = np.lexsort((candidates, distances[row, candidates]))
        out[row] = candidates[order[:k]]
