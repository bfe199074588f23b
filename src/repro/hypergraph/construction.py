"""Hypergraph construction algorithms.

These routines build hyperedge sets either from node features (k-NN, k-means,
ε-ball — the generators the dynamic topology of DHGCN uses) or from an
existing pairwise graph (neighbourhood hyperedges — the usual way a *static*
hypergraph is derived from co-citation / co-authorship relations).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import HypergraphStructureError
from repro.graph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.kmeans import kmeans
from repro.hypergraph.knn import as_feature_matrix, knn_indices, pairwise_distances


def knn_hyperedges(
    features: np.ndarray,
    k: int,
    *,
    metric: str = "euclidean",
    block_size: int | None = None,
) -> Hypergraph:
    """One hyperedge per node: the node plus its ``k`` nearest neighbours.

    This is the "common/local information" generator of the dynamic topology:
    it produces ``n`` hyperedges of size ``k + 1``.  ``block_size`` is
    forwarded to the chunked k-NN (:func:`repro.hypergraph.knn.knn_indices`)
    and changes memory use only, never the neighbour sets.  The dynamic
    layers query their own incremental index instead and assemble its answer
    with :func:`hyperedges_from_neighbor_indices`; the neighbour sets are the
    same.

    float32 features are queried in float32 (the distance slabs stay float32
    — see :func:`repro.hypergraph.knn.distance_block`); everything else is
    cast to float64 as before.
    """
    features = as_feature_matrix(features)
    neighbours = knn_indices(
        features, k, include_self=False, metric=metric, block_size=block_size
    )
    return hyperedges_from_neighbor_indices(neighbours)


def hyperedges_from_neighbor_indices(
    neighbours: np.ndarray,
    *,
    node_ids: np.ndarray | None = None,
    n_nodes: int | None = None,
) -> Hypergraph:
    """Hypergraph with one hyperedge per row: ``[node, *neighbours[node]]``.

    The shared assembly step of :func:`knn_hyperedges` and the dynamic
    layers' refreshes (which obtain the index rows from their own
    incremental index instead of a fresh query).

    ``node_ids`` supports queries over a node *subset* (the serving layer's
    tombstone mode): row ``i`` then describes node ``node_ids[i]`` and every
    neighbour entry is a position into ``node_ids`` — the compact indexing an
    index query over the subset's features returns — and is mapped back to
    the full id space.  ``n_nodes`` sets the node count of the resulting
    hypergraph (default: the number of query rows); nodes outside the subset
    simply belong to no k-NN hyperedge.
    """
    rows = neighbours.shape[0]
    if n_nodes is None:
        n_nodes = rows
    if node_ids is None:
        hyperedges = [[node, *neighbours[node].tolist()] for node in range(rows)]
    else:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        mapped = node_ids[neighbours]
        hyperedges = [
            [int(node_ids[row]), *mapped[row].tolist()] for row in range(rows)
        ]
    return Hypergraph(n_nodes, hyperedges)


def kmeans_hyperedges(
    features: np.ndarray,
    n_clusters: int,
    *,
    seed=None,
    min_size: int = 2,
    max_iterations: int = 100,
) -> Hypergraph:
    """One hyperedge per k-means cluster ("global information" generator).

    Clusters smaller than ``min_size`` are dropped because a singleton
    hyperedge carries no relational information.
    """
    features = np.asarray(features, dtype=np.float64)
    result = kmeans(features, n_clusters, seed=seed, max_iterations=max_iterations)
    hyperedges = [
        members.tolist() for members in result.cluster_members() if members.size >= min_size
    ]
    return Hypergraph(features.shape[0], hyperedges)


def epsilon_ball_hyperedges(
    features: np.ndarray, epsilon: float, *, metric: str = "euclidean", min_size: int = 2
) -> Hypergraph:
    """One hyperedge per node containing all nodes within distance ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    features = np.asarray(features, dtype=np.float64)
    distances = pairwise_distances(features, metric=metric)
    hyperedges = []
    for node in range(features.shape[0]):
        members = np.nonzero(distances[node] <= epsilon)[0].tolist()
        if node not in members:
            members.append(node)
        if len(members) >= min_size:
            hyperedges.append(members)
    return Hypergraph(features.shape[0], hyperedges)


def hyperedges_from_graph_neighborhoods(
    graph: Graph, *, include_center: bool = True, min_size: int = 2
) -> Hypergraph:
    """Star/neighbourhood hyperedges: node + its graph neighbours.

    This is the standard recipe for turning co-citation or co-authorship
    relations into a static hypergraph (HGNN, HyperGCN).
    """
    hyperedges = []
    for node in range(graph.n_nodes):
        members = graph.neighbors(node)
        if include_center:
            members = sorted(set(members) | {node})
        if len(members) >= min_size:
            hyperedges.append(members)
    return Hypergraph(graph.n_nodes, hyperedges)


def hyperedges_from_groups(n_nodes: int, groups: Sequence[Sequence[int]]) -> Hypergraph:
    """Build a hypergraph from explicit node groups (papers, sessions, ...)."""
    return Hypergraph(n_nodes, [list(group) for group in groups])


def union_hypergraphs(*hypergraphs: Hypergraph) -> Hypergraph:
    """Concatenate hyperedge sets of several hypergraphs over the same nodes.

    Weights are preserved; duplicate hyperedges are kept (their effect simply
    adds, which matches how HGNN treats repeated relations).
    """
    if not hypergraphs:
        raise HypergraphStructureError("union_hypergraphs requires at least one hypergraph")
    n_nodes = hypergraphs[0].n_nodes
    for hypergraph in hypergraphs:
        if hypergraph.n_nodes != n_nodes:
            raise HypergraphStructureError(
                "all hypergraphs in a union must share the same node set"
            )
    hyperedges: list[tuple[int, ...]] = []
    weights: list[float] = []
    for hypergraph in hypergraphs:
        hyperedges.extend(hypergraph.hyperedges)
        weights.extend(hypergraph.weights.tolist())
    return Hypergraph(n_nodes, hyperedges, weights or None)


def corrupt_hyperedges(
    hypergraph: Hypergraph,
    fraction: float,
    *,
    seed=None,
) -> Hypergraph:
    """Replace a ``fraction`` of hyperedges with random ones of the same size.

    Used by the structure-noise robustness experiment (Fig. D): static-topology
    models must consume the corrupted structure as-is, while dynamic
    construction can recover from it.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    hyperedges = hypergraph.hyperedges
    weights = hypergraph.weights
    n_corrupt = int(round(fraction * len(hyperedges)))
    if n_corrupt == 0:
        return Hypergraph(hypergraph.n_nodes, hyperedges, weights)
    corrupt_indices = set(
        rng.choice(len(hyperedges), size=n_corrupt, replace=False).tolist()
    )
    new_edges: list[Sequence[int]] = []
    for index, edge in enumerate(hyperedges):
        if index in corrupt_indices:
            size = min(len(edge), hypergraph.n_nodes)
            random_edge = rng.choice(hypergraph.n_nodes, size=size, replace=False).tolist()
            new_edges.append(random_edge)
        else:
            new_edges.append(edge)
    return Hypergraph(hypergraph.n_nodes, new_edges, weights)
