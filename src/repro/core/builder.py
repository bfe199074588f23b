"""Dynamic hypergraph construction from node embeddings."""

from __future__ import annotations

import copy
from typing import Hashable

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.hypergraph.construction import (
    hyperedges_from_neighbor_indices,
    kmeans_hyperedges,
    union_hypergraphs,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.laplacian import (
    compactness_hyperedge_weights,
    hypergraph_propagation_operator,
)
from repro.hypergraph.neighbors import IncrementalBackend
from repro.utils.rng import as_rng


class DynamicHypergraphBuilder:
    """Builds the dynamic topology of DHGCN from a node embedding.

    Two hyperedge generators are combined:

    * **k-NN hyperedges** (local information) — one hyperedge per node made of
      the node and its ``k_neighbors`` nearest neighbours in embedding space;
    * **cluster hyperedges** (global information) — ``n_clusters`` k-means
      clusters, each becoming one hyperedge.

    Optionally every dynamic hyperedge is weighted by its compactness in
    embedding space (tight hyperedges get larger weight), which is the
    "dynamic hyperedge weighting" mechanism of the paper.

    The builder is deliberately *non-differentiable*: the topology is data,
    gradients flow through the convolution weights and the features, exactly
    as in the DHGNN family.

    Each slot (DHGCN passes its layer index) owns one incremental k-NN index
    (:class:`~repro.hypergraph.neighbors.IncrementalBackend`) that
    remembers the slot's previous embedding, so a refresh re-queries only
    the rows that moved; the answer equals a cold rebuild (float64).
    """

    def __init__(
        self,
        k_neighbors: int = 4,
        n_clusters: int = 4,
        *,
        use_knn: bool = True,
        use_cluster: bool = True,
        use_edge_weighting: bool = True,
        weight_temperature: float = 1.0,
        seed=None,
        knn_block_size: int | None = None,
    ) -> None:
        if not use_knn and not use_cluster:
            raise ConfigurationError("at least one hyperedge generator must be enabled")
        if k_neighbors < 1:
            raise ConfigurationError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if weight_temperature <= 0:
            raise ConfigurationError(f"weight_temperature must be positive, got {weight_temperature}")
        self.k_neighbors = int(k_neighbors)
        self.n_clusters = int(n_clusters)
        self.use_knn = bool(use_knn)
        self.use_cluster = bool(use_cluster)
        self.use_edge_weighting = bool(use_edge_weighting)
        self.weight_temperature = float(weight_temperature)
        self.knn_block_size = knn_block_size
        self._rng = as_rng(seed)
        #: Each slot's own k-NN index (see :meth:`build_operator`).
        self._indices: dict[Hashable, IncrementalBackend] = {}
        #: Most recently built topology per slot.
        self._last_hypergraphs: dict[Hashable, Hypergraph] = {}
        #: Number of hypergraph constructions performed (refresh diagnostics).
        self.build_count = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build_hypergraph(self, embedding: np.ndarray) -> Hypergraph:
        """The dynamic hypergraph a refresh would build from ``embedding``.

        A probe: it touches no training state.  The k-NN step runs cold (no
        slot's index), k-means draws its seeds from a *copy* of the builder's
        generator, and :attr:`build_count` is not incremented — so probing
        the topology mid-training leaves the run bit-identical to an
        unprobed one.  Raises :class:`~repro.errors.ConfigurationError` for
        a non-2-D ``embedding``.
        """
        return self._construct(
            embedding, IncrementalBackend(block_size=self.knn_block_size),
            copy.deepcopy(self._rng),
        )

    def build_operator(self, embedding: np.ndarray, *, slot: Hashable = None) -> sp.csr_matrix:
        """Refresh ``slot``'s dynamic topology; returns its propagation operator.

        The k-NN step queries ``slot``'s own index, so layer k's refresh
        repairs from layer k's previous embedding — never from a sibling
        layer built a moment earlier.  Counts toward :attr:`build_count`.
        """
        index = self._indices.get(slot)
        if index is None:
            index = self._indices[slot] = IncrementalBackend(block_size=self.knn_block_size)
        hypergraph = self._construct(embedding, index, self._rng)
        self.build_count += 1
        self._last_hypergraphs[slot] = hypergraph
        return hypergraph_propagation_operator(hypergraph)

    def _construct(
        self, embedding: np.ndarray, index: IncrementalBackend, rng: np.random.Generator
    ) -> Hypergraph:
        """k-NN (through ``index``) + k-means (seeded by ``rng``) + weights.

        The k-NN generator keeps the embedding dtype (float32 embeddings get
        float32 distance slabs); k-means and the compactness weights cast to
        float64 internally as before — they are cheap relative to the
        distance pass and feed weight values, not neighbour selections.
        """
        embedding = np.asarray(embedding)
        if embedding.ndim != 2:
            raise ConfigurationError(f"embedding must be 2-D, got shape {embedding.shape}")
        n = embedding.shape[0]
        parts: list[Hypergraph] = []
        if self.use_knn:
            k = min(self.k_neighbors, max(n - 1, 1))
            parts.append(hyperedges_from_neighbor_indices(index.query(embedding, k)))
        if self.use_cluster:
            clusters = min(self.n_clusters, n)
            parts.append(kmeans_hyperedges(embedding, clusters, seed=rng))
        hypergraph = union_hypergraphs(*parts)
        if self.use_edge_weighting and hypergraph.n_hyperedges > 0:
            weights = compactness_hyperedge_weights(
                hypergraph, embedding, temperature=self.weight_temperature
            )
            hypergraph = hypergraph.with_weights(weights)
        return hypergraph

    def __repr__(self) -> str:
        return (
            f"DynamicHypergraphBuilder(k_neighbors={self.k_neighbors}, "
            f"n_clusters={self.n_clusters}, use_knn={self.use_knn}, "
            f"use_cluster={self.use_cluster}, use_edge_weighting={self.use_edge_weighting})"
        )
