"""DHGNN-style baseline (Jiang et al., IJCAI 2019).

DHGNN rebuilds hyperedges from the current feature embedding in every
convolution layer (k-NN hyperedges plus k-means cluster hyperedges) and pools
them together with the dataset's initial hyperedges into a *single*
convolution channel with unweighted hyperedges.  Compared with DHGCN it lacks
the separate static/dynamic channels, the learnable gated fusion and the
compactness-based hyperedge weighting, which makes it the most important
baseline for isolating those contributions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd.ops_sparse import spmm
from repro.autograd.tensor import Tensor, as_tensor
from repro.data.dataset import NodeClassificationDataset
from repro.errors import ConfigurationError
from repro.hypergraph.construction import (
    hyperedges_from_neighbor_indices,
    kmeans_hyperedges,
    union_hypergraphs,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.laplacian import hypergraph_propagation_operator
from repro.hypergraph.neighbors import IncrementalBackend
from repro.models.base import BaseNodeClassifier
from repro.nn import Dropout, Linear
from repro.nn.container import ModuleList
from repro.utils.profiling import record_block
from repro.utils.rng import as_rng, spawn_rngs


class DHGNN(BaseNodeClassifier):
    """Dynamic hypergraph neural network baseline.

    Parameters
    ----------
    k_neighbors:
        Size (minus one) of the per-node k-NN hyperedges.
    n_clusters:
        Number of k-means cluster hyperedges.
    refresh_period:
        Rebuild the dynamic topology every this many epochs (1 = every epoch,
        matching the original formulation; larger values trade adaptivity for
        speed).
    knn_block_size:
        Query-block size of the chunked k-NN (``None`` = library default);
        memory knob only, the neighbour sets are identical for every value.

    Every layer owns one incremental k-NN index
    (:class:`~repro.hypergraph.neighbors.IncrementalBackend`): a refresh
    re-queries only the rows of that layer's embedding that moved, and the
    answer equals a cold rebuild (float64).
    """

    name = "DHGNN"

    def __init__(
        self,
        in_features: int,
        n_classes: int,
        hidden_dim: int = 32,
        n_layers: int = 2,
        dropout: float = 0.5,
        k_neighbors: int = 4,
        n_clusters: int = 4,
        refresh_period: int = 5,
        seed=None,
        knn_block_size: int | None = None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
        if k_neighbors < 1:
            raise ConfigurationError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if refresh_period < 1:
            raise ConfigurationError(f"refresh_period must be >= 1, got {refresh_period}")
        rngs = spawn_rngs(as_rng(seed), n_layers)
        dims = [in_features] + [hidden_dim] * (n_layers - 1) + [n_classes]
        self.layers = ModuleList(
            Linear(dims[i], dims[i + 1], seed=rngs[i]) for i in range(n_layers)
        )
        self.dropout = Dropout(dropout, seed=seed)
        self.k_neighbors = int(k_neighbors)
        self.n_clusters = int(n_clusters)
        self.refresh_period = int(refresh_period)
        self._indices = [IncrementalBackend(block_size=knn_block_size) for _ in range(n_layers)]
        self._construction_rng = as_rng(seed)
        self._static_hypergraph = None
        self._operators: list[sp.csr_matrix | None] = [None] * n_layers
        self._layer_hypergraphs: list[Hypergraph | None] = [None] * n_layers
        self._layer_inputs: list[np.ndarray | None] = [None] * n_layers
        self._needs_refresh = True

    def _setup(self, dataset: NodeClassificationDataset) -> None:
        # The published DHGNN seeds its construction with the dataset's initial
        # hyperedges and augments them with feature-space hyperedges per layer.
        self._static_hypergraph = (
            dataset.hypergraph if dataset.hypergraph.n_hyperedges > 0 else None
        )
        self._operators = [None] * len(self.layers)
        self._layer_hypergraphs = [None] * len(self.layers)
        self._layer_inputs = [None] * len(self.layers)
        self._needs_refresh = True

    def on_epoch(self, epoch: int) -> None:
        if epoch % self.refresh_period == 0:
            self._needs_refresh = True

    def _build_operator(self, embedding: np.ndarray, position: int) -> sp.csr_matrix:
        k = min(self.k_neighbors, embedding.shape[0] - 1)
        clusters = min(self.n_clusters, embedding.shape[0])
        local = hyperedges_from_neighbor_indices(self._indices[position].query(embedding, k))
        global_ = kmeans_hyperedges(embedding, clusters, seed=self._construction_rng)
        parts = [local, global_]
        if self._static_hypergraph is not None:
            parts.append(self._static_hypergraph)
        pooled = union_hypergraphs(*parts)
        self._layer_hypergraphs[position] = pooled
        return hypergraph_propagation_operator(pooled)

    def export_dynamic_state(self) -> dict:
        """Snapshot of the per-layer operators and pooled topologies.

        The contract :meth:`repro.serving.FrozenModel.compile` consumes;
        operators are shared (read-only constants), not copied, and the
        compiler clones the per-layer k-NN indices.
        """
        self.require_setup()
        return {
            "operators": list(self._operators),
            "layer_hypergraphs": list(self._layer_hypergraphs),
            "static_hypergraph": self._static_hypergraph,
            "indices": list(self._indices),
        }

    @staticmethod
    def layer(linear: Linear, hidden: Tensor, operator: sp.csr_matrix, *, last: bool) -> Tensor:
        """One DHGNN layer, ``Θ (h W + b)``, followed by ReLU unless ``last``.

        The single definition of the layer arithmetic: :meth:`forward` calls
        it after dropout, and the serving plan
        (:class:`repro.serving.FrozenModel`) calls it on its own copies of
        the trained ``Linear`` modules.
        """
        hidden = spmm(operator, linear(hidden))
        return hidden if last else hidden.relu()

    def forward(self, features: Tensor) -> Tensor:
        self.require_setup()
        hidden = as_tensor(features)
        last = len(self.layers) - 1
        for position, layer in enumerate(self.layers):
            if self._needs_refresh or self._operators[position] is None:
                # Build from the freshest embedding seen at this depth
                # (input features on the very first pass).
                reference = self._layer_inputs[position]
                if reference is None:
                    reference = hidden.data
                with record_block("DHGNN.topology_refresh"):
                    self._operators[position] = self._build_operator(reference, position)
            self._layer_inputs[position] = hidden.data
            hidden = self.dropout(hidden)
            hidden = self.layer(
                layer, hidden, self._operators[position], last=position == last
            )
        self._needs_refresh = False
        return hidden
