"""The Dynamic Hypergraph Convolutional Network (DHGCN) model."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, as_tensor
from repro.core.builder import DynamicHypergraphBuilder
from repro.core.config import DHGCNConfig
from repro.core.layers import DualChannelBlock
from repro.data.dataset import NodeClassificationDataset
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.laplacian import (
    compactness_hyperedge_weights,
    hypergraph_propagation_operator,
)
from repro.models.base import BaseNodeClassifier
from repro.nn import Dropout
from repro.nn.container import ModuleList
from repro.utils.profiling import record_block
from repro.utils.rng import as_rng, spawn_rngs


class DHGCN(BaseNodeClassifier):
    """Dynamic Hypergraph Convolutional Network.

    The model stacks ``config.n_layers`` dual-channel blocks; the last block
    maps straight to class logits.  Each block fuses:

    * a **static channel** — hypergraph convolution over the dataset's native
      hypergraph (co-citation / co-authorship relations, or a feature k-NN
      hypergraph for feature-only datasets), whose propagation operator is
      precomputed once in :meth:`setup`;
    * a **dynamic channel** — hypergraph convolution over a topology rebuilt
      from the *current node embeddings* every ``config.refresh_period``
      epochs by :class:`DynamicHypergraphBuilder` (k-NN hyperedges + k-means
      cluster hyperedges, compactness-weighted).

    Ablation switches in :class:`DHGCNConfig` turn individual components off,
    which is how the ablation benchmark (Table 4) is generated.

    Parameters
    ----------
    in_features, n_classes:
        Input feature dimensionality and number of classes.
    config:
        Architecture configuration; defaults to :class:`DHGCNConfig()`.
    seed:
        Seed for parameter initialisation and the k-means used by the builder.
    """

    name = "DHGCN"

    def __init__(
        self,
        in_features: int,
        n_classes: int,
        config: DHGCNConfig | None = None,
        seed=None,
    ) -> None:
        super().__init__()
        self.config = config or DHGCNConfig()
        rng = as_rng(seed)
        block_rngs = spawn_rngs(rng, self.config.n_layers + 2)

        fusion = self._resolve_fusion()
        # Same depth convention as the baselines: the last block maps straight
        # to class logits, hidden blocks are ReLU-activated.
        dims = [in_features] + [self.config.hidden_dim] * (self.config.n_layers - 1) + [n_classes]
        self.blocks = ModuleList(
            DualChannelBlock(dims[i], dims[i + 1], fusion=fusion, seed=block_rngs[i])
            for i in range(self.config.n_layers)
        )
        self.dropout = Dropout(self.config.dropout, seed=block_rngs[-2])

        if self.config.use_dynamic:
            self.builder = DynamicHypergraphBuilder(
                k_neighbors=self.config.k_neighbors,
                n_clusters=self.config.n_clusters,
                use_knn=self.config.use_knn_hyperedges,
                use_cluster=self.config.use_cluster_hyperedges,
                use_edge_weighting=self.config.use_edge_weighting,
                weight_temperature=self.config.weight_temperature,
                seed=rng,
                knn_block_size=self.config.knn_block_size,
            )
        else:
            self.builder = None

        self._static_hypergraph: Hypergraph | None = None
        self._reweighted_static: Hypergraph | None = None
        self._static_operator: sp.csr_matrix | None = None
        self._dynamic_operators: list[sp.csr_matrix | None] = [None] * self.config.n_layers
        self._block_inputs: list[np.ndarray | None] = [None] * self.config.n_layers
        self._needs_refresh = True

    def _resolve_fusion(self) -> str:
        if self.config.use_static and self.config.use_dynamic:
            return self.config.fusion if self.config.fusion in ("gate", "sum") else "gate"
        if self.config.use_static:
            return "static_only"
        return "dynamic_only"

    # ------------------------------------------------------------------ #
    # Setup / refresh scheduling
    # ------------------------------------------------------------------ #
    def _setup(self, dataset: NodeClassificationDataset) -> None:
        if self.config.use_static:
            self._static_hypergraph = dataset.hypergraph
            self._static_operator = hypergraph_propagation_operator(dataset.hypergraph)
        else:
            self._static_hypergraph = None
            self._static_operator = None
        self._reweighted_static = None
        self._dynamic_operators = [None] * self.config.n_layers
        self._block_inputs = [None] * self.config.n_layers
        self._needs_refresh = True

    def _reweight_static_operator(self) -> None:
        """Dynamic hyperedge weighting of the *static* hypergraph.

        At every topology refresh the static hyperedges are re-weighted by
        their compactness in the deepest available node embedding, so noisy or
        uninformative static hyperedges are progressively down-weighted while
        the topology itself is preserved.
        """
        if (
            self._static_hypergraph is None
            or not self.config.use_edge_weighting
            or self._static_hypergraph.n_hyperedges == 0
        ):
            return
        reference = None
        for embedding in reversed(self._block_inputs):
            if embedding is not None:
                reference = embedding
                break
        if reference is None:
            return
        weights = compactness_hyperedge_weights(
            self._static_hypergraph, reference, temperature=self.config.weight_temperature
        )
        self._reweighted_static = self._static_hypergraph.with_weights(weights)
        self._static_operator = hypergraph_propagation_operator(self._reweighted_static)

    def on_epoch(self, epoch: int) -> None:
        """Schedule a dynamic-topology rebuild every ``refresh_period`` epochs."""
        if self.config.use_dynamic and epoch % self.config.refresh_period == 0:
            self._needs_refresh = True

    def refresh_now(self) -> None:
        """Force a dynamic-topology rebuild on the next forward pass."""
        self._needs_refresh = True

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    @staticmethod
    def layer(
        block: DualChannelBlock,
        hidden: Tensor,
        static_operator: sp.csr_matrix | None,
        dynamic_operator: sp.csr_matrix | None,
        *,
        last: bool,
    ) -> Tensor:
        """One DHGCN layer: the gated dual-channel block, ReLU unless ``last``.

        The single definition of the layer arithmetic: :meth:`forward` calls
        it after dropout, and the serving plan
        (:class:`repro.serving.FrozenModel`) calls it on its own copies of
        the trained blocks.
        """
        hidden = block(hidden, static_operator, dynamic_operator)
        return hidden if last else hidden.relu()

    def forward(self, features: Tensor) -> Tensor:
        self.require_setup()
        hidden = as_tensor(features)
        last = len(self.blocks) - 1
        if self._needs_refresh:
            with record_block("DHGCN.topology_refresh"):
                self._reweight_static_operator()
        for position, block in enumerate(self.blocks):
            if self.config.use_dynamic and (
                self._needs_refresh or self._dynamic_operators[position] is None
            ):
                reference = self._block_inputs[position]
                if reference is None:
                    reference = hidden.data
                with record_block("DHGCN.topology_refresh"):
                    self._dynamic_operators[position] = self.builder.build_operator(
                        reference, slot=position
                    )
            self._block_inputs[position] = hidden.data
            hidden = self.dropout(hidden)
            hidden = self.layer(
                block,
                hidden,
                self._static_operator,
                self._dynamic_operators[position],
                last=position == last,
            )
        self._needs_refresh = False
        return hidden

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def gate_values(self) -> list[float]:
        """Static-channel mixing weight of every block (for analysis plots)."""
        return [block.gate_value() for block in self.blocks]

    def dynamic_hypergraphs_built(self) -> int:
        """How many times the dynamic topology was rebuilt so far."""
        return 0 if self.builder is None else self.builder.build_count

    def export_dynamic_state(self) -> dict:
        """Snapshot of the resolved operators and topologies for serving.

        The contract :meth:`repro.serving.FrozenModel.compile` consumes: the
        static channel's operator and (re)weighted hypergraphs plus, per
        block, the dynamic operator, the pooled hypergraph it was built from
        and the block's k-NN index (``None`` before its first refresh).
        Operators are shared (they are read-only constants), not copied;
        the compiler clones the indices.
        """
        self.require_setup()
        positions = range(self.config.n_layers)
        builder = self.builder
        return {
            "static_operator": self._static_operator,
            "static_hypergraph": self._static_hypergraph,
            "reweighted_static": self._reweighted_static,
            "dynamic_operators": list(self._dynamic_operators),
            "layer_hypergraphs": [
                None if builder is None else builder._last_hypergraphs.get(p)
                for p in positions
            ],
            "indices": [None if builder is None else builder._indices.get(p) for p in positions],
        }
