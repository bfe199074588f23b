"""Configuration of the DHGCN model (architecture + ablation switches)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

_FUSION_MODES = ("gate", "sum", "static_only", "dynamic_only")


@dataclass(frozen=True)
class DHGCNConfig:
    """Hyper-parameters and ablation switches of :class:`repro.core.DHGCN`.

    Attributes
    ----------
    hidden_dim:
        Width of every hidden convolution block.
    n_layers:
        Number of dual-channel convolution blocks.
    dropout:
        Dropout probability applied before every block and the classifier.
    k_neighbors:
        ``k_n`` — neighbours per node in the k-NN ("local information")
        hyperedges of the dynamic topology.
    n_clusters:
        ``k_m`` — number of k-means ("global information") cluster hyperedges.
    refresh_period:
        Rebuild the dynamic topology every this many epochs.
    use_static / use_dynamic:
        Enable the static-hypergraph channel / the dynamic-hypergraph channel.
    use_knn_hyperedges / use_cluster_hyperedges:
        Enable the two generators of the dynamic topology.
    use_edge_weighting:
        Weight dynamic hyperedges by embedding-space compactness.
    weight_temperature:
        Temperature of the compactness weighting (larger = more uniform).
    fusion:
        How the two channels are combined: ``"gate"`` (learnable sigmoid gate),
        ``"sum"`` (fixed 0.5/0.5), or single-channel modes used by ablations.
    knn_block_size:
        Query-block size of the chunked k-NN used by the dynamic topology
        (``None`` = library default).  Memory/speed knob only — the selected
        neighbours are identical for every value.
    """

    hidden_dim: int = 32
    n_layers: int = 2
    dropout: float = 0.5
    k_neighbors: int = 4
    n_clusters: int = 4
    refresh_period: int = 5
    use_static: bool = True
    use_dynamic: bool = True
    use_knn_hyperedges: bool = True
    use_cluster_hyperedges: bool = True
    use_edge_weighting: bool = True
    weight_temperature: float = 3.0
    fusion: str = "gate"
    knn_block_size: int | None = None

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ConfigurationError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.k_neighbors < 1:
            raise ConfigurationError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.refresh_period < 1:
            raise ConfigurationError(f"refresh_period must be >= 1, got {self.refresh_period}")
        if self.weight_temperature <= 0:
            raise ConfigurationError(
                f"weight_temperature must be positive, got {self.weight_temperature}"
            )
        if self.fusion not in _FUSION_MODES:
            raise ConfigurationError(f"fusion must be one of {_FUSION_MODES}, got {self.fusion!r}")
        if self.knn_block_size is not None and self.knn_block_size < 1:
            raise ConfigurationError(
                f"knn_block_size must be >= 1 or None, got {self.knn_block_size}"
            )
        if not self.use_static and not self.use_dynamic:
            raise ConfigurationError("at least one of use_static / use_dynamic must be enabled")
        if self.use_dynamic and not (self.use_knn_hyperedges or self.use_cluster_hyperedges):
            raise ConfigurationError(
                "the dynamic channel needs at least one hyperedge generator "
                "(use_knn_hyperedges or use_cluster_hyperedges)"
            )

    # ------------------------------------------------------------------ #
    # Convenience constructors for the ablation table
    # ------------------------------------------------------------------ #
    def ablate(self, component: str) -> "DHGCNConfig":
        """Return a copy with one named component removed.

        Supported components: ``"static"``, ``"dynamic"``, ``"knn"``,
        ``"cluster"``, ``"weighting"``.
        """
        if component == "static":
            return replace(self, use_static=False, fusion="dynamic_only")
        if component == "dynamic":
            return replace(self, use_dynamic=False, fusion="static_only")
        if component == "knn":
            return replace(self, use_knn_hyperedges=False)
        if component == "cluster":
            return replace(self, use_cluster_hyperedges=False)
        if component == "weighting":
            return replace(self, use_edge_weighting=False)
        raise ConfigurationError(f"unknown ablation component {component!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict view (for metadata/result logging)."""
        return asdict(self)
