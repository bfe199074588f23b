"""The :class:`Hypergraph` data structure."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import HypergraphStructureError


class Hypergraph:
    """A weighted hypergraph over nodes ``0 .. n_nodes - 1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.
    hyperedges:
        Iterable of node collections; each collection becomes one hyperedge.
        Duplicate nodes inside a hyperedge are removed; empty hyperedges are
        rejected.
    weights:
        Optional positive weight per hyperedge (defaults to 1.0 each).

    Notes
    -----
    The structure is immutable-ish: mutating operations return new
    hypergraphs, which keeps cached matrices consistent.
    """

    def __init__(
        self,
        n_nodes: int,
        hyperedges: Iterable[Sequence[int]],
        weights: Sequence[float] | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise HypergraphStructureError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        cleaned: list[tuple[int, ...]] = []
        for hyperedge in hyperedges:
            members = sorted({int(node) for node in hyperedge})
            if not members:
                raise HypergraphStructureError("hyperedges must contain at least one node")
            if members[0] < 0 or members[-1] >= self.n_nodes:
                raise HypergraphStructureError(
                    f"hyperedge {members} references a node outside [0, {self.n_nodes})"
                )
            cleaned.append(tuple(members))
        self._hyperedges: tuple[tuple[int, ...], ...] = tuple(cleaned)

        if weights is None:
            self._weights = np.ones(len(cleaned), dtype=np.float64)
        else:
            weights = np.asarray(list(weights), dtype=np.float64)
            if weights.shape != (len(cleaned),):
                raise HypergraphStructureError(
                    f"weights must have one entry per hyperedge ({len(cleaned)}), "
                    f"got shape {weights.shape}"
                )
            if np.any(weights <= 0):
                raise HypergraphStructureError("hyperedge weights must be strictly positive")
            self._weights = weights.copy()
        # The public view is read-only so hot loops can consume the weights
        # without a defensive per-access copy.
        self._weights.setflags(write=False)
        self._incidence_cache: sp.csr_matrix | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def hyperedges(self) -> tuple[tuple[int, ...], ...]:
        """Hyperedges as sorted node tuples (immutable, shared, not copied)."""
        return self._hyperedges

    @property
    def weights(self) -> np.ndarray:
        """Read-only view of the hyperedge weight vector (not copied)."""
        return self._weights

    @property
    def n_hyperedges(self) -> int:
        return len(self._hyperedges)

    def hyperedge_sizes(self) -> np.ndarray:
        """Number of nodes in each hyperedge (``δ(e)``)."""
        return np.array([len(edge) for edge in self._hyperedges], dtype=np.int64)

    def incidence_matrix(self) -> sp.csr_matrix:
        """Sparse ``(n_nodes, n_hyperedges)`` incidence matrix ``H``."""
        if self._incidence_cache is None:
            rows: list[int] = []
            cols: list[int] = []
            for edge_index, edge in enumerate(self._hyperedges):
                rows.extend(edge)
                cols.extend([edge_index] * len(edge))
            data = np.ones(len(rows), dtype=np.float64)
            self._incidence_cache = sp.coo_matrix(
                (data, (rows, cols)), shape=(self.n_nodes, max(self.n_hyperedges, 1))
            ).tocsr()
            if self.n_hyperedges == 0:
                self._incidence_cache = sp.csr_matrix((self.n_nodes, 0))
        return self._incidence_cache

    def node_degrees(self) -> np.ndarray:
        """Weighted node degrees ``d(v) = Σ_e w(e) h(v, e)``."""
        incidence = self.incidence_matrix()
        if self.n_hyperedges == 0:
            return np.zeros(self.n_nodes)
        return np.asarray(incidence @ self._weights).reshape(-1)

    def edge_degrees(self) -> np.ndarray:
        """Hyperedge degrees ``δ(e) = Σ_v h(v, e)`` (same as sizes, as floats)."""
        return self.hyperedge_sizes().astype(np.float64)

    def node_memberships(self, node: int) -> list[int]:
        """Indices of hyperedges containing ``node``."""
        if not 0 <= node < self.n_nodes:
            raise HypergraphStructureError(f"node {node} outside [0, {self.n_nodes})")
        return [index for index, edge in enumerate(self._hyperedges) if node in edge]

    def isolated_nodes(self) -> np.ndarray:
        """Nodes that belong to no hyperedge."""
        covered = np.zeros(self.n_nodes, dtype=bool)
        for edge in self._hyperedges:
            covered[list(edge)] = True
        return np.nonzero(~covered)[0]

    # ------------------------------------------------------------------ #
    # Derived hypergraphs
    # ------------------------------------------------------------------ #
    def with_weights(self, weights: Sequence[float]) -> "Hypergraph":
        """Return a copy with new hyperedge weights."""
        return Hypergraph(self.n_nodes, self._hyperedges, weights)

    def add_hyperedges(
        self, hyperedges: Iterable[Sequence[int]], weights: Sequence[float] | None = None
    ) -> "Hypergraph":
        """Return a new hypergraph with the extra hyperedges appended."""
        new_edges = list(self._hyperedges) + [tuple(edge) for edge in hyperedges]
        extra = list(weights) if weights is not None else [1.0] * (len(new_edges) - self.n_hyperedges)
        if len(extra) != len(new_edges) - self.n_hyperedges:
            raise HypergraphStructureError("weights must match the number of added hyperedges")
        return Hypergraph(self.n_nodes, new_edges, list(self._weights) + extra)

    def remove_hyperedges(self, indices: Iterable[int]) -> "Hypergraph":
        """Return a new hypergraph without the hyperedges at ``indices``."""
        drop = {int(index) for index in indices}
        bad = [index for index in drop if not 0 <= index < self.n_hyperedges]
        if bad:
            raise HypergraphStructureError(f"hyperedge indices out of range: {sorted(bad)}")
        kept = [
            (edge, weight)
            for index, (edge, weight) in enumerate(zip(self._hyperedges, self._weights))
            if index not in drop
        ]
        if not kept:
            return Hypergraph(self.n_nodes, [], [])
        edges, weights = zip(*kept)
        return Hypergraph(self.n_nodes, edges, weights)

    def subhypergraph(self, nodes: Sequence[int]) -> "Hypergraph":
        """Induced sub-hypergraph on ``nodes`` (relabelled to ``0..len(nodes)-1``).

        Hyperedges are intersected with the node subset; intersections smaller
        than two nodes are dropped.
        """
        nodes = sorted({int(node) for node in nodes})
        if not nodes:
            raise HypergraphStructureError("subhypergraph requires at least one node")
        if nodes[0] < 0 or nodes[-1] >= self.n_nodes:
            raise HypergraphStructureError("subhypergraph nodes outside the hypergraph")
        mapping = {node: position for position, node in enumerate(nodes)}
        new_edges, new_weights = [], []
        for edge, weight in zip(self._hyperedges, self._weights):
            intersection = [mapping[node] for node in edge if node in mapping]
            if len(intersection) >= 2:
                new_edges.append(tuple(intersection))
                new_weights.append(weight)
        return Hypergraph(len(nodes), new_edges, new_weights or None)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_incidence(
        cls, incidence: np.ndarray | sp.spmatrix, weights: Sequence[float] | None = None
    ) -> "Hypergraph":
        """Build from an ``(n_nodes, n_hyperedges)`` 0/1 incidence matrix."""
        if sp.issparse(incidence):
            incidence = incidence.toarray()
        incidence = np.asarray(incidence)
        if incidence.ndim != 2:
            raise HypergraphStructureError(
                f"incidence must be 2-D, got shape {incidence.shape}"
            )
        hyperedges = [
            np.nonzero(incidence[:, column])[0].tolist() for column in range(incidence.shape[1])
        ]
        hyperedges = [edge for edge in hyperedges if edge]
        return cls(incidence.shape[0], hyperedges, weights)

    @classmethod
    def empty(cls, n_nodes: int) -> "Hypergraph":
        """A hypergraph with no hyperedges."""
        return cls(n_nodes, [], [])

    def __repr__(self) -> str:
        return f"Hypergraph(n_nodes={self.n_nodes}, n_hyperedges={self.n_hyperedges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self._hyperedges == other._hyperedges
            and np.allclose(self._weights, other._weights)
        )

    __hash__ = None  # type: ignore[assignment]
