"""Trackers that record model internals over the course of training.

Used by the analysis figures: how the static/dynamic gate drifts, and how the
class-consistency (homophily) of the dynamically built topology evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precision import resolve_dtype

from repro.core.model import DHGCN
from repro.hypergraph.metrics import hyperedge_homophily


@dataclass
class GateTracker:
    """Records the static-channel gate value of every DHGCN block per epoch."""

    epochs: list[int] = field(default_factory=list)
    gates: list[list[float]] = field(default_factory=list)

    def update(self, epoch: int, model: DHGCN) -> None:
        """Record the gates of ``model`` at ``epoch``."""
        self.epochs.append(int(epoch))
        self.gates.append([float(g) for g in model.gate_values()])

    def as_array(self) -> np.ndarray:
        """``(n_records, n_blocks)`` array of gate values."""
        if not self.gates:
            return np.zeros((0, 0))
        return np.array(self.gates, dtype=resolve_dtype("float64"))

    def drift(self) -> float:
        """Total absolute change of the mean gate between first and last record."""
        values = self.as_array()
        if values.shape[0] < 2:
            return 0.0
        return float(np.abs(values[-1].mean() - values[0].mean()))


@dataclass
class TopologyTracker:
    """Records the homophily of the dynamic hypergraph as training progresses."""

    labels: np.ndarray
    epochs: list[int] = field(default_factory=list)
    homophily: list[float] = field(default_factory=list)

    def update(self, epoch: int, model: DHGCN) -> None:
        """Rebuild the dynamic hypergraph from the model's deepest embedding and score it.

        The rebuild is a probe (:meth:`DynamicHypergraphBuilder.build_hypergraph`):
        it leaves the model's training state, and so the rest of the run,
        untouched.
        """
        if model.builder is None:
            return
        reference = None
        for embedding in reversed(model._block_inputs):
            if embedding is not None:
                reference = embedding
                break
        if reference is None:
            return
        hypergraph = model.builder.build_hypergraph(reference)
        self.epochs.append(int(epoch))
        self.homophily.append(float(hyperedge_homophily(hypergraph, self.labels)))

    def improvement(self) -> float:
        """Homophily gain between the first and the last recorded topology."""
        if len(self.homophily) < 2:
            return 0.0
        return float(self.homophily[-1] - self.homophily[0])
