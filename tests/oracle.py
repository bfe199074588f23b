"""A dense float64 reference for the DHGNN and DHGCN layer equations.

Plain numpy, independent of ``repro``: it takes hyperedge lists, hyperedge
weights and parameter arrays that a test reads off the object under test,
and evaluates the paper's equations with dense matrices.  Training, the
frozen serving path and a session's refreshed forward are then each checked
against the equations, not against one another.

* :func:`propagation` — Θ = Dv^-1/2 H W De^-1 Hᵀ Dv^-1/2, with the weighted
  node degree dv = H w, the hyperedge degree δ(e) = |e|, and an identity row
  for every node that belongs to no hyperedge;
* :func:`dhgnn_forward` — per layer Θ_l (X W_l + b_l), ReLU between layers;
* :func:`dhgcn_forward` — per layer the dual-channel block
  g Θ_s (X W_s + b_s) + (1 − g) Θ_d (X W_d + b_d) with g = σ(γ) for
  ``"gate"``, 0.5 for ``"sum"``, 1 for ``"static_only"`` and 0 for
  ``"dynamic_only"``, ReLU between layers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def propagation(
    n_nodes: int, hyperedges: Sequence[Sequence[int]], weights: Sequence[float]
) -> np.ndarray:
    """Dense (n_nodes, n_nodes) propagation operator Θ."""
    incidence = np.zeros((n_nodes, len(hyperedges)))
    for column, edge in enumerate(hyperedges):
        incidence[list(edge), column] = 1.0
    weights = np.asarray(weights, dtype=np.float64)
    node_degree = incidence @ weights
    edge_degree = incidence.sum(axis=0)
    covered = node_degree > 0
    scale = np.zeros(n_nodes)
    scale[covered] = node_degree[covered] ** -0.5
    left = scale[:, None] * incidence
    theta = (left * (weights / edge_degree)) @ left.T
    isolated = np.flatnonzero(~covered)
    theta[isolated, isolated] = 1.0
    return theta


def _conv(theta: np.ndarray, hidden: np.ndarray, weight: np.ndarray, bias) -> np.ndarray:
    out = hidden @ np.asarray(weight, dtype=np.float64)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return theta @ out


def _relu(hidden: np.ndarray) -> np.ndarray:
    return np.maximum(hidden, 0.0)


def dhgnn_forward(
    features: np.ndarray, thetas: Sequence[np.ndarray], linears: Sequence[tuple]
) -> np.ndarray:
    """DHGNN logits; ``linears`` holds one ``(weight, bias)`` per layer."""
    hidden = np.asarray(features, dtype=np.float64)
    last = len(linears) - 1
    for position, (theta, (weight, bias)) in enumerate(zip(thetas, linears)):
        hidden = _conv(theta, hidden, weight, bias)
        if position < last:
            hidden = _relu(hidden)
    return hidden


def dual_channel(
    hidden: np.ndarray, block: dict, static_theta, dynamic_theta
) -> np.ndarray:
    """One dual-channel block; ``block`` names its fusion and parameters."""
    fusion = block["fusion"]
    if fusion == "static_only":
        return _conv(static_theta, hidden, block["W_static"], block["b_static"])
    if fusion == "dynamic_only":
        return _conv(dynamic_theta, hidden, block["W_dynamic"], block["b_dynamic"])
    static = _conv(static_theta, hidden, block["W_static"], block["b_static"])
    dynamic = _conv(dynamic_theta, hidden, block["W_dynamic"], block["b_dynamic"])
    if fusion == "sum":
        gate = 0.5
    else:
        gate = 1.0 / (1.0 + np.exp(-float(np.asarray(block["gate"]).reshape(-1)[0])))
    return gate * static + (1.0 - gate) * dynamic


def dhgcn_forward(
    features: np.ndarray,
    static_theta,
    dynamic_thetas: Sequence,
    blocks: Sequence[dict],
) -> np.ndarray:
    """DHGCN logits; ``dynamic_thetas[l]`` is ``None`` without a dynamic channel."""
    hidden = np.asarray(features, dtype=np.float64)
    last = len(blocks) - 1
    for position, (block, dynamic_theta) in enumerate(zip(blocks, dynamic_thetas)):
        hidden = dual_channel(hidden, block, static_theta, dynamic_theta)
        if position < last:
            hidden = _relu(hidden)
    return hidden
