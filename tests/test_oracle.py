"""Every forward path against the dense equations in ``tests/oracle.py``.

Trainer evaluation, :meth:`FrozenModel.forward` and an
:class:`InferenceSession` after one feature update must each equal the
oracle to 1e-10 relative, for DHGNN and for DHGCN in each fusion mode.  The
oracle reads what it needs from the object under test — the pooled
hyperedges, the static hypergraph, the hyperedge weights and the layer
parameters — so k-NN, k-means and compactness weighting are not checked
here, only everything downstream of the topology they produce.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro import DHGCN, DHGCNConfig, DHGNN, FrozenModel, InferenceSession, TrainConfig, Trainer
from repro.autograd.tensor import Tensor, no_grad
from repro.precision import precision

KINDS = ["dhgnn", "gate", "sum", "static_only", "dynamic_only"]
SOURCES = ["trainer", "frozen", "session"]


def _model(kind, dataset):
    if kind == "dhgnn":
        return DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
    if kind in ("gate", "sum"):
        config = DHGCNConfig(hidden_dim=8, fusion=kind)
    else:
        config = DHGCNConfig(hidden_dim=8).ablate(
            "dynamic" if kind == "static_only" else "static"
        )
    return DHGCN(dataset.n_features, dataset.n_classes, config, seed=0)


@pytest.fixture(scope="module")
def trained(tiny_citation_dataset):
    """One model per kind, trained for two epochs (n=120)."""
    models = {}
    for kind in KINDS:
        model = _model(kind, tiny_citation_dataset)
        Trainer(model, tiny_citation_dataset, TrainConfig(epochs=2, patience=None)).train()
        models[kind] = model
    return models


def _theta(hypergraph):
    if hypergraph is None:
        return None
    return oracle.propagation(hypergraph.n_nodes, hypergraph.hyperedges, hypergraph.weights)


def _array(parameter):
    return None if parameter is None else parameter.data


def _block(block):
    static = block.static_conv.linear if block.static_conv is not None else None
    dynamic = block.dynamic_conv.linear if block.dynamic_conv is not None else None
    return {
        "fusion": block.fusion,
        "W_static": None if static is None else static.weight.data,
        "b_static": None if static is None else _array(static.bias),
        "W_dynamic": None if dynamic is None else dynamic.weight.data,
        "b_dynamic": None if dynamic is None else _array(dynamic.bias),
        "gate": _array(block.gate),
    }


def _expected(kind, features, layers, pooled, static):
    """Oracle logits from parameters and topology read off the object."""
    if kind == "dhgnn":
        linears = [(layer.weight.data, _array(layer.bias)) for layer in layers]
        return oracle.dhgnn_forward(features, [_theta(h) for h in pooled], linears)
    return oracle.dhgcn_forward(
        features, _theta(static), [_theta(h) for h in pooled], [_block(b) for b in layers]
    )


def _under_test(source, model, dataset):
    """``(logits, features, layers, pooled, static)`` from one forward path."""
    if source == "trainer":
        model.eval()
        with precision("float64"), no_grad():
            logits = model(Tensor(dataset.features)).data
        state = model.export_dynamic_state()
        layers = model.layers if isinstance(model, DHGNN) else model.blocks
        return (
            logits,
            dataset.features,
            layers,
            state["layer_hypergraphs"],
            state.get("reweighted_static") or state.get("static_hypergraph"),
        )
    frozen = FrozenModel.compile(model, dataset.features)
    if source == "frozen":
        logits, features, plan = frozen.forward(), frozen.features, frozen.plan
    else:
        session = InferenceSession(frozen)
        ids = np.array([2, 30, 77])
        rng = np.random.default_rng(4)
        session.update_features(
            ids, session.features[ids] + rng.normal(scale=0.1, size=(3, dataset.n_features))
        )
        logits, features, plan = session.predict(None, output="logits"), session.features, session.plan
    pooled = [None] * plan.n_layers
    for slot in plan.slots:
        pooled[slot.position] = slot.hypergraph
    return logits, features, plan.layers, pooled, plan.reweighted_static or plan.static_hypergraph


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", KINDS)
def test_forward_matches_the_equations(trained, tiny_citation_dataset, kind, source):
    logits, features, layers, pooled, static = _under_test(
        source, trained[kind], tiny_citation_dataset
    )
    expected = _expected(kind, features, layers, pooled, static)
    assert logits.dtype == np.float64 and logits.shape == expected.shape
    scale = np.abs(expected).max()
    assert scale > 0
    assert np.abs(logits - expected).max() <= 1e-10 * scale
