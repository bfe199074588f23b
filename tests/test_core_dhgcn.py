"""Tests for the DHGCN core: config, dynamic builder, layers and the full model."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.core import DHGCN, DHGCNConfig, DualChannelBlock, DynamicHypergraphBuilder, HypergraphConvolution
from repro.errors import ConfigurationError
from repro.hypergraph import hypergraph_propagation_operator


class TestConfig:
    def test_defaults_valid(self):
        config = DHGCNConfig()
        assert config.use_static and config.use_dynamic
        assert config.fusion == "gate"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DHGCNConfig(hidden_dim=0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(n_layers=0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(dropout=1.0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(k_neighbors=0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(n_clusters=0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(refresh_period=0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(weight_temperature=0.0)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(fusion="other")
        with pytest.raises(ConfigurationError):
            DHGCNConfig(use_static=False, use_dynamic=False)
        with pytest.raises(ConfigurationError):
            DHGCNConfig(use_knn_hyperedges=False, use_cluster_hyperedges=False)

    def test_ablations(self):
        config = DHGCNConfig()
        assert not config.ablate("static").use_static
        assert not config.ablate("dynamic").use_dynamic
        assert not config.ablate("knn").use_knn_hyperedges
        assert not config.ablate("cluster").use_cluster_hyperedges
        assert not config.ablate("weighting").use_edge_weighting
        with pytest.raises(ConfigurationError):
            config.ablate("nonsense")

    def test_to_dict_roundtrip(self):
        config = DHGCNConfig(hidden_dim=16, k_neighbors=3)
        data = config.to_dict()
        assert data["hidden_dim"] == 16
        assert DHGCNConfig(**data) == config


class TestDynamicBuilder:
    @pytest.fixture()
    def embedding(self):
        rng = np.random.default_rng(0)
        return np.vstack([rng.normal(0, 0.3, (15, 4)), rng.normal(4, 0.3, (15, 4))])

    def test_builds_knn_and_cluster_hyperedges(self, embedding):
        builder = DynamicHypergraphBuilder(k_neighbors=3, n_clusters=2, seed=0)
        hypergraph = builder.build_hypergraph(embedding)
        assert hypergraph.n_nodes == 30
        assert hypergraph.n_hyperedges == 30 + 2
        # build_hypergraph is a probe; only a refresh (build_operator) counts.
        assert builder.build_count == 0
        builder.build_operator(embedding, slot=0)
        assert builder.build_count == 1
        assert builder._last_hypergraphs[0].hyperedges == hypergraph.hyperedges

    def test_knn_only_and_cluster_only(self, embedding):
        knn_only = DynamicHypergraphBuilder(k_neighbors=3, n_clusters=2, use_cluster=False, seed=0)
        assert knn_only.build_hypergraph(embedding).n_hyperedges == 30
        cluster_only = DynamicHypergraphBuilder(k_neighbors=3, n_clusters=2, use_knn=False, seed=0)
        assert cluster_only.build_hypergraph(embedding).n_hyperedges == 2

    def test_edge_weighting_produces_nonuniform_weights(self, embedding):
        weighted = DynamicHypergraphBuilder(k_neighbors=3, n_clusters=2, seed=0)
        hypergraph = weighted.build_hypergraph(embedding)
        assert np.ptp(hypergraph.weights) > 0.0
        unweighted = DynamicHypergraphBuilder(
            k_neighbors=3, n_clusters=2, use_edge_weighting=False, seed=0
        )
        assert np.allclose(unweighted.build_hypergraph(embedding).weights, 1.0)

    def test_operator_shape_and_symmetry(self, embedding):
        builder = DynamicHypergraphBuilder(k_neighbors=2, n_clusters=3, seed=0)
        operator = builder.build_operator(embedding).toarray()
        assert operator.shape == (30, 30)
        assert np.allclose(operator, operator.T)

    def test_handles_small_inputs_gracefully(self):
        builder = DynamicHypergraphBuilder(k_neighbors=10, n_clusters=10, seed=0)
        hypergraph = builder.build_hypergraph(np.random.default_rng(0).normal(size=(4, 3)))
        assert hypergraph.n_nodes == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicHypergraphBuilder(use_knn=False, use_cluster=False)
        with pytest.raises(ConfigurationError):
            DynamicHypergraphBuilder(k_neighbors=0)
        with pytest.raises(ConfigurationError):
            DynamicHypergraphBuilder(n_clusters=0)
        with pytest.raises(ConfigurationError):
            DynamicHypergraphBuilder(weight_temperature=0.0)
        with pytest.raises(ConfigurationError):
            DynamicHypergraphBuilder().build_hypergraph(np.zeros(5))


class TestLayers:
    def test_hypergraph_convolution_forward(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        operator = hypergraph_propagation_operator(dataset.hypergraph)
        layer = HypergraphConvolution(dataset.n_features, 8, seed=0)
        out = layer(Tensor(dataset.features), operator)
        assert out.shape == (dataset.n_nodes, 8)
        with pytest.raises(ConfigurationError):
            layer(Tensor(dataset.features), None)

    def test_dual_channel_gate_starts_balanced(self):
        block = DualChannelBlock(4, 3, fusion="gate", seed=0)
        assert block.gate_value() == pytest.approx(0.5)

    def test_dual_channel_modes(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        static_op = hypergraph_propagation_operator(dataset.hypergraph)
        dynamic_op = np.eye(dataset.n_nodes)
        x = Tensor(dataset.features)
        for fusion in ("gate", "sum", "static_only", "dynamic_only"):
            block = DualChannelBlock(dataset.n_features, 5, fusion=fusion, seed=0)
            out = block(x, static_op, dynamic_op)
            assert out.shape == (dataset.n_nodes, 5)
        with pytest.raises(ConfigurationError):
            DualChannelBlock(4, 3, fusion="bad")

    def test_gate_values_reported_per_mode(self):
        assert DualChannelBlock(4, 3, fusion="sum").gate_value() == 0.5
        assert DualChannelBlock(4, 3, fusion="static_only").gate_value() == 1.0
        assert DualChannelBlock(4, 3, fusion="dynamic_only").gate_value() == 0.0

    def test_gate_receives_gradient(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        static_op = hypergraph_propagation_operator(dataset.hypergraph)
        block = DualChannelBlock(dataset.n_features, dataset.n_classes, fusion="gate", seed=0)
        out = block(Tensor(dataset.features), static_op, np.eye(dataset.n_nodes))
        cross_entropy(out, dataset.labels, dataset.split.train).backward()
        assert block.gate.grad is not None
        assert abs(float(block.gate.grad[0])) > 0.0


class TestDHGCNModel:
    def test_forward_shape_and_finiteness(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        model.setup(dataset)
        logits = model(Tensor(dataset.features))
        assert logits.shape == (dataset.n_nodes, dataset.n_classes)
        assert np.all(np.isfinite(logits.data))

    def test_gradients_reach_every_parameter(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        model.setup(dataset)
        loss = cross_entropy(model(Tensor(dataset.features)), dataset.labels, dataset.split.train)
        loss.backward()
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, f"no gradient for {name}"

    @pytest.mark.parametrize("component", ["static", "dynamic", "knn", "cluster", "weighting"])
    def test_ablated_variants_run(self, component, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        config = DHGCNConfig(hidden_dim=8).ablate(component)
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0).setup(dataset)
        logits = model(Tensor(dataset.features))
        assert logits.shape == (dataset.n_nodes, dataset.n_classes)

    def test_static_only_builds_no_dynamic_hypergraphs(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        config = DHGCNConfig(hidden_dim=8).ablate("dynamic")
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0).setup(dataset)
        model(Tensor(dataset.features))
        assert model.dynamic_hypergraphs_built() == 0
        assert model.builder is None

    def test_refresh_period_controls_rebuilds(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        config = DHGCNConfig(hidden_dim=8, n_layers=2, refresh_period=3)
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0).setup(dataset)
        for epoch in range(6):
            model.on_epoch(epoch)
            model(Tensor(dataset.features))
        # Rebuilds happen at epochs 0 and 3 for each of the two blocks.
        assert model.dynamic_hypergraphs_built() == 2 * 2

    def test_refresh_now_forces_rebuild(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        model.setup(dataset)
        model(Tensor(dataset.features))
        built = model.dynamic_hypergraphs_built()
        model(Tensor(dataset.features))
        assert model.dynamic_hypergraphs_built() == built
        model.refresh_now()
        model(Tensor(dataset.features))
        assert model.dynamic_hypergraphs_built() > built

    def test_gate_values_have_one_entry_per_block(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        config = DHGCNConfig(hidden_dim=8, n_layers=3)
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0).setup(dataset)
        assert len(model.gate_values()) == 3
        assert all(0.0 <= gate <= 1.0 for gate in model.gate_values())

    def test_setup_on_feature_only_dataset(self, tiny_object_dataset):
        dataset = tiny_object_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        model.setup(dataset)
        assert model(Tensor(dataset.features)).shape == (dataset.n_nodes, dataset.n_classes)

    def test_deterministic_given_seed(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        outputs = []
        for _ in range(2):
            model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=9)
            model.setup(dataset)
            model.eval()
            outputs.append(model(Tensor(dataset.features)).data)
        assert np.allclose(outputs[0], outputs[1])
