"""Tests of the precision-policy subsystem (repro.precision).

Covers the policy API itself, dtype propagation through every op family
(forward results *and* backward gradients), float32 gradient checks with
widened tolerances, policy-dtyped operators, the spmm transpose cache,
the fused dropout mask, and float64-vs-float32 end-to-end training parity.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    DHGCN,
    HGNN,
    TrainConfig,
    Trainer,
    get_precision,
    precision,
    set_precision,
)
from repro.autograd import (
    Tensor,
    check_gradients,
    concat,
    cross_entropy,
    gather_rows,
    mse_loss,
    recommended_tolerances,
    spmm,
    zeros_like,
)
from repro.autograd import ops_activation, ops_basic, ops_reduce, ops_shape
from repro.autograd.ops_sparse import _TRANSPOSE_CACHE, _transposed
from repro.errors import ConfigurationError
from repro.hypergraph import IncrementalBackend, knn_indices
from repro.hypergraph.construction import knn_hyperedges
from repro.hypergraph.laplacian import hypergraph_propagation_operator
from repro.nn import Dropout, Linear
from repro.nn.normalization import BatchNorm1d, LayerNorm
from repro.optim import Adam
from repro.precision import SUPPORTED_PRECISIONS, get_dtype, normalize_precision, resolve_dtype


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test leaves the process-wide policy as it found it."""
    previous = get_precision()
    yield
    set_precision(previous)


# --------------------------------------------------------------------------- #
# Policy API
# --------------------------------------------------------------------------- #
class TestPolicyAPI:
    def test_default_is_float64(self):
        assert get_precision() == "float64"
        assert get_dtype() == np.float64
        assert Tensor([1.5, 2.5]).dtype == np.float64

    def test_set_and_get(self):
        set_precision("float32")
        assert get_precision() == "float32"
        assert Tensor([1.5]).dtype == np.float32

    def test_accepts_numpy_dtypes(self):
        assert normalize_precision(np.float32) == "float32"
        assert normalize_precision(np.dtype("float64")) == "float64"

    def test_rejects_unsupported(self):
        with pytest.raises(ConfigurationError):
            set_precision("float16")
        with pytest.raises(ConfigurationError):
            normalize_precision("int32")

    def test_context_manager_scopes_and_restores(self):
        assert get_precision() == "float64"
        with precision("float32"):
            assert get_precision() == "float32"
            with precision("float64"):
                assert get_precision() == "float64"
            assert get_precision() == "float32"
        assert get_precision() == "float64"

    def test_context_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with precision("float32"):
                raise RuntimeError("boom")
        assert get_precision() == "float64"

    def test_resolve_dtype(self):
        assert resolve_dtype() == np.float64
        assert resolve_dtype("float32") == np.float32
        with precision("float32"):
            assert resolve_dtype() == np.float32
            assert resolve_dtype("float64") == np.float64

    def test_supported_list(self):
        assert set(SUPPORTED_PRECISIONS) == {"float64", "float32"}


# --------------------------------------------------------------------------- #
# Tensor-level behaviour
# --------------------------------------------------------------------------- #
class TestTensorDtype:
    def test_leaf_follows_policy(self):
        with precision("float32"):
            assert Tensor(np.arange(3)).dtype == np.float32
            assert Tensor(np.arange(3.0, dtype=np.float64)).dtype == np.float32

    def test_explicit_dtype_overrides_policy(self):
        with precision("float32"):
            assert Tensor([1.0], dtype=np.float64).dtype == np.float64

    def test_detach_and_copy_preserve_dtype(self):
        with precision("float32"):
            t = Tensor([1.0, 2.0])
        # Outside the context the dtype must not silently revert to float64.
        assert t.detach().dtype == np.float32
        assert t.copy().dtype == np.float32

    def test_astype_round_trip(self):
        t = Tensor([1.0, 2.0])
        t32 = t.astype(np.float32)
        assert t32.dtype == np.float32
        assert np.allclose(t32.data, t.data)

    def test_astype_never_aliases(self):
        t = Tensor([1.0, 2.0])
        same = t.astype(np.float64)
        same.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_scalar_operands_follow_tensor_outside_context(self):
        # "Ops follow their operands": a float32 graph used *outside* the
        # precision context must not be promoted back to float64 by python
        # scalar constants.
        with precision("float32"):
            t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (t * 2.0 + 1.0) / 3.0 - 0.5
        assert out.dtype == np.float32
        out.sum().backward()
        assert t.grad.dtype == np.float32

    def test_full_reductions_follow_operands_outside_context(self):
        # Full reductions return numpy *scalars* from forward; they must keep
        # the operand dtype rather than adopting the ambient policy.
        with precision("float32"):
            t = Tensor(np.ones((2, 3)))
        assert t.sum().dtype == np.float32
        assert t.mean().dtype == np.float32
        assert t.max().dtype == np.float32

    def test_zeros_like_preserves_float_dtype(self):
        with precision("float32"):
            t = Tensor([1.0, 2.0])
        z = zeros_like(t)
        assert z.dtype == np.float32

    def test_backward_grad_matches_tensor_dtype(self):
        with precision("float32"):
            x = Tensor([[1.0, 2.0]], requires_grad=True)
            y = (x * x).sum()
            y.backward()
        assert x.grad.dtype == np.float32


# --------------------------------------------------------------------------- #
# Dtype propagation across every op family
# --------------------------------------------------------------------------- #
def _unary_ops():
    return {
        "neg": ops_basic.neg,
        "exp": ops_basic.exp,
        "log": lambda t: ops_basic.log(t * t + 1.0),
        "sqrt": lambda t: ops_basic.sqrt(t * t + 1.0),
        "pow": lambda t: ops_basic.pow_(t, 3.0),
        "relu": ops_activation.relu,
        "leaky_relu": ops_activation.leaky_relu,
        "elu": ops_activation.elu,
        "sigmoid": ops_activation.sigmoid,
        "tanh": ops_activation.tanh,
        "softmax": ops_activation.softmax,
        "log_softmax": ops_activation.log_softmax,
        "sum": lambda t: ops_reduce.sum_(t, axis=0, keepdims=True),
        "mean": lambda t: ops_reduce.mean(t, axis=1),
        "max": lambda t: ops_reduce.max_(t, axis=0),
        "min": lambda t: ops_reduce.min_(t, axis=1),
        "reshape": lambda t: ops_shape.reshape(t, (t.size,)),
        "transpose": lambda t: ops_shape.transpose(t),
        "getitem": lambda t: t[1:, :2],
        "gather_rows": lambda t: gather_rows(t, np.array([0, 2, 1])),
    }


def _binary_ops():
    return {
        "add": ops_basic.add,
        "sub": ops_basic.sub,
        "mul": ops_basic.mul,
        "div": lambda a, b: ops_basic.div(a, b * b + 1.0),
        "matmul": lambda a, b: ops_basic.matmul(a, ops_shape.transpose(b)),
        "concat": lambda a, b: concat([a, b], axis=0),
        "stack": lambda a, b: ops_shape.stack([a, b], axis=0),
    }


class TestOpDtypePropagation:
    @pytest.mark.parametrize("name", sorted(_unary_ops()))
    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_unary_forward_and_grad(self, name, policy):
        expected = np.dtype(policy)
        op = _unary_ops()[name]
        with precision(policy):
            rng = np.random.default_rng(0)
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            out = op(x)
            assert out.dtype == expected, f"{name} forward dtype {out.dtype}"
            out.sum().backward()
            assert x.grad is not None
            assert x.grad.dtype == expected, f"{name} grad dtype {x.grad.dtype}"

    @pytest.mark.parametrize("name", sorted(_binary_ops()))
    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_binary_forward_and_grad(self, name, policy):
        expected = np.dtype(policy)
        op = _binary_ops()[name]
        with precision(policy):
            rng = np.random.default_rng(1)
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            out = op(a, b)
            assert out.dtype == expected, f"{name} forward dtype {out.dtype}"
            out.sum().backward()
            assert a.grad.dtype == expected
            assert b.grad.dtype == expected

    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_spmm(self, policy):
        expected = np.dtype(policy)
        with precision(policy):
            rng = np.random.default_rng(2)
            operator = sp.random(
                5, 5, density=0.6, format="csr", random_state=3
            ).astype(expected)
            x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            out = spmm(operator, x)
            assert out.dtype == expected
            out.sum().backward()
            assert x.grad.dtype == expected

    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_losses(self, policy):
        expected = np.dtype(policy)
        with precision(policy):
            rng = np.random.default_rng(3)
            logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            targets = np.array([0, 1, 2, 0, 1, 2])
            loss = cross_entropy(logits, targets, np.array([0, 2, 4]))
            assert loss.dtype == expected
            loss.backward()
            assert logits.grad.dtype == expected

            prediction = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            loss = mse_loss(prediction, rng.normal(size=(4, 2)))
            assert loss.dtype == expected
            loss.backward()
            assert prediction.grad.dtype == expected

    def test_scalar_operands_follow_policy(self):
        with precision("float32"):
            x = Tensor([[1.0, -2.0]], requires_grad=True)
            out = (2.0 * x + 1.0) / 3.0 - 0.5
            assert out.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32

    def test_nn_layers_propagate(self):
        with precision("float32"):
            rng = np.random.default_rng(4)
            x = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
            for layer in (Linear(5, 4, seed=0), LayerNorm(5), BatchNorm1d(5)):
                out = layer(x)
                assert out.dtype == np.float32, f"{layer!r} produced {out.dtype}"
            for parameter in Linear(5, 4, seed=0).parameters():
                assert parameter.dtype == np.float32


# --------------------------------------------------------------------------- #
# float32 gradient checks (widened tolerances)
# --------------------------------------------------------------------------- #
class TestFloat32GradChecks:
    def test_recommended_tolerances(self):
        assert recommended_tolerances(np.float32)["epsilon"] > recommended_tolerances(
            np.float64
        )["epsilon"]
        assert recommended_tolerances("float64") == {
            "epsilon": 1e-6,
            "atol": 1e-5,
            "rtol": 1e-4,
        }

    @pytest.mark.parametrize(
        "build",
        [
            lambda a, b: (a @ b).sum(),
            lambda a, b: (a * b + a).mean(),
            lambda a, b: a.relu().sum() + b.tanh().sum(),
            lambda a, b: cross_entropy(a @ b, np.array([0, 1, 0])),
        ],
    )
    def test_float32_gradients_match_numerics(self, build):
        with precision("float32"):
            rng = np.random.default_rng(5)
            a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            assert check_gradients(build, [a, b], **recommended_tolerances(np.float32))

    def test_float32_spmm_gradient(self):
        with precision("float32"):
            rng = np.random.default_rng(6)
            operator = sp.random(
                4, 4, density=0.7, format="csr", random_state=7
            ).astype(np.float32)
            x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            assert check_gradients(
                lambda t: spmm(operator, t).sum(),
                [x],
                **recommended_tolerances(np.float32),
            )


# --------------------------------------------------------------------------- #
# Operator pipeline: policy-dtyped operators
# --------------------------------------------------------------------------- #
class TestOperatorDtypes:
    def _hypergraph(self):
        rng = np.random.default_rng(8)
        return knn_hyperedges(rng.normal(size=(30, 6)), 3)

    def test_propagation_operator_dtype_param(self):
        hypergraph = self._hypergraph()
        op64 = hypergraph_propagation_operator(hypergraph)
        op32 = hypergraph_propagation_operator(hypergraph, dtype=np.float32)
        assert op64.dtype == np.float64
        assert op32.dtype == np.float32
        assert np.allclose(op64.toarray(), op32.toarray(), atol=1e-6)

    def test_propagation_operator_follows_policy(self):
        hypergraph = self._hypergraph()
        with precision("float32"):
            assert hypergraph_propagation_operator(hypergraph).dtype == np.float32

    def test_builder_slots_track_layers_independently(self):
        # A multi-layer model shares one builder: each layer's refresh must
        # repair from *its own* previous embedding, so a layer whose
        # embedding did not move answers from its index with no rebuild even
        # though its sibling layer queried a different embedding in between.
        from repro.core.builder import DynamicHypergraphBuilder

        builder = DynamicHypergraphBuilder(
            k_neighbors=2, use_cluster=False, use_edge_weighting=False, seed=0,
        )
        rng = np.random.default_rng(13)
        layer0 = rng.normal(size=(20, 4))
        layer1 = rng.normal(size=(20, 4)) + 10.0
        operators = []
        for _ in range(3):  # three refreshes of a 2-layer model
            operators.append(builder.build_operator(layer0, slot=0).toarray())
            builder.build_operator(layer1, slot=1)
        for slot in (0, 1):
            stats = builder._indices[slot].stats()
            assert stats["full_rebuilds"] == 1  # one cold build per layer
            assert stats["rows_requeried"] == 20
        assert all(np.array_equal(operators[0], op) for op in operators)


# --------------------------------------------------------------------------- #
# spmm transpose cache
# --------------------------------------------------------------------------- #
class TestSpmmTransposeCache:
    def test_transpose_is_cached_per_operator_object(self):
        operator = sp.random(6, 6, density=0.5, format="csr", random_state=9)
        first = _transposed(operator)
        assert _transposed(operator) is first
        assert np.allclose(first.toarray(), operator.T.toarray())

    def test_cache_invalidated_when_operator_collected(self):
        operator = sp.random(6, 6, density=0.5, format="csr", random_state=10)
        _transposed(operator)
        key = id(operator)
        assert key in _TRANSPOSE_CACHE
        del operator
        import gc

        gc.collect()
        assert key not in _TRANSPOSE_CACHE

    def test_cached_operator_is_frozen_against_mutation(self):
        # Identity-keyed memoisation can't see in-place value changes, so the
        # operator's arrays are frozen: mutation raises instead of silently
        # producing gradients from a stale transpose.
        operator = sp.random(6, 6, density=0.5, format="csr", random_state=21)
        _transposed(operator)
        with pytest.raises(ValueError):
            operator.data[:] *= 2.0

    def test_dense_operator_backward_follows_mutation(self):
        # Dense operators are not memoised (ndarray.T is a free view), so
        # in-place updates keep working and stay correct.
        operator = np.arange(9.0).reshape(3, 3)
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        spmm(operator, x).sum().backward()
        first = x.grad.copy()
        operator *= 2.0
        x.zero_grad()
        spmm(operator, x).sum().backward()
        assert np.allclose(x.grad, 2.0 * first)

    def test_spmm_backward_uses_cached_transpose(self):
        operator = sp.random(5, 5, density=0.8, format="csr", random_state=11)
        x = Tensor(np.random.default_rng(12).normal(size=(5, 3)), requires_grad=True)
        spmm(operator, x).sum().backward()
        expected = operator.T.toarray() @ np.ones((5, 3))
        assert np.allclose(x.grad, expected)
        assert _transposed(operator) is _transposed(operator)


# --------------------------------------------------------------------------- #
# Fused dropout
# --------------------------------------------------------------------------- #
class TestDropoutFusion:
    def test_mask_values_and_dtype(self):
        for policy in ("float64", "float32"):
            with precision(policy):
                dropout = Dropout(p=0.4, seed=0)
                x = Tensor(np.ones((64, 64)))
                out = dropout(x)
                assert out.dtype == np.dtype(policy)
                values = np.unique(out.data)
                keep = 1.0 / 0.6
                assert all(
                    np.isclose(v, 0.0) or np.isclose(v, keep, rtol=1e-6) for v in values
                )

    def test_float64_mask_matches_unfused_reference(self):
        # The fused build must reproduce the historical bool->astype->divide
        # mask bit for bit under the default policy.
        p, shape = 0.5, (32, 16)
        reference_rng = np.random.default_rng(123)
        reference = (reference_rng.random(shape) < (1.0 - p)).astype(np.float64)
        reference /= 1.0 - p
        dropout = Dropout(p=p, seed=123)
        out = dropout(Tensor(np.ones(shape)))
        assert np.array_equal(out.data, reference)

    def test_eval_mode_passthrough(self):
        dropout = Dropout(p=0.9, seed=0)
        dropout.eval()
        x = Tensor(np.ones((4, 4)))
        assert dropout(x) is x


# --------------------------------------------------------------------------- #
# Module casting + optimizer state dtype
# --------------------------------------------------------------------------- #
class TestModuleCasting:
    def test_module_to_casts_parameters_and_buffers(self):
        layer = BatchNorm1d(4)
        layer.to("float32")
        assert all(p.dtype == np.float32 for p in layer.parameters())
        assert layer.running_mean.dtype == np.float32
        assert layer.running_var.dtype == np.float32
        layer.to("float64")
        assert all(p.dtype == np.float64 for p in layer.parameters())

    def test_state_dict_round_trip_keeps_dtype(self):
        layer = Linear(3, 2, seed=0)
        layer.to("float32")
        state = layer.state_dict()
        layer.load_state_dict(state)
        assert layer.weight.dtype == np.float32

    def test_optimizer_state_in_parameter_dtype(self):
        with precision("float32"):
            layer = Linear(3, 2, seed=0)
            optimizer = Adam(layer.parameters(), lr=0.01)
            out = layer(Tensor(np.ones((4, 3)))).sum()
            out.backward()
            optimizer.step()
        assert all(m.dtype == np.float32 for m in optimizer._first_moment)
        assert all(v.dtype == np.float32 for v in optimizer._second_moment)
        assert layer.weight.dtype == np.float32


# --------------------------------------------------------------------------- #
# Trainer integration
# --------------------------------------------------------------------------- #
class TestTrainerPrecision:
    def test_config_validates_precision(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(precision="float16")
        assert TrainConfig(precision="float32").precision == "float32"

    def test_float32_training_parity(self, tiny_citation_dataset):
        """float32 training stays close to float64."""
        results = {}
        for policy in ("float64", "float32"):
            model = HGNN(
                tiny_citation_dataset.n_features, tiny_citation_dataset.n_classes, seed=0
            )
            config = TrainConfig(epochs=30, patience=None, precision=policy)
            trainer = Trainer(model, tiny_citation_dataset, config)
            results[policy] = trainer.train()
            assert model.parameters()[0].dtype == np.dtype(policy)
            assert trainer._features.dtype == np.dtype(policy)
        delta = abs(results["float64"].test_accuracy - results["float32"].test_accuracy)
        assert delta <= 0.15, f"precision gap too large: {delta:.3f}"

    def test_dhgcn_float32_refresh_pattern_unaffected(self, tiny_citation_dataset):
        stats = {}
        for policy in ("float64", "float32"):
            model = DHGCN(
                tiny_citation_dataset.n_features, tiny_citation_dataset.n_classes, seed=0
            )
            config = TrainConfig(epochs=6, patience=None, precision=policy)
            result = Trainer(model, tiny_citation_dataset, config).train()
            stats[policy] = (
                result.extras["dynamic_hypergraphs_built"],
                [index.stats()["full_rebuilds"] for index in model.builder._indices.values()],
            )
            assert 0.0 <= result.test_accuracy <= 1.0
        assert stats["float64"] == stats["float32"]

    def test_ambient_policy_untouched_by_float32_run(self, tiny_citation_dataset):
        model = HGNN(
            tiny_citation_dataset.n_features, tiny_citation_dataset.n_classes, seed=0
        )
        Trainer(
            model,
            tiny_citation_dataset,
            TrainConfig(epochs=2, patience=None, precision="float32"),
        ).train()
        assert get_precision() == "float64"
        assert Tensor([1.0]).dtype == np.float64

    def test_restore_best_false_skips_state_dict_copy(self, tiny_citation_dataset):
        model = HGNN(
            tiny_citation_dataset.n_features, tiny_citation_dataset.n_classes, seed=0
        )
        calls = {"count": 0}
        original = model.state_dict

        def counting_state_dict():
            calls["count"] += 1
            return original()

        model.state_dict = counting_state_dict
        config = TrainConfig(epochs=4, patience=None, restore_best=False)
        result = Trainer(model, tiny_citation_dataset, config).train()
        assert calls["count"] == 0
        assert result.epochs_run == 4

    def test_restore_best_true_still_restores(self, tiny_citation_dataset):
        model = HGNN(
            tiny_citation_dataset.n_features, tiny_citation_dataset.n_classes, seed=0
        )
        config = TrainConfig(epochs=4, patience=None, restore_best=True)
        result = Trainer(model, tiny_citation_dataset, config).train()
        assert result.best_epoch >= 0


# --------------------------------------------------------------------------- #
# Neighbour-backend distance slabs follow the feature dtype
# --------------------------------------------------------------------------- #
class TestNeighborBackendDtypeStability:
    """float32 policy + every neighbour backend: no silent float64 slabs.

    Every distance slab any backend materialises goes through
    :func:`repro.hypergraph.knn.distance_block`; spying on it proves the
    whole query path is dtype-stable (the ROADMAP "float32 structural
    pipeline" note).
    """

    @staticmethod
    def _spy_distance_block(monkeypatch):
        import repro.hypergraph.knn as knn_mod

        recorded: list[np.dtype] = []
        original = knn_mod.distance_block

        def spy(queries, points, metric="euclidean"):
            slab = original(queries, points, metric=metric)
            recorded.append(slab.dtype)
            return slab

        monkeypatch.setattr(knn_mod, "distance_block", spy)
        return recorded

    @pytest.mark.parametrize("name", ["exact", "incremental"])
    def test_float32_query_keeps_slabs_float32(self, name, monkeypatch):
        recorded = self._spy_distance_block(monkeypatch)
        rng = np.random.default_rng(0)
        with precision("float32"):
            features = rng.normal(size=(80, 8)).astype(np.float32)
            if name == "exact":
                result = knn_indices(features, 5)
            else:
                index = IncrementalBackend()
                index.query(features, 5)
                # the partial path allocates its own slabs too
                moved = features.copy()
                moved[3] += np.float32(0.01)
                result = index.query(moved, 5)
        assert result.shape == (80, 5)
        assert recorded, "the query never went through the shared distance kernel"
        assert all(dtype == np.float32 for dtype in recorded), recorded

    @pytest.mark.parametrize("name", ["exact", "incremental"])
    def test_float64_default_slabs_stay_float64(self, name, monkeypatch):
        recorded = self._spy_distance_block(monkeypatch)
        features = np.random.default_rng(1).normal(size=(40, 6))
        if name == "exact":
            knn_indices(features, 4)
        else:
            IncrementalBackend().query(features, 4)
        assert recorded and all(dtype == np.float64 for dtype in recorded)

    def test_float32_euclidean_kernel_matches_cdist(self):
        from repro.hypergraph.knn import distance_block

        rng = np.random.default_rng(2)
        queries = rng.normal(size=(20, 5)).astype(np.float32)
        points = rng.normal(size=(30, 5)).astype(np.float32)
        slab = distance_block(queries, points)
        assert slab.dtype == np.float32
        reference = distance_block(queries.astype(np.float64), points.astype(np.float64))
        assert np.allclose(slab, reference, atol=1e-4)

    def test_float32_selection_agrees_with_float64(self):
        # The float32 kernel may flip genuine near-ties (documented), but on
        # clustered data the selected neighbour sets must agree almost
        # everywhere with the float64 reference.
        rng = np.random.default_rng(3)
        centers = rng.normal(scale=10.0, size=(5, 8))
        features = np.vstack(
            [c + rng.normal(scale=0.1, size=(20, 8)) for c in centers]
        )
        fast = knn_indices(features.astype(np.float32), 6)
        reference = knn_indices(features, 6)
        overlap = np.mean(
            [np.intersect1d(fast[row], reference[row]).size for row in range(100)]
        ) / 6.0
        assert overlap >= 0.95, f"float32 neighbour overlap only {overlap:.3f}"

    def test_float32_model_refresh_path_keeps_slabs_float32(self, monkeypatch):
        """The *model* refresh path (knn_hyperedges / builder), not just a
        direct index query, must keep float32 distance slabs — a hard
        float64 cast before the query would silently restore full-bandwidth
        slabs while the index-level test stays green."""
        from repro.core import DynamicHypergraphBuilder
        from repro.hypergraph.construction import knn_hyperedges

        recorded = self._spy_distance_block(monkeypatch)
        rng = np.random.default_rng(4)
        embedding = rng.normal(size=(60, 8)).astype(np.float32)
        with precision("float32"):
            knn_hyperedges(embedding, 4)
            builder = DynamicHypergraphBuilder(k_neighbors=3, n_clusters=2)
            builder.build_hypergraph(embedding)
            builder.build_operator(embedding, slot=0)
        assert recorded and all(dtype == np.float32 for dtype in recorded), recorded

    def test_float32_kernel_stable_for_off_origin_data(self):
        # Regression: the |a|²+|b|²−2ab expansion cancels catastrophically
        # for clusters far from the origin (e.g. post-ReLU embeddings) unless
        # the inputs are mean-centred first — without centring this data gave
        # ~13% neighbour overlap with the float64 reference.
        rng = np.random.default_rng(5)
        features = 100.0 + rng.normal(scale=1e-2, size=(50, 8))
        fast = knn_indices(features.astype(np.float32), 5)
        reference = knn_indices(features, 5)
        overlap = np.mean(
            [np.intersect1d(fast[row], reference[row]).size for row in range(50)]
        ) / 5.0
        assert overlap >= 0.95, f"off-origin float32 overlap only {overlap:.3f}"
