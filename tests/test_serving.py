"""Tests of the serving subsystem: frozen models, operator store, sessions.

The load-bearing guarantees pinned here:

* ``FrozenModel`` logits are **bit-identical** to ``Trainer`` evaluation for
  DHGNN and DHGCN under both precision policies;
* a ``save -> OperatorStore.load -> FrozenModel`` round-trip reproduces the
  in-process predictions bit-for-bit, and a warm start performs **zero**
  k-NN distance computations before its first prediction;
* online insertion of a few percent new nodes goes through each layer
  index's scoped grow-and-repair (no construction rebuild) and matches a
  reference session that rebuilds every k-NN cold, bit for bit;
* the full node lifecycle: deletion (lazy tombstoning through the indices'
  shrink-and-repair), compaction (physical shrink + old->new id remap) and
  cluster re-assignment all match the cold-rebuild reference bit for bit —
  including random interleaved insert/update/delete/compact sequences — and
  a churned session freezes back into a warm bundle;
* session isolation: every session owns private slot indices; empty
  mutations are no-ops and duplicate update ids are rejected.
"""

import sys

import numpy as np
import pytest

from repro import (
    DHGCN,
    DHGCNConfig,
    DHGNN,
    HGNN,
    FrozenModel,
    InferenceSession,
    OperatorStore,
    TrainConfig,
    Trainer,
)
from repro.autograd.tensor import Tensor, no_grad
from repro.errors import ConfigurationError
from repro.hypergraph.knn import DISTANCE_COUNTERS
from repro.precision import precision
from test_session_histories import reference_session as _cold_session

#: Values TrainConfig.neighbor_backend still accepts; they select nothing.
BACKENDS = [None, "incremental"]
PRECISIONS = ["float64", "float32"]


def _operator_bytes(session):
    """Resident bytes of a DHGNN session's per-layer CSR operators."""
    return sum(
        op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        for op in session.plan.operators
    )


def _train(model, dataset, *, epochs=6, precision_name="float64", backend=None):
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(
            epochs=epochs, patience=None, precision=precision_name, neighbor_backend=backend
        ),
    )
    trainer.train()
    return trainer


def _eval_logits(model, dataset, precision_name):
    model.eval()
    with precision(precision_name), no_grad():
        return model(Tensor(dataset.features)).data


# --------------------------------------------------------------------------- #
# FrozenModel: bit-identity with trainer evaluation
# --------------------------------------------------------------------------- #
class TestFrozenBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision_name", PRECISIONS)
    def test_dhgnn_golden(self, tiny_citation_dataset, backend, precision_name):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        _train(model, dataset, precision_name=precision_name, backend=backend)
        reference = _eval_logits(model, dataset, precision_name)
        frozen = FrozenModel.compile(model, dataset.features)
        assert frozen.precision_name == precision_name
        logits = frozen.logits()
        assert logits.dtype == np.dtype(precision_name)
        assert np.array_equal(logits, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dhgcn(self, tiny_citation_dataset, backend):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        _train(model, dataset, backend=backend)
        reference = _eval_logits(model, dataset, "float64")
        frozen = FrozenModel.compile(model, dataset.features)
        assert np.array_equal(frozen.logits(), reference)

    @pytest.mark.parametrize("fusion", ["gate", "sum", "static_only", "dynamic_only"])
    def test_dhgcn_fusion_modes(self, tiny_citation_dataset, fusion):
        dataset = tiny_citation_dataset
        config = (
            DHGCNConfig(hidden_dim=8, fusion=fusion)
            if fusion in ("gate", "sum")
            else DHGCNConfig(hidden_dim=8).ablate(
                "dynamic" if fusion == "static_only" else "static"
            )
        )
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0)
        _train(model, dataset)
        reference = _eval_logits(model, dataset, "float64")
        frozen = FrozenModel.compile(model, dataset.features)
        assert np.array_equal(frozen.logits(), reference)

    def test_only_dynamic_models_can_be_frozen(self, tiny_coauthorship_dataset, tmp_path):
        dataset = tiny_coauthorship_dataset
        model = HGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, epochs=1)
        with pytest.raises(ConfigurationError, match="DHGNN and DHGCN"):
            FrozenModel.compile(model, dataset.features)
        with pytest.raises(ConfigurationError, match="DHGNN and DHGCN"):
            trainer.export_frozen(str(tmp_path / "bundle"))
        assert not (tmp_path / "bundle.npz").exists()

    def test_training_after_compile_leaves_the_frozen_model_alone(
        self, tiny_citation_dataset
    ):
        # The plan serves its own copies of the trained layers.
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, epochs=2)
        frozen = FrozenModel.compile(model, dataset.features)
        before = frozen.logits()
        trainer.train()
        assert not np.array_equal(_eval_logits(model, dataset, "float64"), before)
        assert np.array_equal(frozen.logits(), before)

    def test_labels_match_trainer_predict(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset)
        frozen = FrozenModel.compile(model, dataset.features)
        assert np.array_equal(frozen.predict_labels(), trainer.predict())

    def test_compile_straight_after_setup(self, tiny_citation_dataset):
        # A model that never ran a forward materialises its operators on
        # compile instead of failing.
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        model.setup(dataset)
        frozen = FrozenModel.compile(model, dataset.features)
        assert frozen.logits().shape == (dataset.n_nodes, dataset.n_classes)

    def test_served_forward_flips_no_process_wide_switch(
        self, tiny_citation_dataset, monkeypatch
    ):
        # no_grad() and precision() set process-wide flags, and a server runs
        # its writer in an executor thread: the served forward must use
        # neither, in either precision.
        dataset = tiny_citation_dataset
        served, expected = [], []
        for precision_name in PRECISIONS:
            for model in (
                DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0),
                DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0),
            ):
                trainer = _train(model, dataset, epochs=2, precision_name=precision_name)
                frozen = trainer.export_frozen()
                session = InferenceSession(frozen)
                session.update_features([3], session.features[[3]] + 0.1)
                served.append(frozen)
                expected.append((frozen.logits(), session.predict(None, output="logits")))

        def forbidden(*args, **kwargs):
            raise AssertionError("the served forward entered a process-wide switch")

        switches = (no_grad, precision)
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attribute, value in list(vars(module).items()):
                    if any(value is switch for switch in switches):
                        monkeypatch.setattr(module, attribute, forbidden)
        for frozen, (logits, updated) in zip(served, expected):
            session = InferenceSession(frozen)
            session.update_features([3], session.features[[3]] + 0.1)
            assert np.array_equal(frozen.logits(), logits)
            assert np.array_equal(session.predict(None, output="logits"), updated)
            assert updated.dtype == frozen.dtype


# --------------------------------------------------------------------------- #
# Bundle round-trips (satellite: save -> load -> bit-identical predictions)
# --------------------------------------------------------------------------- #
class TestBundleRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision_name", PRECISIONS)
    def test_dhgnn_round_trip(self, tiny_citation_dataset, tmp_path, backend, precision_name):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, precision_name=precision_name, backend=backend)
        frozen = trainer.export_frozen(str(tmp_path / "bundle"))
        reference = frozen.logits()
        loaded = FrozenModel.load(tmp_path / "bundle.npz")
        assert loaded.precision_name == precision_name
        assert np.array_equal(loaded.logits(), reference)
        assert np.array_equal(loaded.features, frozen.features)

    def test_dhgcn_round_trip(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        trainer = _train(model, dataset, backend="incremental")
        frozen = trainer.export_frozen(str(tmp_path / "bundle"))
        reference = frozen.logits()
        loaded = FrozenModel.load(tmp_path / "bundle.npz")
        assert np.array_equal(loaded.logits(), reference)

    def test_warm_start_zero_distance_computations(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, backend="incremental")
        trainer.export_frozen(str(tmp_path / "bundle"))
        loaded = FrozenModel.load(tmp_path / "bundle.npz")
        session = InferenceSession(loaded)
        DISTANCE_COUNTERS.reset()
        labels = session.predict()
        logits = session.predict(output="logits")
        embeddings = session.predict([0, 3, 5], output="embeddings")
        assert DISTANCE_COUNTERS.pairs == 0 and DISTANCE_COUNTERS.blocks == 0
        assert labels.shape == (dataset.n_nodes,)
        assert logits.shape == (dataset.n_nodes, dataset.n_classes)
        assert embeddings.shape[0] == 3


# --------------------------------------------------------------------------- #
# Online insertion and feature updates
# --------------------------------------------------------------------------- #
class TestOnlineChurn:
    def _bundle(self, dataset, tmp_path, model_kind="dhgnn"):
        if model_kind == "dhgnn":
            model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        else:
            model = DHGCN(
                dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0
            )
        trainer = _train(model, dataset, backend="incremental")
        trainer.export_frozen(str(tmp_path / "bundle"))
        return tmp_path / "bundle.npz"

    def _new_nodes(self, dataset, count, seed=5):
        rng = np.random.default_rng(seed)
        base = dataset.features[rng.choice(dataset.n_nodes, count, replace=False)]
        return base + rng.normal(scale=0.05, size=base.shape)

    @pytest.mark.parametrize("model_kind", ["dhgnn", "dhgcn"])
    @pytest.mark.parametrize("policy", ["nearest", "frozen"])
    def test_insertion_matches_exact_rebuild(
        self, tiny_citation_dataset, tmp_path, model_kind, policy
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path, model_kind)
        new_features = self._new_nodes(dataset, 5)  # <= 5% of 120 nodes

        incremental = InferenceSession(
            FrozenModel.load(bundle), cluster_assignment=policy
        )
        exact = _cold_session(bundle, cluster_assignment=policy)
        ids = incremental.insert_nodes(new_features)
        assert np.array_equal(ids, np.arange(dataset.n_nodes, dataset.n_nodes + 5))
        exact.insert_nodes(new_features)
        # float64: the scoped repair is bit-identical to the cold full
        # rebuild of the same refresh pipeline.
        assert np.array_equal(
            incremental.predict(output="logits"), exact.predict(output="logits")
        )
        assert incremental.n_nodes == dataset.n_nodes + 5

    def test_insertion_avoids_full_rebuild_and_saves_distance_work(
        self, tiny_citation_dataset, tmp_path
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        new_features = self._new_nodes(dataset, 5)

        # Layer 0's index grows by the new rows (no rebuild); deeper layers
        # repair or rebuild as far as the insertion moved their embeddings.
        session = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        DISTANCE_COUNTERS.reset()
        session.insert_nodes(new_features)
        session.predict()
        incremental_pairs = DISTANCE_COUNTERS.pairs
        layers = session.stats()["neighbors"]
        assert layers[0]["full_rebuilds"] == 0
        assert [row["rows_inserted"] for row in layers] == [5, 5]

        exact = _cold_session(bundle, cluster_assignment="frozen")
        DISTANCE_COUNTERS.reset()
        exact.insert_nodes(new_features)
        exact.predict()
        assert incremental_pairs < DISTANCE_COUNTERS.pairs
        assert np.array_equal(
            session.predict(output="logits"), exact.predict(output="logits")
        )

    def test_feature_updates_flow_through_update(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        moved = np.array([3, 17, 40])
        values = dataset.features[moved] + 0.25

        session = InferenceSession(FrozenModel.load(bundle))
        before = session.predict(output="logits")
        session.update_features(moved, values)
        after = session.predict(output="logits")
        assert not np.array_equal(before, after)
        assert np.allclose(session.features[moved], values)

        exact = _cold_session(bundle)
        exact.update_features(moved, values)
        assert np.array_equal(after, exact.predict(output="logits"))

    def test_micro_batched_requests_share_one_forward(
        self, tiny_citation_dataset, tmp_path
    ):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        results = session.predict_batch(
            [
                {"nodes": [0, 1, 2], "output": "labels"},
                {"nodes": [5], "output": "logits"},
                None,
                [7, 9],
            ]
        )
        assert session.forwards == 1
        assert len(results) == 4
        assert results[0].shape == (3,)
        full_labels = session.predict()
        assert np.array_equal(results[2], full_labels)
        assert session.forwards == 1  # still served from the cached forward

    def test_sibling_sessions_are_isolated(self, tiny_citation_dataset, tmp_path):
        # Sessions clone the plan + neighbour state: one session's insertions
        # must not corrupt the frozen model or a sibling session.
        dataset = tiny_citation_dataset
        frozen = FrozenModel.load(self._bundle(dataset, tmp_path))
        first = InferenceSession(frozen)
        second = InferenceSession(frozen)
        baseline = second.predict(output="logits")
        first.insert_nodes(self._new_nodes(dataset, 4))
        first.predict()
        assert np.array_equal(second.predict(output="logits"), baseline)
        assert frozen.forward().shape == (dataset.n_nodes, dataset.n_classes)
        assert frozen.features.shape[0] == dataset.n_nodes
        # The frozen slot indices were not grown by the session's insert.
        assert all(slot.index.rows_inserted == 0 for slot in frozen.plan.slots)

    def test_dhgcn_static_reweight_is_call_order_independent(
        self, tiny_citation_dataset, tmp_path
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path, "dhgcn")
        moved = np.array([2, 9])
        values = dataset.features[moved] + 0.2

        eager = InferenceSession(FrozenModel.load(bundle))
        eager.predict()  # cached forward exists before the mutation
        eager.update_features(moved, values)

        lazy = InferenceSession(FrozenModel.load(bundle))
        lazy.update_features(moved, values)  # mutation before any forward

        assert np.array_equal(
            eager.predict(output="logits"), lazy.predict(output="logits")
        )

    def test_validation_errors(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        with pytest.raises(ConfigurationError):
            session.predict(output="probabilities")
        with pytest.raises(ConfigurationError):
            session.predict([dataset.n_nodes + 3])
        with pytest.raises(ConfigurationError):
            session.update_features([0], np.zeros((1, 3)))
        with pytest.raises(ConfigurationError):
            session.insert_nodes(np.zeros((1, 3)))
        with pytest.raises(ConfigurationError):
            InferenceSession(session.frozen, cluster_assignment="merge")


# --------------------------------------------------------------------------- #
# Node lifecycle: deletion, compaction, cluster re-assignment
# --------------------------------------------------------------------------- #
class TestNodeLifecycle:
    def _bundle(self, dataset, tmp_path, model_kind="dhgnn", precision_name="float64"):
        if model_kind == "dhgnn":
            model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        else:
            model = DHGCN(
                dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0
            )
        trainer = _train(model, dataset, backend="incremental", precision_name=precision_name)
        trainer.export_frozen(str(tmp_path / "bundle"))
        return tmp_path / "bundle.npz"

    @pytest.mark.parametrize("model_kind", ["dhgnn", "dhgcn"])
    @pytest.mark.parametrize("precision_name", PRECISIONS)
    def test_deletion_matches_exact_rebuild(
        self, tiny_citation_dataset, tmp_path, model_kind, precision_name
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path, model_kind, precision_name)
        doomed = [3, 17, 40, 41, 99]

        incremental = InferenceSession(FrozenModel.load(bundle))
        exact = _cold_session(bundle)
        incremental.delete_nodes(doomed)
        exact.delete_nodes(doomed)
        # The shrink-and-repair is bit-identical to the cold full rebuild of
        # the surviving node set.
        logits = incremental.predict(output="logits")
        assert np.array_equal(logits, exact.predict(output="logits"))
        assert logits.shape[0] == dataset.n_nodes - 5
        assert incremental.n_alive == dataset.n_nodes - 5
        assert incremental.n_nodes == dataset.n_nodes  # lazy: matrix unshrunk
        layer0 = incremental.stats()["neighbors"][0]
        if precision_name == "float64":
            # The layer-0 index was shrunk in place (deeper layers may
            # legitimately churn past the threshold).
            assert layer0["rows_deleted"] > 0
        else:
            # float32 states are dropped (recentring reorders near-ties
            # wholesale), so bit-identity comes from a clean full rebuild.
            assert layer0["rows_deleted"] == 0
            assert layer0["full_rebuilds"] > 0

    @pytest.mark.parametrize("model_kind", ["dhgnn", "dhgcn"])
    def test_compact_matches_exact_rebuild(
        self, tiny_citation_dataset, tmp_path, model_kind
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path, model_kind)
        doomed = [0, 25, 60, 119]

        incremental = InferenceSession(FrozenModel.load(bundle))
        exact = _cold_session(bundle)
        incremental.delete_nodes(doomed)
        exact.delete_nodes(doomed)
        remap = incremental.compact()
        assert np.array_equal(remap, exact.compact())
        # The remap contract: deleted ids map to -1, survivors to their rank.
        assert np.array_equal(remap[doomed], [-1] * 4)
        survivors = np.setdiff1d(np.arange(dataset.n_nodes), doomed)
        assert np.array_equal(remap[survivors], np.arange(survivors.size))
        assert incremental.n_nodes == incremental.n_alive == survivors.size
        assert incremental.features.shape[0] == survivors.size
        assert np.array_equal(
            incremental.predict(output="logits"), exact.predict(output="logits")
        )
        # Compacting a session with no tombstones is an identity no-op.
        refreshes = incremental.refreshes
        identity = incremental.compact()
        assert np.array_equal(identity, np.arange(survivors.size))
        assert incremental.refreshes == refreshes

    def test_tombstoned_close_to_compacted(self, tiny_citation_dataset, tmp_path):
        # The tombstoned (full-size, isolated rows) and the compacted
        # (shrunken) topologies are the same hypergraph up to re-indexing;
        # for the unweighted DHGNN pipeline the surviving logits agree to
        # rounding (dense BLAS blocks by matrix size, so bitwise equality
        # across the two shapes is not guaranteed).
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        doomed = [5, 50, 95]
        tombstoned = InferenceSession(FrozenModel.load(bundle))
        compacted = InferenceSession(FrozenModel.load(bundle))
        tombstoned.delete_nodes(doomed)
        compacted.delete_nodes(doomed)
        compacted.compact()
        assert np.allclose(
            tombstoned.predict(output="logits"),
            compacted.predict(output="logits"),
            atol=1e-10,
        )

    def test_deleted_nodes_are_rejected(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        session.delete_nodes([4, 9])
        with pytest.raises(ConfigurationError, match="deleted"):
            session.predict([4])
        with pytest.raises(ConfigurationError, match="deleted"):
            session.predict(9, output="logits")
        with pytest.raises(ConfigurationError, match="deleted"):
            session.update_features([9], dataset.features[[9]])
        with pytest.raises(ConfigurationError, match="already been deleted"):
            session.delete_nodes([4])
        with pytest.raises(ConfigurationError, match="duplicate"):
            session.delete_nodes([7, 7])
        with pytest.raises(ConfigurationError):
            session.delete_nodes([dataset.n_nodes])
        with pytest.raises(ConfigurationError, match="fewer than 2"):
            session.delete_nodes(
                np.setdiff1d(np.arange(dataset.n_nodes), [4, 9, 0]).tolist()
            )
        # Alive nodes keep working, and whole-set queries skip the dead rows.
        assert session.predict().shape == (dataset.n_nodes - 2,)
        assert np.array_equal(
            session.alive_ids, np.setdiff1d(np.arange(dataset.n_nodes), [4, 9])
        )

    def test_deletion_saves_distance_work_and_compact_frees_bytes(
        self, tiny_citation_dataset, tmp_path
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        doomed = [2, 30, 31, 77, 111]

        session = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        session.predict()
        DISTANCE_COUNTERS.reset()
        session.delete_nodes(doomed)
        session.predict()
        incremental_pairs = DISTANCE_COUNTERS.pairs
        assert session.stats()["neighbors"][0]["full_rebuilds"] == 0

        feature_bytes = session.features.nbytes
        operator_bytes = _operator_bytes(session)
        session.compact()
        assert session.features.nbytes < feature_bytes
        assert _operator_bytes(session) < operator_bytes

        exact = _cold_session(bundle, cluster_assignment="frozen")
        exact.predict()
        DISTANCE_COUNTERS.reset()
        exact.delete_nodes(doomed)
        exact.predict()
        assert incremental_pairs < DISTANCE_COUNTERS.pairs

    def test_masked_static_operator_rebuilt_once_per_deletion(
        self, tiny_citation_dataset, tmp_path
    ):
        # The unweighted DHGCN static operator changes only with the
        # tombstone set: refreshes between deletions reuse it, each deletion
        # rebuilds it, and the answers match a cold-rebuild session.
        dataset = tiny_citation_dataset
        model = DHGCN(
            dataset.n_features,
            dataset.n_classes,
            DHGCNConfig(hidden_dim=8, use_edge_weighting=False),
            seed=0,
        )
        trainer = _train(model, dataset, backend="incremental")
        trainer.export_frozen(str(tmp_path / "bundle"))
        bundle = tmp_path / "bundle.npz"
        session = InferenceSession(FrozenModel.load(bundle))
        exact = _cold_session(bundle)
        for doomed in ([1, 2], [5, 6], [9]):
            session.delete_nodes(doomed)
            exact.delete_nodes(doomed)
            session.predict()
            static = session.plan.static_operator
            session.update_features([30], session.features[[30]] + 0.1)
            exact.update_features([30], exact.features[[30]] + 0.1)
            assert np.array_equal(
                session.predict(output="logits"), exact.predict(output="logits")
            )
            assert session.plan.static_operator is static
        session.compact()
        exact.compact()
        assert np.array_equal(session.predict(output="logits"), exact.predict(output="logits"))

    @pytest.mark.parametrize("model_kind", ["dhgnn", "dhgcn"])
    def test_reassign_clusters_is_backend_independent(
        self, tiny_citation_dataset, tmp_path, model_kind
    ):
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path, model_kind)
        incremental = InferenceSession(FrozenModel.load(bundle))
        exact = _cold_session(bundle)
        moves = incremental.reassign_clusters()
        assert moves == exact.reassign_clusters()
        assert incremental.reassignments == 1
        assert np.array_equal(
            incremental.predict(output="logits"), exact.predict(output="logits")
        )

    def test_reassign_policy_fires_every_n_refreshes(
        self, tiny_citation_dataset, tmp_path
    ):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        assert session.reassign_clusters(every_n=2) is None
        for step in range(4):
            session.update_features([step], dataset.features[[step]] + 0.1)
            session.predict()
        assert session.refreshes == 4
        assert session.reassignments == 2  # refreshes 2 and 4
        session.reassign_clusters(every_n=0)  # clear the policy
        session.update_features([10], dataset.features[[10]] + 0.1)
        session.predict()
        session.update_features([11], dataset.features[[11]] + 0.1)
        session.predict()
        assert session.reassignments == 2
        with pytest.raises(ConfigurationError):
            session.reassign_clusters(every_n=-1)

    def test_reassignment_bounds_membership_staleness(
        self, tiny_citation_dataset, tmp_path
    ):
        # After a large coherent drift the re-assigned memberships follow the
        # embedding: re-running the assignment immediately afterwards moves
        # (almost) nothing.
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        rng = np.random.default_rng(3)
        moved = rng.choice(dataset.n_nodes, 30, replace=False)
        session.update_features(
            moved, dataset.features[(moved + 60) % dataset.n_nodes]
        )
        first = session.reassign_clusters()
        second = session.reassign_clusters()
        assert second <= first

    def test_lifecycle_round_trip_through_bundle(self, tiny_citation_dataset, tmp_path):
        # The deleted-state round-trip: churn, compact, freeze, save, load —
        # the restored session answers bit-identically with zero distance
        # work.
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        session = InferenceSession(FrozenModel.load(bundle))
        rng = np.random.default_rng(4)
        session.insert_nodes(
            dataset.features[rng.choice(dataset.n_nodes, 4, replace=False)] + 0.01
        )
        session.delete_nodes([1, 2, 3])
        with pytest.raises(ConfigurationError, match="compact"):
            session.to_frozen()
        session.compact()
        reference = session.predict(output="logits")

        snapshot = session.to_frozen()
        # The snapshot owns its slot indices: further session churn must not
        # grow them.
        for mine, theirs in zip(snapshot.plan.slots, session.plan.slots):
            assert mine.index is not theirs.index
        checkpoint = snapshot.save(tmp_path / "checkpoint")
        restored = InferenceSession(FrozenModel.load(checkpoint))
        DISTANCE_COUNTERS.reset()
        assert np.array_equal(restored.predict(output="logits"), reference)
        assert DISTANCE_COUNTERS.pairs == 0
        # The restored index state is warm: layer 0 repairs incrementally
        # instead of rebuilding.
        restored.update_features([0], restored.features[[0]] + 0.05)
        restored.predict()
        assert restored.stats()["neighbors"][0]["partial_refreshes"] >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_lifecycle_property(self, tiny_citation_dataset, tmp_path, seed):
        # Random insert/update/delete/compact sequences: the incremental
        # session stays bit-identical to the cold full rebuild of the same
        # surviving node set, and the per-refresh bookkeeping invariants
        # hold after every predict.
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        incremental = InferenceSession(FrozenModel.load(bundle))
        exact = _cold_session(bundle)
        rng = np.random.default_rng(seed)
        for step in range(8):
            operation = rng.choice(["insert", "update", "delete", "compact"])
            if operation == "insert":
                count = int(rng.integers(1, 4))
                base = dataset.features[rng.choice(dataset.n_nodes, count, replace=False)]
                new = base + rng.normal(scale=0.05, size=base.shape)
                assert np.array_equal(
                    incremental.insert_nodes(new), exact.insert_nodes(new)
                )
            elif operation == "update":
                alive = incremental.alive_ids
                ids = rng.choice(alive, min(3, alive.size), replace=False)
                values = incremental.features[ids] + rng.normal(
                    scale=0.1, size=(ids.size, dataset.n_features)
                )
                incremental.update_features(ids, values)
                exact.update_features(ids, values)
            elif operation == "delete":
                alive = incremental.alive_ids
                ids = rng.choice(alive, int(rng.integers(1, 4)), replace=False)
                incremental.delete_nodes(ids)
                exact.delete_nodes(ids)
            else:
                assert np.array_equal(incremental.compact(), exact.compact())
            refreshes = incremental.refreshes
            assert np.array_equal(
                incremental.predict(output="logits"), exact.predict(output="logits")
            )
            # Refresh bookkeeping invariants: the mover mask and insertion
            # counter reset, the index states track the alive set.
            assert incremental.refreshes >= refreshes
            assert not incremental._moved.any()
            assert incremental._inserted == 0
            assert incremental._state_ids.size == incremental.n_alive
            for slot in incremental.plan.slots:
                assert slot.index.export_state()["features"].shape[0] == incremental.n_alive
        assert incremental.n_alive == exact.n_alive


# --------------------------------------------------------------------------- #
# Session-isolation and validation bugfix regressions
# --------------------------------------------------------------------------- #
class TestSessionBugfixes:
    def _bundle(self, dataset, tmp_path):
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, backend="incremental")
        trainer.export_frozen(str(tmp_path / "bundle"))
        return tmp_path / "bundle.npz"

    def test_sessions_get_private_indices(self, tiny_citation_dataset, tmp_path):
        # Two sessions over one FrozenModel: one churns (insert + delete +
        # compact), the other's predictions stay bit-identical and its index
        # counters untouched.
        dataset = tiny_citation_dataset
        frozen = FrozenModel.load(self._bundle(dataset, tmp_path))
        churning = InferenceSession(frozen)
        steady = InferenceSession(frozen)
        for slots in zip(frozen.plan.slots, churning.plan.slots, steady.plan.slots):
            assert len({id(slot.index) for slot in slots}) == 3

        baseline = steady.predict(output="logits")
        steady_stats = steady.stats()["neighbors"]
        rng = np.random.default_rng(7)
        churning.insert_nodes(
            dataset.features[rng.choice(dataset.n_nodes, 4, replace=False)] + 0.02
        )
        churning.predict()
        churning.delete_nodes([0, 1])
        churning.predict()
        churning.compact()
        churning.predict()
        assert np.array_equal(steady.predict(output="logits"), baseline)
        assert steady.stats()["neighbors"] == steady_stats
        assert frozen.features.shape[0] == dataset.n_nodes

    def test_session_indices_start_from_primed_state(self, tiny_citation_dataset):
        # A compiled (in-process) frozen model primes each slot index with
        # the serving embeddings; a session clones those states, so its
        # first refresh after a small update repairs instead of rebuilding.
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        _train(model, dataset, backend="incremental")
        frozen = FrozenModel.compile(model, dataset.features)
        assert frozen.prime() == len(frozen.plan.slots)
        session = InferenceSession(frozen)
        for mine, source in zip(session.plan.slots, frozen.plan.slots):
            assert np.array_equal(
                mine.index.export_state()["indices"], source.index.export_state()["indices"]
            )
        session.update_features([3], session.features[[3]] + 0.01)
        session.predict()
        assert session.stats()["neighbors"][0]["full_rebuilds"] == 0

    def test_empty_mutations_are_noops(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        session.predict()
        refreshes, forwards = session.refreshes, session.forwards
        DISTANCE_COUNTERS.reset()
        session.update_features([], np.zeros((0, dataset.n_features)))
        session.update_features([], [])  # the natural empty-list spelling too
        ids = session.insert_nodes(np.zeros((0, dataset.n_features)))
        assert session.insert_nodes([]).size == 0
        session.delete_nodes([])
        session.predict()
        assert ids.size == 0
        # Empty ids with non-empty values is still a (loud) shape error.
        with pytest.raises(ConfigurationError, match="shape"):
            session.update_features([], dataset.features[:2])
        assert session.refreshes == refreshes
        assert session.forwards == forwards
        assert DISTANCE_COUNTERS.pairs == 0 and DISTANCE_COUNTERS.blocks == 0

    def test_duplicate_update_ids_rejected(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        with pytest.raises(ConfigurationError, match=r"duplicate node ids \[5\]"):
            session.update_features([5, 5, 9], dataset.features[[5, 5, 9]])
        with pytest.raises(ConfigurationError, match=r"\[2, 7\]"):
            session.update_features([2, 7, 2, 7], dataset.features[[2, 7, 2, 7]])
        # The failed calls left no stale marks behind.
        session.predict()
        refreshes = session.refreshes
        session.predict()
        assert session.refreshes == refreshes

    def test_non_integer_node_ids_rejected(self, tiny_citation_dataset, tmp_path):
        # float 3.7 used to be silently truncated to node 3 by the astype
        # coercion; now every non-integer id dtype is a loud error that names
        # the offending values.
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        with pytest.raises(ConfigurationError, match=r"3\.7"):
            session.predict(3.7)
        with pytest.raises(ConfigurationError, match=r"1\.5"):
            session.predict([0, 1.5, 2])
        # Integral-valued floats are still the wrong dtype: reject them too
        # rather than guessing the caller's intent.
        with pytest.raises(ConfigurationError, match="must be integers"):
            session.predict(np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError, match="must be integers"):
            session.update_features(np.array([2.5]), dataset.features[:1])
        with pytest.raises(ConfigurationError, match="must be integers"):
            session.delete_nodes([0.3])
        # Empty selections (float64 by numpy default) and plain ints pass.
        assert session.predict([]).size == 0
        assert session.predict(np.array([], dtype=np.float64)).size == 0
        session.predict([0, 1])
        session.predict(np.array([3], dtype=np.uint16))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tiny_citation_dataset, tmp_path, value):
        # One NaN or ±inf used to be accepted and then broke every later
        # refresh (and, through a server, quarantined the writer for good).
        # It is now refused before anything changes, naming its rows.
        dataset = tiny_citation_dataset
        bundle = self._bundle(dataset, tmp_path)
        session = InferenceSession(FrozenModel.load(bundle))
        reference = _cold_session(bundle)
        before = session.predict(None, output="logits")
        poisoned = dataset.features[[4, 9]].copy()
        poisoned[1, 3] = value
        with pytest.raises(ConfigurationError, match=r"non-finite .* rows \[9\]"):
            session.update_features([4, 9], poisoned)
        with pytest.raises(ConfigurationError, match=r"non-finite .* rows \[1\]"):
            session.insert_nodes(poisoned)
        assert session.n_nodes == dataset.n_nodes
        assert np.array_equal(session.predict(None, output="logits"), before)
        # The session is still healthy: the next valid write goes through.
        for target in (session, reference):
            target.update_features([4, 9], dataset.features[[4, 9]] + 0.1)
            target.insert_nodes(dataset.features[[4, 9]] + 0.05)
        assert np.array_equal(
            session.predict(None, output="logits"), reference.predict(None, output="logits")
        )

    def test_float32_overflow_is_non_finite(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = _train(model, dataset, epochs=2, precision_name="float32")
        session = InferenceSession(trainer.export_frozen())
        with pytest.raises(ConfigurationError, match="non-finite"):
            session.update_features([0], np.full((1, dataset.n_features), 1e300))

    def test_predict_batch_isolates_bad_requests(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        session.delete_nodes([11])
        requests = [
            {"nodes": [0, 1], "output": "logits"},
            {"nodes": 3.7},                      # non-integer id
            [2, 5],                              # bare sequence form
            {"nodes": [11]},                     # deleted node
            {"nodes": [4], "output": "entropy"},  # unknown output
            {"nodes": None, "output": "labels"},  # whole alive set
        ]
        results = session.predict_batch(requests, on_error="return")
        assert np.array_equal(results[0], session.predict([0, 1], output="logits"))
        assert isinstance(results[1], ConfigurationError) and "3.7" in str(results[1])
        assert np.array_equal(results[2], session.predict([2, 5]))
        assert isinstance(results[3], ConfigurationError) and "deleted" in str(results[3])
        assert isinstance(results[4], ConfigurationError) and "output" in str(results[4])
        assert np.array_equal(results[5], session.predict())

    def test_predict_batch_validates_before_computing(
        self, tiny_citation_dataset, tmp_path
    ):
        # With on_error="raise" a bad entry anywhere in the batch fails the
        # call before any forward happens — even when fresh work was pending.
        dataset = tiny_citation_dataset
        session = InferenceSession(FrozenModel.load(self._bundle(dataset, tmp_path)))
        session.insert_nodes(dataset.features[:2] + 0.01)  # make a refresh pending
        forwards = session.forwards
        with pytest.raises(ConfigurationError, match="must be integers"):
            session.predict_batch([{"nodes": [0]}, {"nodes": [1.5]}])
        assert session.forwards == forwards  # nothing was computed
        with pytest.raises(ConfigurationError, match="on_error"):
            session.predict_batch([[0]], on_error="ignore")
        # An all-bad batch under on_error="return" computes nothing either.
        results = session.predict_batch([{"nodes": 0.5}], on_error="return")
        assert session.forwards == forwards
        assert isinstance(results[0], ConfigurationError)


# --------------------------------------------------------------------------- #
# OperatorStore
# --------------------------------------------------------------------------- #
class TestOperatorStore:
    def test_group_and_meta_round_trip(self, tmp_path):
        store = OperatorStore()
        store.put_group("weights", {"layer0.weight": np.arange(6.0).reshape(2, 3)})
        store.meta = {"note": "hello", "nested": {"k": [1, 2]}}
        path = store.save(tmp_path / "store")
        loaded = OperatorStore.load(path)
        assert loaded.meta == store.meta
        assert np.array_equal(
            loaded.get_group("weights")["layer0.weight"], np.arange(6.0).reshape(2, 3)
        )
        assert not loaded.has_group("missing")
        with pytest.raises(KeyError):
            loaded.get_group("missing")

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # A crash mid-write must never leave a torn archive at the target
        # path: the previous complete bundle stays readable and no temp
        # files are left behind.
        store = OperatorStore()
        store.put_group("weights", {"w": np.arange(4.0)})
        path = store.save(tmp_path / "store")
        assert [p.name for p in tmp_path.iterdir()] == ["store.npz"]

        def torn_write(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        store.put_group("weights", {"w": np.arange(8.0)})
        with pytest.raises(OSError, match="disk full"):
            store.save(path)
        monkeypatch.undo()
        # The original archive is intact and still loads; no .tmp litter.
        assert [p.name for p in tmp_path.iterdir()] == ["store.npz"]
        loaded = OperatorStore.load(path)
        assert np.array_equal(loaded.get_group("weights")["w"], np.arange(4.0))


# --------------------------------------------------------------------------- #
# Trainer / TrainResult export hooks
# --------------------------------------------------------------------------- #
class TestExportHooks:
    def test_train_result_round_trip(self, tiny_citation_dataset, tmp_path):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = Trainer(model, dataset, TrainConfig(epochs=3, patience=None))
        result = trainer.train()
        path = result.save(str(tmp_path / "result.json"))
        loaded = type(result).load(path)
        assert loaded.summary() == result.summary()
        assert loaded.history["train_loss"] == result.history["train_loss"]

    def test_export_frozen_without_path(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
        trainer = Trainer(model, dataset, TrainConfig(epochs=3, patience=None))
        trainer.train()
        frozen = trainer.export_frozen()
        assert np.array_equal(frozen.predict_labels(), trainer.predict())

    def test_result_table_round_trip(self, tmp_path):
        from repro.training import ResultTable

        table = ResultTable(["method", "accuracy"], title="t")
        table.add_row(["a", 0.5])
        loaded = ResultTable.load(table.save(str(tmp_path / "table.json")))
        assert loaded.columns == table.columns and loaded.rows == table.rows


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestServingCLI:
    def test_export_then_predict(self, tmp_path, capsys):
        from repro.cli import main

        bundle = tmp_path / "bundle.npz"
        code = main(
            [
                "export", "--dataset", "cora-cocitation", "--model", "dhgnn",
                "--epochs", "3", "--nodes", "150", "--hidden-dim", "8",
                "--out", str(bundle), "--result", str(tmp_path / "result.json"),
            ]
        )
        assert code == 0 and bundle.exists()
        capsys.readouterr()
        assert main(["predict", "--bundle", str(bundle), "--nodes", "0", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("0\t")
        assert main(["predict", "--bundle", str(bundle), "--output", "logits"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 150

    def test_predict_delete_and_compact(self, tmp_path, capsys):
        from repro.cli import main

        bundle = tmp_path / "bundle.npz"
        main(
            [
                "export", "--dataset", "cora-cocitation", "--model", "dhgnn",
                "--epochs", "3", "--nodes", "150", "--hidden-dim", "8",
                "--out", str(bundle),
            ]
        )
        capsys.readouterr()
        assert main(["predict", "--bundle", str(bundle), "--delete", "0", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 148
        assert lines[0].startswith("1\t")  # deleted ids skipped, not renumbered
        assert (
            main(
                ["predict", "--bundle", str(bundle), "--delete", "0", "5",
                 "--compact", "--reassign-clusters"]
            )
            == 0
        )
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 148
        assert lines[0].startswith("0\t")  # compaction renumbered the ids
        assert "compacted to 148 nodes" in captured.err
        assert "reassigned clusters" in captured.err
        # --nodes keeps meaning the PRE-compact ids the user typed: node 10
        # answers identically whether or not the state was compacted.
        assert main(["predict", "--bundle", str(bundle), "--delete", "0", "5",
                     "--nodes", "10"]) == 0
        tombstoned_line = capsys.readouterr().out.strip()
        assert main(["predict", "--bundle", str(bundle), "--delete", "0", "5",
                     "--compact", "--nodes", "10"]) == 0
        assert capsys.readouterr().out.strip() == tombstoned_line
        assert tombstoned_line.startswith("10\t")
        with pytest.raises(ConfigurationError, match="deleted"):
            main(["predict", "--bundle", str(bundle), "--delete", "0", "5",
                  "--compact", "--nodes", "5"])
