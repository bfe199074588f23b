"""Contract suite for the pluggable neighbour-search backends.

Every backend registered in :mod:`repro.hypergraph.neighbors` is run through
the same parametrised contract (``pytest -m backend_contract``):

* output shape/dtype/range and the documented ``(distance, index)``
  deterministic tie-break, including duplicated-point inputs where every
  distance ties at zero;
* uniform validation behaviour (``k <= 0``, ``k`` too large — which covers
  empty feature matrices — and non-2-D features) across all backends;
* exact == brute force **bit-identical**;
* incremental == exact bit-identical after arbitrary seeded move/no-move
  sequences (property-based), and after arbitrary insert/delete sequences
  through the grow-and-repair / shrink-and-repair paths;
* LSH recall above a configured floor on clustered synthetic data.

Plus the golden training regressions: DHGNN trained with the exact and the
incremental backend must produce *identical* loss/accuracy histories and
identical operator-cache hit patterns, and an LSH run must converge within
tolerance of the exact run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.hypergraph import (
    ExactBackend,
    IncrementalBackend,
    LSHBackend,
    NeighborBackend,
    available_neighbor_backends,
    knn_indices,
    knn_indices_bruteforce,
    register_neighbor_backend,
    reset_default_engine,
    resolve_backend,
)
from repro.hypergraph.refresh import TopologyRefreshEngine
from repro.models import DHGNN
from repro.training import TrainConfig, Trainer

pytestmark = pytest.mark.backend_contract

BACKENDS = available_neighbor_backends()


def _make_backend(name: str) -> NeighborBackend:
    # A fresh instance per test so stateful backends never leak state.
    return resolve_backend(name)


def _clustered_features(seed: int, n: int = 240, d: int = 12, n_clusters: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(n_clusters, d))
    assignments = rng.integers(0, n_clusters, size=n)
    return centers[assignments] + rng.normal(scale=0.5, size=(n, d))


# --------------------------------------------------------------------------- #
# Shape / order / validation contract (every backend)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
class TestBackendContract:
    def test_shape_dtype_and_range(self, name):
        features = _clustered_features(0, n=60)
        result = _make_backend(name).query(features, 5)
        assert result.shape == (60, 5)
        assert result.dtype == np.int64
        assert result.min() >= 0 and result.max() < 60

    def test_no_self_by_default(self, name):
        features = _clustered_features(1, n=40)
        result = _make_backend(name).query(features, 4)
        rows = np.arange(40)[:, None]
        assert not np.any(result == rows)

    def test_include_self_lists_self_first(self, name):
        # With distinct points the node itself is its unique distance-0
        # neighbour, so include_self puts it first for every backend.
        rng = np.random.default_rng(2)
        features = rng.normal(size=(30, 6))
        result = _make_backend(name).query(features, 3, include_self=True)
        assert np.array_equal(result[:, 0], np.arange(30))

    def test_rows_sorted_by_distance_then_index(self, name):
        features = _clustered_features(3, n=50)
        result = _make_backend(name).query(features, 6)
        for row in range(50):
            picked = result[row]
            distances = np.linalg.norm(features[picked] - features[row], axis=1)
            order = np.lexsort((picked, distances))
            assert np.array_equal(np.arange(6), order), f"row {row} not in contract order"

    def test_duplicate_points_tie_break(self, name):
        # All points identical: every distance ties at zero, so the
        # documented (distance, index) order makes the answer unique — the
        # k smallest indices other than the node itself.
        features = np.ones((12, 4))
        result = _make_backend(name).query(features, 3)
        assert np.array_equal(result, knn_indices_bruteforce(features, 3))
        assert np.array_equal(result[0], [1, 2, 3])
        assert np.array_equal(result[7], [0, 1, 2])

    # -- uniform validation ------------------------------------------------ #
    def test_k_nonpositive_raises_valueerror(self, name):
        features = _clustered_features(4, n=10)
        backend = _make_backend(name)
        with pytest.raises(ValueError):
            backend.query(features, 0)
        with pytest.raises(ValueError):
            backend.query(features, -2)

    def test_k_too_large_raises_valueerror(self, name):
        features = _clustered_features(5, n=8)
        backend = _make_backend(name)
        with pytest.raises(ValueError):
            backend.query(features, 8)  # k == n without include_self
        with pytest.raises(ValueError):
            backend.query(features, 9, include_self=True)

    def test_empty_features_raise_valueerror(self, name):
        backend = _make_backend(name)
        with pytest.raises(ValueError):
            backend.query(np.empty((0, 5)), 1)

    def test_non_2d_features_raise_shapeerror(self, name):
        backend = _make_backend(name)
        with pytest.raises(ShapeError):
            backend.query(np.arange(10.0), 2)
        with pytest.raises(ShapeError):
            backend.query(np.zeros((4, 3, 2)), 2)


# --------------------------------------------------------------------------- #
# Registry / resolution
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        assert {"exact", "incremental", "lsh"} <= set(BACKENDS)

    def test_resolve_none_is_exact(self):
        backend = resolve_backend(None, block_size=64)
        assert isinstance(backend, ExactBackend)
        assert backend.block_size == 64

    def test_resolve_instance_passthrough(self):
        backend = IncrementalBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_names_are_fresh_instances(self):
        assert resolve_backend("incremental") is not resolve_backend("incremental")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("annoy")
        with pytest.raises(ConfigurationError):
            resolve_backend(123)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_neighbor_backend("exact", ExactBackend)

    def test_cache_keys_distinguish_backends(self):
        keys = {_make_backend(name).cache_key() for name in BACKENDS}
        assert len(keys) == len(BACKENDS)

    def test_engine_folds_backend_into_dynamic_cache_key(self):
        """Dynamic (refreshed) topologies are backend-derived: structurally
        identical refresh results from different backends keep separate
        operator-cache entries — while backend-independent static requests
        stay shared across engines."""
        from repro.hypergraph.construction import knn_hyperedges

        features = _clustered_features(11, n=30)
        hypergraph = knn_hyperedges(features, 3)
        exact_engine = TopologyRefreshEngine(backend="exact")
        incremental_engine = TopologyRefreshEngine(
            cache=exact_engine.cache, backend="incremental"
        )
        first = exact_engine.refresh_operator(None, hypergraph)
        second = incremental_engine.refresh_operator(None, hypergraph)
        assert first is not second
        assert exact_engine.stats()["misses"] == 2
        # Static operators are a pure function of the fingerprinted topology
        # and stay shared regardless of the engine's backend.
        static = exact_engine.propagation_operator(hypergraph)
        assert incremental_engine.propagation_operator(hypergraph) is static

    def test_knn_indices_backend_thread_through(self):
        features = _clustered_features(12, n=40)
        assert np.array_equal(
            knn_indices(features, 4, backend="incremental"),
            knn_indices(features, 4),
        )


# --------------------------------------------------------------------------- #
# Exact backend: bit-identical to brute force
# --------------------------------------------------------------------------- #
class TestExactEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.integers(1, 6),
        k_fraction=st.floats(0.0, 1.0),
        include_self=st.booleans(),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_bruteforce(self, seed, n, d, k_fraction, include_self, tie_heavy):
        rng = np.random.default_rng(seed)
        if tie_heavy:
            features = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            features = rng.normal(size=(n, d))
        limit = n if include_self else n - 1
        k = 1 + int(k_fraction * (limit - 1))
        assert np.array_equal(
            ExactBackend(block_size=7).query(features, k, include_self=include_self),
            knn_indices_bruteforce(features, k, include_self=include_self),
        )


# --------------------------------------------------------------------------- #
# Incremental backend: exact after arbitrary move sequences
# --------------------------------------------------------------------------- #
class TestIncrementalEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 32),
        d=st.integers(1, 5),
        k=st.integers(1, 5),
        steps=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),   # fraction of nodes moved
                st.floats(0.0, 2.0),   # movement scale (0 = no-op move)
                st.booleans(),         # snap to an integer grid (forces ties)
            ),
            min_size=1,
            max_size=5,
        ),
        include_self=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_over_move_sequences(self, seed, n, d, k, steps, include_self):
        rng = np.random.default_rng(seed)
        k = min(k, n if include_self else n - 1)
        features = rng.normal(size=(n, d))
        backend = IncrementalBackend(block_size=5)
        for fraction, scale, snap in steps:
            n_moved = int(round(fraction * n))
            if n_moved:
                moved = rng.choice(n, size=n_moved, replace=False)
                features = features.copy()
                features[moved] += rng.normal(scale=scale or 1e-12, size=(n_moved, d))
                if snap:
                    features[moved] = np.round(features[moved])
            assert np.array_equal(
                backend.query(features, k, include_self=include_self),
                knn_indices_bruteforce(features, k, include_self=include_self),
            ), f"diverged after moving {n_moved}/{n} nodes"

    def test_no_move_returns_cached_without_requery(self):
        features = _clustered_features(20, n=80)
        backend = IncrementalBackend()
        first = backend.query(features, 5)
        requeried = backend.rows_requeried
        second = backend.query(features.copy(), 5)
        assert np.array_equal(first, second)
        assert backend.rows_requeried == requeried
        assert backend.partial_refreshes == 0

    def test_small_move_requeries_partially(self):
        rng = np.random.default_rng(21)
        features = _clustered_features(21, n=200)
        backend = IncrementalBackend()
        backend.query(features, 6)
        features = features.copy()
        features[rng.choice(200, size=5, replace=False)] += rng.normal(
            scale=0.01, size=(5, features.shape[1])
        )
        result = backend.query(features, 6)
        assert np.array_equal(result, knn_indices_bruteforce(features, 6))
        assert backend.partial_refreshes == 1
        assert backend.rows_requeried < 200 + 200  # strictly fewer than 2 full passes

    def test_high_churn_falls_back_to_full_rebuild(self):
        rng = np.random.default_rng(22)
        features = _clustered_features(22, n=60)
        backend = IncrementalBackend(churn_threshold=0.2)
        backend.query(features, 4)
        features = features + rng.normal(scale=0.1, size=features.shape)  # 100% churn
        result = backend.query(features, 4)
        assert np.array_equal(result, knn_indices_bruteforce(features, 4))
        assert backend.full_rebuilds == 2
        assert backend.partial_refreshes == 0

    def test_churning_stream_recycles_its_own_state_slots(self):
        """A stream that rebuilds on every query (early training) must not
        fill the whole LRU with stale same-signature copies and evict other
        streams' live states."""
        rng = np.random.default_rng(29)
        churner = rng.normal(size=(40, 6))
        stable = rng.normal(size=(40, 12))
        backend = IncrementalBackend(churn_threshold=0.2)
        backend.query(stable, 4)
        for _ in range(10):  # 10 over-churn rebuilds of the same stream
            churner = churner + rng.normal(scale=1.0, size=churner.shape)
            backend.query(churner, 4)
        per_sig = IncrementalBackend.MAX_STATES_PER_SIGNATURE
        assert backend.stats()["states"] <= per_sig + 1
        # The stable stream's state survived: no rebuild, no requery.
        rebuilds = backend.full_rebuilds
        backend.query(stable, 4)
        assert backend.full_rebuilds == rebuilds

    def test_per_signature_states_do_not_thrash(self):
        """Per-layer query streams of different widths keep separate states
        (the pattern DHGCN/DHGNN produce with one shared backend)."""
        rng = np.random.default_rng(23)
        narrow = rng.normal(size=(50, 4))
        wide = rng.normal(size=(50, 16))
        backend = IncrementalBackend()
        backend.query(narrow, 3)
        backend.query(wide, 3)
        assert backend.full_rebuilds == 2
        # Unmoved re-queries of both streams stay cached.
        backend.query(narrow, 3)
        backend.query(wide, 3)
        assert backend.full_rebuilds == 2
        assert backend.partial_refreshes == 0
        assert backend.stats()["states"] == 2

    def test_same_width_streams_keep_separate_states(self):
        """Two alternating streams with IDENTICAL signatures (e.g. two
        equal-width hidden layers) must each track their own history via
        best-match selection, not thrash one slot into full rebuilds."""
        rng = np.random.default_rng(27)
        stream_a = rng.normal(size=(60, 8))
        stream_b = rng.normal(size=(60, 8))
        backend = IncrementalBackend()
        backend.query(stream_a, 4)
        backend.query(stream_b, 4)
        assert backend.full_rebuilds == 2
        assert backend.stats()["states"] == 2
        for _ in range(2):  # alternate with tiny per-stream drift
            for stream in (stream_a, stream_b):
                stream[rng.integers(0, 60)] += 0.01
                assert np.array_equal(
                    backend.query(stream, 4), knn_indices_bruteforce(stream, 4)
                )
        assert backend.full_rebuilds == 2, "same-width streams thrashed into rebuilds"
        assert backend.partial_refreshes == 4
        assert backend.stats()["states"] == 2

    def test_update_applies_explicit_move_hint(self):
        features = _clustered_features(24, n=60)
        backend = IncrementalBackend()
        backend.query(features, 4)
        features = features.copy()
        features[7] += 0.05
        mask = np.zeros(60, dtype=bool)
        mask[7] = True
        result = backend.update(mask, features)
        assert np.array_equal(result, knn_indices_bruteforce(features, 4))

    def test_update_before_query_rejected(self):
        backend = IncrementalBackend()
        with pytest.raises(ConfigurationError):
            backend.update(np.zeros(5, dtype=bool), np.zeros((5, 2)))

    def test_update_resolves_params_from_matching_stream(self):
        """update() must take k/include_self/metric from the cached stream
        matching the given features' shape — not from whichever stream
        happened to be queried last."""
        rng = np.random.default_rng(28)
        narrow = rng.normal(size=(40, 3))
        wide = rng.normal(size=(40, 9))
        backend = IncrementalBackend()
        backend.query(narrow, 3)
        backend.query(wide, 5)  # most recent query uses k=5
        narrow = narrow.copy()
        narrow[4] += 0.05
        mask = np.zeros(40, dtype=bool)
        mask[4] = True
        result = backend.update(mask, narrow)
        assert result.shape == (40, 3)  # narrow stream's k, not the last query's
        assert np.array_equal(result, knn_indices_bruteforce(narrow, 3))
        # No matching stream for a never-seen shape.
        with pytest.raises(ConfigurationError):
            backend.update(np.zeros(40, dtype=bool), rng.normal(size=(40, 7)))

    def test_stateless_backends_ignore_update(self):
        features = _clustered_features(25, n=20)
        assert ExactBackend().update(np.zeros(20, dtype=bool), features) is None
        assert LSHBackend().update(np.zeros(20, dtype=bool), features) is None

    def test_tolerance_skips_subtolerance_drift(self):
        features = _clustered_features(26, n=80)
        backend = IncrementalBackend(tolerance=1.0)
        first = backend.query(features, 5)
        drifted = features + 1e-4  # well under tolerance
        second = backend.query(drifted, 5)
        assert np.array_equal(first, second)
        assert backend.partial_refreshes == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            IncrementalBackend(tolerance=-1.0)
        with pytest.raises(ConfigurationError):
            IncrementalBackend(churn_threshold=0.0)
        with pytest.raises(ConfigurationError):
            IncrementalBackend(churn_threshold=1.5)
        with pytest.raises(ConfigurationError):
            IncrementalBackend(max_states=0)


# --------------------------------------------------------------------------- #
# Incremental backend: online insertion (grow-and-repair) and persistence
# --------------------------------------------------------------------------- #
class TestIncrementalInsert:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 40),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        inserts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_insert_then_query_bit_identical_to_exact(
        self, seed, n, d, k, inserts, tie_heavy
    ):
        rng = np.random.default_rng(seed)
        total = n + sum(inserts)
        if tie_heavy:
            features = rng.integers(0, 3, size=(total, d)).astype(np.float64)
        else:
            features = rng.normal(size=(total, d))
        if k >= n:
            k = n - 1
        backend = IncrementalBackend(block_size=5)
        backend.query(features[:n], k)
        count = n
        for grow in inserts:
            previous = count
            count += grow
            grown = backend.insert(features[:count])
            # Past the churn threshold the backend legitimately declines and
            # lets the next query rebuild; below it the grow must succeed.
            if grow <= backend.churn_threshold * count:
                assert grown is True, f"insert of {grow} rows onto {previous} declined"
            result = backend.query(features[:count], k)
            assert np.array_equal(result, knn_indices_bruteforce(features[:count], k))

    def test_insert_with_simultaneous_drift(self):
        rng = np.random.default_rng(11)
        features = _clustered_features(11, n=120)
        backend = IncrementalBackend()
        backend.query(features[:110], 6)
        drifted = features.copy()
        moved = rng.choice(110, 8, replace=False)
        drifted[moved] += rng.normal(scale=0.02, size=(8, features.shape[1]))
        assert backend.insert(drifted) is True
        result = backend.query(drifted, 6)
        assert np.array_equal(result, knn_indices_bruteforce(drifted, 6))

    def test_insert_without_state_returns_false(self):
        backend = IncrementalBackend()
        assert backend.insert(np.zeros((10, 3))) is False

    def test_insert_past_churn_threshold_drops_state(self):
        features = _clustered_features(12, n=100)
        backend = IncrementalBackend(churn_threshold=0.1)
        backend.query(features[:50], 4)
        # 50 new rows over 100 total is way past 10% churn.
        assert backend.insert(features) is False
        backend.query(features, 4)
        assert backend.full_rebuilds == 2  # initial + the post-drop rebuild

    def test_insert_counts_rows(self):
        features = _clustered_features(13, n=64)
        backend = IncrementalBackend()
        backend.query(features[:60], 4)
        backend.insert(features)
        assert backend.rows_inserted == 4
        assert backend.stats()["rows_inserted"] == 4

    def test_state_export_import_round_trip(self):
        features = _clustered_features(14, n=80)
        backend = IncrementalBackend()
        reference = backend.query(features, 5)
        states = backend.export_states()

        restored = IncrementalBackend()
        restored.import_states(states)
        assert restored.has_matching_state(features, 5)
        result = restored.query(features, 5)
        assert np.array_equal(result, reference)
        assert restored.full_rebuilds == 0  # served from the imported state

    def test_import_rejects_inconsistent_state(self):
        backend = IncrementalBackend()
        with pytest.raises(ConfigurationError):
            backend.import_states(
                [{"signature": (4, 2, "float64", 1, False, "euclidean"),
                  "features": np.zeros((3, 2)), "indices": np.zeros((4, 1), dtype=np.int64),
                  "distances": np.zeros((4, 1))}]
            )
        with pytest.raises(ConfigurationError):
            backend.import_states([{"signature": (1, 2, 3), "features": np.zeros((1, 2)),
                                    "indices": np.zeros((1, 1), dtype=np.int64),
                                    "distances": np.zeros((1, 1))}])

    def test_has_matching_state(self):
        features = _clustered_features(15, n=40)
        backend = IncrementalBackend()
        assert not backend.has_matching_state(features, 4)
        backend.query(features, 4)
        assert backend.has_matching_state(features, 4)
        assert not backend.has_matching_state(features, 3)
        assert not backend.has_matching_state(features + 1.0, 4)


# --------------------------------------------------------------------------- #
# IncrementalBackend.delete: the O(r·n) shrink-and-repair
# --------------------------------------------------------------------------- #
class TestIncrementalDelete:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 40),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        deletions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_delete_then_query_bit_identical_to_exact(
        self, seed, n, d, k, deletions, tie_heavy
    ):
        rng = np.random.default_rng(seed)
        if tie_heavy:
            features = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            features = rng.normal(size=(n, d))
        if k >= n:
            k = n - 1
        backend = IncrementalBackend(block_size=5)
        backend.query(features, k)
        for remove in deletions:
            count = features.shape[0]
            if count - remove <= k + 1:
                break  # k would become infeasible for the survivors
            keep = np.ones(count, dtype=bool)
            keep[rng.choice(count, remove, replace=False)] = False
            shrunk = backend.delete(keep)
            # Past the churn threshold the backend legitimately declines and
            # lets the next query rebuild; below it the shrink must succeed.
            if remove <= backend.churn_threshold * count:
                assert shrunk == 1, f"delete of {remove}/{count} rows declined"
            features = features[keep]
            result = backend.query(features, k)
            assert np.array_equal(result, knn_indices_bruteforce(features, k))

    def test_delete_requeries_only_rows_that_listed_a_deleted_node(self):
        features = _clustered_features(20, n=200)
        backend = IncrementalBackend()
        reference = backend.query(features, 5)
        keep = np.ones(200, dtype=bool)
        keep[[3, 90]] = False
        affected = np.flatnonzero((~keep[reference]).any(axis=1) & keep)
        requeried_before = backend.rows_requeried
        assert backend.delete(keep) == 1
        assert backend.rows_requeried - requeried_before == affected.size
        # The follow-up query is a pure cache read: no movers, no re-queries.
        requeried_before = backend.rows_requeried
        result = backend.query(features[keep], 5)
        assert backend.rows_requeried == requeried_before
        assert np.array_equal(result, knn_indices_bruteforce(features[keep], 5))

    def test_delete_with_simultaneous_drift(self):
        rng = np.random.default_rng(21)
        features = _clustered_features(21, n=120)
        backend = IncrementalBackend()
        backend.query(features, 6)
        keep = np.ones(120, dtype=bool)
        keep[rng.choice(120, 5, replace=False)] = False
        assert backend.delete(keep) == 1
        drifted = features[keep].copy()
        moved = rng.choice(drifted.shape[0], 8, replace=False)
        drifted[moved] += rng.normal(scale=0.02, size=(8, features.shape[1]))
        result = backend.query(drifted, 6)
        assert np.array_equal(result, knn_indices_bruteforce(drifted, 6))

    def test_delete_float32_drops_state_and_matches_exact(self):
        # The float32 kernel mean-centres, so removing points perturbs every
        # stored distance value; float32 states are dropped (not repaired)
        # and the follow-up full rebuild is bit-identical to exact — even on
        # tie-heavy integer features where near-ties reorder wholesale.
        rng = np.random.default_rng(22)
        features = rng.integers(0, 3, size=(150, 12)).astype(np.float32)
        backend = IncrementalBackend()
        backend.query(features, 5)
        keep = np.ones(150, dtype=bool)
        keep[[0, 70, 149]] = False
        assert backend.delete(keep) == 0
        assert backend.stats()["states"] == 0
        result = backend.query(features[keep], 5)
        assert np.array_equal(result, ExactBackend().query(features[keep], 5))

    def test_delete_shrinks_every_matching_stream(self):
        # Two same-length streams of different width (the per-layer embedding
        # streams of a serving session) shrink together.
        rng = np.random.default_rng(23)
        first = rng.normal(size=(80, 4))
        second = rng.normal(size=(80, 9))
        backend = IncrementalBackend()
        backend.query(first, 5)
        backend.query(second, 3)
        keep = np.ones(80, dtype=bool)
        keep[[7, 40]] = False
        assert backend.delete(keep) == 2
        assert np.array_equal(
            backend.query(first[keep], 5), knn_indices_bruteforce(first[keep], 5)
        )
        assert np.array_equal(
            backend.query(second[keep], 3), knn_indices_bruteforce(second[keep], 3)
        )
        assert backend.full_rebuilds == 2  # only the two initial queries

    def test_delete_past_churn_threshold_drops_state(self):
        features = _clustered_features(24, n=100)
        backend = IncrementalBackend(churn_threshold=0.1)
        backend.query(features, 4)
        keep = np.ones(100, dtype=bool)
        keep[:20] = False  # 20% deleted, way past 10% churn
        assert backend.delete(keep) == 0
        assert backend.stats()["states"] == 0
        backend.query(features[keep], 4)
        assert backend.full_rebuilds == 2  # initial + the post-drop rebuild

    def test_delete_drops_state_when_k_becomes_infeasible(self):
        features = _clustered_features(25, n=12)
        backend = IncrementalBackend(churn_threshold=1.0)
        backend.query(features, 9)
        keep = np.ones(12, dtype=bool)
        keep[[0, 5, 11]] = False  # 9 survivors cannot answer k=9
        assert backend.delete(keep) == 0
        assert backend.stats()["states"] == 0

    def test_delete_counts_rows(self):
        features = _clustered_features(26, n=64)
        backend = IncrementalBackend()
        backend.query(features, 4)
        keep = np.ones(64, dtype=bool)
        keep[[1, 2, 3]] = False
        backend.delete(keep)
        assert backend.rows_deleted == 3
        assert backend.stats()["rows_deleted"] == 3

    def test_delete_ignores_other_lengths_and_full_keep(self):
        features = _clustered_features(27, n=50)
        backend = IncrementalBackend()
        backend.query(features, 4)
        assert backend.delete(np.ones(50, dtype=bool)) == 0  # nothing removed
        keep = np.ones(30, dtype=bool)
        keep[0] = False
        assert backend.delete(keep) == 0  # no state has 30 rows
        assert backend.stats()["states"] == 1

    def test_delete_validates_mask_shape(self):
        backend = IncrementalBackend()
        with pytest.raises(ShapeError):
            backend.delete(np.ones((4, 2), dtype=bool))

    def test_stateless_backends_ignore_delete(self):
        keep = np.ones(10, dtype=bool)
        keep[0] = False
        assert ExactBackend().delete(keep) == 0
        assert LSHBackend().delete(keep) == 0

    def test_interleaved_insert_delete_matches_exact(self):
        rng = np.random.default_rng(28)
        pool = _clustered_features(28, n=160)
        features = pool[:120]
        backend = IncrementalBackend()
        backend.query(features, 5)
        cursor = 120
        for step in range(6):
            if step % 2 == 0:
                grow = pool[cursor : cursor + 4]
                cursor += 4
                features = np.vstack([features, grow])
                backend.insert(features)
            else:
                keep = np.ones(features.shape[0], dtype=bool)
                keep[rng.choice(features.shape[0], 3, replace=False)] = False
                backend.delete(keep)
                features = features[keep]
            result = backend.query(features, 5)
            assert np.array_equal(result, knn_indices_bruteforce(features, 5))


# --------------------------------------------------------------------------- #
# LSH backend: recall floor, determinism, the recall knob
# --------------------------------------------------------------------------- #
class TestLSHBackend:
    RECALL_FLOOR = 0.9

    def test_recall_floor_on_clustered_data(self):
        features = _clustered_features(30, n=400, d=16, n_clusters=8)
        backend = LSHBackend(seed=0)
        recall = backend.measured_recall(features, 8)
        assert recall >= self.RECALL_FLOOR, f"recall {recall:.3f} below floor"

    def test_deterministic_given_seed(self):
        features = _clustered_features(31, n=150, d=10)
        assert np.array_equal(
            LSHBackend(seed=3).query(features, 6),
            LSHBackend(seed=3).query(features, 6),
        )

    def test_tune_reaches_target(self):
        features = _clustered_features(32, n=300, d=12)
        backend = LSHBackend(n_tables=1, n_probes=0, seed=1)
        recall = backend.tune(features, 8, target_recall=0.9)
        assert recall >= 0.9
        assert recall == pytest.approx(backend.measured_recall(features, 8))

    def test_small_candidate_pools_fall_back_to_exact_rows(self):
        # One table, many bits: buckets are tiny, so most rows must take the
        # exact fallback — and the result is then exact for those rows.
        features = _clustered_features(33, n=60, d=8)
        backend = LSHBackend(n_tables=1, hash_bits=16, n_probes=0, seed=2)
        result = backend.query(features, 5)
        fallback = backend.last_fallback_row_ids
        assert backend.fallback_rows == fallback.size > 0
        reference = knn_indices_bruteforce(features, 5)
        # every fallback row, specifically, is bit-identical to exact
        assert np.array_equal(result[fallback], reference[fallback])

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LSHBackend(n_tables=0)
        with pytest.raises(ConfigurationError):
            LSHBackend(hash_bits=0)
        with pytest.raises(ConfigurationError):
            LSHBackend(n_probes=-1)
        with pytest.raises(ConfigurationError):
            LSHBackend().tune(np.zeros((4, 2)), 1, target_recall=0.0)


# --------------------------------------------------------------------------- #
# clamp_k: small-population queries (every backend)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
class TestClampK:
    """After heavy deletion a population routinely drops below ``k + 1``
    rows; ``clamp_k=True`` degrades to "every survivor is a
    neighbour" instead of raising, without touching the strict default."""

    def test_clamped_query_equals_exact_at_feasible_k(self, name):
        features = _clustered_features(40, n=8)
        result = _make_backend(name).query(features, 20, clamp_k=True)
        assert result.shape == (8, 7)
        assert np.array_equal(result, knn_indices_bruteforce(features, 7))

    def test_clamped_include_self_caps_at_population(self, name):
        features = _clustered_features(41, n=6)
        result = _make_backend(name).query(features, 99, include_self=True, clamp_k=True)
        assert result.shape == (6, 6)
        assert np.array_equal(
            result, knn_indices_bruteforce(features, 6, include_self=True)
        )

    def test_feasible_k_unaffected_by_clamp(self, name):
        features = _clustered_features(42, n=30)
        assert np.array_equal(
            _make_backend(name).query(features, 5, clamp_k=True),
            knn_indices_bruteforce(features, 5),
        )

    def test_no_feasible_neighbour_still_raises(self, name):
        backend = _make_backend(name)
        with pytest.raises(ValueError):
            backend.query(np.zeros((1, 3)), 1, clamp_k=True)
        with pytest.raises(ValueError):
            backend.query(np.zeros((0, 3)), 1, clamp_k=True)

    def test_strict_default_still_raises(self, name):
        features = _clustered_features(43, n=8)
        with pytest.raises(ValueError):
            _make_backend(name).query(features, 8)

    def test_delete_below_k_plus_one_then_refresh_and_insert(self, name):
        # The satellite scenario: delete down to fewer than k + 1 survivors,
        # then keep querying (refresh) and grow again — with clamp_k the
        # stream never crashes and every answer stays bit-identical to the
        # exact kernel at the clamped k.
        features = _clustered_features(44, n=24, d=6)
        backend = _make_backend(name)
        k = 5
        backend.query(features, k, clamp_k=True)
        survivors = features[:4]  # 4 alive < k + 1
        result = backend.query(survivors, k, clamp_k=True)
        assert np.array_equal(result, knn_indices_bruteforce(survivors, 3))
        grown = np.vstack([survivors, _clustered_features(45, n=12, d=6)])
        result = backend.query(grown, k, clamp_k=True)
        assert np.array_equal(result, knn_indices_bruteforce(grown, k))


# --------------------------------------------------------------------------- #
# Golden training regressions
# --------------------------------------------------------------------------- #
def _train_dhgnn(dataset, backend: str | None, epochs: int = 6):
    reset_default_engine()
    model = DHGNN(
        dataset.n_features,
        dataset.n_classes,
        refresh_period=2,
        seed=0,
        neighbor_backend=backend,
    )
    config = TrainConfig(epochs=epochs, lr=0.01, eval_every=1, patience=None)
    return Trainer(model, dataset, config).train()


class TestGoldenTrainingRegression:
    def test_incremental_training_identical_to_exact(self, tiny_object_dataset):
        exact = _train_dhgnn(tiny_object_dataset, "exact")
        incremental = _train_dhgnn(tiny_object_dataset, "incremental")
        for key in ("train_loss", "train_accuracy", "val_accuracy", "test_accuracy"):
            assert exact.history[key] == incremental.history[key], key
        assert exact.test_accuracy == incremental.test_accuracy
        # identical cache traffic, request for request
        exact_stats = exact.extras["operator_cache"]
        incremental_stats = incremental.extras["operator_cache"]
        for counter in ("hits", "misses", "evictions", "entries"):
            assert exact_stats[counter] == incremental_stats[counter], counter

    def test_backend_via_train_config_equals_model_kwarg(self, tiny_object_dataset):
        reset_default_engine()
        model = DHGNN(
            tiny_object_dataset.n_features,
            tiny_object_dataset.n_classes,
            refresh_period=2,
            seed=0,
        )
        config = TrainConfig(
            epochs=6, lr=0.01, eval_every=1, patience=None, neighbor_backend="incremental"
        )
        via_config = Trainer(model, tiny_object_dataset, config).train()
        via_kwarg = _train_dhgnn(tiny_object_dataset, "incremental")
        assert via_config.history["train_loss"] == via_kwarg.history["train_loss"]
        assert isinstance(model.refresh_engine.backend, IncrementalBackend)

    def test_lsh_training_converges_within_tolerance(self, tiny_object_dataset):
        exact = _train_dhgnn(tiny_object_dataset, "exact", epochs=10)
        lsh = _train_dhgnn(tiny_object_dataset, "lsh", epochs=10)
        assert all(np.isfinite(lsh.history["train_loss"]))
        # Approximate neighbours may perturb the topology, but training must
        # still converge to a comparable optimum on the synthetic benchmark.
        assert lsh.history["train_accuracy"][-1] >= 0.8 * exact.history["train_accuracy"][-1]
        assert lsh.test_accuracy >= exact.test_accuracy - 0.15

    def test_train_config_validates_backend_name(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(neighbor_backend="faiss")

    def test_configs_accept_backend_instances(self, tiny_object_dataset):
        """Configured instances (the tolerance knob) work through both
        DHGCNConfig and TrainConfig, not just registry names."""
        from repro.core import DHGCN, DHGCNConfig

        tuned = IncrementalBackend(tolerance=0.5)
        config = DHGCNConfig(refresh_period=2, neighbor_backend=tuned)
        model = DHGCN(
            tiny_object_dataset.n_features, tiny_object_dataset.n_classes, config, seed=0
        )
        assert model.refresh_engine.backend is tuned
        assert TrainConfig(neighbor_backend=IncrementalBackend(tolerance=0.1)) is not None
        with pytest.raises(ConfigurationError):
            DHGCNConfig(neighbor_backend="faiss")
