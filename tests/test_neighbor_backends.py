"""Contract suite for the dynamic layers' k-NN index.

The chunked kernel (what a full rebuild runs) and the incremental index
(what every dynamic layer owns) are run through the same parametrised
contract:

* output shape/dtype/range and the documented ``(distance, index)``
  deterministic tie-break, including duplicated-point inputs where every
  distance ties at zero;
* uniform validation behaviour (``k <= 0``, ``k`` too large — which covers
  empty feature matrices — and non-2-D features);
* chunked kernel == brute force **bit-identical**;
* incremental == brute force bit-identical after arbitrary seeded
  move/no-move sequences (property-based), and after arbitrary
  insert/delete sequences through the grow-and-repair / shrink-and-repair
  paths.

Plus the golden training regression: DHGNN trained with its per-layer
indices must produce *identical* loss/accuracy histories to a run that
rebuilds every layer's k-NN cold at every refresh.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.hypergraph import IncrementalBackend, knn_indices, knn_indices_bruteforce
from repro.models import DHGNN
from repro.training import TrainConfig, Trainer


class _Kernel:
    """The chunked exact kernel behind the index's ``query`` signature."""

    def query(self, features, k, **kwargs):
        return knn_indices(features, k, **kwargs)


#: ``exact`` = the kernel a full rebuild runs; ``incremental`` = the index.
BACKENDS = ("exact", "incremental")


def _make_backend(name: str):
    # A fresh instance per test so the index never leaks state.
    return _Kernel() if name == "exact" else IncrementalBackend()


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
# Chunked kernel: bit-identical to brute force
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
            knn_indices(features, k, include_self=include_self, block_size=7),
            knn_indices_bruteforce(features, k, include_self=include_self),
        )


# --------------------------------------------------------------------------- #
# Incremental index: exact after arbitrary move sequences
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
        backend = IncrementalBackend()
        backend.CHURN_THRESHOLD = 0.2
        backend.query(features, 4)
        features = features + rng.normal(scale=0.1, size=features.shape)  # 100% churn
        result = backend.query(features, 4)
        assert np.array_equal(result, knn_indices_bruteforce(features, 4))
        assert backend.full_rebuilds == 2
        assert backend.partial_refreshes == 0

    def test_new_shape_or_k_replaces_the_state(self):
        """The index holds one stream: a query it cannot continue (another
        width, another k) rebuilds and becomes the stored state."""
        rng = np.random.default_rng(23)
        narrow = rng.normal(size=(50, 4))
        wide = rng.normal(size=(50, 16))
        backend = IncrementalBackend()
        backend.query(narrow, 3)
        backend.query(wide, 3)
        assert backend.full_rebuilds == 2
        assert np.array_equal(backend.query(wide, 3), knn_indices_bruteforce(wide, 3))
        assert backend.full_rebuilds == 2  # unmoved: answered from the state
        assert np.array_equal(backend.query(wide, 4), knn_indices_bruteforce(wide, 4))
        assert backend.full_rebuilds == 3
        assert backend.export_state()["indices"].shape == (50, 4)

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
        """update() takes k/include_self/metric from the stored state, which
        must match the given features' shape."""
        rng = np.random.default_rng(28)
        narrow = rng.normal(size=(40, 3))
        backend = IncrementalBackend()
        backend.query(narrow, 3, include_self=True)
        narrow = narrow.copy()
        narrow[4] += 0.05
        mask = np.zeros(40, dtype=bool)
        mask[4] = True
        result = backend.update(mask, narrow)
        assert result.shape == (40, 3)
        assert np.array_equal(result, knn_indices_bruteforce(narrow, 3, include_self=True))
        # No stored state of a never-seen shape.
        with pytest.raises(ConfigurationError):
            backend.update(np.zeros(40, dtype=bool), rng.normal(size=(40, 7)))

    def test_invalid_parameters(self):
        # The approximate tolerance, the churn knob and the multi-state LRU
        # are gone: the index takes a block size and nothing else.
        for removed in ({"tolerance": 0.5}, {"churn_threshold": 0.2}, {"max_states": 2}):
            with pytest.raises(TypeError):
                IncrementalBackend(**removed)
        with pytest.raises(ValueError):
            IncrementalBackend(block_size=0).query(_clustered_features(26, n=10), 2)


# --------------------------------------------------------------------------- #
# Incremental index: online insertion (grow-and-repair) and persistence
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
            if grow <= backend.CHURN_THRESHOLD * count:
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
        backend = IncrementalBackend()
        backend.CHURN_THRESHOLD = 0.1
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
        assert backend.export_state() is None
        reference = backend.query(features, 5)
        state = backend.export_state()

        restored = IncrementalBackend()
        restored.import_state(state)
        result = restored.query(features, 5)
        assert np.array_equal(result, reference)
        assert restored.full_rebuilds == 0  # served from the imported state
        assert restored.rows_requeried == 0
        # A clone carries a private copy of the state and fresh counters.
        twin = backend.clone()
        assert twin.full_rebuilds == 0
        moved = features.copy()
        moved[3] += 0.1
        twin.query(moved, 5)
        assert np.array_equal(backend.export_state()["features"], features)

    def test_import_rejects_inconsistent_state(self):
        backend = IncrementalBackend()
        with pytest.raises(ConfigurationError):
            backend.import_state(
                {"features": np.zeros((3, 2)), "indices": np.zeros((4, 1), dtype=np.int64),
                 "distances": np.zeros((4, 1))}
            )
        with pytest.raises(ConfigurationError):
            backend.import_state(
                {"features": np.zeros((1, 2)), "indices": np.zeros((1, 2), dtype=np.int64),
                 "distances": np.zeros((1, 1))}
            )


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
            if remove <= backend.CHURN_THRESHOLD * count:
                assert shrunk is True, f"delete of {remove}/{count} rows declined"
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
        assert backend.delete(keep) is True
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
        assert backend.delete(keep) is True
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
        assert backend.delete(keep) is False
        assert backend.export_state() is None
        result = backend.query(features[keep], 5)
        assert np.array_equal(result, knn_indices(features[keep], 5))

    def test_delete_past_churn_threshold_drops_state(self):
        features = _clustered_features(24, n=100)
        backend = IncrementalBackend()
        backend.CHURN_THRESHOLD = 0.1
        backend.query(features, 4)
        keep = np.ones(100, dtype=bool)
        keep[:20] = False  # 20% deleted, way past 10% churn
        assert backend.delete(keep) is False
        assert backend.export_state() is None
        backend.query(features[keep], 4)
        assert backend.full_rebuilds == 2  # initial + the post-drop rebuild

    def test_delete_drops_state_when_k_becomes_infeasible(self):
        features = _clustered_features(25, n=12)
        backend = IncrementalBackend()
        backend.CHURN_THRESHOLD = 1.0
        backend.query(features, 9)
        keep = np.ones(12, dtype=bool)
        keep[[0, 5, 11]] = False  # 9 survivors cannot answer k=9
        assert backend.delete(keep) is False
        assert backend.export_state() is None

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
        assert backend.delete(np.ones(50, dtype=bool)) is False  # nothing removed
        keep = np.ones(30, dtype=bool)
        keep[0] = False
        assert backend.delete(keep) is False  # the state has 50 rows, not 30
        assert backend.export_state()["features"].shape == (50, features.shape[1])

    def test_delete_validates_mask_shape(self):
        backend = IncrementalBackend()
        with pytest.raises(ShapeError):
            backend.delete(np.ones((4, 2), dtype=bool))

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
# clamp_k: small-population queries (kernel and index)
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
def _train_dhgnn(dataset, *, cold: bool = False, epochs: int = 6, **config):
    model = DHGNN(dataset.n_features, dataset.n_classes, refresh_period=2, seed=0)
    if cold:
        # Every refresh of every layer rebuilds its k-NN from scratch.
        for index in model._indices:
            index.query = _cold_query(index)
    config = TrainConfig(epochs=epochs, lr=0.01, eval_every=1, patience=None, **config)
    return Trainer(model, dataset, config).train()


def _cold_query(index):
    query = index.query

    def cold(*args, **kwargs):
        index.reset()
        return query(*args, **kwargs)

    return cold


class TestGoldenTrainingRegression:
    def test_incremental_training_identical_to_exact(self, tiny_object_dataset):
        exact = _train_dhgnn(tiny_object_dataset, cold=True)
        incremental = _train_dhgnn(tiny_object_dataset)
        for key in ("train_loss", "train_accuracy", "val_accuracy", "test_accuracy"):
            assert exact.history[key] == incremental.history[key], key
        assert exact.test_accuracy == incremental.test_accuracy

    def test_backend_names_select_nothing(self, tiny_object_dataset):
        default = _train_dhgnn(tiny_object_dataset)
        for name in ("exact", "incremental"):
            named = _train_dhgnn(tiny_object_dataset, neighbor_backend=name)
            assert named.history["train_loss"] == default.history["train_loss"], name

    def test_train_config_validates_backend_name(self):
        for name in ("faiss", "lsh"):
            with pytest.raises(ConfigurationError):
                TrainConfig(neighbor_backend=name)

    def test_configs_reject_backend_instances(self):
        from repro.core import DHGCNConfig

        with pytest.raises(ConfigurationError):
            TrainConfig(neighbor_backend=IncrementalBackend())
        with pytest.raises(TypeError):
            DHGCNConfig(neighbor_backend=IncrementalBackend())
