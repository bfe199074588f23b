"""Equivalence tests for the topology-refresh path's k-NN kernel.

Two guarantees are pinned here so the refresh-path speedups can never
silently change the reproduction's numbers:

1. the chunked k-NN (:func:`repro.hypergraph.knn.knn_indices`) selects exactly
   the same neighbours as the brute-force full-matrix path, for every block
   size, including ``block_size > n`` and tie-heavy inputs;
2. training DHGCN gives *identical* histories for every k-NN block size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DHGCN, DHGCNConfig
from repro.hypergraph import knn_indices, knn_indices_bruteforce
from repro.hypergraph.construction import knn_hyperedges
from repro.training import TrainConfig, Trainer


def _random_features(seed: int, n: int, d: int, *, tie_heavy: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if tie_heavy:
        # Integer grid coordinates force many exactly-equal distances, which
        # is where a naive argpartition-only top-k diverges from the
        # brute-force (distance, index) ordering.
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    return rng.normal(size=(n, d))


# --------------------------------------------------------------------------- #
# 1. Chunked k-NN ≡ brute-force k-NN
# --------------------------------------------------------------------------- #
class TestChunkedKnnEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 32),
        d=st.integers(1, 5),
        k_fraction=st.floats(0.0, 1.0),
        block_size=st.integers(1, 40),
        include_self=st.booleans(),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_identical_neighbours(self, seed, n, d, k_fraction, block_size, include_self, tie_heavy):
        features = _random_features(seed, n, d, tie_heavy=tie_heavy)
        limit = n if include_self else n - 1
        k = 1 + int(k_fraction * (limit - 1))
        expected = knn_indices_bruteforce(features, k, include_self=include_self)
        actual = knn_indices(
            features, k, include_self=include_self, block_size=block_size
        )
        assert np.array_equal(expected, actual)

    def test_block_size_larger_than_n(self):
        features = _random_features(0, 10, 3)
        assert np.array_equal(
            knn_indices(features, 4, block_size=1000),
            knn_indices_bruteforce(features, 4),
        )

    def test_default_block_size_path(self):
        features = _random_features(1, 30, 4)
        assert np.array_equal(
            knn_indices(features, 5),
            knn_indices_bruteforce(features, 5),
        )

    def test_duplicate_points_tie_break_deterministic(self):
        # All points identical: every distance ties at 0, so neighbours must
        # come out in index order for both paths.
        features = np.ones((8, 3))
        for block_size in (1, 3, 8, 50):
            result = knn_indices(features, 3, block_size=block_size)
            assert np.array_equal(result, knn_indices_bruteforce(features, 3))
        # Row i's neighbours are the smallest indices other than i.
        assert np.array_equal(result[0], [1, 2, 3])
        assert np.array_equal(result[5], [0, 1, 2])

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        k=st.integers(1, 4),
        block_size=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_knn_hyperedges_identical(self, seed, n, k, block_size):
        features = _random_features(seed, n, 3, tie_heavy=(seed % 2 == 0))
        k = min(k, n - 1)
        chunked = knn_hyperedges(features, k, block_size=block_size)
        reference = knn_hyperedges(features, k, block_size=10**6)
        assert chunked.hyperedges == reference.hyperedges

    def test_invalid_block_size(self):
        features = _random_features(2, 6, 2)
        with pytest.raises(ValueError):
            knn_indices(features, 2, block_size=0)
        with pytest.raises(ValueError):
            knn_indices(features, 2, block_size=-3)


# --------------------------------------------------------------------------- #
# 2. Regression: the k-NN block size can never change model outputs
# --------------------------------------------------------------------------- #
def _train_history(model, dataset, epochs: int = 6):
    config = TrainConfig(epochs=epochs, lr=0.01, eval_every=1, patience=None)
    result = Trainer(model, dataset, config).train()
    return result


class TestCacheRegression:
    def test_dhgcn_identical_across_knn_block_sizes(self, tiny_object_dataset):
        histories = {}
        for block_size in (7, None):
            config = DHGCNConfig(refresh_period=2, knn_block_size=block_size)
            model = DHGCN(
                tiny_object_dataset.n_features,
                tiny_object_dataset.n_classes,
                config,
                seed=3,
            )
            histories[block_size] = _train_history(model, tiny_object_dataset)
        assert histories[7].history["train_loss"] == histories[None].history["train_loss"]
