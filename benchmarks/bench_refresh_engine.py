"""Micro-benchmark of the topology refresh's chunked k-NN.

Reports the wall-clock of the blockwise path
(:func:`repro.hypergraph.knn.knn_indices`) vs the O(n²)-memory brute-force
path, plus the peak distance-slab memory of each, with an equality check on
the selected neighbours.

Run standalone (``PYTHONPATH=src python benchmarks/bench_refresh_engine.py``);
set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration (small sizes,
seconds instead of minutes).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import emit  # noqa: E402

from repro.hypergraph.knn import knn_indices, knn_indices_bruteforce  # noqa: E402
from repro.training.results import ResultTable  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Node counts for the k-NN scaling section.
KNN_SIZES = [300] if QUICK else [1000, 2000, 4000]
BLOCK_SIZE = 256
K_NEIGHBORS = 8
FEATURE_DIM = 16
#: Repetitions per timing.
BUILD_REPEATS = 3 if QUICK else 5


def _time(func, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``func()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_chunked_knn() -> ResultTable:
    table = ResultTable(
        ["n nodes", "bruteforce (s)", "chunked (s)", "slab memory", "identical"],
        title=f"Refresh engine: chunked k-NN (k={K_NEIGHBORS}, block={BLOCK_SIZE})",
    )
    for n in KNN_SIZES:
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, FEATURE_DIM))
        brute_s = _time(lambda: knn_indices_bruteforce(features, K_NEIGHBORS), BUILD_REPEATS)
        chunk_s = _time(
            lambda: knn_indices(features, K_NEIGHBORS, block_size=BLOCK_SIZE), BUILD_REPEATS
        )
        identical = np.array_equal(
            knn_indices_bruteforce(features, K_NEIGHBORS),
            knn_indices(features, K_NEIGHBORS, block_size=BLOCK_SIZE),
        )
        slab = f"{min(BLOCK_SIZE, n) * n * 8 / 1e6:.1f} MB vs {n * n * 8 / 1e6:.1f} MB"
        table.add_row([n, round(brute_s, 4), round(chunk_s, 4), slab, identical])
        assert identical, f"chunked k-NN diverged from brute force at n={n}"
    return table


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"refresh-engine micro-benchmark ({mode} mode)")

    knn_table = bench_chunked_knn()
    emit(knn_table, "bench_refresh_engine_knn", extra={"mode": mode})


if __name__ == "__main__":
    main()
