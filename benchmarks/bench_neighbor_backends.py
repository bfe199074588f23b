"""Benchmark of the incremental k-NN index against the exact chunked kernel.

Measures, over n and node-churn rates, the wall-clock of a topology refresh
when only a fraction of the nodes moved since the last refresh (the
mostly-converged training regime), with a bit-identity check against the
kernel's full rebuild on every refresh.

Run standalone (``PYTHONPATH=src python benchmarks/bench_neighbor_backends.py``);
set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.  Acceptance bar:
quick mode: incremental refresh ≥ 1.2× faster than exact at ≤ 10% churn;
full mode: ≥ 2× (the dominant structural cost of refresh-heavy training).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import emit  # noqa: E402

from repro.hypergraph import IncrementalBackend, knn_indices  # noqa: E402
from repro.training.results import ResultTable  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Node counts of the refresh-simulation section.
SIZES = [600] if QUICK else [1000, 2000, 4000]
#: Fraction of nodes moved per simulated refresh.
CHURN_RATES = [0.05, 0.10] if QUICK else [0.02, 0.05, 0.10, 0.25]
#: Simulated refreshes per (n, churn) cell (timings are summed over them).
REFRESHES = 4 if QUICK else 6
K_NEIGHBORS = 8
FEATURE_DIM = 16
BLOCK_SIZE = 256
#: Quick/full acceptance bars for the incremental speedup at <= 10% churn.
SPEEDUP_BAR = 1.2 if QUICK else 2.0


def _clustered(rng: np.random.Generator, n: int, n_clusters: int = 10) -> np.ndarray:
    centers = rng.normal(scale=5.0, size=(n_clusters, FEATURE_DIM))
    assignment = rng.integers(0, n_clusters, size=n)
    return centers[assignment] + rng.normal(scale=0.5, size=(n, FEATURE_DIM))


def bench_incremental() -> tuple[ResultTable, float]:
    """Simulated mostly-converged refreshes: move `churn`·n nodes slightly,
    then refresh the index and rebuild with the exact kernel."""
    table = ResultTable(
        ["n nodes", "churn", "exact (ms/refresh)", "incremental (ms/refresh)",
         "rows requeried", "speedup", "identical"],
        title=f"k-NN index: exact rebuild vs incremental refresh (k={K_NEIGHBORS})",
    )
    worst_low_churn_speedup = float("inf")
    for n in SIZES:
        for churn in CHURN_RATES:
            rng = np.random.default_rng(n * 1000 + int(churn * 100))
            features = _clustered(rng, n)
            backend = IncrementalBackend(block_size=BLOCK_SIZE)
            backend.query(features, K_NEIGHBORS)  # warm start (not timed)
            requeried_before = backend.rows_requeried

            exact_s = 0.0
            incremental_s = 0.0
            identical = True
            n_moved = max(1, int(round(churn * n)))
            for _ in range(REFRESHES):
                moved = rng.choice(n, size=n_moved, replace=False)
                features = features.copy()
                # Converged-training-like drift: small relative to the
                # cluster radius, so most neighbour lists survive.
                features[moved] += rng.normal(scale=0.02, size=(n_moved, FEATURE_DIM))

                start = time.perf_counter()
                incremental_result = backend.query(features, K_NEIGHBORS)
                incremental_s += time.perf_counter() - start

                start = time.perf_counter()
                exact_result = knn_indices(features, K_NEIGHBORS, block_size=BLOCK_SIZE)
                exact_s += time.perf_counter() - start

                identical = identical and np.array_equal(incremental_result, exact_result)

            requeried = backend.rows_requeried - requeried_before
            speedup = exact_s / incremental_s if incremental_s > 0 else float("inf")
            if churn <= 0.10:
                worst_low_churn_speedup = min(worst_low_churn_speedup, speedup)
            table.add_row(
                [
                    n,
                    f"{churn:.0%}",
                    round(exact_s / REFRESHES * 1e3, 3),
                    round(incremental_s / REFRESHES * 1e3, 3),
                    f"{requeried / REFRESHES:.0f}/{n}",
                    f"{speedup:.2f}x",
                    identical,
                ]
            )
            assert identical, f"incremental diverged from exact at n={n}, churn={churn}"
    return table, worst_low_churn_speedup


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"k-NN index benchmark ({mode} mode)")

    incremental_table, worst_speedup = bench_incremental()
    emit(incremental_table, "bench_neighbor_backends_incremental", extra={"mode": mode})

    assert worst_speedup >= SPEEDUP_BAR, (
        f"incremental refresh only {worst_speedup:.2f}x faster than exact at <=10% churn "
        f"(bar: {SPEEDUP_BAR}x)"
    )
    print(f"OK: incremental {worst_speedup:.2f}x at <=10% churn (bar {SPEEDUP_BAR}x)")


if __name__ == "__main__":
    main()
