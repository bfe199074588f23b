"""Epoch-time benchmark: the float32 fast path vs the float64 default.

For DHGCN / HGNN / GCN on the synthetic cora-like benchmark (n >= 2000 in
full mode) this measures, per precision policy:

* **steady-state epoch time** — median wall-clock of one optimisation step
  (forward, loss, backward, optimizer) after a warm-up epoch.  Dynamic
  models run with an effectively infinite ``refresh_period`` so the timed
  epochs isolate the dense/sparse linear algebra the precision policy
  targets; the (float64, structural) topology-refresh cost is benchmarked
  separately by ``bench_refresh_engine.py``.
* **op-level accounting** — the :class:`repro.utils.OpProfiler` per-op totals
  for the timed epochs.  Their sum must land within 10% of the wall-clock
  epoch time (the profiler's accuracy bar), and the per-op byte counters
  report the temporary-allocation traffic saved by float32.
* **peak temporary bytes** — ``tracemalloc`` peak of one (untimed) epoch.

Acceptance bars, checked in full mode:

* float32 steady-state epochs are >= 1.3x faster than float64 per model;
* profiler coverage (op seconds / wall seconds) within [0.9, 1.1] per run.

Run standalone (``PYTHONPATH=src python benchmarks/bench_epoch_time.py``);
``REPRO_BENCH_QUICK=1`` switches to the CI smoke configuration (small sizes,
no acceptance assertions).  Every run appends one entry to the
``BENCH_epoch_time.json`` trajectory file at the repository root.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import emit  # noqa: E402

from repro import DHGCN, DHGCNConfig, GCN, HGNN, TrainConfig  # noqa: E402
from repro.autograd import Tensor, cross_entropy  # noqa: E402
from repro.data import get_dataset  # noqa: E402
from repro.optim import Adam  # noqa: E402
from repro.precision import precision  # noqa: E402
from repro.training.results import ResultTable  # noqa: E402
from repro.utils.profiling import OpProfiler, record_block  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

DATASET = "cora-cocitation"
N_NODES = 300 if QUICK else 2400
#: Timed steady-state epochs (after one untimed warm-up epoch that also
#: builds the dynamic operators / caches).
EPOCHS = 2 if QUICK else 8
PRECISIONS = ("float64", "float32")
SPEEDUP_BAR = 1.3
COVERAGE_BAR = 0.10

#: Repository root, home of the trajectory file named by the roadmap.
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_epoch_time.json"


def _models():
    # DHGCN runs with an effectively infinite refresh period: the timed
    # epochs then measure the dual-channel convolution itself rather than
    # the float64 structural rebuild (see module docstring).  Cluster
    # hyperedges are disabled because their size — and therefore the dynamic
    # operator's nnz — depends on the embedding trajectory, which diverges
    # between precisions; k-NN hyperedges keep the two topologies the same
    # size so the timing compares equal work.
    return {
        "GCN": lambda ds: GCN(ds.n_features, ds.n_classes, seed=0),
        "HGNN": lambda ds: HGNN(ds.n_features, ds.n_classes, seed=0),
        "DHGCN": lambda ds: DHGCN(
            ds.n_features,
            ds.n_classes,
            DHGCNConfig(
                refresh_period=10**9, use_cluster_hyperedges=False, k_neighbors=8
            ),
            seed=0,
        ),
    }


def _train_epoch(model, optimizer, features, labels, train_index, epoch):
    model.on_epoch(epoch)
    model.train()
    optimizer.zero_grad()
    loss = cross_entropy(model(features), labels, train_index)
    loss.backward()
    with record_block("Optimizer.step"):
        optimizer.step()
    return float(loss.data)


def run_one(model_name: str, precision_name: str) -> dict:
    """Benchmark one (model, precision) cell; returns the measurement record."""
    dataset = get_dataset(DATASET, seed=0, n_nodes=N_NODES)
    factory = _models()[model_name]
    config = TrainConfig(lr=0.01, weight_decay=5e-4, precision=precision_name)
    with precision(config.precision):
        model = factory(dataset)
        model.setup(dataset)
        features = Tensor(dataset.features)
        optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)

        # Warm-up epoch: builds dynamic operators, fills the operator cache
        # and the spmm transpose cache.
        _train_epoch(model, optimizer, features, dataset.labels, dataset.split.train, 0)

        profiler = OpProfiler()
        epoch_seconds: list[float] = []
        for epoch in range(1, EPOCHS + 1):
            start = time.perf_counter()
            with profiler.activate():
                _train_epoch(
                    model, optimizer, features, dataset.labels, dataset.split.train, epoch
                )
            epoch_seconds.append(time.perf_counter() - start)

        # Peak temporary bytes of one more (untimed) epoch under tracemalloc.
        tracemalloc.start()
        _train_epoch(
            model, optimizer, features, dataset.labels, dataset.split.train, EPOCHS + 1
        )
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    wall = sum(epoch_seconds)
    assert model.parameters()[0].dtype == precision_name, (
        f"{model_name} parameters ended up {model.parameters()[0].dtype}, "
        f"policy was {precision_name}"
    )
    return {
        "model": model_name,
        "precision": precision_name,
        "epoch_seconds_median": statistics.median(epoch_seconds),
        "epoch_seconds_mean": wall / len(epoch_seconds),
        "op_seconds": profiler.op_seconds,
        "wall_seconds": wall,
        "coverage": profiler.op_seconds / wall if wall > 0 else 0.0,
        "op_megabytes_per_epoch": profiler.op_bytes / len(epoch_seconds) / 1e6,
        "peak_epoch_megabytes": peak_bytes / 1e6,
        "hottest_ops": [row["op"] for row in profiler.table()[:3]],
    }


def append_trajectory(entry: dict) -> None:
    """Append ``entry`` to the BENCH_epoch_time.json run history."""
    history: list = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(entry)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"epoch-time benchmark ({mode} mode, {DATASET}, n={N_NODES}, {EPOCHS} epochs)")

    runs = [run_one(model, prec) for model in _models() for prec in PRECISIONS]
    by_key = {(run["model"], run["precision"]): run for run in runs}

    table = ResultTable(
        [
            "model",
            "float64 (ms)",
            "float32 (ms)",
            "speedup",
            "coverage f64/f32",
            "temporaries f64/f32 (MB)",
        ],
        title=f"Epoch time: float64 vs float32 ({DATASET}, n={N_NODES})",
    )
    speedups: dict[str, float] = {}
    for model in _models():
        slow = by_key[(model, "float64")]
        fast = by_key[(model, "float32")]
        speedups[model] = slow["epoch_seconds_median"] / fast["epoch_seconds_median"]
        table.add_row(
            [
                model,
                round(slow["epoch_seconds_median"] * 1e3, 2),
                round(fast["epoch_seconds_median"] * 1e3, 2),
                f"{speedups[model]:.2f}x",
                f"{slow['coverage']:.2f} / {fast['coverage']:.2f}",
                f"{slow['peak_epoch_megabytes']:.1f} / {fast['peak_epoch_megabytes']:.1f}",
            ]
        )
    emit(table, "bench_epoch_time", extra={"mode": mode, "runs": runs})

    append_trajectory(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "mode": mode,
            "dataset": DATASET,
            "n_nodes": N_NODES,
            "epochs": EPOCHS,
            "speedups": {model: round(value, 3) for model, value in speedups.items()},
            "runs": runs,
        }
    )
    print(f"trajectory appended to {TRAJECTORY_PATH}")

    if QUICK:
        print("quick mode: smoke only, acceptance bars not enforced")
        return

    for model, speedup in speedups.items():
        assert speedup >= SPEEDUP_BAR, (
            f"{model}: float32 only {speedup:.2f}x faster than float64 "
            f"(bar: {SPEEDUP_BAR}x)"
        )
    for run in runs:
        assert abs(run["coverage"] - 1.0) <= COVERAGE_BAR, (
            f"{run['model']}/{run['precision']}: profiler explains "
            f"{run['coverage'] * 100:.1f}% of epoch wall-clock (bar: +/-10%)"
        )
    worst = min(speedups, key=speedups.get)
    print(
        f"OK: worst float32 speedup {speedups[worst]:.2f}x ({worst}, bar {SPEEDUP_BAR}x); "
        f"profiler coverage within 10% on all runs"
    )


if __name__ == "__main__":
    main()
