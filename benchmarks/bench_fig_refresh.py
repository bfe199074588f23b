"""Figure C — accuracy and cost vs dynamic-topology refresh period.

Sweeps how often DHGCN rebuilds its dynamic hypergraph (every epoch, every 5,
10, 25 epochs, or never after initialisation).  Expected shape: accuracy is
flat-ish across moderate refresh periods (the topology stabilises as the
embedding stabilises) while the training-time cost decreases as refreshes
become rarer — which is why the default refresh period is 5 rather than 1.
"""

import numpy as np
from common import N_SEEDS, BENCH_EPOCHS, bench_train_config, dataset_factory, dhgcn_factory, emit

from repro.core import DHGCNConfig
from repro.training import run_experiment
from repro.training.results import ResultTable

DATASET = "cora-cocitation"
# A refresh period >= the epoch budget means "build once, never refresh".
REFRESH_PERIODS = [1, 5, 10, 25, BENCH_EPOCHS]


def run_fig_refresh():
    factory = dataset_factory(DATASET)
    table = ResultTable(
        ["refresh period", "test accuracy", "mean", "train time (s)"],
        title=f"Figure C: accuracy and cost vs dynamic refresh period on {DATASET}",
    )
    rows = []
    for period in REFRESH_PERIODS:
        label = "never" if period >= BENCH_EPOCHS else str(period)
        config = DHGCNConfig(refresh_period=period)
        experiment = run_experiment(
            f"refresh={label}", dhgcn_factory(config), factory,
            n_seeds=N_SEEDS, master_seed=0, train_config=bench_train_config(),
        )
        rows.append((period, experiment))
        table.add_row(
            [
                label,
                experiment.formatted_accuracy(),
                experiment.mean_test_accuracy,
                round(experiment.mean_train_time, 2),
            ]
        )
    return table, rows


def test_fig_refresh(benchmark):
    table, rows = benchmark.pedantic(run_fig_refresh, rounds=1, iterations=1)
    emit(table, "figC_refresh")

    accuracies = [experiment.mean_test_accuracy for _, experiment in rows]
    times = [experiment.mean_train_time for _, experiment in rows]
    # Accuracy stays in a narrow band across refresh periods...
    assert max(accuracies) - min(accuracies) < 0.10
    # ...while refreshing every epoch is the slowest configuration.
    assert times[0] >= max(times[1:]) * 0.9
