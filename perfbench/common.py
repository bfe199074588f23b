"""Shared constants and helpers of the benchmark (no import of ``repro`` here).

The benchmark runs from the root of a checkout: ``src/`` holds the program
under test and ``.bench_build/perfbench/`` holds everything the benchmark
writes (the cached serving bundle, per-run checkpoint/WAL/trace files).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

#: ``make_citation_dataset`` arguments shared by serving and training; the
#: generator parameters are those of ``benchmarks/bench_serving.py``.
DATASET_KWARGS = dict(
    n_classes=4,
    n_features=40,
    intra_class_degree=3.0,
    inter_class_degree=1.0,
    active_words=6,
    noise_words=2,
    confusion=0.4,
    train_per_class=8,
    val_fraction=0.2,
    seed=7,
)
#: Serving population.  At n=2000 one durable write costs ~1 s, too slow to
#: collect 100 writes in a run; n=1000 keeps the same stage shares.
SERVE_NODES = 1000
TRAIN_NODES = 2000
#: The served model: DHGNN, 3 layers, hidden 16, k=4, incremental k-NN.
BUNDLE_MODEL = dict(hidden_dim=16, n_layers=3, k_neighbors=4)
BUNDLE_EPOCHS = 10


def dataset(n_nodes: int):
    """The benchmark's synthetic co-citation dataset at ``n_nodes``."""
    from repro.data.citation import make_citation_dataset

    return make_citation_dataset("perfbench", n_nodes=n_nodes, **DATASET_KWARGS)


def child_env() -> dict[str, str]:
    """Environment of every child process: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread per process: on a two-core machine the load generator
    # and the program share the cores, and oversubscription only adds noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    """Start ``python3 <args>`` from the checkout root with :func:`child_env`."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=str(ROOT), env=child_env(), **kwargs
    )


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); ``inf`` entries stay ``inf``."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def write_json(path: Path, payload) -> None:
    """Write ``payload`` atomically (temp file + rename)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
