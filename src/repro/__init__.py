"""repro — Dynamic Hypergraph Convolutional Network (ICDE 2022) reproduction.

The package is organised in layers (see DESIGN.md):

* ``repro.autograd`` / ``repro.nn`` / ``repro.optim`` — a from-scratch numpy
  deep-learning stack (tensors with reverse-mode autodiff, modules,
  optimisers);
* ``repro.graph`` / ``repro.hypergraph`` — pairwise-graph and hypergraph
  structures, Laplacians and construction algorithms;
* ``repro.data`` — dataset containers, splits and synthetic stand-ins for the
  public benchmarks;
* ``repro.models`` — baselines (MLP, GCN, GAT, HGNN, HyperGCN, DHGNN);
* ``repro.core`` — the paper's model: :class:`repro.core.DHGCN`;
* ``repro.training`` — trainer, metrics and the multi-seed experiment runner.

Quickstart
----------
>>> from repro import DHGCN, Trainer, TrainConfig, get_dataset
>>> dataset = get_dataset("cora-cocitation", seed=0)
>>> model = DHGCN(dataset.n_features, dataset.n_classes, seed=0)
>>> result = Trainer(model, dataset, TrainConfig(epochs=50)).train()
>>> print(f"test accuracy {result.test_accuracy:.3f}")  # doctest: +SKIP
"""

from repro.core import DHGCN, DHGCNConfig, DynamicHypergraphBuilder
from repro.data import NodeClassificationDataset, Split, available_datasets, get_dataset
from repro.graph import Graph
from repro.hypergraph import Hypergraph, IncrementalBackend
from repro.models import DHGNN, GAT, GCN, HGNN, HGNNP, MLP, SGC, ChebNet, HyperGCN
from repro.serving import FrozenModel, InferenceSession, OperatorStore
from repro.precision import (
    SUPPORTED_PRECISIONS,
    get_precision,
    precision,
    set_precision,
)
from repro.training import (
    ExperimentResult,
    ResultTable,
    TrainConfig,
    Trainer,
    TrainResult,
    compare_methods,
    grid_search,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DHGCN",
    "DHGCNConfig",
    "DynamicHypergraphBuilder",
    "Hypergraph",
    "IncrementalBackend",
    "Graph",
    "SUPPORTED_PRECISIONS",
    "precision",
    "get_precision",
    "set_precision",
    "NodeClassificationDataset",
    "Split",
    "get_dataset",
    "available_datasets",
    "MLP",
    "SGC",
    "GCN",
    "ChebNet",
    "GAT",
    "HGNN",
    "HGNNP",
    "HyperGCN",
    "DHGNN",
    "FrozenModel",
    "InferenceSession",
    "OperatorStore",
    "Trainer",
    "TrainConfig",
    "TrainResult",
    "ExperimentResult",
    "ResultTable",
    "run_experiment",
    "compare_methods",
    "grid_search",
]
