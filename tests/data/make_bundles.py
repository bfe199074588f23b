"""Write the serving-bundle fixtures that pin the bundle format.

Trains a 3-layer DHGNN and a gate-fusion DHGCN with compactness edge
weighting on, both at n=60 in float64, exports each as a serving bundle and
stores the logits its frozen model gives:

* ``bundle_dhgnn.npz`` and ``bundle_dhgcn.npz`` — the bundles;
* ``bundle_logits.npz`` — keys ``dhgnn`` and ``dhgcn``.

``tests/test_bundle_fixtures.py`` loads them with the current code and checks
the logits bit for bit.  Re-run this script only when the bundle layout
changes on purpose::

    PYTHONPATH=src python tests/data/make_bundles.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import DHGCN, DHGCNConfig, DHGNN, TrainConfig, Trainer
from repro.data.citation import make_citation_dataset

HERE = Path(__file__).resolve().parent


def fixture_dataset():
    """The n=60 co-citation dataset both fixture models train on."""
    return make_citation_dataset(
        "bundle-fixture",
        n_nodes=60,
        n_classes=3,
        n_features=12,
        intra_class_degree=3.0,
        inter_class_degree=1.0,
        active_words=4,
        noise_words=2,
        train_per_class=5,
        seed=5,
    )


def fixture_models(dataset) -> dict:
    return {
        "dhgnn": DHGNN(
            dataset.n_features, dataset.n_classes, hidden_dim=8, n_layers=3,
            k_neighbors=3, seed=0,
        ),
        "dhgcn": DHGCN(
            dataset.n_features, dataset.n_classes,
            DHGCNConfig(
                hidden_dim=8, n_layers=2, k_neighbors=3, fusion="gate",
                use_edge_weighting=True,
            ),
            seed=0,
        ),
    }


def main() -> None:
    dataset = fixture_dataset()
    logits = {}
    for kind, model in fixture_models(dataset).items():
        trainer = Trainer(model, dataset, TrainConfig(epochs=3, patience=None))
        trainer.train()
        frozen = trainer.export_frozen(str(HERE / f"bundle_{kind}.npz"))
        logits[kind] = frozen.logits()
    np.savez_compressed(HERE / "bundle_logits.npz", **logits)
    sizes = {path.name: path.stat().st_size for path in sorted(HERE.glob("bundle_*.npz"))}
    print(f"wrote {sizes} ({sum(sizes.values()) / 1024:.1f} KiB)")


if __name__ == "__main__":
    main()
