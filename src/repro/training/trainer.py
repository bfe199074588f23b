"""Full-batch transductive training loop."""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.autograd.ops_loss import cross_entropy
from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataset import NodeClassificationDataset
from repro.errors import TrainingError
from repro.models.base import BaseNodeClassifier
from repro.optim import SGD, Adam, AdamW, EarlyStopping
from repro.precision import precision
from repro.training.config import TrainConfig
from repro.training.metrics import accuracy, macro_f1
from repro.utils.logging import get_logger
from repro.utils.profiling import OpProfiler, record_block
from repro.utils.timer import Timer

logger = get_logger("training")


@dataclass
class TrainResult:
    """Outcome of one training run."""

    test_accuracy: float
    test_macro_f1: float
    best_val_accuracy: float
    best_epoch: int
    epochs_run: int
    train_time: float
    mean_epoch_time: float
    n_parameters: int
    history: dict[str, list[float]] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        """Flat dictionary used by the experiment runner and result tables."""
        return {
            "test_accuracy": self.test_accuracy,
            "test_macro_f1": self.test_macro_f1,
            "best_val_accuracy": self.best_val_accuracy,
            "best_epoch": float(self.best_epoch),
            "epochs_run": float(self.epochs_run),
            "train_time": self.train_time,
            "mean_epoch_time": self.mean_epoch_time,
            "n_parameters": float(self.n_parameters),
        }

    def save(self, path: str) -> "str":
        """Persist summary + history (+ JSON-serialisable extras) as JSON.

        The export-side companion of :meth:`Trainer.export_frozen`: a served
        bundle can ship next to the training record it came from.  Extras
        that do not serialise (profiler objects etc.) are dropped.
        """
        from repro.utils.io import save_json

        extras = {}
        for key, value in self.extras.items():
            try:
                json.dumps(value, default=float)
            except (TypeError, ValueError):
                continue
            extras[key] = value
        payload = {
            "summary": self.summary(),
            "history": self.history,
            "extras": extras,
        }
        return str(save_json(path, payload))

    @classmethod
    def load(cls, path: str) -> "TrainResult":
        """Rebuild a result from :meth:`save` output."""
        from repro.utils.io import load_json

        payload = load_json(path)
        summary = payload["summary"]
        return cls(
            test_accuracy=summary["test_accuracy"],
            test_macro_f1=summary["test_macro_f1"],
            best_val_accuracy=summary["best_val_accuracy"],
            best_epoch=int(summary["best_epoch"]),
            epochs_run=int(summary["epochs_run"]),
            train_time=summary["train_time"],
            mean_epoch_time=summary["mean_epoch_time"],
            n_parameters=int(summary["n_parameters"]),
            history=payload.get("history", {}),
            extras=payload.get("extras", {}),
        )


class Trainer:
    """Trains a :class:`BaseNodeClassifier` on one dataset, full batch.

    Example
    -------
    >>> from repro.data import get_dataset
    >>> from repro.core import DHGCN
    >>> from repro.training import Trainer, TrainConfig
    >>> dataset = get_dataset("cora-cocitation", seed=0)
    >>> model = DHGCN(dataset.n_features, dataset.n_classes, seed=0)
    >>> trainer = Trainer(model, dataset, TrainConfig(epochs=30))
    >>> result = trainer.train()
    >>> 0.0 <= result.test_accuracy <= 1.0
    True
    """

    def __init__(
        self,
        model: BaseNodeClassifier,
        dataset: NodeClassificationDataset,
        config: TrainConfig | None = None,
        *,
        profile: bool = False,
    ) -> None:
        if not isinstance(model, BaseNodeClassifier):
            raise TrainingError(f"model must be a BaseNodeClassifier, got {type(model)!r}")
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.profile = bool(profile)
        # The whole run — parameter casts, operator precomputation, the
        # feature tensor and later every epoch — executes under the
        # configured precision policy.
        with precision(self.config.precision):
            self.model.to(self.config.precision)
            self.model.setup(dataset)
            self._features = Tensor(dataset.features)
        self._labels = dataset.labels

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _make_optimizer(self):
        parameters = self.model.parameters()
        if not parameters:
            raise TrainingError("model has no trainable parameters")
        if self.config.optimizer == "adam":
            return Adam(parameters, lr=self.config.lr, weight_decay=self.config.weight_decay)
        if self.config.optimizer == "adamw":
            return AdamW(parameters, lr=self.config.lr, weight_decay=self.config.weight_decay)
        return SGD(
            parameters,
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )

    def train(self) -> TrainResult:
        """Run the full training loop and return the evaluation summary."""
        with precision(self.config.precision):
            return self._train_loop()

    def _train_loop(self) -> TrainResult:
        config = self.config
        split = self.dataset.split
        optimizer = self._make_optimizer()
        stopper = (
            EarlyStopping(patience=config.patience, mode="max")
            if config.patience is not None
            else None
        )
        history: dict[str, list[float]] = {
            "epoch": [],
            "train_loss": [],
            "train_accuracy": [],
            "val_accuracy": [],
            "test_accuracy": [],
        }
        total_timer = Timer()
        epoch_timer = Timer()
        best_val = -np.inf
        best_epoch = 0
        # The upfront parameter snapshot only exists to be restored later;
        # without restore_best it would be a dead full-model deep copy.
        best_state = self.model.state_dict() if config.restore_best else None
        epochs_run = 0
        profiler = OpProfiler() if self.profile else None

        with total_timer.measure():
            for epoch in range(config.epochs):
                epochs_run = epoch + 1
                self.model.on_epoch(epoch)
                self.model.train()
                with epoch_timer.measure():
                    with profiler.activate() if profiler is not None else nullcontext():
                        optimizer.zero_grad()
                        logits = self.model(self._features)
                        loss = cross_entropy(logits, self._labels, split.train)
                        loss_value = float(loss.data)
                        if not np.isfinite(loss_value):
                            raise TrainingError(
                                f"training loss became non-finite at epoch {epoch}"
                            )
                        loss.backward()
                        with record_block("Optimizer.step"):
                            optimizer.step()

                if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
                    metrics = self.evaluate()
                    history["epoch"].append(float(epoch))
                    history["train_loss"].append(loss_value)
                    history["train_accuracy"].append(metrics["train_accuracy"])
                    history["val_accuracy"].append(metrics["val_accuracy"])
                    history["test_accuracy"].append(metrics["test_accuracy"])
                    if config.verbose:
                        logger.info(
                            "epoch %d loss %.4f val %.4f test %.4f",
                            epoch,
                            loss_value,
                            metrics["val_accuracy"],
                            metrics["test_accuracy"],
                        )
                    if metrics["val_accuracy"] > best_val:
                        best_val = metrics["val_accuracy"]
                        best_epoch = epoch
                        if config.restore_best:
                            best_state = self.model.state_dict()
                    if stopper is not None and stopper.update(
                        metrics["val_accuracy"], epoch, state=None
                    ):
                        break

        if config.restore_best and best_state is not None:
            self.model.load_state_dict(best_state)
        final = self.evaluate()
        extras: dict[str, Any] = {}
        if profiler is not None:
            # Per-op totals against the summed epoch wall-clock: the coverage
            # ratio is the profiler's own accounting check.
            extras["profile"] = profiler.summary(wall_seconds=epoch_timer.total)
        builds_hook = getattr(self.model, "dynamic_hypergraphs_built", None)
        if callable(builds_hook):
            extras["dynamic_hypergraphs_built"] = builds_hook()
        return TrainResult(
            test_accuracy=final["test_accuracy"],
            test_macro_f1=final["test_macro_f1"],
            best_val_accuracy=float(best_val if np.isfinite(best_val) else final["val_accuracy"]),
            best_epoch=int(best_epoch),
            epochs_run=epochs_run,
            train_time=total_timer.total,
            mean_epoch_time=epoch_timer.mean,
            n_parameters=self.model.num_parameters(),
            history=history,
            extras=extras,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def predict(self) -> np.ndarray:
        """Predicted class of every node (evaluation mode, no gradients)."""
        self.model.eval()
        with precision(self.config.precision), no_grad():
            logits = self.model(self._features)
        return np.argmax(logits.data, axis=1)

    def evaluate(self) -> dict[str, float]:
        """Accuracy / macro-F1 on all three splits with the current parameters."""
        predictions = self.predict()
        split = self.dataset.split
        return {
            "train_accuracy": accuracy(predictions[split.train], self._labels[split.train]),
            "val_accuracy": accuracy(predictions[split.val], self._labels[split.val]),
            "test_accuracy": accuracy(predictions[split.test], self._labels[split.test]),
            "test_macro_f1": macro_f1(
                predictions[split.test], self._labels[split.test], self.dataset.n_classes
            ),
        }

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def export_frozen(self, path: str | None = None):
        """Compile the trained DHGNN or DHGCN for serving; optionally save a bundle.

        Returns a :class:`repro.serving.FrozenModel` that serves copies of the
        trained layers through the model's own per-layer step, so its logits
        equal this trainer's evaluation forward.  With ``path`` given, each
        topology slot's k-NN index is first primed against the evaluation
        embeddings and the whole plan — weights, resolved operators,
        topology slots, index states — is written as one ``.npz`` bundle, so
        a serving process starts warm (zero k-NN distance computations before
        its first prediction) and keeps inserting nodes incrementally.  Any
        other model raises :class:`~repro.errors.ConfigurationError`.  See
        :mod:`repro.serving`.
        """
        from repro.serving import FrozenModel

        with precision(self.config.precision):
            frozen = FrozenModel.compile(
                self.model, self.dataset.features, precision=self.config.precision
            )
            if path is not None:
                frozen.prime()
                frozen.save(path)
        return frozen
