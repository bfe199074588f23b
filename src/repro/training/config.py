"""Training-loop configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.precision import SUPPORTED_PRECISIONS

_OPTIMIZERS = ("adam", "adamw", "sgd")
#: Values :attr:`TrainConfig.neighbor_backend` still accepts; all mean the
#: same thing.
_NEIGHBOR_BACKENDS = (None, "exact", "incremental")


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of :class:`repro.training.Trainer`.

    Attributes
    ----------
    epochs:
        Maximum number of training epochs.
    lr / weight_decay:
        Optimiser learning rate and L2 regularisation strength.
    optimizer:
        ``"adam"`` (default, the standard choice of the GNN literature),
        ``"adamw"`` or ``"sgd"``.
    momentum:
        Momentum when ``optimizer="sgd"``.
    patience:
        Early-stopping patience on validation accuracy; ``None`` disables
        early stopping.
    eval_every:
        Evaluate on the validation/test splits every this many epochs.
    restore_best:
        Reload the parameters of the best validation epoch before the final
        test evaluation.
    precision:
        Floating-point policy of the run (:mod:`repro.precision`):
        ``"float64"`` (default, bit-exact reproduction) or ``"float32"``
        (fast path — parameters, activations, gradients, optimizer state and
        cached operators all stored at half the bandwidth).
    neighbor_backend:
        Selects nothing: every dynamic layer owns one exact incremental k-NN
        index.  ``None``, ``"exact"`` and ``"incremental"`` are accepted for
        existing callers and mean the same thing; anything else raises
        :class:`~repro.errors.ConfigurationError`.
    verbose:
        Log progress through the library logger.
    """

    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    optimizer: str = "adam"
    momentum: float = 0.9
    patience: int | None = 50
    eval_every: int = 1
    restore_best: bool = True
    precision: str = "float64"
    neighbor_backend: str | None = None
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigurationError(f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience is not None and self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1 or None, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.precision not in SUPPORTED_PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {SUPPORTED_PRECISIONS}, got {self.precision!r}"
            )
        if self.neighbor_backend not in _NEIGHBOR_BACKENDS:
            raise ConfigurationError(
                f"neighbor_backend must be one of {_NEIGHBOR_BACKENDS}, "
                f"got {self.neighbor_backend!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
