"""The persistent operator store.

:class:`OperatorStore` is a single-file (``.npz``) container for everything a
serving process needs to start *warm*:

* **keyed sparse operators** — tuple-of-builtins-keyed CSR matrices, e.g. a
  frozen model's resolved per-layer operators.  Keys round-trip through
  ``repr`` / ``ast.literal_eval``;
* **named array groups** — dense state (model weights, feature matrices,
  serialised hypergraphs, k-NN index states);
* **JSON metadata** — plan configuration, precision, provenance.

:meth:`repro.serving.FrozenModel.save` / :meth:`~repro.serving.FrozenModel.load`
bundle a compiled plan through a store, so a server restart performs
**zero** k-NN distance computations before its first prediction (asserted
via :data:`repro.hypergraph.knn.DISTANCE_COUNTERS`).
"""

from __future__ import annotations

import ast
import json
import os
import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import scipy.sparse as sp

from repro.precision import resolve_dtype

from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.metrics import get_registry
from repro.serving.faults import declare_fault_point, fault_point
from repro.utils.io import pack_csr, unpack_csr

#: Format tag written into every archive (bump on incompatible layout change).
STORE_FORMAT = "repro-operator-store/v1"

declare_fault_point("store.before_fsync", "archive assembled in the temp file")
declare_fault_point("store.before_replace", "temp archive durable, not yet visible")
declare_fault_point("store.after_replace", "new archive visible at its final path")


def pack_hypergraph(hypergraph: Hypergraph, prefix: str = "") -> dict[str, np.ndarray]:
    """Flatten a hypergraph into named arrays (inverse of :func:`unpack_hypergraph`)."""
    sizes = hypergraph.hyperedge_sizes()
    members = np.array(
        [node for edge in hypergraph.hyperedges for node in edge], dtype=np.int64
    )
    return {
        f"{prefix}n_nodes": np.asarray(hypergraph.n_nodes, dtype=np.int64),
        f"{prefix}sizes": sizes,
        f"{prefix}members": members,
        f"{prefix}weights": np.asarray(hypergraph.weights, dtype=resolve_dtype("float64")),
    }


def unpack_hypergraph(arrays: Mapping[str, np.ndarray], prefix: str = "") -> Hypergraph:
    """Rebuild a hypergraph from arrays written by :func:`pack_hypergraph`."""
    sizes = np.asarray(arrays[f"{prefix}sizes"], dtype=np.int64)
    members = np.asarray(arrays[f"{prefix}members"], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    hyperedges = [members[bounds[i] : bounds[i + 1]].tolist() for i in range(sizes.size)]
    weights = np.asarray(arrays[f"{prefix}weights"], dtype=resolve_dtype("float64"))
    return Hypergraph(
        int(arrays[f"{prefix}n_nodes"]), hyperedges, weights if weights.size else None
    )


def _validate_key_literal(key: tuple) -> str:
    """``repr`` of a key after checking it survives ``ast.literal_eval``."""
    text = repr(key)
    try:
        parsed = ast.literal_eval(text)
    except (ValueError, SyntaxError) as error:  # pragma: no cover - defensive
        raise ConfigurationError(f"operator key {key!r} is not serialisable") from error
    if parsed != key:
        raise ConfigurationError(f"operator key {key!r} does not round-trip through repr")
    return text


class OperatorStore:
    """In-memory collection of keyed operators, array groups and metadata.

    The store itself is format-agnostic state plus :meth:`save` /
    :meth:`load`, independent of what is being persisted.
    """

    def __init__(self) -> None:
        self._operators: dict[tuple, sp.csr_matrix] = {}
        self._groups: dict[str, dict[str, np.ndarray]] = {}
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Keyed operators
    # ------------------------------------------------------------------ #
    def put_operator(self, key: tuple, matrix: sp.spmatrix) -> None:
        """Store ``matrix`` (as CSR) under ``key``.

        Raises :class:`~repro.errors.ConfigurationError` for a non-tuple or
        non-round-tripping key — keys are persisted as ``repr`` literals.
        """
        if not isinstance(key, tuple):
            raise ConfigurationError(f"operator keys must be tuples, got {type(key)!r}")
        _validate_key_literal(key)
        self._operators[key] = matrix.tocsr()

    def get_operator(self, key: tuple) -> sp.csr_matrix:
        """The stored operator for ``key``; raises KeyError when absent."""
        if key not in self._operators:
            raise KeyError(f"operator store has no entry for key {key!r}")
        return self._operators[key]

    def has_operator(self, key: tuple) -> bool:
        return key in self._operators

    def operator_keys(self) -> list[tuple]:
        return list(self._operators)

    # ------------------------------------------------------------------ #
    # Array groups
    # ------------------------------------------------------------------ #
    def put_group(self, name: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Store a named group of dense arrays.

        Raises :class:`~repro.errors.ConfigurationError` when ``name``
        contains ``":"`` (reserved as the archive's key separator).
        """
        if ":" in name:
            raise ConfigurationError(f"group names must not contain ':', got {name!r}")
        self._groups[name] = {key: np.asarray(value) for key, value in arrays.items()}

    def get_group(self, name: str) -> dict[str, np.ndarray]:
        """The arrays stored under ``name``; raises KeyError when absent."""
        if name not in self._groups:
            raise KeyError(f"operator store has no group {name!r}")
        return dict(self._groups[name])

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def group_names(self) -> list[str]:
        return list(self._groups)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the store as one compressed ``.npz`` archive.

        The write is **atomic**: the archive is assembled in a temporary file
        in the destination directory and :func:`os.replace`\\ d into place, so
        a crash (or kill) mid-write can never leave a truncated, unloadable
        bundle at ``path`` — readers see either the previous complete archive
        or the new one.  A server that warm-starts from the checkpoint a
        writer process keeps republishing depends on this.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}
        operator_keys: list[str] = []
        for index, (key, matrix) in enumerate(self._operators.items()):
            operator_keys.append(_validate_key_literal(key))
            arrays.update(pack_csr(matrix, prefix=f"op{index}:"))
        for name, group in self._groups.items():
            for array_name, value in group.items():
                arrays[f"g:{name}:{array_name}"] = value
        manifest = {
            "format": STORE_FORMAT,
            "operator_keys": operator_keys,
            "groups": sorted(self._groups),
            "meta": self.meta,
        }
        arrays["__manifest__"] = np.asarray(json.dumps(manifest))
        temp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        start = time.perf_counter()
        try:
            # A file handle keeps numpy from appending a second ``.npz``.
            with open(temp, "wb") as handle:
                np.savez_compressed(handle, **arrays)
                handle.flush()
                fault_point("store.before_fsync")
                os.fsync(handle.fileno())
            fault_point("store.before_replace")
            os.replace(temp, path)
            fault_point("store.after_replace")
        finally:
            temp.unlink(missing_ok=True)
        # Histogram only — no trace span: the serving pool wraps this call
        # in its own "checkpoint" span and nested spans would double-count.
        get_registry().histogram(
            "repro_store_save_seconds", "Atomic bundle archive write latency"
        ).observe(time.perf_counter() - start)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "OperatorStore":
        """Read an archive written by :meth:`save`.

        Raises :class:`~repro.errors.ConfigurationError` when the file is
        not an operator-store archive or uses an unsupported format version.
        """
        path = Path(path)
        if not path.exists() and path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        store = cls()
        with np.load(path, allow_pickle=False) as archive:
            if "__manifest__" not in archive.files:
                raise ConfigurationError(f"{path} is not an operator-store archive")
            manifest = json.loads(str(archive["__manifest__"]))
            if manifest.get("format") != STORE_FORMAT:
                raise ConfigurationError(
                    f"unsupported operator-store format {manifest.get('format')!r}"
                )
            store.meta = manifest.get("meta", {})
            for index, key_text in enumerate(manifest["operator_keys"]):
                key = ast.literal_eval(key_text)
                store._operators[key] = unpack_csr(archive, prefix=f"op{index}:")
            for name in manifest["groups"]:
                prefix = f"g:{name}:"
                store._groups[name] = {
                    file[len(prefix):]: archive[file]
                    for file in archive.files
                    if file.startswith(prefix)
                }
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperatorStore(operators={len(self._operators)}, "
            f"groups={len(self._groups)})"
        )
