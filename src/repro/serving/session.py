"""Online inference sessions over a frozen model.

:class:`InferenceSession` answers prediction requests from a
:class:`~repro.serving.FrozenModel` and keeps serving while the node set
evolves — the **full node lifecycle**:

* **query requests** — logits / labels / embeddings for single nodes or node
  subsets.  The session runs at most one full-batch forward per topology
  generation and freezes it into an immutable :class:`Generation` (labels
  computed once); every request is a slice of that generation;
* **feature updates** — moved nodes flow into the layer-0 k-NN index's
  :meth:`~repro.hypergraph.neighbors.IncrementalBackend.update` as an
  explicit mover mask, so the next refresh re-queries only what the movement
  can have invalidated;
* **node insertion** — new nodes flow through each layer's
  :meth:`~repro.hypergraph.neighbors.IncrementalBackend.insert` (an O(m·n)
  grow-and-repair, not an O(n²) rebuild), join their nearest cluster
  hyperedge by centroid, and the static hypergraph is padded;
* **node deletion** — :meth:`delete_nodes` *tombstones* nodes lazily: at the
  next refresh they are excluded from every hyperedge (k-NN rows come from
  each index's ``delete``, an O(r·n) shrink-and-repair; cluster and
  static hyperedges are masked), so the propagation operators carry only
  isolated self-loop rows for them and they can no longer be queried — but
  the dense feature matrix keeps its size;
* **compaction** — :meth:`compact` makes deletion physical: it rebuilds the
  dense feature matrix without the tombstoned rows, shrinks the static /
  cluster hyperedges into the compact id space, cascades a per-layer
  refresh over the surviving nodes and returns the old→new id remap;
* **cluster re-assignment** — :meth:`reassign_clusters` bounds the
  frozen-membership staleness: one k-means *assignment* step (nearest
  existing centroid, no re-fit) over the current embedding re-assigns the
  cluster hyperedge memberships, either on demand or as a background policy
  every ``every_n`` refreshes.

The refresh pipeline is cascading: layer ``p``'s topology is rebuilt from the
embedding the current pass produces at depth ``p`` (training instead reuses
the previous epoch's embeddings).  Only layer 0's k-NN repair is scoped to
the mutation, because its input rows are the features themselves.  Every
deeper layer's input is the previous layer's output, and the cluster
hyperedges couple every row, so any insert, update or delete moves all of
its rows bitwise and that layer's index rebuilds its k-NN in full (under
either ``cluster_assignment`` policy).  Each layer's refreshed neighbour lists
are bit-identical (float64) to a cold rebuild of the same pipeline —
including after deletions and compactions; ``tests/test_session_histories.py``
checks this on generated operation histories.  Every refresh builds each
layer's propagation operator afresh from its pooled hypergraph.

Isolation contract: the session clones every piece of state it mutates — the
feature matrix and the plan's operator/topology slots, each slot with its own
k-NN index — so several sessions serve from one ``FrozenModel`` with
independent node sets, and none of them touches the frozen model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hypergraph.construction import hyperedges_from_neighbor_indices, union_hypergraphs
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.kmeans import assign_to_centroids
from repro.hypergraph.laplacian import (
    compactness_hyperedge_weights,
    hypergraph_propagation_operator,
)
from repro.obs.tracing import span
from repro.serving.faults import declare_fault_point, fault_point
from repro.serving.frozen import FrozenModel, TopologySlot

_OUTPUTS = ("labels", "logits", "embeddings")

declare_fault_point("session.mid_mutation", "feature state mutated, topology stale")
declare_fault_point("session.before_refresh", "start of the refresh cascade")


def _node_index(nodes: Any, context: str) -> np.ndarray:
    """``nodes`` as a 1-D ``int64`` array, rejecting non-integer dtypes.

    A bare ``np.asarray(nodes, dtype=np.int64)`` would silently truncate a
    float id like ``3.7`` to node 3 — a wrong answer, not an error.  Any
    non-integer input dtype (float, bool, strings, mixed objects) raises a
    :class:`~repro.errors.ConfigurationError` naming the offending values;
    the fractional ones are listed first when there are any.
    """
    index = np.atleast_1d(np.asarray(nodes))
    if index.size and not np.issubdtype(index.dtype, np.integer):
        offending = index
        if np.issubdtype(index.dtype, np.floating):
            fractional = index[index != np.floor(index)]
            if fractional.size:
                offending = fractional
        preview = offending.ravel()[:8].tolist()
        suffix = ", ..." if offending.size > 8 else ""
        raise ConfigurationError(
            f"{context} node ids must be integers, got dtype {index.dtype} "
            f"with values {preview}{suffix}"
        )
    return index.astype(np.int64, copy=False)


def _feature_rows(values: Any, dtype: np.dtype) -> np.ndarray:
    """``values`` as a 2-D matrix in the serving ``dtype``.

    A value too large for ``dtype`` becomes ±inf, which
    :func:`_require_finite` then refuses.
    """
    with np.errstate(over="ignore"):
        return np.atleast_2d(np.asarray(values)).astype(dtype, copy=False)


def _require_finite(values: np.ndarray, rows: np.ndarray, context: str) -> None:
    """Reject NaN and ±inf feature values, naming the offending rows.

    One non-finite value poisons every distance of its k-NN row and breaks
    the next refresh for good, so it is refused before anything is mutated.
    """
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ConfigurationError(
            f"{context} got non-finite feature values (NaN or ±inf) in rows "
            f"{rows[bad].tolist()}"
        )


def _resolve_request(
    nodes: Any, output: str, alive: np.ndarray
) -> tuple[np.ndarray | None, str, bool]:
    """Validate one query against a node set without computing anything.

    Returns ``(index, output, scalar)`` where ``index`` is ``None`` for a
    whole-set query and ``scalar`` says whether to unwrap a single row.
    Raises :class:`~repro.errors.ConfigurationError` for an unknown output
    and for non-integer, out-of-range or deleted node ids.
    """
    if output not in _OUTPUTS:
        raise ConfigurationError(f"output must be one of {_OUTPUTS}, got {output!r}")
    if nodes is None:
        return None, output, False
    index = _node_index(nodes, "predict")
    if index.size and (index.min() < 0 or index.max() >= alive.size):
        raise ConfigurationError(f"node ids must be in [0, {alive.size}), got {nodes!r}")
    dead = index[~alive[index]]
    if dead.size:
        raise ConfigurationError(f"nodes {np.unique(dead).tolist()} have been deleted")
    return index, output, bool(np.isscalar(nodes) or np.ndim(nodes) == 0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Generation:
    """One published serving state, immutable: every read is a slice of it.

    :meth:`capture` copies what a forward produced — logits, the final
    layer's input embeddings and the alive mask — and computes the argmax
    labels once.  The arrays are private and read-only, and the generation
    holds no reference to the session that produced it, so nothing the
    writer does afterwards (overwriting features in place, tombstoning,
    inserting, compacting) can change an answer.  A reader that holds a generation needs no lock:
    publishing a new one is a pointer swap (read-copy-update).
    """

    #: Which forward this is: a session numbers its forwards, a
    #: :class:`~repro.serving.SessionPool` its publishes.
    id: int
    labels: np.ndarray
    logits: np.ndarray
    embeddings: np.ndarray
    alive: np.ndarray

    @classmethod
    def capture(
        cls,
        id: int,
        logits: np.ndarray,
        embeddings: np.ndarray,
        alive: np.ndarray,
    ) -> "Generation":
        """Freeze private read-only copies of one forward's outputs."""
        return cls(
            int(id),
            _read_only(np.argmax(logits, axis=1)),
            _read_only(np.array(logits)),
            _read_only(np.array(embeddings)),
            _read_only(np.array(alive, dtype=bool)),
        )

    def answer(
        self, nodes: int | Sequence[int] | None = None, *, output: str = "labels"
    ) -> np.ndarray:
        """Predictions for ``nodes`` (``None`` = every alive node, ascending).

        ``output`` selects ``"labels"``, ``"logits"`` or ``"embeddings"``.
        Raises :class:`~repro.errors.ConfigurationError` for an unknown
        output and for non-integer, out-of-range or deleted node ids.
        """
        index, output, scalar = _resolve_request(nodes, output, self.alive)
        if output == "labels":
            full = self.labels
        elif output == "logits":
            full = self.logits
        else:
            full = self.embeddings
        if index is None:
            return full[self.alive]
        result = full[index]
        return result[0] if scalar else result


class InferenceSession:
    """Serves predictions from a frozen model with online node churn.

    Parameters
    ----------
    frozen:
        The compiled model (from :meth:`FrozenModel.compile` or
        :meth:`FrozenModel.load`).  The session clones every piece of state
        it mutates — the feature matrix and the plan's operator/topology
        slots with their k-NN indices — so the frozen model is never touched
        and several sessions can serve from one ``FrozenModel``
        independently.
    cluster_assignment:
        What inserted nodes do about the k-means cluster hyperedges:
        ``"nearest"`` (default) joins the hyperedge with the nearest centroid
        in the current embedding; ``"frozen"`` leaves the cluster hyperedges
        untouched, so new nodes connect through their k-NN hyperedges only.
        Neither keeps the refresh cascade in scope: the cluster hyperedges
        couple every row, so an insertion moves every row of the deeper
        layers' embeddings and layers ≥ 1 rebuild their k-NN in full under
        both policies; only layer 0 repairs in scope.  Both policies are
        deterministic and independent of the k-NN index's state, so a
        session and a cold rebuild agree under either.
        :meth:`reassign_clusters` additionally re-assigns *existing* members
        (either policy) to bound membership staleness.
    """

    CLUSTER_POLICIES = ("nearest", "frozen")

    def __init__(self, frozen: FrozenModel, *, cluster_assignment: str = "nearest") -> None:
        if cluster_assignment not in self.CLUSTER_POLICIES:
            raise ConfigurationError(
                f"cluster_assignment must be one of {self.CLUSTER_POLICIES}, "
                f"got {cluster_assignment!r}"
            )
        self.cluster_assignment = cluster_assignment
        self.frozen = frozen
        # Private copy (slot indices included): this session's insertions,
        # updates and deletions must not touch the frozen model's (or a
        # sibling session's) state.
        self.plan = frozen.plan.clone()
        self._features = frozen.features.copy()
        n = self._features.shape[0]
        self._moved = np.zeros(n, dtype=bool)
        self._deleted = np.zeros(n, dtype=bool)
        #: Full-space ids of the rows the slot indices' states cover (pending
        #: deletions are pushed into the indices lazily, at refresh).
        self._state_ids = np.arange(n, dtype=np.int64)
        self._inserted = 0
        #: Tombstone generation: bumped on every deletion, reset by compact.
        #: Keys the masked-hypergraph memo and the masked static operator.
        self._deleted_version = 0
        self._mask_memo: dict[Any, tuple[int, Hypergraph, Hypergraph]] = {}
        #: Tombstone generation the masked unweighted static operator was
        #: built for (``None`` while the static operator is unmasked).
        self._static_mask_version: int | None = None
        self._stale_topology = False
        self._stale_outputs = True
        self._layer_inputs: list[np.ndarray] | None = None
        self._logits: np.ndarray | None = None
        #: The frozen current forward, captured on first use after it ran.
        self._generation: Generation | None = None
        self._slots = {slot.position: slot for slot in self.plan.slots}
        self._reassign_every: int | None = None
        self._refreshes_since_reassign = 0
        self._reassign_pending = False
        self._reassign_moves = 0
        self.forwards = 0
        self.refreshes = 0
        self.compactions = 0
        self.reassignments = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Rows of the dense feature matrix (tombstoned rows included)."""
        return int(self._features.shape[0])

    @property
    def n_alive(self) -> int:
        """Nodes currently served (tombstoned rows excluded)."""
        return int(self.n_nodes - self._deleted.sum())

    @property
    def alive_ids(self) -> np.ndarray:
        """Ids of the nodes currently served, ascending."""
        return np.flatnonzero(~self._deleted)

    @property
    def features(self) -> np.ndarray:
        """Read-only view of the current serving feature matrix."""
        view = self._features.view()
        view.setflags(write=False)
        return view

    def stats(self) -> dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "n_alive": self.n_alive,
            "tombstones": int(self._deleted.sum()),
            "forwards": self.forwards,
            "refreshes": self.refreshes,
            "compactions": self.compactions,
            "reassignments": self.reassignments,
            # One entry per dynamic layer: its k-NN index's counters.
            "neighbors": [
                {"layer": slot.position, **slot.index.stats()} for slot in self.plan.slots
            ],
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _validate_request(self, nodes: Any, output: str) -> None:
        """Reject a bad query against the current node set, computing nothing.

        Validation needs no refresh: the node set and tombstones only change
        through mutations, never through the refresh itself — so a bad
        request never pays for a pending refresh.
        """
        _resolve_request(nodes, output, ~self._deleted)

    def generation(self) -> Generation:
        """The immutable :class:`Generation` of the current state.

        Runs the pending refresh (or plain forward) first, then
        freezes it once; until the next mutation every call returns the same
        object.  :class:`~repro.serving.SessionPool` publishes exactly this.
        """
        self._ensure_fresh()
        if self._generation is None:
            self._generation = Generation.capture(
                self.forwards, self._logits, self._layer_inputs[-1], ~self._deleted
            )
        return self._generation

    def predict(
        self, nodes: int | Sequence[int] | None = None, *, output: str = "labels"
    ) -> np.ndarray:
        """Predictions for ``nodes`` (``None`` = every alive node).

        ``output`` selects ``"labels"`` (argmax class ids), ``"logits"`` or
        ``"embeddings"`` (the final layer's input representation).  Requests
        between mutations are slices of one :class:`Generation`.  Deleted and
        non-integer node ids raise :class:`~repro.errors.ConfigurationError`;
        with ``None`` the rows follow :attr:`alive_ids` order.
        """
        if self._stale_outputs:
            self._validate_request(nodes, output)
        return self.generation().answer(nodes, output=output)

    @staticmethod
    def _parse_request(request: Mapping[str, Any] | Sequence[int] | None) -> tuple[Any, str]:
        """Split a batch entry into its ``(nodes, output)`` pair."""
        if isinstance(request, Mapping):
            return request.get("nodes"), request.get("output", "labels")
        return request, "labels"

    def predict_batch(
        self,
        requests: Iterable[Mapping[str, Any] | Sequence[int] | None],
        *,
        on_error: str = "raise",
    ) -> list[np.ndarray | ConfigurationError]:
        """Several requests answered from one :class:`Generation`.

        Each request is either a node subset (sequence / ``None`` for all) or
        a mapping ``{"nodes": ..., "output": ...}``.  Every request is
        validated **up front**, before anything is computed, so one bad entry
        (deleted / out-of-range / non-integer id, unknown output) can never
        poison a half-evaluated batch.  With ``on_error="raise"`` (default)
        the first invalid request raises; with ``on_error="return"`` the
        result list carries the :class:`~repro.errors.ConfigurationError`
        itself at that request's position while every valid entry is still
        answered.
        """
        if on_error not in ("raise", "return"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'return', got {on_error!r}"
            )
        parsed = [self._parse_request(request) for request in requests]
        errors: list[ConfigurationError | None] = []
        for nodes, output in parsed:
            try:
                self._validate_request(nodes, output)
                errors.append(None)
            except ConfigurationError as error:
                if on_error == "raise":
                    raise
                errors.append(error)
        if all(errors):
            return errors
        generation = self.generation()
        return [
            generation.answer(nodes, output=output) if error is None else error
            for (nodes, output), error in zip(parsed, errors)
        ]

    # ------------------------------------------------------------------ #
    # Online mutation
    # ------------------------------------------------------------------ #
    def _validate_mutation_ids(self, index: np.ndarray, context: str) -> None:
        """Shared range / duplicate / tombstone validation of mutation ids."""
        if index.min() < 0 or index.max() >= self.n_nodes:
            raise ConfigurationError(f"node ids must be in [0, {self.n_nodes})")
        unique, counts = np.unique(index, return_counts=True)
        if unique.size != index.size:
            raise ConfigurationError(
                f"{context} got duplicate node ids {unique[counts > 1].tolist()}; "
                f"each id may appear at most once per call"
            )
        dead = index[self._deleted[index]]
        if dead.size:
            raise ConfigurationError(
                f"nodes {np.unique(dead).tolist()} have already been deleted"
            )

    def update_features(self, node_ids: Sequence[int], values: np.ndarray) -> None:
        """Overwrite the features of existing nodes (marks them as movers).

        An empty ``node_ids`` is a no-op (in particular it does not mark the
        topology stale).  Duplicate ids, tombstoned targets and non-finite
        values raise :class:`~repro.errors.ConfigurationError` before
        anything changes.
        """
        index = _node_index(node_ids, "update_features")
        values = _feature_rows(values, self.frozen.dtype)
        if index.size == 0 and values.size == 0:
            return
        if index.size:
            self._validate_mutation_ids(index, "update_features")
        if values.shape != (index.size, self._features.shape[1]):
            raise ConfigurationError(
                f"values must have shape {(index.size, self._features.shape[1])}, "
                f"got {values.shape}"
            )
        _require_finite(values, index, "update_features")
        self._features[index] = values
        self._moved[index] = True
        fault_point("session.mid_mutation")
        self._mark_stale()

    def insert_nodes(self, new_features: np.ndarray) -> np.ndarray:
        """Append new nodes; returns their ids.

        The nodes become visible to :meth:`predict` after the next (lazy)
        refresh: their k-NN hyperedges come from each layer index's
        ``insert``, they join the nearest cluster
        hyperedge by centroid, and the static hypergraph is padded (new nodes
        are isolated there, receiving operator self-loops).  An empty matrix
        is a no-op.  Raises :class:`~repro.errors.ConfigurationError` for a
        feature-dimension mismatch or non-finite values (rows numbered
        within ``new_features``), before anything changes.
        """
        new_features = _feature_rows(new_features, self.frozen.dtype)
        if new_features.size == 0:
            return np.empty(0, dtype=np.int64)
        if new_features.shape[1] != self._features.shape[1]:
            raise ConfigurationError(
                f"new features must have {self._features.shape[1]} columns, "
                f"got {new_features.shape[1]}"
            )
        _require_finite(new_features, np.arange(new_features.shape[0]), "insert_nodes")
        first = self.n_nodes
        self._features = np.vstack([self._features, new_features])
        self._moved = np.concatenate(
            [self._moved, np.zeros(new_features.shape[0], dtype=bool)]
        )
        self._deleted = np.concatenate(
            [self._deleted, np.zeros(new_features.shape[0], dtype=bool)]
        )
        self._inserted += new_features.shape[0]
        fault_point("session.mid_mutation")
        self._mark_stale()
        return np.arange(first, self.n_nodes, dtype=np.int64)

    def delete_nodes(self, node_ids: Sequence[int]) -> None:
        """Tombstone nodes: they leave every hyperedge at the next refresh.

        Deletion is lazy — the dense feature matrix keeps its size and the
        tombstoned rows merely become invisible: excluded from the k-NN,
        cluster and static hyperedges (so the refreshed propagation operators
        carry only isolated self-loop rows for them), rejected by
        :meth:`predict`/:meth:`update_features`, and skipped by every
        whole-set query.  Each layer's k-NN index shrinks its state through
        its ``delete`` (O(r·n), exactly re-querying only rows whose
        neighbour list contained a deleted node).
        Call :meth:`compact` to reclaim the memory and re-number the ids.

        An empty ``node_ids`` is a no-op; duplicate, out-of-range and
        already-deleted ids raise
        :class:`~repro.errors.ConfigurationError`, as does deleting so many
        nodes that fewer than two would survive.
        """
        index = _node_index(node_ids, "delete_nodes")
        if index.size == 0:
            return
        self._validate_mutation_ids(index, "delete_nodes")
        if self.n_alive - index.size < 2:
            raise ConfigurationError(
                f"deleting {index.size} nodes would leave fewer than 2 alive "
                f"(currently {self.n_alive})"
            )
        self._deleted[index] = True
        # A tombstoned mover no longer needs repair work.
        self._moved[index] = False
        self._deleted_version += 1
        self._mark_stale()

    def compact(self) -> np.ndarray:
        """Make deletions physical; returns the old→new id remap.

        Flushes any pending mutations through the normal (tombstone-aware)
        refresh, then rebuilds the dense feature matrix without the deleted
        rows, shrinks the operators, the static and the cluster hyperedges
        into the compact id space and cascades a per-layer refresh over the
        surviving nodes.  The layer-0 index re-queries nothing; the
        shrunken-matrix forward reproduces the deeper embeddings only to
        rounding, not bitwise (dense BLAS blocks by matrix size), and every
        bit-level difference counts as a mover, so layers ≥ 1 rebuild their
        k-NN in full.

        Returns an ``int64`` array of length *old* ``n_nodes`` mapping every
        old id to its new id (``-1`` for deleted rows) — the identity when
        nothing was tombstoned, in which case the call is a no-op.
        """
        self._ensure_fresh()
        n_old = self.n_nodes
        alive = np.flatnonzero(~self._deleted)
        remap = np.full(n_old, -1, dtype=np.int64)
        remap[alive] = np.arange(alive.size, dtype=np.int64)
        if alive.size == n_old:
            return remap
        plan = self.plan

        def shrink(operator):
            # Pure row/column selection: deleted rows are isolated self-loops
            # by now, so the surviving block is value-identical to an
            # operator built over the compacted hypergraph.
            return None if operator is None else operator[alive][:, alive].tocsr()

        plan.operators = [shrink(op) for op in plan.operators]
        # DHGCN's static channel (DHGNN plans have none: these stay None).
        plan.static_operator = shrink(plan.static_operator)
        plan.reweighted_static = None
        if plan.static_hypergraph is not None:
            plan.static_hypergraph = plan.static_hypergraph.subhypergraph(alive)
        for slot in self._slots.values():
            slot.cluster_members = [
                mapped[mapped >= 0]
                for mapped in (remap[members] for members in slot.cluster_members)
            ]
            if slot.static_part is not None:
                slot.static_part = slot.static_part.subhypergraph(alive)

        self._features = self._features[alive]
        self._moved = self._moved[alive]
        self._deleted = np.zeros(alive.size, dtype=bool)
        self._deleted_version = 0
        self._mask_memo.clear()
        self._static_mask_version = None
        # The tombstone refresh above already shrank the index states, so
        # the tracked rows are exactly the survivors — re-number them.
        self._state_ids = remap[self._state_ids]
        self._mark_stale()
        self._refresh()
        self.compactions += 1
        return remap

    def reassign_clusters(self, *, every_n: int | None = None) -> int | None:
        """Re-assign cluster hyperedge memberships by nearest centroid.

        One k-means *assignment* step per slot over the embedding the refresh
        cascade produces at that slot's depth: centroids come from the
        current (surviving) memberships, every alive node then joins the
        hyperedge of its nearest centroid — no Lloyd re-fit, deterministic,
        independent of the k-NN index's state.  This bounds the
        frozen-membership staleness the
        compile-time export documents: without it, cluster hyperedges only
        ever *grow* (insertions) or *shrink* (deletions) and existing members
        never move even when the embedding drifts.

        With ``every_n=None`` (default) one re-assignment runs immediately
        (forcing a refresh) and the number of membership moves across all
        slots is returned.  With ``every_n=k`` a background policy is
        installed instead: every ``k``-th topology refresh — refreshes happen
        on mutation, so an idle session stays untouched — includes a
        re-assignment pass; returns ``None``.  ``every_n=0`` clears the
        policy.  Raises :class:`~repro.errors.ConfigurationError` for a
        negative ``every_n``.
        """
        if every_n is not None:
            if every_n < 0:
                raise ConfigurationError(f"every_n must be >= 0, got {every_n}")
            self._reassign_every = int(every_n) or None
            self._refreshes_since_reassign = 0
            return None
        self._reassign_pending = True
        self._mark_stale()
        self._ensure_fresh()
        return self._reassign_moves

    def to_frozen(self) -> FrozenModel:
        """Snapshot the session's current state as a new :class:`FrozenModel`.

        The node-lifecycle round-trip: a long-running session that has
        inserted, updated, deleted and compacted nodes is frozen back into a
        bundleable model — ``session.to_frozen().save(path)`` persists the
        current features, refreshed operators, topology parts and k-NN index
        states, and a session loaded from that bundle answers
        bit-identically with zero k-NN distance computations.  Requires a
        compacted session (tombstones are session-internal laziness, not a
        bundleable state) — a session holding tombstones raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if self._deleted.any():
            raise ConfigurationError(
                "compact() the session before to_frozen(): tombstoned rows "
                "cannot be bundled"
            )
        self._ensure_fresh()
        return FrozenModel(
            self.plan.clone(),
            self._features.copy(),
            self.frozen.precision_name,
            meta=dict(self.frozen.meta),
        )

    # ------------------------------------------------------------------ #
    # Refresh pipeline
    # ------------------------------------------------------------------ #
    def _mark_stale(self) -> None:
        self._stale_outputs = True
        self._stale_topology = True

    def _ensure_fresh(self) -> None:
        if self._stale_topology:
            self._refresh()
        elif self._stale_outputs:
            with span("forward"):
                self._layer_inputs, self._logits = self.plan.run(self._features)
            self._generation = None
            self.forwards += 1
            self._stale_outputs = False

    def _refresh(self) -> None:
        """Scoped topology refresh + forward, cascading through the layers."""
        fault_point("session.before_refresh")
        plan = self.plan
        n = self.n_nodes
        alive = self.alive_ids
        self._sync_index_deletions()
        reassign = self._reassign_pending
        if self._reassign_every is not None:
            self._refreshes_since_reassign += 1
            if self._refreshes_since_reassign >= self._reassign_every:
                reassign = True
        if reassign:
            self._reassign_moves = 0
            self._refreshes_since_reassign = 0
            self._reassign_pending = False
        self._refresh_dhgcn_static(n)
        hidden = self._features
        layer_inputs: list[np.ndarray] = []
        for position in range(plan.n_layers):
            layer_inputs.append(hidden)
            slot = self._slots.get(position)
            if slot is not None:
                self._refresh_slot(slot, hidden, alive, reassign)
            with span("forward"):
                hidden = plan.apply_layer(position, hidden)
        self._layer_inputs = layer_inputs
        self._logits = hidden
        self._generation = None
        self._moved[:] = False
        self._inserted = 0
        self._state_ids = alive
        self._stale_topology = False
        self._stale_outputs = False
        self.refreshes += 1
        self.forwards += 1
        if reassign:
            self.reassignments += 1

    def _sync_index_deletions(self) -> None:
        """Push pending tombstones into every slot index's state."""
        keep = ~self._deleted[self._state_ids]
        if keep.all():
            return
        for slot in self.plan.slots:
            slot.index.delete(keep)
        self._state_ids = self._state_ids[keep]

    def _mask_hypergraph(self, hypergraph: Hypergraph) -> Hypergraph:
        """``hypergraph`` with tombstoned members removed (same node count).

        Hyperedges left with fewer than two survivors are dropped — the same
        rule :meth:`Hypergraph.subhypergraph` applies at compaction, so a
        tombstoned and a compacted session build corresponding topologies.
        """
        edges: list[list[int]] = []
        weights: list[float] = []
        deleted = self._deleted
        for edge, weight in zip(hypergraph.hyperedges, hypergraph.weights):
            members = [node for node in edge if not deleted[node]]
            if len(members) >= 2:
                edges.append(members)
                weights.append(float(weight))
        return Hypergraph(hypergraph.n_nodes, edges, weights or None)

    def _masked_cached(self, key: Any, hypergraph: Hypergraph) -> Hypergraph:
        """Masked view of ``hypergraph``, memoised per tombstone generation.

        The tombstone set only changes through :meth:`delete_nodes` /
        :meth:`compact`, so refreshes between deletions (feature-update
        traffic) reuse one masked structure instead of re-filtering every
        hyperedge per refresh.
        """
        entry = self._mask_memo.get(key)
        if (
            entry is not None
            and entry[0] == self._deleted_version
            and entry[1] is hypergraph
        ):
            return entry[2]
        masked = self._mask_hypergraph(hypergraph)
        self._mask_memo[key] = (self._deleted_version, hypergraph, masked)
        return masked

    def _neighbor_rows(self, slot: TopologySlot, embedding: np.ndarray, k: int) -> np.ndarray:
        """(n_alive, k) neighbour lists; ``embedding`` holds alive rows only."""
        index = slot.index
        if self._inserted:
            # Grow the slot's state by the appended rows — O(m·n) exact
            # repair instead of a full rebuild (falls back automatically past
            # the index's churn threshold).
            index.insert(embedding)
        if slot.position == 0:
            moved = self._moved[~self._deleted]
            if moved.any():
                try:
                    return index.update(moved, embedding)
                except ConfigurationError:
                    # No prior state of this shape — cold start below.
                    pass
        return index.query(embedding, k)

    def _refresh_slot(
        self,
        slot: TopologySlot,
        embedding: np.ndarray,
        alive: np.ndarray,
        reassign: bool,
    ) -> None:
        n = embedding.shape[0]
        masked = alive.size != n
        parts: list[Hypergraph] = []
        if slot.use_knn:
            k = min(slot.k_neighbors, max(alive.size - 1, 1))
            with span("knn"):
                rows = self._neighbor_rows(
                    slot, embedding[alive] if masked else embedding, k
                )
            parts.append(
                hyperedges_from_neighbor_indices(
                    rows, node_ids=alive if masked else None, n_nodes=n
                )
            )
        if slot.cluster_members:
            if reassign:
                self._reassign_slot_clusters(slot, embedding, alive)
            elif self._inserted and self.cluster_assignment == "nearest":
                self._assign_new_to_clusters(slot, embedding)
            members = slot.cluster_members
            if masked:
                members = [m[~self._deleted[m]] for m in members]
            edges = [m.tolist() for m in members if m.size >= 2]
            if edges:
                parts.append(Hypergraph(n, edges))
        if slot.static_part is not None:
            if slot.static_part.n_nodes != n:
                slot.static_part = Hypergraph(
                    n, slot.static_part.hyperedges, slot.static_part.weights
                )
            parts.append(
                self._masked_cached(("slot", slot.position), slot.static_part)
                if masked
                else slot.static_part
            )
        pooled = union_hypergraphs(*parts) if parts else Hypergraph.empty(n)
        if slot.weighted and pooled.n_hyperedges > 0:
            weights = compactness_hyperedge_weights(
                pooled, embedding, temperature=slot.temperature
            )
            pooled = pooled.with_weights(weights)
        with span("operator"):
            operator = hypergraph_propagation_operator(pooled, dtype=self.frozen.dtype)
        slot.hypergraph = pooled
        self.plan.set_operator(slot.position, operator)

    def _cluster_centroids(
        self, slot: TopologySlot, embedding: np.ndarray
    ) -> tuple[list[int], np.ndarray | None]:
        """Surviving-member centroids of the currently occupied clusters."""
        current = [members[~self._deleted[members]] for members in slot.cluster_members]
        occupied = [index for index, members in enumerate(current) if members.size]
        if not occupied:
            return occupied, None
        centroids = np.stack(
            [embedding[current[index]].mean(axis=0) for index in occupied]
        )
        return occupied, centroids

    def _assign_new_to_clusters(self, slot: TopologySlot, embedding: np.ndarray) -> None:
        """New nodes join the cluster hyperedge with the nearest centroid.

        Centroids are recomputed in the *current* embedding; existing members
        are never re-assigned here (that is :meth:`reassign_clusters`'s job).
        Deterministic and independent of the k-NN index's state, so a
        session and a cold rebuild agree.
        """
        n = embedding.shape[0]
        new_ids = np.arange(n - self._inserted, n, dtype=np.int64)
        new_ids = new_ids[~self._deleted[new_ids]]
        if new_ids.size == 0:
            return
        occupied, centroids = self._cluster_centroids(slot, embedding)
        if centroids is None:
            return
        nearest = assign_to_centroids(embedding[new_ids], centroids)
        for node, choice in zip(new_ids, nearest):
            cluster = occupied[choice]
            slot.cluster_members[cluster] = np.append(slot.cluster_members[cluster], node)

    def _reassign_slot_clusters(
        self, slot: TopologySlot, embedding: np.ndarray, alive: np.ndarray
    ) -> None:
        """One nearest-centroid assignment step over this layer's embedding."""
        occupied, centroids = self._cluster_centroids(slot, embedding)
        if centroids is None:
            return
        labels = assign_to_centroids(embedding[alive], centroids)
        previous = np.full(self.n_nodes, -1, dtype=np.int64)
        for index, members in enumerate(slot.cluster_members):
            previous[members] = index
        members = [np.empty(0, dtype=np.int64) for _ in slot.cluster_members]
        moves = 0
        for position, index in enumerate(occupied):
            chosen = alive[labels == position]
            members[index] = chosen
            moves += int((previous[chosen] != index).sum())
        slot.cluster_members = members
        self._reassign_moves += moves

    def _refresh_dhgcn_static(self, n: int) -> None:
        """Pad, tombstone-mask and (when enabled) reweight DHGCN's static channel.

        A no-op for plans without one (DHGNN's static hyperedges live in its
        slots).
        """
        plan = self.plan
        if plan.static_hypergraph is None:
            return
        if plan.static_hypergraph.n_nodes != n:
            plan.static_hypergraph = Hypergraph(
                n, plan.static_hypergraph.hyperedges, plan.static_hypergraph.weights
            )
        masked = bool(self._deleted.any())
        static = (
            self._masked_cached(("static",), plan.static_hypergraph)
            if masked
            else plan.static_hypergraph
        )
        if not plan.use_edge_weighting or static.n_hyperedges == 0:
            # The unweighted static operator only changes with the node count
            # and the tombstone set: rebuild it when either moved since it
            # was last built, and never between deletions.
            version = self._deleted_version if masked else None
            if (
                plan.static_operator is None
                or plan.static_operator.shape[0] != n
                or version != self._static_mask_version
            ):
                with span("operator"):
                    plan.static_operator = hypergraph_propagation_operator(
                        static, dtype=self.frozen.dtype
                    )
                self._static_mask_version = version
            return
        # The reweighting reference is always recomputed with a baseline
        # forward over the pre-insertion rows (current features, current
        # operators) — the serving analogue of training's "deepest embedding
        # of the previous pass", and deliberately independent of whether a
        # cached forward happens to exist, so identical mutation sequences
        # give identical logits regardless of interleaved predict() calls.
        with span("forward"):
            baseline_inputs, _ = plan.run(self._features[: n - self._inserted])
        reference = baseline_inputs[-1]
        if reference.shape[0] != n:
            # New nodes belong to no static hyperedge; their (padding) rows
            # never enter a compactness spread.
            padding = np.zeros((n - reference.shape[0], reference.shape[1]), reference.dtype)
            reference = np.vstack([reference, padding])
        weights = compactness_hyperedge_weights(
            static, reference, temperature=plan.weight_temperature
        )
        plan.reweighted_static = static.with_weights(weights)
        with span("operator"):
            plan.static_operator = hypergraph_propagation_operator(
                plan.reweighted_static, dtype=self.frozen.dtype
            )
