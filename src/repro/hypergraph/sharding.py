"""Cluster-sharded neighbour search for the large-``n`` serving regime.

Every backend in :mod:`repro.hypergraph.neighbors` treats the node set as one
monolithic block: a full rebuild is one O(n²) pass and even the incremental
backend's scoped repair re-queries invalidated rows against *all* ``n``
points.  This module partitions the node set by k-means cluster into a
:class:`ShardMap` and gives each shard its own candidate state, turning the
unit of repair work from "the whole node set" into "one shard":

* a deleted node only invalidates rows whose cached candidate list for *that
  shard* contained it, and those rows re-rank only that shard's members —
  O(r_s·|s|) instead of O(r·n);
* an inserted node is assigned to its nearest shard centroid and merged into
  every row's candidate list for that one shard — no other shard moves;
* a full rebuild decomposes into independent per-shard passes over disjoint
  corpus slices, which is what makes multiprocess parallel refresh possible
  (``workers=...``) — shards share no state until the final merge.

Exactness is *not* traded away.  :class:`ShardedBackend` computes, per shard,
every query row's top ``t = min(k + 1, |shard|)`` members with the shared
kernel (:func:`repro.hypergraph.knn.knn_against_corpus`), then merges the
per-shard lists with the documented deterministic ``(distance, node_index)``
tie-break.  The union of per-shard top-``t`` lists provably contains the
global top-``k`` (a true neighbour in shard ``s`` ranks at worst ``k + 1``-th
within ``s``, counting the query itself), so the merge is **bit-identical to
the unsharded exact backend** for the float64 kernel — cdist computes each
pair independently of slab shape, hence shard membership can never change a
distance value, only how the work is scheduled.  The float32 kernel
mean-centres on its operand set, so per-shard slabs are *not*
substitution-safe; float32 queries fall back to the exact full kernel
(documented, same policy as the incremental backend's float32 deletion path).
The contract is pinned per-backend by ``tests/test_neighbor_backends.py`` —
registering under ``"sharded"`` below opts this backend into the whole suite.

Because results are partition-independent, the shard map is purely an
operational knob: rebalancing (``set_shard_map``) can never change an answer,
only the cost profile.  The serving layer persists the map in the bundle meta
(:class:`repro.serving.ShardedSession`) and rebalances it on ``compact()``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.hypergraph import knn as _knn
from repro.hypergraph.kmeans import assign_to_centroids, kmeans
from repro.hypergraph.neighbors import NeighborBackend, register_neighbor_backend


class ShardMap:
    """A partition of ``n`` nodes into ``n_shards`` k-means cells.

    ``assignment`` maps every node to its shard; ``centroids`` are the cell
    centres new nodes are routed by (nearest centroid, ties to the lowest
    shard index — the determinism of
    :func:`repro.hypergraph.kmeans.assign_to_centroids`).  The map is a plain
    value object: methods return new maps, the arrays are never mutated in
    place, and :meth:`to_meta`/:meth:`from_meta` round-trip it through the
    JSON meta block of a serving bundle.
    """

    __slots__ = ("assignment", "centroids")

    def __init__(self, assignment: np.ndarray, centroids: np.ndarray) -> None:
        assignment = np.asarray(assignment, dtype=np.int64)
        centroids = np.asarray(centroids, dtype=np.float64)
        if assignment.ndim != 1:
            raise ShapeError(f"assignment must be 1-D, got shape {assignment.shape}")
        if centroids.ndim != 2 or centroids.shape[0] < 1:
            raise ShapeError(
                f"centroids must be a non-empty 2-D array, got shape {centroids.shape}"
            )
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= centroids.shape[0]
        ):
            raise ConfigurationError(
                f"assignment labels must be in [0, {centroids.shape[0]}), "
                f"got range [{assignment.min()}, {assignment.max()}]"
            )
        self.assignment = assignment
        self.centroids = centroids

    @property
    def n_nodes(self) -> int:
        return int(self.assignment.size)

    @property
    def n_shards(self) -> int:
        return int(self.centroids.shape[0])

    def sizes(self) -> np.ndarray:
        """``(n_shards,)`` member counts."""
        return np.bincount(self.assignment, minlength=self.n_shards)

    def members(self, shard: int) -> np.ndarray:
        """Sorted global node ids of one shard (``np.flatnonzero`` order —
        the strictly increasing corpus ids the merge tie-break relies on)."""
        return np.flatnonzero(self.assignment == shard)

    def assign(self, features: np.ndarray) -> np.ndarray:
        """Route new rows to shards by nearest centroid."""
        features = np.asarray(features, dtype=np.float64)
        return assign_to_centroids(features, self.centroids)

    def extend(self, features: np.ndarray) -> "ShardMap":
        """New map with ``features``' rows appended (routed by centroid)."""
        return ShardMap(
            np.concatenate([self.assignment, self.assign(features)]), self.centroids
        )

    def shrink(self, keep_mask: np.ndarray) -> "ShardMap":
        """New map restricted to the kept rows (centroids unchanged)."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n_nodes,):
            raise ShapeError(
                f"keep_mask must have shape ({self.n_nodes},), got {keep_mask.shape}"
            )
        return ShardMap(self.assignment[keep_mask], self.centroids)

    def to_meta(self) -> dict:
        """JSON-serialisable form (bundle meta block)."""
        return {
            "assignment": self.assignment.tolist(),
            "centroids": self.centroids.tolist(),
        }

    @classmethod
    def from_meta(cls, meta: Mapping) -> "ShardMap":
        return cls(
            np.asarray(meta["assignment"], dtype=np.int64),
            np.asarray(meta["centroids"], dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardMap(n_nodes={self.n_nodes}, n_shards={self.n_shards})"


def make_shard_map(features: np.ndarray, n_shards: int, *, seed: int = 0) -> ShardMap:
    """Partition ``features``' rows into ``n_shards`` k-means cells.

    Deterministic given ``seed`` (k-means++ init + Lloyd, see
    :func:`repro.hypergraph.kmeans.kmeans`).  ``n_shards`` is clamped to the
    population, so a tiny node set simply gets fewer shards.  Shard membership
    never affects query results (see the module docstring), so the partition
    quality only matters for load balance.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    features = np.asarray(_knn.as_feature_matrix(features), dtype=np.float64)
    if features.shape[0] < 1:
        raise ValueError("cannot build a shard map over an empty feature matrix")
    result = kmeans(features, min(int(n_shards), features.shape[0]), seed=seed)
    return ShardMap(result.labels, result.centroids)


def _shard_candidates_worker(
    queries: np.ndarray,
    corpus: np.ndarray,
    corpus_ids: np.ndarray,
    t: int,
    metric: str,
    block_size: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-shard top-``t`` pass, picklable for the process pool.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can ship
    it; shards are disjoint corpus slices, so workers share nothing.
    """
    return _knn.knn_against_corpus(
        queries, corpus, t, metric=metric, block_size=block_size, corpus_ids=corpus_ids
    )


class ShardedBackend(NeighborBackend):
    """Exact k-NN over a cluster-sharded node set (see the module docstring).

    The backend keeps up to :attr:`max_states` cached states (LRU), one per
    query stream, exactly like :class:`~.neighbors.IncrementalBackend` — but
    each state decomposes into per-shard candidate lists: for every query row
    and shard ``s`` the top ``t_s = min(k + 1, |s|)`` members of ``s`` by
    ``(distance, id)``.  A query with zero movers is a pure merge (one
    lexsort over ``Σ t_s ≈ n_shards·(k+1)`` columns, no distance work); node
    churn repairs only the shards it touches:

    * **movers** re-rank every shard (their whole view changed), and a
      non-mover row re-ranks shard ``s`` only if its ``s``-list contains a
      mover from ``s`` or a mover from ``s`` lands at/inside its ``t_s``-th
      radius (the same epsilon-margined boundary test the incremental
      backend uses);
    * **insert** routes new rows to their nearest shard centroid and merges
      the new members' distance columns into the existing lists of that one
      shard (``t_s`` already saturated at ``k + 1``) or re-ranks that shard
      when it was smaller than ``k + 1``;
    * **delete** remaps ids and re-ranks, per shard, only the rows whose
      list for that shard lost a member — distances between float64
      survivors are removal-invariant, so everyone else keeps their list.

    The backend carries no tolerance knob: it is always exact, which is what
    makes shard rebalancing a pure cost decision.  ``workers`` opts the
    full-rebuild path into a process pool (one task per shard); everything
    else is serial — the asymptotic win comes from scoping, not cores.
    """

    name = "sharded"

    DEFAULT_N_SHARDS = 4
    #: Mover/churn fraction beyond which a full rebuild beats partial repair
    #: (same rationale and default as the incremental backend).
    DEFAULT_CHURN_THRESHOLD = 0.35
    #: Cached states allowed per signature (mirrors IncrementalBackend).
    MAX_STATES_PER_SIGNATURE = 3

    def __init__(
        self,
        *,
        n_shards: int = DEFAULT_N_SHARDS,
        shard_map: ShardMap | None = None,
        seed: int = 0,
        churn_threshold: float = DEFAULT_CHURN_THRESHOLD,
        block_size: int | None = None,
        max_states: int = 8,
        workers: int | None = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if not 0.0 < churn_threshold <= 1.0:
            raise ConfigurationError(
                f"churn_threshold must be in (0, 1], got {churn_threshold}"
            )
        if max_states < 1:
            raise ConfigurationError(f"max_states must be >= 1, got {max_states}")
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1 or None, got {workers}")
        self.n_shards = int(n_shards)
        self.shard_map = shard_map
        self.seed = int(seed)
        self.churn_threshold = float(churn_threshold)
        self.block_size = block_size
        self.max_states = int(max_states)
        self.workers = None if workers is None else int(workers)
        #: Diagnostics (same vocabulary as the incremental backend, plus the
        #: per-shard re-rank counter).
        self.full_rebuilds = 0
        self.partial_refreshes = 0
        self.rows_requeried = 0
        self.shard_requeries = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.rebalances = 0
        self.repair_calls = 0
        self._states: list[dict] = []
        self._pool = None

    # ------------------------------------------------------------------ #
    # Housekeeping
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self._states.clear()

    def cache_key(self) -> tuple[Hashable, ...]:
        return (self.name, self.n_shards, self.seed)

    def stats(self) -> dict[str, int]:
        return {
            "n_shards": self.n_shards,
            "shard_sizes": (
                self.shard_map.sizes().tolist() if self.shard_map is not None else []
            ),
            "full_rebuilds": self.full_rebuilds,
            "partial_refreshes": self.partial_refreshes,
            "rows_requeried": self.rows_requeried,
            "shard_requeries": self.shard_requeries,
            "rows_inserted": self.rows_inserted,
            "rows_deleted": self.rows_deleted,
            "rebalances": self.rebalances,
            "repair_calls": self.repair_calls,
            # Shards touched per mover repair — the routing fan-out of one
            # mutation (n_shards means every repair re-ranked everywhere).
            "mean_repair_fanout": (
                round(self.shard_requeries / self.repair_calls, 3)
                if self.repair_calls
                else 0.0
            ),
            "states": len(self._states),
        }

    def set_shard_map(self, shard_map: ShardMap | None, *, drop_states: bool = True) -> None:
        """Install a new partition (a *rebalance*).

        Cached candidate lists are scoped to the old cells, so by default the
        states are dropped and the next query of each stream performs one
        clean (parallelisable) full rebuild.  Results are unchanged either
        way — only the cost profile moves.
        """
        self.shard_map = shard_map
        if drop_states:
            self._states.clear()
        self.rebalances += 1

    def close(self) -> None:
        """Shut down the process pool, if one was ever created."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None  # executors do not pickle; recreated lazily
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return (
            f"ShardedBackend(n_shards={self.n_shards}, seed={self.seed}, "
            f"churn_threshold={self.churn_threshold}, workers={self.workers})"
        )

    # ------------------------------------------------------------------ #
    # Persistence / cloning (private session copies + operator-store round-trip)
    # ------------------------------------------------------------------ #
    def export_states(self) -> list[dict]:
        """Snapshot of the cached states, least recently used first."""
        return [
            {
                "signature": state["signature"],
                "features": state["features"].copy(),
                "assignment": state["assignment"].copy(),
                "centroids": state["centroids"].copy(),
                "centroid_shards": state["centroid_shards"].copy(),
                "shards": [
                    {"ids": shard["ids"].copy(), "distances": shard["distances"].copy()}
                    for shard in state["shards"]
                ],
            }
            for state in self._states
        ]

    def import_states(self, states: Sequence[Mapping]) -> None:
        """Restore states captured by :meth:`export_states` (replaces all)."""
        restored = []
        for state in states:
            signature = tuple(state["signature"])
            if len(signature) != 6:
                raise ConfigurationError(
                    f"backend state signature must have 6 fields, got {signature!r}"
                )
            n, d = int(signature[0]), int(signature[1])
            features = np.asarray(state["features"])
            assignment = np.asarray(state["assignment"], dtype=np.int64)
            centroids = np.asarray(state["centroids"], dtype=np.float64)
            centroid_shards = np.asarray(state["centroid_shards"], dtype=np.int64)
            if centroid_shards.shape != (centroids.shape[0],):
                raise ConfigurationError(
                    f"backend state routing centroids inconsistent with "
                    f"signature {signature!r}"
                )
            if features.shape != (n, d) or assignment.shape != (n,):
                raise ConfigurationError(
                    f"backend state arrays inconsistent with signature {signature!r}"
                )
            shards = []
            for shard in state["shards"]:
                ids = np.asarray(shard["ids"], dtype=np.int64)
                distances = np.asarray(shard["distances"])
                if ids.shape != distances.shape or ids.shape[0] != n:
                    raise ConfigurationError(
                        f"shard candidate arrays inconsistent with signature {signature!r}"
                    )
                shards.append({"ids": ids.copy(), "distances": distances.copy()})
            restored.append(
                {
                    "signature": (
                        n, d, str(signature[2]),
                        int(signature[3]), bool(signature[4]), str(signature[5]),
                    ),
                    "features": features.copy(),
                    "assignment": assignment,
                    "centroids": centroids,
                    "centroid_shards": centroid_shards,
                    "shards": shards,
                }
            )
        self._states = restored[-self.max_states:]

    def clone(self) -> "ShardedBackend":
        """Independent copy (private states + map) for a session or snapshot."""
        shard_map = None
        if self.shard_map is not None:
            shard_map = ShardMap(
                self.shard_map.assignment.copy(), self.shard_map.centroids.copy()
            )
        twin = ShardedBackend(
            n_shards=self.n_shards,
            shard_map=shard_map,
            seed=self.seed,
            churn_threshold=self.churn_threshold,
            block_size=self.block_size,
            max_states=self.max_states,
            workers=self.workers,
        )
        twin.import_states(self.export_states())
        return twin

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def query(self, features, k, *, include_self=False, metric="euclidean", clamp_k=False):
        features, k = _knn._validate(features, k, include_self, clamp_k=clamp_k)
        if features.dtype == np.float32:
            # float32 kernel values depend on the operand centring, so
            # per-shard slabs are not substitution-safe; serve the query
            # exactly from the full kernel instead (no state is kept).
            return _knn.knn_indices(
                features, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
        return self._query(features, k, include_self, metric, forced_movers=None)

    def update(self, moved_mask, features):
        """Refresh using an explicit mover hint (requires a prior query).

        ``k``/``include_self``/``metric`` come from the most recently used
        cached state whose ``(n, d, dtype)`` matches ``features`` — the same
        resolution rule as the incremental backend.
        """
        probe = _knn.as_feature_matrix(features)
        shape_key = probe.shape + (probe.dtype.name,)
        match = next(
            (
                state
                for state in reversed(self._states)
                if state["signature"][:3] == shape_key
            ),
            None,
        )
        if match is None:
            raise ConfigurationError(
                "ShardedBackend.update() needs a prior query() of matching "
                "shape/dtype to know k/include_self/metric"
            )
        moved_mask = np.asarray(moved_mask, dtype=bool)
        _, _, _, k, include_self, metric = match["signature"]
        return self._query(probe, k, include_self, metric, forced_movers=moved_mask)

    def has_matching_state(
        self, features, k, *, include_self=False, metric="euclidean"
    ) -> bool:
        """Whether a cached state matches ``features`` with zero movers."""
        probe = _knn.as_feature_matrix(features)
        signature = (
            probe.shape[0], probe.shape[1], probe.dtype.name,
            int(k), bool(include_self), metric,
        )
        return any(
            state["signature"] == signature
            and not (probe != state["features"]).any()
            for state in self._states
        )

    def _query(self, features, k, include_self, metric, forced_movers):
        n = features.shape[0]
        signature = (n, features.shape[1], features.dtype.name, k, bool(include_self), metric)
        state = None
        movers = None
        best_count = n + 1
        for candidate in self._states:
            if candidate["signature"] != signature:
                continue
            candidate_movers = (features != candidate["features"]).any(axis=1)
            count = int(candidate_movers.sum())
            if count < best_count:
                state, movers, best_count = candidate, candidate_movers, count
        if state is None or best_count > self.churn_threshold * n:
            return self._full_rebuild(features, k, include_self, metric, signature)
        position = next(i for i, s in enumerate(self._states) if s is state)
        self._states.append(self._states.pop(position))

        if forced_movers is not None:
            if forced_movers.shape != (n,):
                raise ShapeError(
                    f"moved_mask must have shape ({n},), got {forced_movers.shape}"
                )
            movers = movers | forced_movers

        mover_ids = np.flatnonzero(movers)
        if mover_ids.size:
            if mover_ids.size > self.churn_threshold * n:
                return self._full_rebuild(features, k, include_self, metric, signature)
            self._repair_movers(state, features, movers, mover_ids, metric)
            state["features"] = features.copy()
            self.partial_refreshes += 1
        return self._merge(state, k, include_self)[0]

    def _repair_movers(self, state, features, movers, mover_ids, metric) -> None:
        """Re-rank, per shard, exactly the rows a movement can invalidate.

        A mover's own row re-ranks every shard (its whole view changed).  A
        non-mover row re-ranks shard ``s`` iff its ``s``-list contains a
        mover assigned to ``s`` (a member's distance changed, and it may
        also have left) or some mover in ``s`` lands at/inside its
        ``t_s``-th radius plus an epsilon margin (it may have entered) —
        boundary ties become harmless re-ranks, exactly like the incremental
        backend's invalidation test.  Movers keep their shard assignment:
        results are partition-independent, so reassignment is a rebalance
        decision, never a correctness one.
        """
        self.repair_calls += 1
        assignment = state["assignment"]
        block = int(self.block_size) if self.block_size else _knn.DEFAULT_BLOCK_SIZE
        for shard_index, shard in enumerate(state["shards"]):
            members = np.flatnonzero(assignment == shard_index)
            t = shard["ids"].shape[1]
            if members.size == 0 or t == 0:
                continue
            shard_movers = mover_ids[assignment[mover_ids] == shard_index]
            requery = movers.copy()
            if shard_movers.size:
                requery |= np.isin(shard["ids"], shard_movers).any(axis=1)
                tth = shard["distances"][:, -1]
                margin = 16 * np.finfo(features.dtype).eps * (1.0 + tth)
                entry_min = np.full(features.shape[0], np.inf, dtype=features.dtype)
                for start in range(0, shard_movers.size, block):
                    stop = min(start + block, shard_movers.size)
                    slab = _knn.distance_block(
                        features, features[shard_movers[start:stop]], metric=metric
                    )
                    np.minimum(entry_min, slab.min(axis=1), out=entry_min)
                requery |= entry_min <= tth + margin
            rows = np.flatnonzero(requery)
            if not rows.size:
                continue
            ids, distances = _knn.knn_against_corpus(
                features[rows], features[members], t,
                metric=metric, block_size=self.block_size, corpus_ids=members,
            )
            shard["ids"][rows] = ids
            shard["distances"][rows] = distances
            self.rows_requeried += int(rows.size)
            self.shard_requeries += 1

    @staticmethod
    def _merge(state, k, include_self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic cross-shard merge: one lexsort over ``Σ t_s`` columns.

        Per-shard lists are each ``(distance, id)``-sorted top-``t_s`` slices
        of disjoint corpora, so their concatenation contains the global
        top-``k`` (see the module docstring) and the stable
        ``(distance, id)`` lexsort reproduces the exact kernel's order
        bit-for-bit.  Self-exclusion happens here: per-shard lists always
        include the query row itself (that is why ``t_s`` runs to ``k + 1``),
        and for ``include_self=False`` its entry is pushed past every real
        candidate before the sort.
        """
        n = state["features"].shape[0]
        ids = np.concatenate([shard["ids"] for shard in state["shards"]], axis=1)
        distances = np.concatenate(
            [shard["distances"] for shard in state["shards"]], axis=1
        )
        if not include_self:
            self_mask = ids == np.arange(n, dtype=np.int64)[:, None]
            distances = np.where(self_mask, np.inf, distances)
            ids = np.where(self_mask, n, ids)
        order = np.lexsort((ids, distances), axis=1)[:, :k]
        return (
            np.take_along_axis(ids, order, axis=1),
            np.take_along_axis(distances, order, axis=1),
        )

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def _partition(self, features) -> tuple[np.ndarray, int]:
        """Assignment + shard count for a fresh state of ``features``' rows."""
        if self.shard_map is not None and self.shard_map.n_nodes == features.shape[0]:
            return self.shard_map.assignment.copy(), self.shard_map.n_shards
        shard_map = make_shard_map(features, self.n_shards, seed=self.seed)
        # Adopt the fresh partition as the backend-level map when the old one
        # is missing or stale (its node count no longer matches) — the map is
        # bookkeeping for rebalances and bundle meta, never a correctness
        # input, so refitting is always safe.
        if self.shard_map is None or self.shard_map.n_nodes != features.shape[0]:
            self.shard_map = shard_map
        return shard_map.assignment.copy(), shard_map.n_shards

    @staticmethod
    def _routing_centroids(
        features, assignment, n_shards
    ) -> tuple[np.ndarray, np.ndarray]:
        """Occupied-shard centroids **in the state's own feature space**.

        The backend-level shard map's centroids live in whatever space the
        partition was fitted in (typically the raw features); a cached state
        may cover a different embedding (a deeper layer), so insert routing
        needs centroids recomputed as member means of *this* state's rows.
        Routing only affects shard balance — answers are
        partition-independent — but it must be dimensionally valid and
        deterministic.  Returns ``(centroids, centroid_shards)`` where row
        ``i`` of ``centroids`` is the centroid of shard ``centroid_shards[i]``
        (empty shards carry no centroid and never receive routed inserts).
        """
        occupied = []
        means = []
        for shard_index in range(n_shards):
            members = np.flatnonzero(assignment == shard_index)
            if members.size:
                occupied.append(shard_index)
                means.append(
                    np.asarray(features[members], dtype=np.float64).mean(axis=0)
                )
        return np.stack(means), np.asarray(occupied, dtype=np.int64)

    def _build_shard_lists(self, features, assignment, n_shards, k, metric) -> list[dict]:
        """Per-shard top-``t`` candidate lists for every row (the rebuild).

        Shards are disjoint corpus slices, so with ``workers`` set the passes
        run in a process pool — the multiprocess parallel refresh the shard
        decomposition unlocks.  Serial otherwise.
        """
        n = features.shape[0]
        tasks: list[tuple[int, np.ndarray, int]] = []
        for shard_index in range(n_shards):
            members = np.flatnonzero(assignment == shard_index)
            if members.size:
                tasks.append((shard_index, members, min(k + 1, members.size)))
        shards: list[dict] = [
            {
                "ids": np.empty((n, 0), dtype=np.int64),
                "distances": np.empty((n, 0), dtype=features.dtype),
            }
            for _ in range(n_shards)
        ]
        pool = self._ensure_pool()
        if pool is not None and len(tasks) > 1:
            futures = {
                shard_index: pool.submit(
                    _shard_candidates_worker,
                    features, features[members], members, t, metric, self.block_size,
                )
                for shard_index, members, t in tasks
            }
            for shard_index, future in futures.items():
                ids, distances = future.result()
                shards[shard_index] = {"ids": ids, "distances": distances}
        else:
            for shard_index, members, t in tasks:
                ids, distances = _shard_candidates_worker(
                    features, features[members], members, t, metric, self.block_size
                )
                shards[shard_index] = {"ids": ids, "distances": distances}
        return shards

    def _ensure_pool(self):
        if not self.workers:
            return None
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _full_rebuild(self, features, k, include_self, metric, signature):
        n = features.shape[0]
        assignment, n_shards = self._partition(features)
        centroids, centroid_shards = self._routing_centroids(
            features, assignment, n_shards
        )
        shards = self._build_shard_lists(features, assignment, n_shards, k, metric)
        siblings = [s for s in self._states if s["signature"] == signature]
        if len(siblings) >= self.MAX_STATES_PER_SIGNATURE:
            oldest = siblings[0]
            self._states = [s for s in self._states if s is not oldest]
        state = {
            "signature": signature,
            "features": features.copy(),
            "assignment": assignment,
            "centroids": centroids,
            "centroid_shards": centroid_shards,
            "shards": shards,
        }
        self._states.append(state)
        del self._states[: -self.max_states]
        self.full_rebuilds += 1
        self.rows_requeried += n
        return self._merge(state, k, include_self)[0]

    # ------------------------------------------------------------------ #
    # Node lifecycle
    # ------------------------------------------------------------------ #
    def insert(self, features) -> bool:
        """Grow the best-matching cached state by the rows appended to ``features``.

        New rows are routed to their nearest shard centroid; for each shard
        that gained members, either the new members' distance columns are
        merged into every existing row's list (``t_s`` already saturated at
        ``k + 1`` — the merge of a sorted top-``t`` with the new columns is
        exactly the new top-``t``, no radius test needed) or, when the shard
        was smaller than ``k + 1``, the whole shard is re-ranked (it is tiny
        by definition).  Untouched shards do no work at all.  New rows get
        fresh lists against every shard.  Same contract as the incremental
        backend's ``insert``: exact with respect to the state's stored
        coordinates, movers among old rows stay the next query's job.
        """
        features = _knn.as_feature_matrix(features)
        if features.dtype == np.float32:
            return False  # float32 never builds sharded states
        n_new = features.shape[0]
        shape_key = (features.shape[1], features.dtype.name)
        state = None
        best_count = None
        for candidate in reversed(self._states):
            c_n, c_d, c_dtype = candidate["signature"][:3]
            if (c_d, c_dtype) != shape_key or c_n >= n_new:
                continue
            count = int(
                (features[:c_n] != candidate["features"]).any(axis=1).sum()
            )
            if best_count is None or count < best_count:
                state, best_count = candidate, count
        if state is None:
            return False
        n_old = state["signature"][0]
        m = n_new - n_old
        if m > self.churn_threshold * n_new:
            self._states = [s for s in self._states if s is not state]
            return False
        _, _, _, k, include_self, metric = state["signature"]

        baseline = np.vstack([state["features"], features[n_old:]])
        new_ids = np.arange(n_old, n_new, dtype=np.int64)
        new_labels = state["centroid_shards"][
            assign_to_centroids(
                np.asarray(baseline[n_old:], dtype=np.float64), state["centroids"]
            )
        ]
        assignment = np.concatenate([state["assignment"], new_labels])
        # Keep the backend-level map tracking the node set (the first state
        # grown in a round extends it; siblings see the count already match).
        if self.shard_map is not None and self.shard_map.n_nodes == n_old:
            self.shard_map = ShardMap(
                np.concatenate([self.shard_map.assignment, new_labels]),
                self.shard_map.centroids,
            )
        block = int(self.block_size) if self.block_size else _knn.DEFAULT_BLOCK_SIZE

        shards = []
        for shard_index, shard in enumerate(state["shards"]):
            members = np.flatnonzero(assignment == shard_index)
            added = new_ids[new_labels == shard_index]
            t_old = shard["ids"].shape[1]
            t_new = min(k + 1, members.size)
            if members.size == 0:
                shards.append(
                    {
                        "ids": np.empty((n_new, 0), dtype=np.int64),
                        "distances": np.empty((n_new, 0), dtype=baseline.dtype),
                    }
                )
                continue
            # The appended query rows always rank the (grown) shard afresh.
            tail_ids, tail_distances = _knn.knn_against_corpus(
                baseline[n_old:], baseline[members], t_new,
                metric=metric, block_size=self.block_size, corpus_ids=members,
            )
            if added.size == 0:
                head_ids, head_distances = shard["ids"], shard["distances"]
            elif t_new > t_old:
                # The shard was smaller than k + 1: every row's list must
                # widen, and the shard is tiny, so re-rank it outright.
                head_ids, head_distances = _knn.knn_against_corpus(
                    baseline[:n_old], baseline[members], t_new,
                    metric=metric, block_size=self.block_size, corpus_ids=members,
                )
                self.rows_requeried += n_old
                self.shard_requeries += 1
            else:
                # t saturated at k + 1: splice the new members' distance
                # columns into each existing sorted list and re-take top-t.
                head_ids = np.empty((n_old, t_new), dtype=np.int64)
                head_distances = np.empty((n_old, t_new), dtype=baseline.dtype)
                for start in range(0, n_old, block):
                    stop = min(start + block, n_old)
                    slab = _knn.distance_block(
                        baseline[start:stop], baseline[added], metric=metric
                    )
                    cand_ids = np.concatenate(
                        [
                            shard["ids"][start:stop],
                            np.broadcast_to(added, (stop - start, added.size)),
                        ],
                        axis=1,
                    )
                    cand_distances = np.concatenate(
                        [shard["distances"][start:stop], slab], axis=1
                    )
                    order = np.lexsort((cand_ids, cand_distances), axis=1)[:, :t_new]
                    head_ids[start:stop] = np.take_along_axis(cand_ids, order, axis=1)
                    head_distances[start:stop] = np.take_along_axis(
                        cand_distances, order, axis=1
                    )
            shards.append(
                {
                    "ids": np.vstack([head_ids, tail_ids]),
                    "distances": np.vstack([head_distances, tail_distances]),
                }
            )
        state["signature"] = (n_new,) + state["signature"][1:]
        state["features"] = baseline
        state["assignment"] = assignment
        state["shards"] = shards
        self.rows_inserted += m
        self.rows_requeried += m
        return True

    def delete(self, keep_mask) -> int:
        """Shrink every cached state of ``keep_mask.size`` rows to the kept rows.

        The scoped half of the story: float64 distances between survivors are
        removal-invariant, so a kept row's list for shard ``s`` is still its
        true top-``t`` unless it listed a deleted member of ``s`` — and those
        rows re-rank **only shard ``s``** (O(r_s·|s|)), not the whole node
        set.  When a deletion shrinks a shard below ``t`` every row provably
        listed a removed member, so the narrower re-rank covers everyone.
        States whose churn exceeds ``churn_threshold`` or whose ``k`` becomes
        infeasible are dropped (one clean full rebuild later).  Returns the
        number of states shrunk in place.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.ndim != 1:
            raise ShapeError(f"keep_mask must be 1-D, got shape {keep_mask.shape}")
        n = keep_mask.size
        keep_ids = np.flatnonzero(keep_mask)
        removed = n - keep_ids.size
        if removed == 0:
            return 0
        if self.shard_map is not None and self.shard_map.n_nodes == n:
            self.shard_map = self.shard_map.shrink(keep_mask)
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep_ids] = np.arange(keep_ids.size, dtype=np.int64)
        survivors: list[dict] = []
        shrunk = 0
        for state in self._states:
            if state["signature"][0] != n:
                survivors.append(state)
                continue
            _, _, _, k, include_self, metric = state["signature"]
            limit = keep_ids.size if include_self else keep_ids.size - 1
            if removed > self.churn_threshold * n or k > limit:
                continue  # dropped: one clean full rebuild on the next query
            features = state["features"][keep_ids]
            assignment = state["assignment"][keep_ids]
            shards = []
            for shard_index, shard in enumerate(state["shards"]):
                members = np.flatnonzero(assignment == shard_index)
                t_old = shard["ids"].shape[1]
                t_new = min(k + 1, members.size)
                if members.size == 0 or t_old == 0:
                    shards.append(
                        {
                            "ids": np.empty((keep_ids.size, 0), dtype=np.int64),
                            "distances": np.empty((keep_ids.size, 0), dtype=features.dtype),
                        }
                    )
                    continue
                remapped = remap[shard["ids"][keep_ids]]
                if t_new == t_old:
                    distances = shard["distances"][keep_ids]
                    requery = np.flatnonzero((remapped < 0).any(axis=1))
                    if requery.size:
                        re_ids, re_distances = _knn.knn_against_corpus(
                            features[requery], features[members], t_new,
                            metric=metric, block_size=self.block_size,
                            corpus_ids=members,
                        )
                        remapped[requery] = re_ids
                        distances = distances.copy()
                        distances[requery] = re_distances
                        self.shard_requeries += 1
                    self.rows_requeried += int(requery.size)
                    shards.append({"ids": remapped, "distances": distances})
                else:
                    # t shrank: |s| dropped below the old t, so every kept
                    # row listed a removed member — re-rank the whole (now
                    # tiny) shard at the new width.
                    re_ids, re_distances = _knn.knn_against_corpus(
                        features, features[members], t_new,
                        metric=metric, block_size=self.block_size, corpus_ids=members,
                    )
                    shards.append({"ids": re_ids, "distances": re_distances})
                    self.rows_requeried += int(keep_ids.size)
                    self.shard_requeries += 1
            state["signature"] = (keep_ids.size,) + state["signature"][1:]
            state["features"] = features
            state["assignment"] = assignment
            state["shards"] = shards
            self.rows_deleted += removed
            survivors.append(state)
            shrunk += 1
        self._states = survivors
        return shrunk


register_neighbor_backend("sharded", ShardedBackend)
