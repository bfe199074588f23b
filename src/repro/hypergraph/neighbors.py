"""Pluggable neighbour-search backends behind the ``knn_indices`` contract.

The dynamic-hypergraph models rebuild their k-NN topology from the evolving
embedding at every refresh; PR 1's chunked kernel made one rebuild cheap in
memory, but every refresh still pays a full O(n²) distance pass.  This module
turns neighbour search into a *swappable backend* so the refresh engine can
trade exactness for speed without touching any construction code:

``"exact"``   :class:`ExactBackend` — the chunked kernel of
              :mod:`repro.hypergraph.knn`, bit-identical to brute force.
``"incremental"``  :class:`IncrementalBackend` — caches the previous feature
              matrix and neighbour lists and re-queries only the nodes a
              movement can possibly have invalidated.  With the default
              ``tolerance=0`` it is **bit-identical to exact** after any
              move/no-move sequence (float64 kernel; float32 may order
              ~1-ulp near-ties differently — see the class docs); past
              ``churn_threshold`` it falls back to a full rebuild.
``"lsh"``     :class:`LSHBackend` — multi-probe random-projection hashing
              with exact re-ranking of the candidate set; approximate, with a
              measurable (and tunable) recall.

The backend contract (pinned per-backend by
``tests/test_neighbor_backends.py``):

* ``query(features, k, *, include_self=False, metric="euclidean")`` returns an
  ``(n, k)`` int64 array ordered by increasing distance with ties broken by
  node index (the deterministic order documented in
  :mod:`repro.hypergraph.knn`);
* validation is uniform: non-2-D features raise
  :class:`~repro.errors.ShapeError`; ``k <= 0``, ``k`` too large for ``n``
  (including empty feature matrices) raise :class:`ValueError` — every
  backend shares the kernel's validator.  ``query(..., clamp_k=True)`` opts
  into clamping an infeasible ``k`` to the population limit instead (the
  small-population escape hatch churned serving sessions rely on); a
  population with no feasible neighbour at all still raises;
* ``update(moved_mask, features)`` lets callers push an explicit movement
  hint into stateful backends; stateless backends return ``None``;
* ``delete(keep_mask)`` shrinks stateful backends' cached rows to a keep
  mask (the serving layer's node-deletion hook); stateless backends return
  ``0``;
* ``cache_key()`` is a hashable description the refresh engine folds into
  :class:`repro.hypergraph.refresh.OperatorCache` keys for *dynamic*
  (backend-derived) topologies, so refresh operators built from different
  backends can never shadow each other; backend-independent static operators
  stay shared.

Backends are registered by name (:func:`register_neighbor_backend`) and
resolved with :func:`resolve_backend`; selection threads through
``knn_indices(backend=...)``, ``knn_hyperedges``, the refresh engine,
``DHGCNConfig(neighbor_backend=...)``, ``DHGNN(neighbor_backend=...)``,
``TrainConfig(neighbor_backend=...)`` and the CLI ``--neighbor-backend``.
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, Hashable

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.hypergraph import knn as _knn


class NeighborBackend(abc.ABC):
    """Contract every neighbour-search backend implements."""

    #: Registry name of the backend (class attribute).
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def query(
        self,
        features: np.ndarray,
        k: int,
        *,
        include_self: bool = False,
        metric: str = "euclidean",
        clamp_k: bool = False,
    ) -> np.ndarray:
        """``(n, k)`` int64 neighbour indices of every row of ``features``.

        With ``clamp_k=True`` an infeasible ``k`` is clamped to the population
        limit (the returned array is then ``(n, limit)``) instead of raising.
        """

    def update(self, moved_mask: np.ndarray, features: np.ndarray) -> np.ndarray | None:
        """Push a movement hint into a stateful backend.

        Stateless backends ignore the hint and return ``None``; stateful ones
        refresh the rows ``moved_mask`` marks (plus whatever those moves
        invalidate) and return the updated ``(n, k)`` neighbour lists.
        """
        return None

    def delete(self, keep_mask: np.ndarray) -> int:
        """Drop rows from any cached state (stateless backends: no-op).

        ``keep_mask`` is a boolean keep-mask over the rows of the node stream
        being shrunk; stateful backends repair their cached state to cover
        only the kept rows.  Returns the number of cached states shrunk (0
        for stateless backends, which recompute from scratch anyway).
        """
        return 0

    def reset(self) -> None:
        """Drop any internal state (stateless backends: no-op)."""

    def cache_key(self) -> tuple[Hashable, ...]:
        """Hashable identity folded into operator-cache keys."""
        return (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# --------------------------------------------------------------------------- #
# Exact backend
# --------------------------------------------------------------------------- #
class ExactBackend(NeighborBackend):
    """The chunked exact kernel (:func:`repro.hypergraph.knn.knn_indices`).

    Stateless and bit-identical to the brute-force reference for every block
    size; this is the default backend everywhere.
    """

    name = "exact"

    def __init__(self, *, block_size: int | None = None) -> None:
        self.block_size = block_size

    def query(self, features, k, *, include_self=False, metric="euclidean", clamp_k=False):
        return _knn.knn_indices(
            features, k, include_self=include_self, metric=metric,
            block_size=self.block_size, clamp_k=clamp_k,
        )

    def __repr__(self) -> str:
        return f"ExactBackend(block_size={self.block_size})"


# --------------------------------------------------------------------------- #
# Incremental backend
# --------------------------------------------------------------------------- #
class IncrementalBackend(NeighborBackend):
    """Exact k-NN that re-queries only what a movement can invalidate.

    Between topology refreshes of a mostly-converged model only a small
    fraction of node embeddings move.  The backend caches the last feature
    matrix and the last ``(n, k)`` neighbour lists *with their distances*,
    and on the next query classifies every row:

    1. **movers** — rows whose features changed (beyond ``tolerance``): all
       their distances changed, re-run the exact kernel;
    2. rows some *non-member* mover moved to within the cached k-th distance
       of (the mover may enter the list): re-run the exact kernel;
    3. rows whose cached list contains movers that all stayed **strictly
       inside** the cached k-th distance: membership provably unchanged — the
       row is repaired locally by substituting the movers' new distances and
       re-sorting the cached ``(distance, index)`` pairs, no kernel query;
    4. rows whose member-movers reach or cross the k-th distance (someone
       outside might take the vacated slot): re-run the exact kernel;
    5. everything else: untouched.

    All distance comparisons use values produced by the shared kernel
    (:func:`repro.hypergraph.knn.distance_block`).  For the **float64 kernel
    (the default) the output at ``tolerance=0.0`` is bit-identical to the
    exact backend after arbitrary move/no-move sequences** — cdist computes
    each pair independently of slab shape, and the property tests pin this
    including distance ties; boundary comparisons carry a small epsilon
    margin that converts would-be misses into harmless re-queries.  The
    float32 kernel mean-centres and expands, so its values shift by rounding
    when the point set (and hence the centre) changes; the backend therefore
    treats float32 conservatively — local repair is disabled (rows listing a
    mover are re-queried) and the invalidation margin is widened to the
    kernel's radius-scaled error bound.  Kept rows are still only correct up
    to that error, and near-exact ties can order differently from a fresh
    query, so the bit-identity contract is float64-only.  A positive
    ``tolerance`` treats sub-tolerance drift (euclidean displacement) as
    "did not move", trading exactness for fewer re-queries; drift does not
    accumulate silently because a node's stored coordinates only advance
    when the node is re-queried.

    When the mover fraction exceeds ``churn_threshold`` the partial pass would
    touch most rows anyway, so the backend falls back to one full rebuild
    (still exact, and it resynchronises the stored coordinates).

    The backend keeps up to :attr:`max_states` cached states (least recently
    used evicted) and matches each query to the state with the same signature
    ``(n, d, dtype, k, include_self, metric)`` that has the **fewest movers**
    against the incoming features.  The dynamic models query one backend with
    per-layer embedding streams — sometimes of equal width — and best-match
    selection lets every stream track its own history instead of thrashing a
    single slot; a query too churned for every candidate starts a fresh state
    rather than destroying another stream's.
    """

    name = "incremental"

    #: Mover fraction beyond which a full rebuild is cheaper than the
    #: partial re-query (the invalidated set grows super-linearly in churn).
    DEFAULT_CHURN_THRESHOLD = 0.35

    def __init__(
        self,
        *,
        tolerance: float = 0.0,
        churn_threshold: float = DEFAULT_CHURN_THRESHOLD,
        block_size: int | None = None,
        max_states: int = 8,
    ) -> None:
        if tolerance < 0:
            raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
        if not 0.0 < churn_threshold <= 1.0:
            raise ConfigurationError(
                f"churn_threshold must be in (0, 1], got {churn_threshold}"
            )
        if max_states < 1:
            raise ConfigurationError(f"max_states must be >= 1, got {max_states}")
        self.tolerance = float(tolerance)
        self.churn_threshold = float(churn_threshold)
        self.block_size = block_size
        self.max_states = int(max_states)
        #: Diagnostics: full rebuilds / partial refreshes / rows re-queried.
        self.full_rebuilds = 0
        self.partial_refreshes = 0
        self.rows_requeried = 0
        self.rows_repaired_locally = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        #: LRU list of {"signature", "features", "indices", "distances"}.
        self._states: list[dict] = []

    def reset(self) -> None:
        self._states.clear()

    def cache_key(self) -> tuple[Hashable, ...]:
        return (self.name, self.tolerance, self.churn_threshold)

    def stats(self) -> dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "partial_refreshes": self.partial_refreshes,
            "rows_requeried": self.rows_requeried,
            "rows_repaired_locally": self.rows_repaired_locally,
            "rows_inserted": self.rows_inserted,
            "rows_deleted": self.rows_deleted,
            "states": len(self._states),
        }

    # ------------------------------------------------------------------ #
    # Persistence (the serving operator store round-trips cached states)
    # ------------------------------------------------------------------ #
    def export_states(self) -> list[dict]:
        """Snapshot of the cached states, least recently used first.

        Each entry holds the plain signature tuple and copies of the three
        arrays — everything a different process needs to resume incremental
        queries without a cold full rebuild.
        """
        return [
            {
                "signature": state["signature"],
                "features": state["features"].copy(),
                "indices": state["indices"].copy(),
                "distances": state["distances"].copy(),
            }
            for state in self._states
        ]

    def import_states(self, states: list[dict]) -> None:
        """Restore states captured by :meth:`export_states` (replaces all)."""
        restored = []
        for state in states:
            signature = tuple(state["signature"])
            if len(signature) != 6:
                raise ConfigurationError(
                    f"backend state signature must have 6 fields, got {signature!r}"
                )
            n, d = int(signature[0]), int(signature[1])
            k = int(signature[3])
            features = np.asarray(state["features"])
            indices = np.asarray(state["indices"], dtype=np.int64)
            distances = np.asarray(state["distances"])
            if features.shape != (n, d) or indices.shape != (n, k) or distances.shape != (n, k):
                raise ConfigurationError(
                    f"backend state arrays inconsistent with signature {signature!r}"
                )
            restored.append(
                {
                    "signature": (n, d, str(signature[2]), k, bool(signature[4]), str(signature[5])),
                    "features": features.copy(),
                    "indices": indices.copy(),
                    "distances": distances.copy(),
                }
            )
        self._states = restored[-self.max_states :]

    # ------------------------------------------------------------------ #
    def query(self, features, k, *, include_self=False, metric="euclidean", clamp_k=False):
        return self._query(
            features, k, include_self, metric, forced_movers=None, clamp_k=clamp_k
        )

    def update(self, moved_mask, features):
        """Refresh using an explicit mover hint (requires a prior query).

        ``k``/``include_self``/``metric`` are taken from the most recently
        used cached state whose ``(n, d, dtype)`` matches ``features`` — NOT
        from the globally last query, which may belong to a different-shaped
        stream.  If several same-shaped streams were queried with different
        parameters the most recent one wins (call :meth:`query` directly to
        disambiguate).
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
                "IncrementalBackend.update() needs a prior query() of matching "
                "shape/dtype to know k/include_self/metric"
            )
        moved_mask = np.asarray(moved_mask, dtype=bool)
        _, _, _, k, include_self, metric = match["signature"]
        return self._query(features, k, include_self, metric, forced_movers=moved_mask)

    def has_matching_state(
        self, features, k, *, include_self=False, metric="euclidean"
    ) -> bool:
        """Whether a cached state matches ``features`` with zero movers.

        A cheap O(n·d) comparison (no distance work) — the serving session
        uses it to tell a warm restored state from one that must be primed
        with a fresh query.
        """
        probe = _knn.as_feature_matrix(features)
        signature = (
            probe.shape[0], probe.shape[1], probe.dtype.name,
            int(k), bool(include_self), metric,
        )
        return any(
            state["signature"] == signature
            and not self._movers_against(probe, state).any()
            for state in self._states
        )

    def insert(self, features) -> bool:
        """Grow the best-matching cached state by the rows appended to ``features``.

        ``features`` is the *full* ``(n_new, d)`` matrix whose trailing rows
        are new nodes; the method locates the cached state this stream
        continues (same ``d``/dtype, fewer rows, fewest movers over the
        overlap) and extends it **exactly with respect to the state's stored
        coordinates**: the new rows get a fresh exact row query (O(m·n), not
        O(n²)), and existing rows whose k-th-distance radius a new node
        reaches are exactly re-queried — everyone else keeps their list.  The
        state is then a valid incremental baseline, so a follow-up
        :meth:`query`/:meth:`update` (which handles any *moved* existing
        rows) returns the same lists as a cold exact rebuild, under the same
        float64 bit-identity / float32 tolerance contract as the rest of the
        backend.

        Returns ``True`` when a state was grown; ``False`` when no usable
        state exists or the insertion exceeds ``churn_threshold`` (the next
        query then simply performs one full rebuild).
        """
        features = _knn.as_feature_matrix(features)
        n_new = features.shape[0]
        shape_key = (features.shape[1], features.dtype.name)
        # Best match: same d/dtype, strictly fewer rows, fewest movers over
        # the overlapping prefix; most recently used wins ties.
        state = None
        best_count = None
        for candidate in reversed(self._states):
            c_n, c_d, c_dtype = candidate["signature"][:3]
            if (c_d, c_dtype) != shape_key or c_n >= n_new:
                continue
            overlap = {"features": candidate["features"]}
            count = int(self._movers_against(features[:c_n], overlap).sum())
            if best_count is None or count < best_count:
                state, best_count = candidate, count
        if state is None:
            return False
        n_old = state["signature"][0]
        m = n_new - n_old
        if m > self.churn_threshold * n_new:
            # Growing would touch most rows anyway; drop the state so the
            # next query performs one clean full rebuild.
            self._states = [s for s in self._states if s is not state]
            return False
        _, _, _, k, include_self, metric = state["signature"]
        if k > (n_new if include_self else n_new - 1):  # pragma: no cover - defensive
            return False

        # The grown baseline: stored coordinates for old rows, current
        # coordinates for the new ones.  Movers among old rows are *not*
        # resolved here — that is query()/update()'s (proven) job.
        baseline = np.vstack([state["features"], features[n_old:]])
        new_ids = np.arange(n_old, n_new, dtype=np.int64)
        new_indices, new_distances = _knn.knn_query_rows(
            baseline, new_ids, k, include_self=include_self, metric=metric,
            block_size=self.block_size,
        )

        # Entry test: old rows a new node lands at/inside the k-th radius of
        # must be re-queried (the new node may enter their list).  Walked in
        # block-size chunks to keep the O(n·block) memory bound.
        kth = state["distances"][:, -1]
        margin = self._invalidation_margin(baseline, kth)
        block = int(self.block_size) if self.block_size else _knn.DEFAULT_BLOCK_SIZE
        entry_min = np.full(n_old, np.inf, dtype=baseline.dtype)
        for start in range(0, m, block):
            stop = min(start + block, m)
            slab = _knn.distance_block(
                baseline[:n_old], baseline[n_old + start : n_old + stop], metric=metric
            )
            np.minimum(entry_min, slab.min(axis=1), out=entry_min)
        rows = np.flatnonzero(entry_min <= kth + margin)

        indices = np.vstack([state["indices"], new_indices])
        distances = np.vstack([state["distances"], new_distances])
        if rows.size:
            re_indices, re_distances = _knn.knn_query_rows(
                baseline, rows, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
            indices[rows] = re_indices
            distances[rows] = re_distances
        state["signature"] = (n_new,) + state["signature"][1:]
        state["features"] = baseline
        state["indices"] = indices
        state["distances"] = distances
        self.rows_inserted += m
        self.rows_requeried += int(rows.size) + m
        return True

    def delete(self, keep_mask) -> int:
        """Shrink every cached state of ``keep_mask.size`` rows to the kept rows.

        The incremental mirror of :meth:`insert`, and the O(r·n) half of the
        serving node lifecycle.  Removing points never changes the distance
        between two survivors, so a kept row whose cached k-list contains no
        deleted node still holds its true ``k`` nearest survivors *in the
        same order* — it survives with its stored neighbour indices remapped,
        no distance work at all.  A row that listed a deleted node has a
        vacated slot an unseen survivor may take, so it is exactly re-queried
        against the state's stored (kept) coordinates — O(r·n) total for the
        ``r`` such rows.  The shrunken state is then a valid incremental
        baseline: a follow-up :meth:`query`/:meth:`update` resolves any
        *moved* survivors as usual and returns, at ``tolerance=0``,
        bit-identically what a cold exact rebuild over the surviving rows
        returns — pinned by the backend tests.  The float32 kernel
        mean-centres on its operand set, so removing points perturbs *every*
        stored distance value and near-ties reorder wholesale against a
        fresh query (pervasive on tie-heavy data, not an edge case); float32
        states are therefore **dropped** rather than repaired — the next
        query performs one clean full rebuild, which keeps deletion
        bit-identical to exact under both precisions at the price of full
        distance work on the float32 path.

        Every cached state whose row count equals ``keep_mask.size`` is
        shrunk — the serving session streams one embedding per layer through
        this backend, and a node deletion removes the same rows from every
        stream.  States whose deleted fraction exceeds ``churn_threshold``
        (the repair would touch most rows anyway) and states whose ``k`` is
        infeasible for the shrunken row count are dropped instead, so their
        next query performs one clean full rebuild.  Returns the number of
        states shrunk in place.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.ndim != 1:
            raise ShapeError(f"keep_mask must be 1-D, got shape {keep_mask.shape}")
        n = keep_mask.size
        keep_ids = np.flatnonzero(keep_mask)
        removed = n - keep_ids.size
        if removed == 0:
            return 0
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep_ids] = np.arange(keep_ids.size, dtype=np.int64)
        survivors: list[dict] = []
        shrunk = 0
        for state in self._states:
            if state["signature"][0] != n:
                survivors.append(state)
                continue
            _, _, dtype_name, k, include_self, metric = state["signature"]
            limit = keep_ids.size if include_self else keep_ids.size - 1
            if (
                removed > self.churn_threshold * n
                or k > limit
                or dtype_name == "float32"
            ):
                continue  # dropped: one clean full rebuild on the next query
            features = state["features"][keep_ids]
            # Rows whose k-list contained a deleted node must be re-queried
            # (the vacated slot may be taken by an unseen survivor); every
            # other kept row keeps its list with the indices remapped —
            # deleted members show up as the remap's -1 sentinel.
            indices = remap[state["indices"][keep_ids]]
            distances = state["distances"][keep_ids]
            requery = np.flatnonzero((indices < 0).any(axis=1))
            if requery.size:
                re_indices, re_distances = _knn.knn_query_rows(
                    features, requery, k, include_self=include_self, metric=metric,
                    block_size=self.block_size,
                )
                indices[requery] = re_indices
                distances[requery] = re_distances
            state["signature"] = (keep_ids.size,) + state["signature"][1:]
            state["features"] = features
            state["indices"] = indices
            state["distances"] = distances
            self.rows_deleted += removed
            self.rows_requeried += int(requery.size)
            survivors.append(state)
            shrunk += 1
        self._states = survivors
        return shrunk

    def _movers_against(self, features: np.ndarray, state: dict) -> np.ndarray:
        if self.tolerance > 0.0:
            drift = np.sqrt(((features - state["features"]) ** 2).sum(axis=1))
            return drift > self.tolerance
        return (features != state["features"]).any(axis=1)

    @staticmethod
    def _invalidation_margin(features: np.ndarray, kth: np.ndarray) -> np.ndarray:
        """Boundary margin for k-th-distance comparisons (see the class docs).

        float64 kernel values are slab-shape independent, so a tiny relative
        margin only absorbs ties; the float32 kernel mean-centres on its
        operands, so comparisons carry a radius-scaled error bound.
        """
        if features.dtype == np.float32:
            centered = features - features.mean(axis=0)
            radius = float(np.sqrt((centered * centered).sum(axis=1).max()))
            eps = np.finfo(np.float32).eps
            return np.sqrt(eps) * (1.0 + radius) + 16 * eps * (1.0 + kth)
        return 16 * np.finfo(features.dtype).eps * (1.0 + kth)

    def _query(self, features, k, include_self, metric, forced_movers, clamp_k=False):
        # Clamp BEFORE the signature is built so a small-population query
        # matches (and maintains) the state cached for the feasible k.
        features, k = _knn._validate(features, k, include_self, clamp_k=clamp_k)
        n = features.shape[0]
        signature = (n, features.shape[1], features.dtype.name, k, bool(include_self), metric)
        # Best-match selection: among states of this signature, follow the one
        # this query's stream most plausibly continues (fewest movers).
        state = None
        movers = None
        best_count = n + 1
        for candidate in self._states:
            if candidate["signature"] != signature:
                continue
            candidate_movers = self._movers_against(features, candidate)
            count = int(candidate_movers.sum())
            if count < best_count:
                state, movers, best_count = candidate, candidate_movers, count
        if state is None or best_count > self.churn_threshold * n:
            # No usable history: start a fresh state instead of overwriting a
            # possibly still-live sibling stream's.
            return self._full_rebuild(features, k, include_self, metric, signature)
        # LRU bump (by identity — list.remove would == -compare ndarrays).
        position = next(i for i, s in enumerate(self._states) if s is state)
        self._states.append(self._states.pop(position))

        if forced_movers is not None:
            if forced_movers.shape != (n,):
                raise ShapeError(
                    f"moved_mask must have shape ({n},), got {forced_movers.shape}"
                )
            movers = movers | forced_movers

        mover_ids = np.flatnonzero(movers)
        if mover_ids.size == 0:
            return state["indices"].copy()
        if mover_ids.size > self.churn_threshold * n:
            return self._full_rebuild(features, k, include_self, metric, signature)

        indices = state["indices"]
        distances = state["distances"]
        kth = distances[:, -1]
        float32_kernel = features.dtype == np.float32
        # float32: the kernel's values are only trustworthy up to a
        # radius-scaled error (any mover that could *possibly* matter triggers
        # a re-query); float64: a tiny relative margin absorbs boundary ties.
        margin = self._invalidation_margin(features, kth)

        # Which cached members are movers, and the mover column they map to.
        in_list = np.isin(indices, mover_ids)
        member_rows, member_slots = np.nonzero(in_list)
        member_cols = np.searchsorted(mover_ids, indices[member_rows, member_slots])
        member_new = np.empty(member_rows.size, dtype=features.dtype)

        # (2) entry: a NON-member mover now at/inside the k-th radius.  The
        # mover slabs are walked in block_size chunks (running min) so the
        # partial path keeps the same O(n·block) memory bound as the chunked
        # kernel; member-movers are masked out so staying members do not
        # force a re-query.
        block = int(self.block_size) if self.block_size else _knn.DEFAULT_BLOCK_SIZE
        outside_min = np.full(n, np.inf, dtype=features.dtype)
        for start in range(0, mover_ids.size, block):
            stop = min(start + block, mover_ids.size)
            slab = _knn.distance_block(
                features, features[mover_ids[start:stop]], metric=metric
            )
            in_chunk = (member_cols >= start) & (member_cols < stop)
            member_new[in_chunk] = slab[member_rows[in_chunk], member_cols[in_chunk] - start]
            slab[member_rows[in_chunk], member_cols[in_chunk] - start] = np.inf
            if not include_self:
                slab[mover_ids[start:stop], np.arange(stop - start)] = np.inf
            np.minimum(outside_min, slab.min(axis=1), out=outside_min)
        requery = movers | (outside_min <= kth + margin)

        # (4) a member-mover reaching/crossing the k-th radius: someone
        # unseen may take its slot, so the row cannot be repaired locally.
        crossing = member_new >= kth[member_rows] - margin[member_rows]
        requery[member_rows[crossing]] = True

        # (3) local repair: member-movers all strictly inside the radius —
        # membership is provably unchanged, only the order can shift.  The
        # float32 kernel's values are not substitution-safe across slabs, so
        # rows listing a mover are re-queried instead of repaired there.
        repairable = np.zeros(n, dtype=bool)
        repairable[member_rows] = True
        if float32_kernel:
            requery |= repairable
            repairable[:] = False
        repairable &= ~requery
        keep = repairable[member_rows]
        distances[member_rows[keep], member_slots[keep]] = member_new[keep]
        repair_rows = np.flatnonzero(repairable)
        if repair_rows.size:
            order = np.lexsort(
                (indices[repair_rows], distances[repair_rows]), axis=-1
            )
            indices[repair_rows] = np.take_along_axis(indices[repair_rows], order, axis=1)
            distances[repair_rows] = np.take_along_axis(
                distances[repair_rows], order, axis=1
            )

        rows = np.flatnonzero(requery)
        if rows.size:
            new_indices, new_distances = _knn.knn_query_rows(
                features, rows, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
            indices[rows] = new_indices
            distances[rows] = new_distances
        state["features"][rows] = features[rows]
        self.partial_refreshes += 1
        self.rows_requeried += int(rows.size)
        self.rows_repaired_locally += int(repair_rows.size)
        return indices.copy()

    #: Cached states allowed per signature: enough for the distinct per-layer
    #: streams a model realistically runs at one width, while a continuously
    #: churning stream (early training) recycles its own slots instead of
    #: evicting other layers' live states from the global LRU.
    MAX_STATES_PER_SIGNATURE = 3

    def _full_rebuild(self, features, k, include_self, metric, signature):
        n = features.shape[0]
        indices, distances = _knn.knn_query_rows(
            features, np.arange(n, dtype=np.int64), k,
            include_self=include_self, metric=metric, block_size=self.block_size,
        )
        siblings = [s for s in self._states if s["signature"] == signature]
        if len(siblings) >= self.MAX_STATES_PER_SIGNATURE:
            oldest = siblings[0]
            self._states = [s for s in self._states if s is not oldest]
        self._states.append(
            {
                "signature": signature,
                "features": features.copy(),
                "indices": indices,
                "distances": distances,
            }
        )
        del self._states[: -self.max_states]
        self.full_rebuilds += 1
        self.rows_requeried += n
        return indices.copy()

    def __repr__(self) -> str:
        return (
            f"IncrementalBackend(tolerance={self.tolerance}, "
            f"churn_threshold={self.churn_threshold}, block_size={self.block_size})"
        )


# --------------------------------------------------------------------------- #
# LSH backend
# --------------------------------------------------------------------------- #
class LSHBackend(NeighborBackend):
    """Multi-probe random-projection LSH with exact candidate re-ranking.

    Each of ``n_tables`` hash tables projects the features onto ``hash_bits``
    random directions and buckets nodes by the sign pattern (SimHash).  A
    query probes its own bucket plus — multi-probe — the buckets reached by
    flipping the ``n_probes`` *least confident* bits (smallest projection
    margin).  The union of bucket members is re-ranked by exact distance with
    the kernel's ``(distance, index)`` tie-break, so whenever the candidate
    set covers the true neighbours the output row is identical to the exact
    backend (float64; the float32 kernel's values depend on its operand
    centring, so float32 rows agree only up to its documented error).  Rows
    whose candidate pool is smaller than ``k`` fall back to an exact row
    query (counted in :attr:`fallback_rows`).

    Both phases are vectorised: collection keeps only each (table, probe)
    pass's bucket order and per-node bucket ranges (no quadratic
    co-membership pairs), and re-ranking walks query rows in
    :attr:`RERANK_CHUNK`-sized chunks grouped by primary hash code — a
    boolean membership matrix deduplicates the pools and one
    :func:`~repro.hypergraph.knn.distance_block` slab against the pool union
    serves the whole chunk (the float64 kernel computes each pair
    independently of slab shape, so chunking never changes a value).

    Recall is *measured, not assumed*: :meth:`measured_recall` reports the
    fraction of true neighbours retrieved on given data, and :meth:`tune` is
    the recall knob — it doubles ``n_tables`` (and widens probing) until a
    target recall is met.  Determinism: the hash projections derive from
    ``seed`` alone, so repeated queries agree bit-for-bit.

    ``hash_bits=None`` picks ``log2(n / 8)`` bits so the expected bucket
    holds ~8 nodes regardless of ``n``.
    """

    name = "lsh"

    def __init__(
        self,
        *,
        n_tables: int = 8,
        hash_bits: int | None = None,
        n_probes: int = 2,
        seed: int = 0,
        block_size: int | None = None,
    ) -> None:
        if n_tables < 1:
            raise ConfigurationError(f"n_tables must be >= 1, got {n_tables}")
        if hash_bits is not None and not 1 <= hash_bits <= 62:
            raise ConfigurationError(f"hash_bits must be in [1, 62], got {hash_bits}")
        if n_probes < 0:
            raise ConfigurationError(f"n_probes must be >= 0, got {n_probes}")
        self.n_tables = int(n_tables)
        self.hash_bits = hash_bits
        self.n_probes = int(n_probes)
        self.seed = int(seed)
        self.block_size = block_size
        #: Diagnostics of the last query.
        self.fallback_rows = 0
        self.mean_candidates = 0.0
        #: Row ids that took the exact fallback on the last query.
        self.last_fallback_row_ids: np.ndarray = np.empty(0, dtype=np.int64)

    def cache_key(self) -> tuple[Hashable, ...]:
        return (self.name, self.n_tables, self.hash_bits, self.n_probes, self.seed)

    def _resolve_bits(self, n: int) -> int:
        if self.hash_bits is not None:
            return self.hash_bits
        return max(2, min(16, int(np.ceil(np.log2(max(n, 16) / 8.0)))))

    #: Query rows re-ranked per distance slab.  Rows are grouped by their
    #: first-table hash code first, so a chunk's candidate pools overlap
    #: heavily and the shared slab stays near the sum of the pool sizes.
    RERANK_CHUNK = 64

    def query(self, features, k, *, include_self=False, metric="euclidean", clamp_k=False):
        features, k = _knn._validate(features, k, include_self, clamp_k=clamp_k)
        n, d = features.shape
        bits = self._resolve_bits(n)
        probes = min(self.n_probes, bits)
        rng = np.random.default_rng(self.seed)

        # ------------------------------------------------------------------
        # Candidate collection, vectorised and *lazy*: each (table, probe)
        # pass stores only its bucket order plus every node's bucket range
        # inside it — three O(n) arrays — instead of materialising the
        # quadratic bucket co-membership pairs.  The per-node candidate sets
        # are expanded chunk-by-chunk in the re-rank below.
        # ------------------------------------------------------------------
        weights = (np.int64(1) << np.arange(bits, dtype=np.int64))
        probe_ranges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        primary_codes: np.ndarray | None = None
        for _ in range(self.n_tables):
            projections = rng.normal(size=(d, bits)).astype(features.dtype, copy=False)
            margins = features @ projections
            codes = (margins > 0) @ weights
            if primary_codes is None:
                primary_codes = codes
            probe_codes = [codes]
            if probes:
                uncertain = np.argsort(np.abs(margins), axis=1, kind="stable")[:, :probes]
                for j in range(probes):
                    probe_codes.append(codes ^ weights[uncertain[:, j]])
            bucket_order = np.argsort(codes, kind="stable")
            sorted_codes = codes[bucket_order]
            for probe in probe_codes:
                left = np.searchsorted(sorted_codes, probe, side="left")
                length = np.searchsorted(sorted_codes, probe, side="right") - left
                probe_ranges.append((bucket_order, left, length))

        # ------------------------------------------------------------------
        # Exact re-rank in chunks: query rows grouped by primary hash code
        # (so their candidate pools overlap heavily) share one boolean
        # membership matrix — which also deduplicates across tables/probes —
        # and one ``distance_block`` slab against the union of their pools.
        # The kernel computes each pair independently of slab shape
        # (float64), so the selected rows match per-row exact re-ranking
        # bit-for-bit.
        # ------------------------------------------------------------------
        result = np.empty((n, k), dtype=np.int64)
        grouped = np.argsort(primary_codes, kind="stable")
        fallback_chunks: list[np.ndarray] = []
        total_candidates = 0
        for start in range(0, n, self.RERANK_CHUNK):
            chunk = grouped[start : start + self.RERANK_CHUNK]
            local = np.arange(chunk.size)
            seen = np.zeros((chunk.size, n), dtype=bool)
            for bucket_order, left, length in probe_ranges:
                lens = length[chunk]
                total = int(lens.sum())
                if total == 0:
                    continue
                starts = np.repeat(left[chunk], lens)
                segment_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
                offsets = np.arange(total, dtype=np.int64) - np.repeat(segment_starts, lens)
                seen[np.repeat(local, lens), bucket_order[starts + offsets]] = True
            if not include_self:
                seen[local, chunk] = False
            chunk_counts = seen.sum(axis=1)
            total_candidates += int(chunk_counts.sum())
            short = chunk_counts < k
            if short.any():
                fallback_chunks.append(chunk[short])
                if short.all():
                    continue
            pool = np.flatnonzero(seen.any(axis=0))
            local_rows, pool_cols = np.nonzero(seen[:, pool])
            slab = _knn.distance_block(features[chunk], features[pool], metric=metric)
            width = int(chunk_counts.max())
            padded_distance = np.full((chunk.size, width), np.inf, dtype=slab.dtype)
            padded_candidate = np.full((chunk.size, width), n, dtype=np.int64)
            chunk_starts = np.concatenate(([0], np.cumsum(chunk_counts)[:-1]))
            local_cols = (
                np.arange(local_rows.size, dtype=np.int64)
                - chunk_starts[local_rows]
            )
            padded_distance[local_rows, local_cols] = slab[local_rows, pool_cols]
            padded_candidate[local_rows, local_cols] = pool[pool_cols]
            order = np.lexsort((padded_candidate, padded_distance), axis=-1)[:, :k]
            selected = np.take_along_axis(padded_candidate, order, axis=1)
            keep = ~short
            result[chunk[keep]] = selected[keep]

        fallback = (
            np.sort(np.concatenate(fallback_chunks))
            if fallback_chunks
            else np.empty(0, dtype=np.int64)
        )
        if fallback.size:
            exact, _ = _knn.knn_query_rows(
                features, fallback, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
            result[fallback] = exact
        self.fallback_rows = int(fallback.size)
        self.last_fallback_row_ids = fallback
        self.mean_candidates = total_candidates / max(n, 1)
        return result

    # ------------------------------------------------------------------ #
    # The measured-recall knob
    # ------------------------------------------------------------------ #
    def measured_recall(
        self,
        features,
        k,
        *,
        include_self: bool = False,
        metric: str = "euclidean",
        reference: np.ndarray | None = None,
    ) -> float:
        """Fraction of true k-NN edges this backend retrieves on ``features``.

        ``reference`` lets callers reuse an already-computed exact answer.
        """
        approx = self.query(features, k, include_self=include_self, metric=metric)
        if reference is None:
            reference = _knn.knn_indices(
                features, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
        hits = sum(
            np.intersect1d(approx[row], reference[row]).size
            for row in range(reference.shape[0])
        )
        return hits / float(reference.size) if reference.size else 1.0

    def tune(
        self,
        features,
        k,
        *,
        target_recall: float = 0.9,
        max_tables: int = 64,
        include_self: bool = False,
        metric: str = "euclidean",
        reference: np.ndarray | None = None,
    ) -> float:
        """Grow ``n_tables``/``n_probes`` until ``measured_recall`` meets the
        target (or ``max_tables`` is hit); returns the final measured recall.
        ``reference`` lets callers reuse an already-computed exact answer
        instead of paying another O(n²) pass.
        """
        if not 0.0 < target_recall <= 1.0:
            raise ConfigurationError(f"target_recall must be in (0, 1], got {target_recall}")
        if reference is None:
            reference = _knn.knn_indices(
                features, k, include_self=include_self, metric=metric,
                block_size=self.block_size,
            )
        recall = self.measured_recall(
            features, k, include_self=include_self, metric=metric, reference=reference
        )
        while recall < target_recall and self.n_tables < max_tables:
            self.n_tables = min(2 * self.n_tables, max_tables)
            self.n_probes += 1
            recall = self.measured_recall(
                features, k, include_self=include_self, metric=metric, reference=reference
            )
        return recall

    def __repr__(self) -> str:
        return (
            f"LSHBackend(n_tables={self.n_tables}, hash_bits={self.hash_bits}, "
            f"n_probes={self.n_probes}, seed={self.seed})"
        )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[..., NeighborBackend]] = {}


def register_neighbor_backend(
    name: str, factory: Callable[..., NeighborBackend], *, overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    The factory must accept a ``block_size`` keyword (the refresh engine
    forwards its chunk size when constructing named backends).
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ConfigurationError(f"neighbor backend {name!r} is already registered")
    _REGISTRY[key] = factory


def available_neighbor_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def validate_neighbor_backend_spec(spec) -> None:
    """Validate a backend spec without constructing it (config-time check).

    Accepts exactly what :func:`resolve_backend` accepts — ``None``, a
    :class:`NeighborBackend` instance, or a registered name (case-insensitive)
    — and raises :class:`~repro.errors.ConfigurationError` otherwise.  Shared
    by ``DHGCNConfig`` and ``TrainConfig`` so the two validations can never
    drift apart.
    """
    if spec is None or isinstance(spec, NeighborBackend):
        return
    if isinstance(spec, str) and spec.lower() in _REGISTRY:
        return
    raise ConfigurationError(
        f"neighbor_backend must be None, a NeighborBackend instance or one of "
        f"{available_neighbor_backends()}, got {spec!r}"
    )


def resolve_backend(spec=None, *, block_size: int | None = None) -> NeighborBackend:
    """Resolve ``spec`` into a :class:`NeighborBackend` instance.

    ``None`` means the exact default; a string is looked up in the registry
    (a *fresh* instance per call, so stateful backends are never accidentally
    shared between models); an instance passes through unchanged (sharing is
    then the caller's explicit choice).
    """
    if spec is None:
        return ExactBackend(block_size=block_size)
    if isinstance(spec, NeighborBackend):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        if key not in _REGISTRY:
            raise ConfigurationError(
                f"unknown neighbor backend {spec!r}; "
                f"registered: {available_neighbor_backends()}"
            )
        return _REGISTRY[key](block_size=block_size)
    raise ConfigurationError(
        f"backend must be None, a registered name or a NeighborBackend, got {type(spec)!r}"
    )


register_neighbor_backend("exact", ExactBackend)
register_neighbor_backend("incremental", IncrementalBackend)
register_neighbor_backend("lsh", LSHBackend)
