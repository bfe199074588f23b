"""The dynamic layers' k-NN index: exact neighbours, repaired incrementally.

Every dynamic layer owns one :class:`IncrementalBackend` — a training
builder's slot, a DHGNN layer, a serving session's
:class:`~repro.serving.frozen.TopologySlot`.  The index stores one state:
the feature matrix it last answered, that matrix's ``(n, k)`` neighbour
lists and the distances of those neighbours.  The next query re-queries only
the rows a change can have invalidated; a first query, a changed ``k`` or
shape, or churn past :attr:`IncrementalBackend.CHURN_THRESHOLD` runs one
full rebuild with the chunked kernel of :mod:`repro.hypergraph.knn`.

The contract (pinned by ``tests/test_neighbor_backends.py``):

* ``query(features, k, *, include_self=False, metric="euclidean")`` returns
  an ``(n, k)`` int64 array ordered by increasing distance with ties broken
  by node index — for float64 features bit-identical to
  :func:`~repro.hypergraph.knn.knn_indices` after any sequence of moves,
  insertions and deletions;
* validation is the kernel's: non-2-D features raise
  :class:`~repro.errors.ShapeError`; ``k <= 0`` and ``k`` too large for
  ``n`` (including empty feature matrices) raise :class:`ValueError`.
  ``query(..., clamp_k=True)`` clamps an infeasible ``k`` to the population
  limit instead (the small-population escape hatch churned serving sessions
  rely on); a population with no feasible neighbour at all still raises;
* ``update(moved_mask, features)`` pushes an explicit mover hint,
  ``insert(features)`` grows the state by appended rows and
  ``delete(keep_mask)`` shrinks it to the kept rows — the serving node
  lifecycle's O(m·n) / O(r·n) repairs.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.hypergraph import knn as _knn


class IncrementalBackend:
    """Exact k-NN index over one embedding stream.

    Between topology refreshes of a mostly-converged model only a small
    fraction of node embeddings move.  The index keeps the last feature
    matrix and the last ``(n, k)`` neighbour lists *with their distances*,
    and on the next query classifies every row:

    1. **movers** — rows whose features changed: all their distances
       changed, re-run the exact kernel;
    2. rows some *non-member* mover moved to within the stored k-th distance
       of (the mover may enter the list): re-run the exact kernel;
    3. rows whose stored list contains movers that all stayed **strictly
       inside** the stored k-th distance: membership provably unchanged — the
       row is repaired locally by substituting the movers' new distances and
       re-sorting the stored ``(distance, index)`` pairs, no kernel query;
    4. rows whose member-movers reach or cross the k-th distance (someone
       outside might take the vacated slot): re-run the exact kernel;
    5. everything else: untouched.

    All distance comparisons use values produced by the shared kernel
    (:func:`repro.hypergraph.knn.distance_block`).  For the **float64 kernel
    (the default) the output is bit-identical to a full rebuild after
    arbitrary move/no-move sequences** — cdist computes each pair
    independently of slab shape, and the property tests pin this including
    distance ties; boundary comparisons carry a small epsilon margin that
    converts would-be misses into harmless re-queries.  The float32 kernel
    mean-centres and expands, so its values shift by rounding when the point
    set (and hence the centre) changes; the index therefore treats float32
    conservatively — local repair is disabled (rows listing a mover are
    re-queried) and the invalidation margin is widened to the kernel's
    radius-scaled error bound.  Kept rows are still only correct up to that
    error, and near-exact ties can order differently from a fresh query, so
    the bit-identity contract is float64-only.

    When the mover fraction exceeds :attr:`CHURN_THRESHOLD` the partial pass
    would touch most rows anyway, so the index falls back to one full
    rebuild.  A query whose shape, dtype, ``k``, ``include_self`` or
    ``metric`` differs from the stored state's rebuilds too, and replaces
    the state.
    """

    #: Mover fraction beyond which a full rebuild is cheaper than the
    #: partial re-query (the invalidated set grows super-linearly in churn).
    CHURN_THRESHOLD = 0.35

    def __init__(self, *, block_size: int | None = None) -> None:
        self.block_size = block_size
        #: Diagnostics: full rebuilds / partial refreshes / rows re-queried.
        self.full_rebuilds = 0
        self.partial_refreshes = 0
        self.rows_requeried = 0
        self.rows_repaired_locally = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        #: {"features", "indices", "distances", "include_self", "metric"}.
        self._state: dict[str, Any] | None = None

    def reset(self) -> None:
        """Drop the stored state: the next query rebuilds cold."""
        self._state = None

    def stats(self) -> dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "partial_refreshes": self.partial_refreshes,
            "rows_requeried": self.rows_requeried,
            "rows_repaired_locally": self.rows_repaired_locally,
            "rows_inserted": self.rows_inserted,
            "rows_deleted": self.rows_deleted,
        }

    # ------------------------------------------------------------------ #
    # Copies and persistence (slots clone their index; bundles carry it)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, Any] | None:
        """Copy of the stored state, or ``None`` before the first query."""
        if self._state is None:
            return None
        return {
            key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in self._state.items()
        }

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Install a state captured by :meth:`export_state` (copied in).

        ``include_self`` and ``metric`` default to the query defaults.
        Arrays that cannot describe one ``(n, k)`` answer over an ``(n, d)``
        feature matrix raise :class:`~repro.errors.ConfigurationError`.
        """
        features = np.asarray(state["features"])
        indices = np.asarray(state["indices"], dtype=np.int64)
        distances = np.asarray(state["distances"])
        if (
            features.ndim != 2
            or indices.ndim != 2
            or indices.shape != distances.shape
            or indices.shape[0] != features.shape[0]
            or distances.dtype != features.dtype
        ):
            raise ConfigurationError(
                f"index state arrays are inconsistent: features {features.shape}, "
                f"indices {indices.shape}, distances {distances.shape}"
            )
        self._state = {
            "features": features.copy(),
            "indices": indices.copy(),
            "distances": distances.copy(),
            "include_self": bool(state.get("include_self", False)),
            "metric": str(state.get("metric", "euclidean")),
        }

    def clone(self) -> "IncrementalBackend":
        """An independent index holding a copy of this one's state.

        The copy starts with zeroed counters: it counts its owner's work.
        """
        twin = IncrementalBackend(block_size=self.block_size)
        twin._state = self.export_state()
        return twin

    # ------------------------------------------------------------------ #
    def query(self, features, k, *, include_self=False, metric="euclidean", clamp_k=False):
        return self._query(
            features, k, include_self, metric, forced_movers=None, clamp_k=clamp_k
        )

    def update(self, moved_mask, features):
        """Refresh using an explicit mover hint (requires a prior query).

        ``k``/``include_self``/``metric`` are taken from the stored state,
        which must have the shape and dtype of ``features``.
        """
        probe = _knn.as_feature_matrix(features)
        state = self._state
        if state is None or state["features"].shape != probe.shape or (
            state["features"].dtype != probe.dtype
        ):
            raise ConfigurationError(
                "IncrementalBackend.update() needs a prior query() of matching "
                "shape/dtype to know k/include_self/metric"
            )
        moved_mask = np.asarray(moved_mask, dtype=bool)
        return self._query(
            features, state["indices"].shape[1], state["include_self"], state["metric"],
            forced_movers=moved_mask,
        )

    def insert(self, features) -> bool:
        """Grow the stored state by the rows appended to ``features``.

        ``features`` is the *full* ``(n_new, d)`` matrix whose trailing rows
        are new nodes, continuing the stored state's stream (same ``d`` and
        dtype, fewer rows).  The state is extended **exactly with respect to
        its stored coordinates**: the new rows get a fresh exact row query
        (O(m·n), not O(n²)), and existing rows whose k-th-distance radius a
        new node reaches are exactly re-queried — everyone else keeps their
        list.  The state is then a valid incremental baseline, so a
        follow-up :meth:`query`/:meth:`update` (which handles any *moved*
        existing rows) returns the same lists as a cold rebuild, under the
        same float64 bit-identity / float32 tolerance contract as the rest
        of the index.

        Returns ``True`` when the state was grown; ``False`` when there is no
        state this stream continues, or the insertion exceeds
        :attr:`CHURN_THRESHOLD` (the state is then dropped and the next query
        performs one full rebuild).
        """
        features = _knn.as_feature_matrix(features)
        n_new = features.shape[0]
        state = self._state
        if (
            state is None
            or state["features"].shape[1] != features.shape[1]
            or state["features"].dtype != features.dtype
            or state["features"].shape[0] >= n_new
        ):
            return False
        n_old = state["features"].shape[0]
        m = n_new - n_old
        if m > self.CHURN_THRESHOLD * n_new:
            # Growing would touch most rows anyway; drop the state so the
            # next query performs one clean full rebuild.
            self._state = None
            return False
        k = state["indices"].shape[1]
        include_self, metric = state["include_self"], state["metric"]
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
        state["features"] = baseline
        state["indices"] = indices
        state["distances"] = distances
        self.rows_inserted += m
        self.rows_requeried += int(rows.size) + m
        return True

    def delete(self, keep_mask) -> bool:
        """Shrink a stored state of ``keep_mask.size`` rows to the kept rows.

        The incremental mirror of :meth:`insert`, and the O(r·n) half of the
        serving node lifecycle.  Removing points never changes the distance
        between two survivors, so a kept row whose stored k-list contains no
        deleted node still holds its true ``k`` nearest survivors *in the
        same order* — it survives with its stored neighbour indices remapped,
        no distance work at all.  A row that listed a deleted node has a
        vacated slot an unseen survivor may take, so it is exactly re-queried
        against the state's stored (kept) coordinates — O(r·n) total for the
        ``r`` such rows.  The shrunken state is then a valid incremental
        baseline: a follow-up :meth:`query`/:meth:`update` resolves any
        *moved* survivors as usual and returns, bit-identically, what a cold
        rebuild over the surviving rows returns — pinned by the index tests.
        The float32 kernel mean-centres on its operand set, so removing
        points perturbs *every* stored distance value and near-ties reorder
        wholesale against a fresh query (pervasive on tie-heavy data, not an
        edge case); a float32 state is therefore **dropped** rather than
        repaired — the next query performs one clean full rebuild, which
        keeps deletion bit-identical to a cold rebuild under both precisions.

        A state whose deleted fraction exceeds :attr:`CHURN_THRESHOLD` (the
        repair would touch most rows anyway), or whose ``k`` is infeasible
        for the shrunken row count, is dropped too.  Returns ``True`` when
        the state was shrunk in place; ``False`` when nothing was removed,
        no state of ``keep_mask.size`` rows exists, or the state was dropped.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.ndim != 1:
            raise ShapeError(f"keep_mask must be 1-D, got shape {keep_mask.shape}")
        n = keep_mask.size
        keep_ids = np.flatnonzero(keep_mask)
        removed = n - keep_ids.size
        state = self._state
        if removed == 0 or state is None or state["features"].shape[0] != n:
            return False
        k = state["indices"].shape[1]
        include_self, metric = state["include_self"], state["metric"]
        limit = keep_ids.size if include_self else keep_ids.size - 1
        if (
            removed > self.CHURN_THRESHOLD * n
            or k > limit
            or state["features"].dtype == np.float32
        ):
            self._state = None  # dropped: one clean full rebuild on the next query
            return False
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep_ids] = np.arange(keep_ids.size, dtype=np.int64)
        features = state["features"][keep_ids]
        # Rows whose k-list contained a deleted node must be re-queried (the
        # vacated slot may be taken by an unseen survivor); every other kept
        # row keeps its list with the indices remapped — deleted members
        # show up as the remap's -1 sentinel.
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
        state["features"] = features
        state["indices"] = indices
        state["distances"] = distances
        self.rows_deleted += removed
        self.rows_requeried += int(requery.size)
        return True

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
        # Clamp BEFORE the state check so a small-population query matches
        # (and maintains) the state stored for the feasible k.
        features, k = _knn._validate(features, k, include_self, clamp_k=clamp_k)
        n = features.shape[0]
        state = self._state
        if (
            state is None
            or state["features"].shape != features.shape
            or state["features"].dtype != features.dtype
            or state["indices"].shape[1] != k
            or state["include_self"] != bool(include_self)
            or state["metric"] != metric
        ):
            return self._full_rebuild(features, k, include_self, metric)

        movers = (features != state["features"]).any(axis=1)
        if forced_movers is not None:
            if forced_movers.shape != (n,):
                raise ShapeError(
                    f"moved_mask must have shape ({n},), got {forced_movers.shape}"
                )
            movers = movers | forced_movers

        mover_ids = np.flatnonzero(movers)
        if mover_ids.size == 0:
            return state["indices"].copy()
        if mover_ids.size > self.CHURN_THRESHOLD * n:
            return self._full_rebuild(features, k, include_self, metric)

        indices = state["indices"]
        distances = state["distances"]
        kth = distances[:, -1]
        float32_kernel = features.dtype == np.float32
        # float32: the kernel's values are only trustworthy up to a
        # radius-scaled error (any mover that could *possibly* matter triggers
        # a re-query); float64: a tiny relative margin absorbs boundary ties.
        margin = self._invalidation_margin(features, kth)

        # Which stored members are movers, and the mover column they map to.
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

    def _full_rebuild(self, features, k, include_self, metric):
        n = features.shape[0]
        indices, distances = _knn.knn_query_rows(
            features, np.arange(n, dtype=np.int64), k,
            include_self=include_self, metric=metric, block_size=self.block_size,
        )
        self._state = {
            "features": features.copy(),
            "indices": indices,
            "distances": distances,
            "include_self": bool(include_self),
            "metric": metric,
        }
        self.full_rebuilds += 1
        self.rows_requeried += n
        return indices.copy()

    def __repr__(self) -> str:
        return f"IncrementalBackend(block_size={self.block_size})"
