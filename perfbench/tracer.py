"""Span tracing installed from outside the program under test.

The traced run wraps the public callables of each layer where they are
looked up (a function imported by name into another module is patched in
that module too) — the program's source is left unchanged.  Each call
becomes one span: name, start, end, and the time covered by child spans,
kept in memory on a per-thread stack and written out when the run ends.
A span's *self time* is its duration minus the time its children cover.

Coroutine functions (``MicroBatcher.submit``) interleave on the event loop,
so they are recorded as root spans and never become a parent.

Targets that no longer exist (a later version of the program may delete a
layer) are skipped and listed in :attr:`Tracer.missing`; their metrics then
read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:Qualified.name`` → span ``name``.

    ``size`` names what the span's count field holds: ``"len1"`` = length
    of the first positional argument after ``self`` (a batch size),
    ``"grow"`` = bytes the file at ``self.path`` grew by during the call.
    ``inline_under`` lists parent span names under which this call is not a
    span of its own (its time stays with the parent).
    """

    where: str
    name: str
    size: str | None = None
    inline_under: tuple[str, ...] = ()


def _t(where, name, **kwargs) -> list[Target]:
    """One :class:`Target` per ``|``-separated attribute of ``where``."""
    module, _, attrs = where.partition(":")
    prefix, _, last = attrs.rpartition(".")
    return [
        Target(f"{module}:{prefix + '.' if prefix else ''}{attr}", name, **kwargs)
        for attr in last.split("|")
    ]


#: Every wrapped callable, by layer.  Span names are ``<layer>.<stage>``.
TARGETS: list[Target] = [
    # repro.serving.server — front-end, batcher, pool
    *_t("repro.serving.server:MicroBatcher.submit", "batcher.submit"),
    *_t("repro.serving.server:SessionPool.update|insert|delete|compact", "pool.write"),
    *_t("repro.serving.server:SessionPool.publish", "pool.publish"),
    # repro.serving.wal
    *_t("repro.serving.wal:WriteAheadLog.append", "wal.append", size="grow"),
    # repro.serving.session
    *_t("repro.serving.session:InferenceSession.predict_batch", "session.predict_batch",
        size="len1"),
    *_t("repro.serving.session:InferenceSession.predict|compact", "session.refresh"),
    *_t("repro.serving.session:InferenceSession.update_features|insert_nodes|delete_nodes",
        "session.mutate"),
    *_t("repro.serving.session:InferenceSession.fork", "pool.fork"),
    *_t("repro.serving.session:InferenceSession.to_frozen", "pool.to_frozen"),
    # repro.serving.frozen + store
    *_t("repro.serving.frozen:FrozenModel.save", "frozen.save"),
    *_t("repro.serving.frozen:FrozenModel.load", "frozen.load"),
    *_t("repro.serving.frozen:_DHGNNPlan.apply_layer|run", "frozen.apply_layer"),
    *_t("repro.serving.frozen:_DHGCNPlan.apply_layer|run", "frozen.apply_layer"),
    *_t("repro.serving.store:OperatorStore.save", "store.save"),
    # repro.hypergraph.neighbors + knn
    *_t("repro.hypergraph.neighbors:ExactBackend.query", "neighbors.query"),
    *_t("repro.hypergraph.neighbors:IncrementalBackend.query", "neighbors.query"),
    *_t("repro.hypergraph.neighbors:IncrementalBackend.update", "neighbors.update"),
    *_t("repro.hypergraph.neighbors:IncrementalBackend.insert", "neighbors.insert"),
    *_t("repro.hypergraph.neighbors:IncrementalBackend.delete", "neighbors.delete"),
    *_t("repro.hypergraph.refresh:TopologyRefreshEngine.query_neighbors", "neighbors.query"),
    # repro.hypergraph.construction + hypergraph + kmeans
    *_t("repro.hypergraph.construction:knn_hyperedges|hyperedges_from_neighbor_indices",
        "construction.knn_edges"),
    *_t("repro.hypergraph.construction:union_hypergraphs", "construction.union"),
    *_t("repro.hypergraph.construction:kmeans_hyperedges", "construction.kmeans"),
    *_t("repro.hypergraph.kmeans:kmeans|assign_to_centroids", "construction.kmeans"),
    *_t("repro.hypergraph.hypergraph:Hypergraph.__init__", "hypergraph.init"),
    # repro.hypergraph.refresh + laplacian
    *_t("repro.hypergraph.refresh:TopologyRefreshEngine.refresh_operator|"
        "propagation_operator|laplacian", "refresh.operator"),
    *_t("repro.hypergraph.laplacian:hypergraph_propagation_operator|hypergraph_laplacian",
        "refresh.operator"),
    *_t("repro.hypergraph.laplacian:compactness_hyperedge_weights", "laplacian.compactness"),
    # repro.training / core / models / autograd / optim
    *_t("repro.training.trainer:Trainer.evaluate", "trainer.evaluate"),
    *_t("repro.core.model:DHGCN.forward", "trainer.forward",
        inline_under=("trainer.evaluate",)),
    *_t("repro.models.dhgnn:DHGNN.forward", "trainer.forward",
        inline_under=("trainer.evaluate",)),
    *_t("repro.autograd.tensor:Tensor.backward", "autograd.backward"),
    *_t("repro.optim.adam:Adam.step", "optim.step"),
    *_t("repro.optim.sgd:SGD.step", "optim.step"),
    *_t("repro.core.builder:DynamicHypergraphBuilder.build_hypergraph",
        "builder.build_hypergraph"),
    *_t("repro.core.builder:DynamicHypergraphBuilder.build_operator",
        "builder.build_operator"),
]


class Tracer:
    """In-memory span recorder; :meth:`install` patches every target."""

    def __init__(self) -> None:
        #: Finished spans: ``[name, start, end, child_seconds, size]``.
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ---------------------------------------------------------- #
    def _wrap(self, fn, target: Target):
        name = target.name
        spans = self.spans
        inline_under = target.inline_under

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append([name, start, perf_counter(), 0.0, 0])
            return async_span

        size = target.size

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] in inline_under:
                return fn(*args, **kwargs)
            count = 0
            if size == "len1" and len(args) > 1:
                count = len(args[1])
            elif size == "grow":
                path = getattr(args[0], "path", None)
                before = path.stat().st_size if path is not None else 0
            record = [name, perf_counter(), 0.0, 0.0, count]
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += end - record[1]
                if size == "grow" and path is not None:
                    record[4] = path.stat().st_size - before
                spans.append(record)
        return span

    def install(self, targets: list[Target] = TARGETS) -> None:
        """Patch every target on its owner and at every by-name lookup site."""
        for target in targets:
            module_name, _, qualname = target.where.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.where)
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, target)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, target)
                setattr(owner, attr, wrapped)
                if not path:
                    self._patch_lookups(raw, attr, wrapped)
            else:
                self.missing.append(target.where)

    @staticmethod
    def _patch_lookups(original, attr: str, wrapped) -> None:
        """Re-point ``from module import fn`` copies in every ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def self_times(spans: list[list], start: float, end: float) -> dict[str, dict]:
    """Per span name: ``self_s``, ``total_s``, ``calls``, ``size`` and
    ``dur_x_size`` (duration times size, summed) over a window.

    Only spans lying wholly inside ``[start, end]`` count.
    """
    table: dict[str, dict] = {}
    for name, s_start, s_end, child, size in spans:
        if s_start < start or s_end > end:
            continue
        row = table.setdefault(
            name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "size": 0, "dur_x_size": 0.0}
        )
        duration = s_end - s_start
        row["self_s"] += duration - child
        row["total_s"] += duration
        row["calls"] += 1
        row["size"] += size
        row["dur_x_size"] += duration * size
    return table
