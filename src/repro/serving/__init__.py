"""repro.serving — frozen-model inference outside the training loop.

The serving layer turns a trained model into a deployable artefact:

* :class:`FrozenModel` — compiles a trained DHGNN or DHGCN into a plan that
  serves copies of its trained layers, through the model's own per-layer
  step, over the already-resolved propagation operators; logits equal
  ``Trainer`` evaluation by construction;
* :class:`OperatorStore` — one-file persistence of operators, weights and
  each layer's k-NN index state, so server restarts skip cold topology
  rebuilds entirely;
* :class:`InferenceSession` — queries plus the full online node lifecycle
  through incremental k-NN index repairs: feature updates, insertion,
  deletion (lazy tombstoning), compaction (physical shrink + id remap) and
  periodic cluster re-assignment; a churned session freezes back into a
  bundleable model with :meth:`InferenceSession.to_frozen`;
* :class:`Generation` — one forward frozen into read-only arrays (labels
  computed once, logits, embeddings, alive mask); every query, direct or
  over HTTP, is :meth:`Generation.answer` on one of them;
* :class:`ServingServer` (``repro.serving.server``) — an asyncio HTTP/JSON
  front-end over a :class:`SessionPool`: reads are answered inline from the
  current published generation, a single-writer mutation path republishes
  (one pointer swap) after every write, and admission control caps the
  requests in flight with graceful drain.  ``python -m repro.cli serve
  --bundle ...`` starts one;
* fault tolerance (``repro.serving.wal`` / ``repro.serving.faults``) — a
  checksummed, fsync'd :class:`WriteAheadLog` journals every mutation
  before it is applied, :meth:`SessionPool.recover` replays the journal
  suffix on top of the last atomic checkpoint (bit-identical to a
  never-crashed run), a failed writer quarantines the pool into read-only
  degraded mode, and a :func:`fault_registry` of named crash/delay/raise
  injection points lets tests kill the process at every fsync/apply/publish
  boundary.

Quickstart (see ``examples/serving_quickstart.py``)::

    trainer = Trainer(model, dataset, config)
    trainer.train()
    frozen = trainer.export_frozen("model_bundle.npz")

    # ... later, in a serving process:
    session = InferenceSession(FrozenModel.load("model_bundle.npz"))
    labels = session.predict([0, 5, 42])
    session.insert_nodes(new_node_features)
    session.delete_nodes([5])              # lazy tombstone
    remap = session.compact()              # physical shrink, old->new ids
    session.reassign_clusters(every_n=10)  # background staleness bound
"""

from repro.serving.faults import (
    CRASH_EXIT_CODE,
    FaultInjected,
    FaultRegistry,
    clear_faults,
    configure_faults,
    declare_fault_point,
    fault_point,
    fault_registry,
)
from repro.serving.frozen import FrozenModel, TopologySlot
from repro.serving.server import (
    ServerConfig,
    ServingServer,
    SessionPool,
    WriterQuarantinedError,
)
from repro.serving.session import Generation, InferenceSession
from repro.serving.store import OperatorStore, pack_hypergraph, unpack_hypergraph
from repro.serving.wal import (
    WAL_HEADER,
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "FaultRegistry",
    "FrozenModel",
    "Generation",
    "InferenceSession",
    "OperatorStore",
    "ServerConfig",
    "ServingServer",
    "SessionPool",
    "TopologySlot",
    "WAL_HEADER",
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
    "WriterQuarantinedError",
    "clear_faults",
    "configure_faults",
    "declare_fault_point",
    "fault_point",
    "fault_registry",
    "pack_hypergraph",
    "unpack_hypergraph",
]
