"""Frozen models: the trained layers, served over resolved operators.

:class:`FrozenModel` compiles a trained :class:`DHGNN <repro.models.DHGNN>`
or :class:`DHGCN <repro.core.DHGCN>` into a *plan*: private copies of the
model's trained layer modules plus the propagation operators it last
resolved.  Serving a layer calls the model's own per-layer step
(:meth:`DHGNN.layer <repro.models.DHGNN.layer>`, :meth:`DHGCN.layer
<repro.core.DHGCN.layer>`) — the code the model's ``forward`` runs after
dropout — so served logits equal ``Trainer`` evaluation by construction,
under both precision policies.  The copies' parameters require no gradient
and every input keeps its own dtype, so a served forward records no backward
graph and enters neither ``no_grad()`` nor ``precision()``: it flips no
process-wide switch, which matters because the server runs its writer in an
executor thread.  Other architectures cannot be frozen.

A compiled plan also carries the *topology slots* — per-layer hypergraphs
split into their k-NN / cluster / static parts, each with the layer's own
k-NN index — which is what :class:`repro.serving.InferenceSession` uses to
repair the topology incrementally when nodes are inserted, updated or
deleted, instead of rebuilding it.  :meth:`FrozenModel.save` /
:meth:`FrozenModel.load` round-trip everything through an
:class:`repro.serving.OperatorStore`, so a restarted server answers its
first request without a single k-NN distance computation — and since a
churned session can be snapshotted back into a frozen model
(:meth:`InferenceSession.to_frozen`), the same machinery round-trips
post-deletion state: insert / delete / compact, checkpoint, and the
restored process carries the compacted features, operators and k-NN index
states.

A bundle stores each layer's parameters under fixed names
(``layer{i}.weight|bias`` for DHGNN, ``block{i}.W_static|b_static|W_dynamic|
b_dynamic|gate`` for DHGCN; see ``_WEIGHT_NAMES``); loading rebuilds the
layer modules from their shapes.  Bundles written before each slot carried
its own index held one shared backend instead (a ``meta["backend"]`` key and
``backend_state*`` groups).  Those are ignored, whatever backend they name:
such a bundle loads with empty indices, answers exactly as before, and each
layer's first refresh rebuilds its k-NN cold.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, no_grad
from repro.core.layers import DualChannelBlock
from repro.core.model import DHGCN
from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.neighbors import IncrementalBackend
from repro.models.dhgnn import DHGNN
from repro.nn import Linear
from repro.nn.module import Module
from repro.precision import precision as precision_scope
from repro.serving.store import OperatorStore, pack_hypergraph, unpack_hypergraph

_SERVING_FORMAT = "repro-serving-bundle/v1"


class TopologySlot:
    """One layer's dynamic topology, split into its generator parts.

    The pooled hypergraph a dynamic layer convolves over is a union of up to
    three parts, in construction order: ``n`` k-NN hyperedges (one per node),
    the k-means cluster hyperedges, and (DHGNN only) the dataset's static
    hyperedges.  The slot keeps the parts separate so a scoped refresh can
    replace just the k-NN rows from its own incremental index, extend the
    cluster memberships by centroid assignment, and pad the static part —
    instead of re-running the full construction pipeline.
    """

    def __init__(
        self,
        position: int,
        hypergraph: Hypergraph,
        *,
        k_neighbors: int,
        use_knn: bool,
        cluster_members: list[np.ndarray],
        static_part: Hypergraph | None,
        weighted: bool,
        temperature: float,
        index: IncrementalBackend | None = None,
    ) -> None:
        self.position = position
        self.hypergraph = hypergraph
        self.k_neighbors = int(k_neighbors)
        self.use_knn = bool(use_knn)
        self.cluster_members = [np.asarray(m, dtype=np.int64) for m in cluster_members]
        self.static_part = static_part
        self.weighted = bool(weighted)
        self.temperature = float(temperature)
        #: This layer's k-NN index (empty until its first query).
        self.index = index if index is not None else IncrementalBackend()

    def clone(self) -> "TopologySlot":
        """Independent copy, index included (hypergraphs are immutable and
        stay shared)."""
        return TopologySlot(
            self.position,
            self.hypergraph,
            k_neighbors=self.k_neighbors,
            use_knn=self.use_knn,
            cluster_members=[members.copy() for members in self.cluster_members],
            static_part=self.static_part,
            weighted=self.weighted,
            temperature=self.temperature,
            index=self.index.clone(),
        )

    @classmethod
    def from_pooled(
        cls,
        position: int,
        hypergraph: Hypergraph,
        *,
        k_neighbors: int,
        use_knn: bool,
        use_cluster: bool,
        static_part: Hypergraph | None,
        weighted: bool,
        temperature: float,
        index: IncrementalBackend | None,
    ) -> "TopologySlot":
        """Split a pooled layer hypergraph back into its generator parts.

        The slot gets a clone of ``index`` (the model layer's k-NN index),
        or an empty index for ``None``.

        Raises :class:`~repro.errors.ConfigurationError` when the pooled
        edge counts cannot be reconciled with the generator flags.
        Relies on the construction order (k-NN, clusters, static) and on the
        k-NN generator emitting exactly one hyperedge per node.
        """
        edges = hypergraph.hyperedges
        n_knn = hypergraph.n_nodes if use_knn else 0
        n_static = static_part.n_hyperedges if static_part is not None else 0
        n_cluster = hypergraph.n_hyperedges - n_knn - n_static
        if n_cluster < 0 or (not use_cluster and n_cluster > 0):
            raise ConfigurationError(
                f"layer hypergraph of slot {position} does not match its generators "
                f"({hypergraph.n_hyperedges} edges, {n_knn} knn + {n_static} static)"
            )
        cluster_members = [
            np.asarray(edges[n_knn + i], dtype=np.int64) for i in range(n_cluster)
        ]
        return cls(
            position,
            hypergraph,
            k_neighbors=k_neighbors,
            use_knn=use_knn,
            cluster_members=cluster_members,
            static_part=static_part,
            weighted=weighted,
            temperature=temperature,
            index=None if index is None else index.clone(),
        )


# --------------------------------------------------------------------------- #
# Plan
# --------------------------------------------------------------------------- #
#: Per plan kind: bundle name of a layer weight -> the layer module's
#: parameter name.  Layer ``i``'s arrays are stored as ``{prefix}{i}.{name}``.
_WEIGHT_NAMES = {
    "dhgnn": {"weight": "weight", "bias": "bias"},
    "dhgcn": {
        "W_static": "static_conv.linear.weight",
        "b_static": "static_conv.linear.bias",
        "W_dynamic": "dynamic_conv.linear.weight",
        "b_dynamic": "dynamic_conv.linear.bias",
        "gate": "gate",
    },
}
_LAYER_PREFIX = {"dhgnn": "layer", "dhgcn": "block"}
#: Operator-store key of layer ``i``'s operator: ``(name, i)``.
_OPERATOR_KEY = {"dhgnn": "layer", "dhgcn": "dynamic"}


def _serving_layers(layers: list[Module], dtype: np.dtype) -> list[Module]:
    """Cast ``layers`` to ``dtype`` in place and make their parameters grad-free."""
    for layer in layers:
        layer.to(dtype)
        for parameter in layer.parameters():
            parameter.requires_grad = False
    return layers


def _load_layer(kind: str, index: int, weights: dict[str, np.ndarray], meta: dict) -> Module:
    """Rebuild layer ``index`` of a bundle from its stored weight arrays."""
    prefix = f"{_LAYER_PREFIX[kind]}{index}."
    state = {
        parameter: weights[prefix + name]
        for name, parameter in _WEIGHT_NAMES[kind].items()
        if prefix + name in weights
    }
    if kind == "dhgnn":
        layer: Module = Linear(*state["weight"].shape, bias="bias" in state, seed=0)
    else:
        shape = next(value.shape for name, value in state.items() if name.endswith("weight"))
        layer = DualChannelBlock(*shape, fusion=meta["fusions"][index], seed=0)
    layer.to(meta["precision"])
    layer.load_state_dict(state)
    return layer


class _Plan:
    """A compiled DHGNN or DHGCN (``kind``).

    ``layers`` are the plan's own copies of the trained layer modules
    (``Linear`` for DHGNN, ``DualChannelBlock`` for DHGCN) and ``operators``
    each layer's resolved propagation operator — DHGCN's dynamic channel,
    ``None`` where a layer has none.  ``slots`` hold the dynamic topology.
    DHGCN's static channel adds ``static_operator`` and the static
    hypergraph the session pads, masks and (with edge weighting) reweights;
    DHGNN plans leave those ``None``.
    """

    def __init__(
        self,
        kind: str,
        layers: list[Module],
        operators: list[sp.csr_matrix | None],
        slots: list[TopologySlot],
        *,
        static_operator: sp.csr_matrix | None = None,
        static_hypergraph: Hypergraph | None = None,
        reweighted_static: Hypergraph | None = None,
        use_edge_weighting: bool = False,
        weight_temperature: float = 1.0,
    ) -> None:
        self.kind = kind
        self.layers = layers
        self.operators = list(operators)
        self.slots = slots
        self.static_operator = static_operator
        self.static_hypergraph = static_hypergraph
        self.reweighted_static = reweighted_static
        self.use_edge_weighting = bool(use_edge_weighting)
        self.weight_temperature = float(weight_temperature)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def clone(self) -> "_Plan":
        """Copy with its own operator list and slots (read-only parts shared)."""
        twin = copy.copy(self)
        twin.operators = list(self.operators)
        twin.slots = [slot.clone() for slot in self.slots]
        return twin

    def set_operator(self, position: int, operator: sp.csr_matrix) -> None:
        self.operators[position] = operator

    def apply_layer(self, position: int, hidden: np.ndarray) -> np.ndarray:
        """Layer ``position`` of the model's forward (no dropout), in ``hidden``'s dtype."""
        inputs = Tensor(hidden, dtype=hidden.dtype)
        last = position == self.n_layers - 1
        if self.kind == "dhgnn":
            out = DHGNN.layer(self.layers[position], inputs, self.operators[position], last=last)
        else:
            out = DHGCN.layer(
                self.layers[position],
                inputs,
                self.static_operator,
                self.operators[position],
                last=last,
            )
        return out.data

    def run(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Forward pass returning every layer's input plus the logits."""
        hidden = features
        layer_inputs = []
        for position in range(self.n_layers):
            layer_inputs.append(hidden)
            hidden = self.apply_layer(position, hidden)
        return layer_inputs, hidden


# --------------------------------------------------------------------------- #
# FrozenModel
# --------------------------------------------------------------------------- #
class FrozenModel:
    """A trained model compiled for inference.

    Construct with :meth:`compile` (from a live, set-up model) or
    :meth:`load` (from a bundle written by :meth:`save`).  The frozen model
    owns the feature matrix it serves (transductive models predict for their
    node set) and the compiled plan, whose topology slots carry each layer's
    k-NN index — everything :class:`repro.serving.InferenceSession` needs.
    """

    def __init__(
        self,
        plan: _Plan,
        features: np.ndarray,
        precision_name: str,
        *,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.plan = plan
        self.precision_name = precision_name
        self.dtype = np.dtype(precision_name)
        self.features = np.asarray(features).astype(self.dtype, copy=False)
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(cls, model: Any, features: np.ndarray, *, precision: str | None = None) -> "FrozenModel":
        """Compile a set-up (typically trained) DHGNN or DHGCN against ``features``.

        ``precision`` defaults to the dtype the model's parameters are in —
        i.e. whatever policy it was trained under.  If the model has never
        run a forward pass its operators are materialised with one
        evaluation forward first (so compiling straight after ``setup()``
        works too).  The plan deep-copies the trained layers, so training
        the model further never changes the frozen model's answers.  Any
        other architecture raises :class:`~repro.errors.ConfigurationError`.
        """
        if isinstance(model, DHGNN):
            compile_plan = cls._compile_dhgnn
        elif isinstance(model, DHGCN):
            compile_plan = cls._compile_dhgcn
        else:
            raise ConfigurationError(
                f"only DHGNN and DHGCN models can be frozen, got {type(model).__name__}"
            )
        model.require_setup()
        if precision is None:
            precision = model.parameters()[0].data.dtype.name
        dtype = np.dtype(precision)
        features = np.asarray(features).astype(dtype, copy=False)
        plan = compile_plan(model, features, precision)
        meta = {"model_name": model.name}
        return cls(plan, features, precision, meta=meta)

    @staticmethod
    def _materialise(model: Any, features: np.ndarray, precision: str) -> None:
        """One evaluation forward to build any missing operators."""
        model.eval()
        with precision_scope(precision), no_grad():
            model(Tensor(features))

    @classmethod
    def _compile_dhgnn(cls, model: DHGNN, features: np.ndarray, precision: str) -> _Plan:
        state = model.export_dynamic_state()
        if any(op is None for op in state["operators"]):
            cls._materialise(model, features, precision)
            state = model.export_dynamic_state()
        slots = [
            TopologySlot.from_pooled(
                position,
                hypergraph,
                k_neighbors=model.k_neighbors,
                use_knn=True,
                use_cluster=True,
                static_part=state["static_hypergraph"],
                weighted=False,
                temperature=1.0,
                index=index,
            )
            for position, (hypergraph, index) in enumerate(
                zip(state["layer_hypergraphs"], state["indices"])
            )
        ]
        layers = _serving_layers(copy.deepcopy(list(model.layers)), np.dtype(precision))
        return _Plan("dhgnn", layers, state["operators"], slots)

    @classmethod
    def _compile_dhgcn(cls, model: DHGCN, features: np.ndarray, precision: str) -> _Plan:
        config = model.config
        state = model.export_dynamic_state()
        if config.use_dynamic and any(op is None for op in state["dynamic_operators"]):
            cls._materialise(model, features, precision)
            state = model.export_dynamic_state()
        slots = []
        if config.use_dynamic:
            for position in range(config.n_layers):
                hypergraph = state["layer_hypergraphs"][position]
                if hypergraph is None:  # pragma: no cover - materialise() built them
                    raise ConfigurationError("dynamic topology missing after materialise")
                slots.append(
                    TopologySlot.from_pooled(
                        position,
                        hypergraph,
                        k_neighbors=config.k_neighbors,
                        use_knn=config.use_knn_hyperedges,
                        use_cluster=config.use_cluster_hyperedges,
                        static_part=None,
                        weighted=config.use_edge_weighting,
                        temperature=config.weight_temperature,
                        index=state["indices"][position],
                    )
                )
        layers = _serving_layers(copy.deepcopy(list(model.blocks)), np.dtype(precision))
        return _Plan(
            "dhgcn",
            layers,
            state["dynamic_operators"],
            slots,
            static_operator=state["static_operator"],
            static_hypergraph=state["static_hypergraph"],
            reweighted_static=state["reweighted_static"],
            use_edge_weighting=config.use_edge_weighting,
            weight_temperature=config.weight_temperature,
        )

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def forward(self, features: np.ndarray | None = None) -> np.ndarray:
        """Full-batch logits (``features`` defaults to the frozen matrix)."""
        return self.run(features)[1]

    def run(self, features: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
        """Layer inputs + logits (the session's refresh pipeline hook)."""
        if features is None:
            features = self.features
        else:
            features = np.asarray(features).astype(self.dtype, copy=False)
        return self.plan.run(features)

    def logits(self) -> np.ndarray:
        return self.forward()

    def predict_labels(self) -> np.ndarray:
        """Predicted class per node — matches ``Trainer.predict`` bit-for-bit."""
        return np.argmax(self.forward(), axis=1)

    def prime(self) -> int:
        """Query each k-NN slot's index once with the serving embeddings.

        Called by :meth:`Trainer.export_frozen` before :meth:`save`, so the
        bundled index states match the serving embeddings and a loaded
        session answers its first prediction — and repairs its first
        insertion or update — without a cold rebuild.  An index whose state
        already matches answers from it with no distance work.  Returns the
        number of slots queried.
        """
        slots = [slot for slot in self.plan.slots if slot.use_knn]
        if not slots:
            return 0
        layer_inputs, _ = self.plan.run(self.features)
        for slot in slots:
            embedding = layer_inputs[slot.position]
            k = min(slot.k_neighbors, max(embedding.shape[0] - 1, 1))
            slot.index.query(embedding, k)
        return len(slots)

    def embeddings(self) -> np.ndarray:
        """Input representation of the final layer (the node embedding)."""
        return self.run()[0][-1]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Any) -> Any:
        """Write the compiled plan as an operator-store bundle (``.npz``).

        The bundle contains the feature matrix, layer weights, resolved
        operators and, per slot, the topology parts and the k-NN index state
        — a loading process serves its first prediction with zero k-NN
        distance computations and can keep inserting nodes incrementally.
        """
        store = OperatorStore()
        plan = self.plan
        meta: dict[str, Any] = {
            "format": _SERVING_FORMAT,
            "plan": plan.kind,
            "precision": self.precision_name,
            "model_meta": self.meta,
            "n_layers": plan.n_layers,
        }
        if plan.kind == "dhgcn":
            meta["fusions"] = [block.fusion for block in plan.layers]
            meta["use_edge_weighting"] = plan.use_edge_weighting
            meta["weight_temperature"] = plan.weight_temperature
        store.put_group("features", {"features": self.features})

        prefix = _LAYER_PREFIX[plan.kind]
        weight_group: dict[str, np.ndarray] = {}
        for index, layer in enumerate(plan.layers):
            parameters = dict(layer.named_parameters())
            for name, parameter in _WEIGHT_NAMES[plan.kind].items():
                if parameter in parameters:
                    weight_group[f"{prefix}{index}.{name}"] = parameters[parameter].data
        store.put_group("weights", weight_group)
        if plan.static_operator is not None:
            store.put_operator(("static",), plan.static_operator)
        for index, operator in enumerate(plan.operators):
            if operator is not None:
                store.put_operator((_OPERATOR_KEY[plan.kind], index), operator)
        static_group: dict[str, np.ndarray] = {}
        if plan.static_hypergraph is not None:
            static_group.update(pack_hypergraph(plan.static_hypergraph, prefix="static."))
        if plan.reweighted_static is not None:
            static_group.update(pack_hypergraph(plan.reweighted_static, prefix="reweighted."))
        if static_group:
            store.put_group("static_hypergraphs", static_group)

        slot_meta = []
        for slot in plan.slots:
            group: dict[str, np.ndarray] = {}
            group.update(pack_hypergraph(slot.hypergraph, prefix="pooled."))
            if slot.static_part is not None:
                group.update(pack_hypergraph(slot.static_part, prefix="static."))
            sizes = np.asarray([m.size for m in slot.cluster_members], dtype=np.int64)
            group["cluster_sizes"] = sizes
            group["cluster_members"] = (
                np.concatenate(slot.cluster_members)
                if slot.cluster_members
                else np.empty(0, dtype=np.int64)
            )
            state = slot.index.export_state()
            if state is not None:
                group.update({f"index.{key}": np.asarray(value) for key, value in state.items()})
            store.put_group(f"slot{slot.position}", group)
            slot_meta.append(
                {
                    "position": slot.position,
                    "k_neighbors": slot.k_neighbors,
                    "use_knn": slot.use_knn,
                    "has_static": slot.static_part is not None,
                    "weighted": slot.weighted,
                    "temperature": slot.temperature,
                }
            )
        meta["slots"] = slot_meta
        store.meta = meta
        return store.save(path)

    @classmethod
    def load(cls, path: str | Any) -> "FrozenModel":
        """Reconstruct a frozen model from a bundle written by :meth:`save`.

        A file that is not a serving bundle, or one whose plan kind is
        unknown, raises :class:`~repro.errors.ConfigurationError`.  An older
        bundle's shared-backend state (see the module docs) is ignored.
        """
        store = OperatorStore.load(path)
        meta = store.meta
        if meta.get("format") != _SERVING_FORMAT:
            raise ConfigurationError(f"{path} is not a serving bundle")
        kind = meta["plan"]
        if kind not in _WEIGHT_NAMES:
            raise ConfigurationError(f"unknown plan kind {kind!r}")
        precision = meta["precision"]
        features = store.get_group("features")["features"]

        slots = []
        for entry in meta["slots"]:
            group = store.get_group(f"slot{entry['position']}")
            sizes = group["cluster_sizes"]
            members = group["cluster_members"]
            bounds = np.concatenate(([0], np.cumsum(sizes)))
            cluster_members = [
                members[bounds[i] : bounds[i + 1]] for i in range(sizes.size)
            ]
            static_part = (
                unpack_hypergraph(group, prefix="static.") if entry["has_static"] else None
            )
            index = IncrementalBackend()
            state = {
                key[len("index."):]: value
                for key, value in group.items()
                if key.startswith("index.")
            }
            if state:
                index.import_state(state)
            slots.append(
                TopologySlot(
                    int(entry["position"]),
                    unpack_hypergraph(group, prefix="pooled."),
                    k_neighbors=int(entry["k_neighbors"]),
                    use_knn=bool(entry["use_knn"]),
                    cluster_members=cluster_members,
                    static_part=static_part,
                    weighted=bool(entry["weighted"]),
                    temperature=float(entry["temperature"]),
                    index=index,
                )
            )

        n_layers = int(meta["n_layers"])
        weights = store.get_group("weights")
        layers = [_load_layer(kind, index, weights, meta) for index in range(n_layers)]
        operators = [
            store.get_operator(key) if store.has_operator(key) else None
            for key in ((_OPERATOR_KEY[kind], index) for index in range(n_layers))
        ]
        static_hypergraph = reweighted_static = None
        if store.has_group("static_hypergraphs"):
            static_group = store.get_group("static_hypergraphs")
            if any(key.startswith("static.") for key in static_group):
                static_hypergraph = unpack_hypergraph(static_group, prefix="static.")
            if any(key.startswith("reweighted.") for key in static_group):
                reweighted_static = unpack_hypergraph(static_group, prefix="reweighted.")
        plan = _Plan(
            kind,
            _serving_layers(layers, np.dtype(precision)),
            operators,
            slots,
            static_operator=(
                store.get_operator(("static",)) if store.has_operator(("static",)) else None
            ),
            static_hypergraph=static_hypergraph,
            reweighted_static=reweighted_static,
            use_edge_weighting=bool(meta.get("use_edge_weighting", False)),
            weight_temperature=float(meta.get("weight_temperature", 1.0)),
        )
        return cls(plan, features, precision, meta=dict(meta.get("model_meta", {})))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenModel(plan={self.plan.kind!r}, n_nodes={self.features.shape[0]}, "
            f"precision={self.precision_name!r})"
        )
