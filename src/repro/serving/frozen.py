"""Frozen-model compilation: a no-grad, policy-dtype inference path.

:class:`FrozenModel` compiles a trained model into a *plan* — plain numpy
arrays (weights, gates) plus the already-resolved sparse propagation
operators — whose forward pass performs exactly the arithmetic of the
module's evaluation forward, in the same order, but with no tensor wrappers,
no autograd bookkeeping, no dropout modules and no topology code on the hot
path.  Logits are **bit-identical** to ``Trainer`` evaluation (pinned by
``tests/test_serving.py`` under both precision policies); the only thing
that changes is how fast they are produced.

Two model families get dedicated plans (:class:`DHGNN
<repro.models.DHGNN>` and :class:`DHGCN <repro.core.DHGCN>` — the dynamic
models whose per-layer operators are expensive to rebuild); every other
:class:`~repro.models.base.BaseNodeClassifier` falls back to a generic plan
that runs the module under ``eval`` + ``no_grad`` (grad-free, but not
module-free).

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

Bundles written before each slot carried its own index held one shared
backend instead (a ``meta["backend"]`` key and ``backend_state*`` groups).
Those are ignored, whatever backend they name: such a bundle loads with
empty indices, answers exactly as before, and each layer's first refresh
rebuilds its k-NN cold.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, no_grad
from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.neighbors import IncrementalBackend
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
# Plans
# --------------------------------------------------------------------------- #
class _DHGNNPlan:
    """Compiled DHGNN: per-layer ``relu(op @ (h @ W + b))`` (no relu last)."""

    kind = "dhgnn"

    def __init__(
        self,
        weights: list[tuple[np.ndarray, np.ndarray | None]],
        operators: list[sp.csr_matrix],
        slots: list[TopologySlot],
    ) -> None:
        self.weights = weights
        self.operators = list(operators)
        self.slots = slots

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def clone(self) -> "_DHGNNPlan":
        """Copy with independent mutable state (weights/operators shared)."""
        return _DHGNNPlan(
            self.weights, list(self.operators), [slot.clone() for slot in self.slots]
        )

    def set_operator(self, position: int, operator: sp.csr_matrix) -> None:
        self.operators[position] = operator

    def apply_layer(self, position: int, hidden: np.ndarray) -> np.ndarray:
        weight, bias = self.weights[position]
        out = hidden @ weight
        if bias is not None:
            out = out + bias
        result = self.operators[position] @ out
        if sp.issparse(result):  # pragma: no cover - operators are CSR
            result = result.toarray()
        result = np.asarray(result, dtype=hidden.dtype)
        if position < self.n_layers - 1:
            # relu exactly as the autograd op computes it: ``a * (a > 0)``
            # (keeps the same signed zeros, hence bit-identical activations).
            result = result * (result > 0)
        return result

    def run(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Forward pass returning every layer's input plus the logits."""
        hidden = features
        layer_inputs = []
        for position in range(self.n_layers):
            layer_inputs.append(hidden)
            hidden = self.apply_layer(position, hidden)
        return layer_inputs, hidden


class _DHGCNPlan:
    """Compiled DHGCN: dual-channel blocks with gated fusion."""

    kind = "dhgcn"

    def __init__(
        self,
        blocks: list[dict[str, Any]],
        static_operator: sp.csr_matrix | None,
        dynamic_operators: list[sp.csr_matrix | None],
        slots: list[TopologySlot],
        *,
        static_hypergraph: Hypergraph | None,
        reweighted_static: Hypergraph | None,
        use_edge_weighting: bool,
        weight_temperature: float,
    ) -> None:
        self.blocks = blocks
        self.static_operator = static_operator
        self.dynamic_operators = list(dynamic_operators)
        self.slots = slots
        self.static_hypergraph = static_hypergraph
        self.reweighted_static = reweighted_static
        self.use_edge_weighting = bool(use_edge_weighting)
        self.weight_temperature = float(weight_temperature)

    @property
    def n_layers(self) -> int:
        return len(self.blocks)

    def clone(self) -> "_DHGCNPlan":
        """Copy with independent mutable state (weights/operators shared)."""
        return _DHGCNPlan(
            self.blocks,
            self.static_operator,
            list(self.dynamic_operators),
            [slot.clone() for slot in self.slots],
            static_hypergraph=self.static_hypergraph,
            reweighted_static=self.reweighted_static,
            use_edge_weighting=self.use_edge_weighting,
            weight_temperature=self.weight_temperature,
        )

    def set_operator(self, position: int, operator: sp.csr_matrix) -> None:
        self.dynamic_operators[position] = operator

    def _conv(
        self,
        operator: sp.csr_matrix,
        hidden: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
    ) -> np.ndarray:
        out = hidden @ weight
        if bias is not None:
            out = out + bias
        result = operator @ out
        if sp.issparse(result):  # pragma: no cover - operators are CSR
            result = result.toarray()
        return np.asarray(result, dtype=hidden.dtype)

    def apply_layer(self, position: int, hidden: np.ndarray) -> np.ndarray:
        block = self.blocks[position]
        fusion = block["fusion"]
        if fusion == "static_only":
            out = self._conv(self.static_operator, hidden, block["W_static"], block["b_static"])
        elif fusion == "dynamic_only":
            out = self._conv(
                self.dynamic_operators[position], hidden, block["W_dynamic"], block["b_dynamic"]
            )
        else:
            static_out = self._conv(
                self.static_operator, hidden, block["W_static"], block["b_static"]
            )
            dynamic_out = self._conv(
                self.dynamic_operators[position], hidden, block["W_dynamic"], block["b_dynamic"]
            )
            if fusion == "sum":
                out = static_out * 0.5 + dynamic_out * 0.5
            else:
                gate = 1.0 / (1.0 + np.exp(-block["gate"]))
                out = static_out * gate + dynamic_out * (1.0 - gate)
        if position < self.n_layers - 1:
            out = out * (out > 0)
        return out

    def run(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        hidden = features
        layer_inputs = []
        for position in range(self.n_layers):
            layer_inputs.append(hidden)
            hidden = self.apply_layer(position, hidden)
        return layer_inputs, hidden


class _ModulePlan:
    """Fallback plan: run the module itself under ``eval`` + ``no_grad``.

    Grad-free (no backward graph is recorded) but not module-free; supports
    logits only — embeddings and scoped topology refresh need one of the
    dedicated plans.
    """

    kind = "module"

    def __init__(self, model: Any, precision_name: str) -> None:
        self.model = model
        self.precision_name = precision_name
        self.slots: list[TopologySlot] = []

    def clone(self) -> "_ModulePlan":
        """Module plans hold no session-mutable state; sharing is safe."""
        return self

    @property
    def n_layers(self) -> int:
        return 1

    def run(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        self.model.eval()
        with precision_scope(self.precision_name), no_grad():
            logits = self.model(Tensor(features)).data
        return [features], logits


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
        plan: Any,
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
        """Compile a set-up (typically trained) model against ``features``.

        ``precision`` defaults to the dtype the model's parameters are in —
        i.e. whatever policy it was trained under.  If the model has never
        run a forward pass its operators are materialised with one
        evaluation forward first (so compiling straight after ``setup()``
        works too).  A model with no parameters (or an unsupported
        architecture) raises :class:`~repro.errors.ConfigurationError`.
        """
        from repro.core.model import DHGCN
        from repro.models.dhgnn import DHGNN

        parameters = model.parameters()
        if not parameters:
            raise ConfigurationError("cannot freeze a model with no parameters")
        if precision is None:
            precision = parameters[0].data.dtype.name
        dtype = np.dtype(precision)
        features = np.asarray(features).astype(dtype, copy=False)

        if isinstance(model, DHGNN):
            plan = cls._compile_dhgnn(model, features, precision)
        elif isinstance(model, DHGCN):
            plan = cls._compile_dhgcn(model, features, precision)
        else:
            if not getattr(model, "_is_setup", True):
                raise ConfigurationError("model must be set up before freezing")
            model.eval()
            plan = _ModulePlan(model, precision)

        meta = {"model_name": getattr(model, "name", type(model).__name__)}
        return cls(plan, features, precision, meta=meta)

    @staticmethod
    def _materialise(model: Any, features: np.ndarray, precision: str) -> None:
        """One evaluation forward to build any missing operators."""
        model.eval()
        with precision_scope(precision), no_grad():
            model(Tensor(features))

    @classmethod
    def _compile_dhgnn(cls, model: Any, features: np.ndarray, precision: str) -> _DHGNNPlan:
        model.require_setup()
        state = model.export_dynamic_state()
        if any(op is None for op in state["operators"]):
            cls._materialise(model, features, precision)
            state = model.export_dynamic_state()
        weights = [
            (
                layer.weight.data.copy(),
                None if layer.bias is None else layer.bias.data.copy(),
            )
            for layer in model.layers
        ]
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
        return _DHGNNPlan(weights, state["operators"], slots)

    @classmethod
    def _compile_dhgcn(cls, model: Any, features: np.ndarray, precision: str) -> _DHGCNPlan:
        model.require_setup()
        config = model.config
        state = model.export_dynamic_state()
        if config.use_dynamic and any(op is None for op in state["dynamic_operators"]):
            cls._materialise(model, features, precision)
            state = model.export_dynamic_state()
        blocks = []
        for block in model.blocks:
            entry: dict[str, Any] = {"fusion": block.fusion}
            if block.static_conv is not None:
                entry["W_static"] = block.static_conv.linear.weight.data.copy()
                bias = block.static_conv.linear.bias
                entry["b_static"] = None if bias is None else bias.data.copy()
            else:
                entry["W_static"] = entry["b_static"] = None
            if block.dynamic_conv is not None:
                entry["W_dynamic"] = block.dynamic_conv.linear.weight.data.copy()
                bias = block.dynamic_conv.linear.bias
                entry["b_dynamic"] = None if bias is None else bias.data.copy()
            else:
                entry["W_dynamic"] = entry["b_dynamic"] = None
            entry["gate"] = None if block.gate is None else block.gate.data.copy()
            blocks.append(entry)
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
        return _DHGCNPlan(
            blocks,
            state["static_operator"],
            state["dynamic_operators"],
            slots,
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
        if features is None:
            features = self.features
        else:
            features = np.asarray(features).astype(self.dtype, copy=False)
        _, logits = self.plan.run(features)
        return logits

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
        """Input representation of the final layer (the node embedding).

        Raises :class:`~repro.errors.ConfigurationError` for generic module
        plans, which only expose logits.
        """
        layer_inputs, _ = self.run()
        if isinstance(self.plan, _ModulePlan):
            raise ConfigurationError(
                "embeddings need a compiled DHGNN/DHGCN plan; the generic module "
                "plan only exposes logits"
            )
        return layer_inputs[-1]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Any) -> Any:
        """Write the compiled plan as an operator-store bundle (``.npz``).

        The bundle contains the feature matrix, layer weights, resolved
        operators and, per slot, the topology parts and the k-NN index state
        — a loading process serves its first prediction with zero k-NN
        distance computations and can keep inserting nodes incrementally.
        Only the dedicated DHGNN/DHGCN plans are bundleable — a generic
        module plan raises :class:`~repro.errors.ConfigurationError`.
        """
        store = OperatorStore()
        plan = self.plan
        meta: dict[str, Any] = {
            "format": _SERVING_FORMAT,
            "plan": plan.kind,
            "precision": self.precision_name,
            "model_meta": self.meta,
        }
        store.put_group("features", {"features": self.features})

        if isinstance(plan, _DHGNNPlan):
            meta["n_layers"] = plan.n_layers
            weight_group: dict[str, np.ndarray] = {}
            for index, (weight, bias) in enumerate(plan.weights):
                weight_group[f"layer{index}.weight"] = weight
                if bias is not None:
                    weight_group[f"layer{index}.bias"] = bias
            store.put_group("weights", weight_group)
            for index, operator in enumerate(plan.operators):
                store.put_operator(("layer", index), operator)
        elif isinstance(plan, _DHGCNPlan):
            meta["n_layers"] = plan.n_layers
            meta["fusions"] = [block["fusion"] for block in plan.blocks]
            meta["use_edge_weighting"] = plan.use_edge_weighting
            meta["weight_temperature"] = plan.weight_temperature
            weight_group = {}
            for index, block in enumerate(plan.blocks):
                for field in ("W_static", "b_static", "W_dynamic", "b_dynamic", "gate"):
                    if block[field] is not None:
                        weight_group[f"block{index}.{field}"] = block[field]
            store.put_group("weights", weight_group)
            if plan.static_operator is not None:
                store.put_operator(("static",), plan.static_operator)
            for index, operator in enumerate(plan.dynamic_operators):
                if operator is not None:
                    store.put_operator(("dynamic", index), operator)
            static_group: dict[str, np.ndarray] = {}
            if plan.static_hypergraph is not None:
                static_group.update(pack_hypergraph(plan.static_hypergraph, prefix="static."))
            if plan.reweighted_static is not None:
                static_group.update(
                    pack_hypergraph(plan.reweighted_static, prefix="reweighted.")
                )
            if static_group:
                store.put_group("static_hypergraphs", static_group)
        else:
            raise ConfigurationError(
                f"only DHGNN/DHGCN plans can be bundled, got {plan.kind!r}"
            )

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

        A file that is not a serving bundle raises
        :class:`~repro.errors.ConfigurationError`.  An older bundle's
        shared-backend state (see the module docs) is ignored.
        """
        store = OperatorStore.load(path)
        meta = store.meta
        if meta.get("format") != _SERVING_FORMAT:
            raise ConfigurationError(f"{path} is not a serving bundle")
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

        if meta["plan"] == "dhgnn":
            weight_group = store.get_group("weights")
            weights = []
            for index in range(int(meta["n_layers"])):
                weights.append(
                    (
                        weight_group[f"layer{index}.weight"],
                        weight_group.get(f"layer{index}.bias"),
                    )
                )
            operators = [
                store.get_operator(("layer", index)) for index in range(int(meta["n_layers"]))
            ]
            plan: Any = _DHGNNPlan(weights, operators, slots)
        elif meta["plan"] == "dhgcn":
            weight_group = store.get_group("weights")
            blocks = []
            for index, fusion in enumerate(meta["fusions"]):
                blocks.append(
                    {
                        "fusion": fusion,
                        "W_static": weight_group.get(f"block{index}.W_static"),
                        "b_static": weight_group.get(f"block{index}.b_static"),
                        "W_dynamic": weight_group.get(f"block{index}.W_dynamic"),
                        "b_dynamic": weight_group.get(f"block{index}.b_dynamic"),
                        "gate": weight_group.get(f"block{index}.gate"),
                    }
                )
            static_operator = (
                store.get_operator(("static",)) if store.has_operator(("static",)) else None
            )
            dynamic_operators = [
                store.get_operator(("dynamic", index))
                if store.has_operator(("dynamic", index))
                else None
                for index in range(int(meta["n_layers"]))
            ]
            static_hypergraph = reweighted_static = None
            if store.has_group("static_hypergraphs"):
                static_group = store.get_group("static_hypergraphs")
                if any(key.startswith("static.") for key in static_group):
                    static_hypergraph = unpack_hypergraph(static_group, prefix="static.")
                if any(key.startswith("reweighted.") for key in static_group):
                    reweighted_static = unpack_hypergraph(static_group, prefix="reweighted.")
            plan = _DHGCNPlan(
                blocks,
                static_operator,
                dynamic_operators,
                slots,
                static_hypergraph=static_hypergraph,
                reweighted_static=reweighted_static,
                use_edge_weighting=bool(meta["use_edge_weighting"]),
                weight_temperature=float(meta["weight_temperature"]),
            )
        else:
            raise ConfigurationError(f"unknown plan kind {meta['plan']!r}")

        return cls(plan, features, precision, meta=dict(meta.get("model_meta", {})))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenModel(plan={self.plan.kind!r}, n_nodes={self.features.shape[0]}, "
            f"precision={self.precision_name!r})"
        )
