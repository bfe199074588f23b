"""Generated operation histories over :class:`InferenceSession`.

A hypothesis state machine drives one session through random interleavings
of updates, insertions, deletions, compactions, cluster re-assignments and
rejected requests.  After every step its logits must be bit-identical to a
*reference* session loaded from the same bundle that replays the accepted
history with a cold k-NN at every refresh — the "online refresh equals an
exact rebuild" contract, checked on histories nobody wrote by hand.  A
rejected request (:class:`~repro.errors.ConfigurationError`) must leave the
answer unchanged.

Both dynamic models run: DHGNN and DHGCN at n=60, two layers, k=3, trained
for two epochs.  The profile is derandomised so tier-1 runs the same
histories every time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import DHGCN, DHGCNConfig, DHGNN, FrozenModel, InferenceSession, TrainConfig, Trainer
from repro.data.citation import make_citation_dataset
from repro.errors import ConfigurationError

K = 3
N_NODES = 60

HISTORY_SETTINGS = settings(
    derandomize=True,
    max_examples=8,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One trained bundle per dynamic model (n=60, 2 layers, k=3, 2 epochs)."""
    dataset = make_citation_dataset(
        "histories",
        n_nodes=N_NODES,
        n_classes=3,
        n_features=12,
        intra_class_degree=3.0,
        inter_class_degree=1.0,
        active_words=4,
        noise_words=2,
        train_per_class=5,
        seed=3,
    )
    models = {
        "dhgnn": DHGNN(
            dataset.n_features, dataset.n_classes, hidden_dim=8, n_layers=2,
            k_neighbors=K, seed=0,
        ),
        "dhgcn": DHGCN(
            dataset.n_features, dataset.n_classes,
            DHGCNConfig(hidden_dim=8, n_layers=2, k_neighbors=K), seed=0,
        ),
    }
    paths = {}
    for kind, model in models.items():
        trainer = Trainer(
            model, dataset,
            TrainConfig(epochs=2, patience=None, neighbor_backend="incremental"),
        )
        trainer.train()
        paths[kind] = tmp_path_factory.mktemp(kind) / "bundle.npz"
        trainer.export_frozen(str(paths[kind]))
    return paths


def reference_session(bundle, **kwargs) -> InferenceSession:
    """A session over ``bundle`` whose every refresh runs a cold k-NN.

    Every slot's index is reset before each refresh, so each layer's
    neighbours come from a full rebuild.
    """
    session = InferenceSession(FrozenModel.load(bundle), **kwargs)
    refresh = session._refresh

    def cold_refresh():
        for slot in session.plan.slots:
            slot.index.reset()
        refresh()

    session._refresh = cold_refresh
    return session


class SessionHistories(RuleBasedStateMachine):
    """One session under test and its cold-k-NN reference, in lockstep."""

    bundle = None

    def __init__(self) -> None:
        super().__init__()
        self.session = InferenceSession(FrozenModel.load(self.bundle))
        self.reference = reference_session(self.bundle)

    def _both(self, method: str, *args):
        got = getattr(self.session, method)(*args)
        expected = getattr(self.reference, method)(*args)
        return got, expected

    def _noisy(self, ids: np.ndarray, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        base = self.session.features[ids]
        return base + rng.normal(scale=0.05, size=base.shape)

    # -- accepted requests ----------------------------------------------- #
    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def update(self, data, seed):
        alive = self.session.alive_ids.tolist()
        count = data.draw(st.integers(1, min(5, len(alive))))
        ids = np.asarray(
            data.draw(st.lists(st.sampled_from(alive), min_size=count, max_size=count,
                               unique=True))
        )
        self._both("update_features", ids, self._noisy(ids, seed))

    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def insert(self, data, seed):
        alive = self.session.alive_ids
        count = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(seed)
        template = alive[rng.choice(alive.size, count, replace=False)]
        got, expected = self._both("insert_nodes", self._noisy(template, seed + 1))
        assert np.array_equal(got, expected)

    @precondition(lambda self: self.session.n_alive > K + 2)
    @rule(data=st.data())
    def delete(self, data):
        alive = self.session.alive_ids.tolist()
        count = data.draw(st.integers(1, min(3, len(alive) - (K + 2))))
        ids = data.draw(st.lists(st.sampled_from(alive), min_size=count, max_size=count,
                                 unique=True))
        self._both("delete_nodes", ids)

    @rule()
    def compact(self):
        got, expected = self._both("compact")
        assert np.array_equal(got, expected)

    @rule()
    def reassign(self):
        got, expected = self._both("reassign_clusters")
        assert got == expected

    # -- rejected requests ------------------------------------------------ #
    @rule(kind=st.sampled_from(["deleted", "out_of_range", "fractional"]),
          op=st.sampled_from(["predict", "update", "delete"]))
    def bad_request(self, kind, op):
        session = self.session
        dead = np.flatnonzero(~np.isin(np.arange(session.n_nodes), session.alive_ids))
        if kind == "deleted" and dead.size:
            node = int(dead[0])
        elif kind == "fractional":
            node = 1.5
        else:
            node = session.n_nodes + 2
        before = session.predict(None, output="logits")
        with pytest.raises(ConfigurationError):
            if op == "predict":
                session.predict([node])
            elif op == "update":
                session.update_features([node], session.features[:1])
            else:
                session.delete_nodes([node])
        assert np.array_equal(session.predict(None, output="logits"), before)

    # -- the contract ----------------------------------------------------- #
    @invariant()
    def matches_cold_reference(self):
        got = self.session.predict(None, output="logits")
        expected = self.reference.predict(None, output="logits")
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("kind", ["dhgnn", "dhgcn"])
def test_session_histories_match_cold_reference(bundles, kind):
    machine = type(f"{kind.upper()}Histories", (SessionHistories,), {"bundle": bundles[kind]})
    run_state_machine_as_test(machine, settings=HISTORY_SETTINGS)
