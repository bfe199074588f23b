"""Tests for the analysis package (embedding metrics, reports, trackers)."""

import numpy as np
import pytest

from repro.analysis import (
    GateTracker,
    TopologyTracker,
    class_separation_ratio,
    classification_report,
    extract_embeddings,
    pca_project,
    per_class_accuracy,
    silhouette_score,
)
from repro.autograd import Tensor, no_grad
from repro.core import DHGCN, DHGCNConfig
from repro.errors import ShapeError
from repro.models import MLP
from repro.training import TrainConfig, Trainer


@pytest.fixture()
def separated_embeddings():
    rng = np.random.default_rng(0)
    embeddings = np.vstack(
        [rng.normal(0.0, 0.3, (20, 5)), rng.normal(6.0, 0.3, (20, 5))]
    )
    labels = np.repeat([0, 1], 20)
    return embeddings, labels


class TestEmbeddingMetrics:
    def test_extract_embeddings_shape(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = MLP(dataset.n_features, dataset.n_classes, seed=0).setup(dataset)
        embeddings = extract_embeddings(model, dataset.features)
        assert embeddings.shape == (dataset.n_nodes, dataset.n_classes)

    def test_pca_project_shapes_and_variance_order(self, separated_embeddings):
        embeddings, _ = separated_embeddings
        projected = pca_project(embeddings, 2)
        assert projected.shape == (40, 2)
        # The first principal component carries at least as much variance.
        assert projected[:, 0].var() >= projected[:, 1].var()

    def test_pca_validation(self, separated_embeddings):
        embeddings, _ = separated_embeddings
        with pytest.raises(ValueError):
            pca_project(embeddings, 0)
        with pytest.raises(ValueError):
            pca_project(embeddings, 99)
        with pytest.raises(ShapeError):
            pca_project(np.zeros(5))

    def test_silhouette_separated_vs_mixed(self, separated_embeddings):
        embeddings, labels = separated_embeddings
        good = silhouette_score(embeddings, labels)
        rng = np.random.default_rng(1)
        bad = silhouette_score(embeddings, rng.permutation(labels))
        assert good > 0.8
        assert bad < good

    def test_silhouette_requires_two_classes(self, separated_embeddings):
        embeddings, _ = separated_embeddings
        with pytest.raises(ValueError):
            silhouette_score(embeddings, np.zeros(40, dtype=int))

    def test_class_separation_ratio(self, separated_embeddings):
        embeddings, labels = separated_embeddings
        separated = class_separation_ratio(embeddings, labels)
        rng = np.random.default_rng(2)
        shuffled = class_separation_ratio(embeddings, rng.permutation(labels))
        assert separated > shuffled
        assert separated > 10.0

    def test_class_separation_degenerate_within_zero(self):
        embeddings = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        assert class_separation_ratio(embeddings, labels) == float("inf")


class TestReports:
    def test_per_class_accuracy(self):
        predictions = np.array([0, 0, 1, 2, 2, 2])
        targets = np.array([0, 1, 1, 2, 2, 0])
        per_class = per_class_accuracy(predictions, targets, n_classes=3)
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(0.5)
        assert per_class[2] == pytest.approx(1.0)

    def test_classification_report_structure(self):
        predictions = np.array([0, 1, 1, 2, 2, 0])
        targets = np.array([0, 1, 2, 2, 2, 0])
        report = classification_report(predictions, targets)
        markdown = report.to_markdown()
        assert "precision" in markdown and "macro avg" in markdown
        assert len(report) == 4  # 3 classes + macro average row

    def test_classification_report_custom_names_and_validation(self):
        predictions = np.array([0, 1])
        targets = np.array([0, 1])
        report = classification_report(predictions, targets, class_names=["cats", "dogs"])
        assert "cats" in report.to_markdown()
        with pytest.raises(ValueError):
            classification_report(predictions, targets, class_names=["only-one"])


class TestTrackers:
    def test_gate_tracker_records_and_measures_drift(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=8), seed=0)
        trainer = Trainer(model, dataset, TrainConfig(epochs=5, patience=None))
        tracker = GateTracker()
        tracker.update(0, model)
        trainer.train()
        tracker.update(5, model)
        assert tracker.as_array().shape == (2, 2)
        assert tracker.drift() >= 0.0

    def test_gate_tracker_empty(self):
        tracker = GateTracker()
        assert tracker.as_array().shape == (0, 0)
        assert tracker.drift() == 0.0

    def test_topology_tracker_homophily_improves_with_training(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        model = DHGCN(dataset.n_features, dataset.n_classes, DHGCNConfig(hidden_dim=16), seed=0)
        tracker = TopologyTracker(labels=dataset.labels)
        trainer = Trainer(model, dataset, TrainConfig(epochs=2, patience=None))
        trainer.train()
        tracker.update(2, model)
        trainer = Trainer(model, dataset, TrainConfig(epochs=30, patience=None))
        trainer.train()
        tracker.update(30, model)
        assert len(tracker.homophily) == 2
        assert tracker.improvement() > -0.15  # should not collapse; typically positive

    def test_topology_probe_leaves_training_unchanged(self):
        # Probing the dynamic topology mid-training must not perturb the run:
        # the probe build uses no slot index, draws no k-means seed from the
        # builder's generator and is not counted as a refresh.
        from repro.data import get_dataset

        dataset = get_dataset("cora-cocitation", seed=0, n_nodes=200)

        def run(probe: bool):
            model = DHGCN(
                dataset.n_features, dataset.n_classes,
                DHGCNConfig(hidden_dim=8, refresh_period=2), seed=0,
            )
            config = TrainConfig(epochs=6, patience=None, restore_best=False)
            Trainer(model, dataset, config).train()
            if probe:
                TopologyTracker(labels=dataset.labels).update(6, model)
            trainer = Trainer(model, dataset, config)
            trainer.train()
            model.eval()
            with no_grad():
                logits = model(Tensor(dataset.features)).data
            return logits, model.dynamic_hypergraphs_built()

        probed, probed_builds = run(probe=True)
        plain, plain_builds = run(probe=False)
        assert probed_builds == plain_builds
        assert np.array_equal(probed, plain)

    def test_topology_tracker_ignores_static_only_models(self, tiny_citation_dataset):
        dataset = tiny_citation_dataset
        config = DHGCNConfig(hidden_dim=8).ablate("dynamic")
        model = DHGCN(dataset.n_features, dataset.n_classes, config, seed=0).setup(dataset)
        tracker = TopologyTracker(labels=dataset.labels)
        tracker.update(0, model)
        assert tracker.homophily == []
        assert tracker.improvement() == 0.0


# --------------------------------------------------------------------------- #
# repro lint: engine + rule-pack golden fixtures
# --------------------------------------------------------------------------- #
import textwrap
import threading
from pathlib import Path

from repro.analysis.lint import LintError, load_baseline, run_lint, write_baseline
from repro.analysis.rules import all_rules
from repro.analysis.sanitize import LockDisciplineError, guard_attrs
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]


def _lint(tmp_path, tree, **kwargs):
    """Materialise ``{relpath: source}`` under tmp_path and lint it."""
    for rel, text in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return run_lint([tmp_path], all_rules(), root=tmp_path, **kwargs)


def _rules_of(findings):
    return sorted({finding.rule for finding in findings})


class TestLintRuleFixtures:
    """One firing and one non-firing fixture per rule in the pack."""

    def test_rl001_blocking_call_in_async_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/handler.py": """
                import time

                async def handler(request):
                    time.sleep(0.1)
                    return request
            """,
        })
        assert _rules_of(findings) == ["RL001"]
        assert "time.sleep" in findings[0].message

    def test_rl001_sync_lock_with_in_async_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/handler.py": """
                async def handler(self):
                    with self._lock:
                        return self.value
            """,
        })
        assert _rules_of(findings) == ["RL001"]

    def test_rl001_clean_async_awaits_and_executors(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/handler.py": """
                import asyncio

                async def handler(self, loop, fn):
                    await asyncio.sleep(0)
                    await self.lock.acquire()
                    return await loop.run_in_executor(None, fn)
            """,
        })
        assert findings == []

    def test_rl002_raw_dtype_literal_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/models/head.py": """
                import numpy as np

                def zeros(n):
                    return np.zeros(n, dtype=np.float64)
            """,
        })
        assert _rules_of(findings) == ["RL002"]

    def test_rl002_clean_via_precision_and_whitelist(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/models/head.py": """
                import numpy as np
                from repro.precision import resolve_dtype

                def zeros(n):
                    return np.zeros(n, dtype=resolve_dtype("float64"))
            """,
            # The precision policy layer itself may spell dtypes out.
            "repro/hypergraph/kernel.py": """
                import numpy as np

                ACC = np.float64
            """,
        })
        assert findings == []

    def test_rl003_global_rng_and_kernel_clock_fire(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/nn/layer.py": """
                import numpy as np

                def init(n):
                    return np.random.rand(n)
            """,
            "repro/optim/sgd.py": """
                import random
                import time

                def step():
                    return random.random() + time.time()
            """,
        })
        assert _rules_of(findings) == ["RL003"]
        assert len(findings) == 3  # np.random.rand, random.random, time.time

    def test_rl003_clean_seeded_generator_and_serving_clock(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/nn/layer.py": """
                import numpy as np

                def init(n, seed):
                    return np.random.default_rng(seed).random(n)
            """,
            # serving legitimately timestamps checkpoints.
            "repro/serving/pool.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert findings == []

    def test_rl004_undeclared_and_dead_fault_points_fire(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/wal.py": """
                from repro.serving.faults import fault_point

                def append():
                    fault_point("wal.mystery")
            """,
            "repro/serving/pool.py": """
                from repro.serving.faults import declare_fault_point

                declare_fault_point("pool.never_crossed", "dead")
            """,
        })
        assert _rules_of(findings) == ["RL004"]
        assert len(findings) == 2

    def test_rl004_clean_declared_and_used(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/wal.py": """
                from repro.serving.faults import declare_fault_point, fault_point

                declare_fault_point("wal.before_fsync", "journal flushed")

                def append():
                    fault_point("wal.before_fsync")
            """,
        })
        assert findings == []

    def test_rl005_bad_metric_names_fire(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/training/loop.py": """
                def wire(registry):
                    registry.counter("requests")
                    registry.histogram("repro_latency")
                    registry.gauge("repro_queue_total")
            """,
        })
        assert _rules_of(findings) == ["RL005"]
        messages = " ".join(finding.message for finding in findings)
        assert "repro_ namespace" in messages
        assert "_total" in messages

    def test_rl005_kind_conflict_across_files_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/a.py": """
                def wire(registry):
                    registry.counter("repro_swaps_total")
            """,
            "repro/obs/b.py": """
                def wire(registry):
                    registry.gauge("repro_swaps_total")
            """,
        })
        assert "RL005" in _rules_of(findings)
        assert any("re-registered" in finding.message for finding in findings)

    def test_rl005_clean_vocabulary(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/training/loop.py": """
                def wire(registry):
                    registry.counter("repro_requests_total")
                    registry.histogram("repro_latency_seconds")
                    registry.gauge("repro_queue_depth")
            """,
        })
        assert findings == []

    def test_rl006_lock_free_access_of_guarded_attr_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/pool.py": """
                import threading

                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def size(self):
                        return len(self._items)
            """,
        })
        assert _rules_of(findings) == ["RL006"]
        assert "Pool._items" in findings[0].message

    def test_rl006_clean_when_every_access_is_locked(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/pool.py": """
                import threading

                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def size(self):
                        with self._lock:
                            return len(self._items)
            """,
        })
        assert findings == []

    def test_rl008_undocumented_raise_fires(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/api.py": """
                class Store:
                    def load(self, path):
                        raise ValueError(f"bad path {path}")
            """,
        })
        assert _rules_of(findings) == ["RL008"]
        assert "load()" in findings[0].message

    def test_rl008_clean_documented_or_private(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/serving/api.py": """
                class Store:
                    def load(self, path):
                        '''Load a bundle; raises ValueError for a bad path.'''
                        raise ValueError(f"bad path {path}")

                    def _internal(self):
                        raise RuntimeError("implementation detail")
            """,
        })
        assert findings == []


class TestLintEngine:
    def test_suppression_comment_silences_one_rule(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/models/head.py": """
                import numpy as np

                ACC = np.float64  # repro-lint: disable=RL002
            """,
        })
        assert findings == []

    def test_suppression_comment_is_rule_specific(self, tmp_path):
        findings = _lint(tmp_path, {
            "repro/models/head.py": """
                import numpy as np

                ACC = np.float64  # repro-lint: disable=RL001
            """,
        })
        assert _rules_of(findings) == ["RL002"]

    def test_baseline_round_trip_absorbs_then_resurfaces(self, tmp_path):
        tree = {
            "repro/models/head.py": """
                import numpy as np

                ACC = np.float64
            """,
        }
        findings = _lint(tmp_path / "project", tree)
        assert _rules_of(findings) == ["RL002"]
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert _lint(tmp_path / "project", tree, baseline=baseline) == []
        # A second identical violation exceeds the baselined count and
        # resurfaces instead of hiding behind the absorbed one.
        grown = {
            "repro/models/head.py": """
                import numpy as np

                ACC = np.float64
                OTHER = np.float64
            """,
        }
        resurfaced = _lint(tmp_path / "grown", grown, baseline=baseline)
        assert len(resurfaced) == 1 and resurfaced[0].rule == "RL002"

    def test_select_ignore_and_unknown_rule(self, tmp_path):
        tree = {
            "repro/serving/api.py": """
                import numpy as np

                class Store:
                    def load(self):
                        raise ValueError("always")

                ACC = np.float64
            """,
        }
        assert _rules_of(_lint(tmp_path, tree)) == ["RL002", "RL008"]
        only = _lint(tmp_path, tree, select=["RL008"])
        assert _rules_of(only) == ["RL008"]
        without = _lint(tmp_path, tree, ignore=["RL008"])
        assert _rules_of(without) == ["RL002"]
        with pytest.raises(LintError, match="unknown rule id"):
            _lint(tmp_path, tree, select=["RL999"])

    def test_unparsable_file_is_an_error_not_a_skip(self, tmp_path):
        with pytest.raises(LintError, match="does not parse"):
            _lint(tmp_path, {"repro/serving/broken.py": "def oops(:\n"})

    def test_shipped_tree_is_clean_with_an_empty_baseline(self):
        paths = [REPO_ROOT / "src" / "repro"]
        benchmarks = REPO_ROOT / "benchmarks"
        if benchmarks.is_dir():
            paths.append(benchmarks)
        assert run_lint(paths, all_rules(), root=REPO_ROOT) == []


# --------------------------------------------------------------------------- #
# Lock-discipline runtime sanitizer (REPRO_SANITIZE=locks)
# --------------------------------------------------------------------------- #
@guard_attrs("_lock", "_items", force=True)
class _GuardedBox:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []  # __init__ is exempt by construction idiom

    def add(self, item):
        with self._lock:
            self._items.append(item)

    def peek_unlocked(self):
        return list(self._items)


class TestLockSanitizer:
    def test_locked_access_passes_and_unlocked_raises(self):
        box = _GuardedBox()
        box.add(1)
        with pytest.raises(LockDisciplineError, match=r"_GuardedBox\._items"):
            box.peek_unlocked()
        with box._lock:  # the owning thread may read under the lock
            assert box.peek_unlocked() == [1]

    def test_unlocked_write_raises(self):
        box = _GuardedBox()
        with pytest.raises(LockDisciplineError, match="write"):
            box._items = [2]

    def test_other_threads_violations_are_caught(self):
        box = _GuardedBox()
        failures = []

        def worker():
            try:
                box.peek_unlocked()
            except LockDisciplineError as error:
                failures.append(error)

        with box._lock:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert len(failures) == 1  # holding the lock here does not cover them

    def test_slots_clash_is_rejected(self):
        with pytest.raises(ConfigurationError, match="__slots__"):
            @guard_attrs("_lock", "_items", force=True)
            class Slotted:  # noqa: F841 - decoration itself must fail
                __slots__ = ("_lock", "_items")

    def test_disabled_decorator_is_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "")
        from repro.analysis import sanitize

        @sanitize.guard_attrs("_lock", "_items")
        class Plain:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def peek(self):
                return self._items

        assert Plain().peek() == []  # no descriptors installed, no checks
