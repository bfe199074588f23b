"""Fault-tolerance tests: WAL, crash recovery, deadlines, degraded mode.

The load-bearing guarantees pinned here:

* :class:`WriteAheadLog` round-trips records exactly, tolerates (and
  truncates) a torn tail left by a crash, and refuses — loudly — a complete
  record whose checksum does not match;
* :class:`SessionPool` journals every mutation *before* applying it,
  truncates the journal whenever a checkpoint lands (carrying the WAL
  high-water sequence number for replay dedup), and
  :meth:`SessionPool.recover` replays the journal suffix into a state whose
  predictions are **bit-identical** to a pool that never crashed;
* the crash matrix: for *every* fault point registered in
  ``repro.serving.faults``, a subprocess running a randomized mutation
  sequence is killed (``os._exit``, the ``kill -9`` analogue) at that
  point, and recovery from checkpoint + WAL reconstructs the exact prefix
  state — then finishes the sequence to the exact final state;
* failure containment in the HTTP front-end: a deadline-expired write
  answers 504 and degrades the pool, a writer failure quarantines the pool
  (writes 503 + ``Retry-After`` while reads keep serving, ``/healthz``
  reports ``degraded``), and an unexpected read failure answers a
  structured 500 while the connection survives.

Chaos-marked tests (``pytest -m chaos``) spawn subprocesses; the
``REPRO_CHAOS_QUICK=1`` environment switch shrinks the crash matrix to one
representative point per module for fast CI passes.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DHGNN, FrozenModel, TrainConfig, Trainer
from repro.errors import ConfigurationError
from repro.serving import (
    CRASH_EXIT_CODE,
    FaultInjected,
    SessionPool,
    ServingServer,
    ServerConfig,
    WALCorruptionError,
    WALError,
    WriteAheadLog,
    WriterQuarantinedError,
    clear_faults,
    fault_registry,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    """Never leak an armed fault into a neighbouring test."""
    clear_faults()
    yield
    clear_faults()


@pytest.fixture(scope="module")
def bundle_path(tiny_citation_dataset, tmp_path_factory):
    """One trained DHGNN bundle shared by every test in this module."""
    dataset = tiny_citation_dataset
    model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=4, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    path = tmp_path_factory.mktemp("serving_faults") / "bundle.npz"
    trainer.export_frozen(str(path))
    return path


# --------------------------------------------------------------------------- #
# WriteAheadLog
# --------------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "mut.wal")
        assert wal.depth == 0 and wal.last_seq == 0
        wal.append("insert", {"features": [[0.1, -2.5e-17], [3.0, 4.0]]}, 1)
        wal.append("delete", {"nodes": [7, 9]}, 2)
        records = wal.read_records()
        assert [record.seq for record in records] == [1, 2]
        assert records[0].op == "insert"
        # Float64 values survive the JSON round-trip bit-exactly.
        assert records[0].payload["features"][0][1] == -2.5e-17
        assert wal.depth == 2 and wal.last_seq == 2

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "mut.wal"
        first = WriteAheadLog(path)
        first.append("compact", {}, 1)
        first.close()
        second = WriteAheadLog(path)
        assert second.depth == 1 and second.last_seq == 1
        second.append("reassign", {}, 2)
        assert [r.seq for r in second.read_records()] == [1, 2]

    def test_torn_tail_is_tolerated_and_truncated(self, tmp_path):
        path = tmp_path / "mut.wal"
        wal = WriteAheadLog(path)
        wal.append("insert", {"features": [[1.0]]}, 1)
        wal.append("delete", {"nodes": [3]}, 2)
        wal.close()
        whole = path.read_bytes()
        # Chop the last record mid-frame: the crash-mid-write artefact.
        path.write_bytes(whole[:-5])
        reopened = WriteAheadLog(path)
        assert reopened.depth == 1 and reopened.last_seq == 1
        # The torn bytes were truncated away, so appends resume cleanly.
        reopened.append("compact", {}, 2)
        assert [r.seq for r in reopened.read_records()] == [1, 2]

    def test_checksum_corruption_raises(self, tmp_path):
        path = tmp_path / "mut.wal"
        wal = WriteAheadLog(path)
        wal.append("insert", {"features": [[1.0, 2.0, 3.0]]}, 1)
        wal.close()
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0xFF  # flip a bit inside a *complete* record
        path.write_bytes(bytes(blob))
        with pytest.raises(WALCorruptionError, match="checksum"):
            WriteAheadLog(path)

    def test_non_wal_file_is_rejected(self, tmp_path):
        path = tmp_path / "not.wal"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(WALError, match="bad header"):
            WriteAheadLog(path)

    def test_truncate_resets_the_journal(self, tmp_path):
        path = tmp_path / "mut.wal"
        wal = WriteAheadLog(path)
        wal.append("compact", {}, 1)
        wal.truncate()
        assert wal.depth == 0
        assert wal.read_records() == []
        wal.append("reassign", {}, 2)
        assert [r.seq for r in wal.read_records()] == [2]


# --------------------------------------------------------------------------- #
# Fault registry
# --------------------------------------------------------------------------- #
class TestFaultRegistry:
    def test_points_enumerate_every_declared_boundary(self):
        points = fault_registry().points()
        for expected in (
            "wal.before_fsync",
            "wal.before_truncate",
            "store.before_replace",
            "session.mid_mutation",
            "pool.mid_apply",
            "pool.after_checkpoint",
        ):
            assert expected in points

    def test_unknown_point_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault point"):
            fault_registry().set("no.such.point", "raise")

    def test_bad_actions_are_rejected(self):
        registry = fault_registry()
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            registry.set("pool.mid_apply", "explode")
        with pytest.raises(ConfigurationError, match="seconds"):
            registry.set("pool.mid_apply", "delay:soon")
        with pytest.raises(ConfigurationError, match="trigger count"):
            registry.set("pool.mid_apply", "raise@zeroth")
        with pytest.raises(ConfigurationError, match="point=action"):
            registry.configure("pool.mid_apply")

    def test_raise_action_fires(self):
        registry = fault_registry()
        registry.set("pool.mid_apply", "raise")
        with pytest.raises(FaultInjected, match="pool.mid_apply"):
            registry.fire("pool.mid_apply")

    def test_nth_hit_arming(self):
        registry = fault_registry()
        registry.set("pool.mid_apply", "raise@3")
        registry.fire("pool.mid_apply")
        registry.fire("pool.mid_apply")
        with pytest.raises(FaultInjected):
            registry.fire("pool.mid_apply")
        assert registry.hits("pool.mid_apply") == 3

    def test_delay_action_sleeps(self):
        registry = fault_registry()
        registry.set("wal.before_fsync", "delay:0.05")
        started = time.perf_counter()
        registry.fire("wal.before_fsync")
        assert time.perf_counter() - started >= 0.04

    def test_unarmed_points_are_noops(self):
        registry = fault_registry()
        registry.fire("pool.mid_apply")  # nothing armed: free
        registry.set("wal.before_fsync", "raise")
        registry.fire("pool.mid_apply")  # a *different* armed point: still free
        registry.clear("wal.before_fsync")
        registry.fire("wal.before_fsync")


# --------------------------------------------------------------------------- #
# SessionPool + WAL (in-process)
# --------------------------------------------------------------------------- #
def _new_rows(n_rows, n_cols, seed):
    return np.random.default_rng(seed).normal(size=(n_rows, n_cols))


def _pool(bundle_path, tmp_path, *, wal=True, checkpoint=True, **kwargs):
    return SessionPool(
        FrozenModel.load(bundle_path),
        checkpoint_path=tmp_path / "ckpt.npz" if checkpoint else None,
        wal_path=tmp_path / "mut.wal" if wal else None,
        **kwargs,
    )


class TestPoolWAL:
    def test_checkpoint_truncates_and_carries_wal_seq(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path)
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(2, n_cols, seed=1))
        # Tombstone-free write: the checkpoint landed and subsumed the record.
        assert pool.wal.depth == 0
        assert pool.last_seq == 1
        assert FrozenModel.load(tmp_path / "ckpt.npz").meta["wal_seq"] == 1

    def test_tombstoned_generations_accumulate_in_the_wal(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path)
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(2, n_cols, seed=1))
        pool.delete([0, 5])       # tombstones: checkpoint skipped
        pool.update([7], _new_rows(1, n_cols, seed=2))
        assert pool.wal.depth == 2
        assert pool.checkpoints == 2  # init + the tombstone-free insert

    def test_recovery_is_bit_identical(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path)
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(3, n_cols, seed=1))
        pool.delete([2, 9])
        pool.update([4], _new_rows(1, n_cols, seed=2))
        reference = pool.writer.predict(output="logits").copy()
        # "Crash": abandon the live pool, restart from the checkpoint (as
        # ServingServer does) and replay the WAL suffix on top of it.
        recovered = SessionPool(
            FrozenModel.load(tmp_path / "ckpt.npz"),
            checkpoint_path=tmp_path / "ckpt.npz",
            wal_path=tmp_path / "mut.wal",
        )
        assert recovered.recover() == 2  # the delete + the update
        assert recovered.last_seq == pool.last_seq
        assert np.array_equal(
            recovered.writer.predict(output="logits"), reference
        )

    def test_replay_dedups_already_checkpointed_records(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path, checkpoint=False)
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(2, n_cols, seed=3))
        pool.reassign()
        reference = pool.writer.predict(output="logits").copy()
        # A checkpoint that absorbed both records, but whose truncation never
        # ran (the crash-between-checkpoint-and-truncate window).
        snapshot = pool.writer.to_frozen()
        snapshot.meta["wal_seq"] = pool.last_seq
        recovered = SessionPool(
            snapshot, wal_path=tmp_path / "mut.wal"
        )
        assert recovered.recover() == 0  # every record deduped by seq
        assert recovered.last_seq == pool.last_seq
        assert np.array_equal(
            recovered.writer.predict(output="logits"), reference
        )

    def test_replay_skips_records_the_live_run_rejected(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path, checkpoint=False)
        n_cols = pool.writer.features.shape[1]
        with pytest.raises(ConfigurationError):
            pool.delete([10 ** 6])  # journalled, then rejected pre-mutation
        pool.insert(_new_rows(2, n_cols, seed=4))
        reference = pool.writer.predict(output="logits").copy()
        recovered = SessionPool(
            FrozenModel.load(bundle_path), wal_path=tmp_path / "mut.wal",
        )
        assert recovered.recover() == 1  # the insert; the bad delete skipped
        assert recovered.last_seq == pool.last_seq
        assert np.array_equal(
            recovered.writer.predict(output="logits"), reference
        )

    def test_writes_before_recover_are_refused(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path, checkpoint=False)
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(1, n_cols, seed=5))
        stale = SessionPool(
            FrozenModel.load(bundle_path), wal_path=tmp_path / "mut.wal",
        )
        with pytest.raises(ConfigurationError, match="recover"):
            stale.insert(_new_rows(1, n_cols, seed=6))

    def test_midapply_failure_quarantines_but_reads_survive(
        self, bundle_path, tmp_path
    ):
        pool = _pool(bundle_path, tmp_path)
        n_cols = pool.writer.features.shape[1]
        baseline = pool.current.answer(output="logits")
        fault_registry().set("pool.mid_apply", "raise")
        with pytest.raises(FaultInjected):
            pool.insert(_new_rows(1, n_cols, seed=7))
        assert pool.read_only and pool.status == "degraded"
        assert "FaultInjected" in pool.failure
        with pytest.raises(WriterQuarantinedError):
            pool.insert(_new_rows(1, n_cols, seed=8))
        # Readers still serve the last *published* generation, bit-identically.
        clear_faults()
        assert np.array_equal(pool.current.answer(output="logits"), baseline)

    def test_validation_errors_do_not_quarantine(self, bundle_path, tmp_path):
        pool = _pool(bundle_path, tmp_path)
        with pytest.raises(ConfigurationError):
            pool.delete([10 ** 6])
        with pytest.raises(ConfigurationError):
            pool.insert([[1.0, 2.0], [3.0]])  # ragged: rejected pre-journal
        assert not pool.read_only and pool.status == "ok"


# --------------------------------------------------------------------------- #
# Crash matrix: every fault point, kill + recover + bit-identity
# --------------------------------------------------------------------------- #
N_CHAOS_OPS = 8
CHAOS_SEED = 2024


def _apply_scripted_op(pool, k):
    """Op ``k`` of the chaos script, derived only from ``k`` + pool state.

    Seeding per op index makes the sequence prefix-independent: a process
    that recovered ops ``0..j-1`` regenerates op ``j`` identically, because
    the recovered state is bit-identical to the pre-crash state.
    """
    rng = np.random.default_rng(CHAOS_SEED + k)
    writer = pool.writer
    n_cols = writer.features.shape[1]
    choice = int(rng.integers(0, 6))
    if choice in (0, 1):
        pool.insert(rng.normal(size=(int(rng.integers(1, 3)), n_cols)))
    elif choice == 2:
        alive = writer.alive_ids
        nodes = rng.choice(alive, size=min(2, alive.size), replace=False)
        pool.update(sorted(int(n) for n in nodes), rng.normal(size=(nodes.size, n_cols)))
    elif choice == 3 and writer.n_alive > 10:
        alive = writer.alive_ids
        pool.delete([int(rng.choice(alive))])
    elif choice == 4:
        pool.compact()
    else:
        pool.reassign()


_CHAOS_CHILD = """
import os, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, os.environ["CHAOS_SRC"])
sys.path.insert(0, os.environ["CHAOS_TESTS"])
from repro.serving import FrozenModel, SessionPool
from test_serving_faults import N_CHAOS_OPS, _apply_scripted_op

ckpt = Path(os.environ["CHAOS_CKPT"])
bundle = os.environ["CHAOS_BUNDLE"]
frozen = FrozenModel.load(ckpt if ckpt.exists() else bundle)
pool = SessionPool(frozen, checkpoint_path=ckpt, wal_path=os.environ["CHAOS_WAL"])
pool.recover()
for k in range(pool.last_seq, N_CHAOS_OPS):
    _apply_scripted_op(pool, k)
print("COMPLETED", pool.last_seq)
"""


def _chaos_points():
    points = sorted(fault_registry().points())
    if os.environ.get("REPRO_CHAOS_QUICK"):
        # One representative point per module keeps the quick matrix honest.
        keep: dict[str, str] = {}
        for point in points:
            keep.setdefault(point.split(".", 1)[0], point)
        points = sorted(keep.values())
    return points


@pytest.fixture(scope="module")
def chaos_reference(bundle_path):
    """Logits after every prefix of the chaos script, from an uncrashed run."""
    pool = SessionPool(FrozenModel.load(bundle_path))
    prefixes = [pool.writer.predict(output="logits").copy()]
    for k in range(N_CHAOS_OPS):
        _apply_scripted_op(pool, k)
        prefixes.append(pool.writer.predict(output="logits").copy())
    return prefixes


@pytest.mark.chaos
@pytest.mark.parametrize("point", _chaos_points())
def test_crash_recovery_matrix(point, bundle_path, chaos_reference, tmp_path):
    """Kill the writer process at ``point``; recovery must be bit-identical.

    The subprocess runs the scripted mutation sequence with a ``crash``
    action armed at the point's third crossing (``os._exit`` — no flushes,
    no finally blocks, exactly ``kill -9``).  Whatever the crash left on
    disk, restarting from checkpoint + WAL must reproduce the exact logits
    of the uncrashed run at the recovered prefix — and finishing the
    sequence must reach the exact final state.
    """
    ckpt = tmp_path / "ckpt.npz"
    wal = tmp_path / "mut.wal"
    env = {
        key: value for key, value in os.environ.items() if key != "REPRO_FAULTS"
    }
    env.update(
        CHAOS_SRC=str(SRC_DIR),
        CHAOS_TESTS=str(REPO_ROOT / "tests"),
        CHAOS_BUNDLE=str(bundle_path),
        CHAOS_CKPT=str(ckpt),
        CHAOS_WAL=str(wal),
        REPRO_FAULTS=f"{point}=crash@3",
    )
    run = subprocess.run(
        [sys.executable, "-c", _CHAOS_CHILD],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode in (0, CRASH_EXIT_CODE), run.stderr
    if run.returncode == 0:
        # The armed point never reached its third crossing in this script —
        # the run is then simply an uncrashed baseline and must match it.
        assert "COMPLETED" in run.stdout

    # Recover exactly as a restarted server would: prefer the checkpoint,
    # replay the WAL suffix on top of it.
    frozen = FrozenModel.load(ckpt if ckpt.exists() else bundle_path)
    pool = SessionPool(frozen, checkpoint_path=ckpt, wal_path=wal)
    pool.recover()
    assert not pool.read_only, pool.failure
    assert 0 <= pool.last_seq <= N_CHAOS_OPS
    assert np.array_equal(
        pool.writer.predict(output="logits"), chaos_reference[pool.last_seq]
    ), f"recovered state diverges after crash at {point!r}"

    # Finish the sequence: the continuation must land on the exact final
    # state of the run that never crashed.
    for k in range(pool.last_seq, N_CHAOS_OPS):
        _apply_scripted_op(pool, k)
    assert np.array_equal(
        pool.writer.predict(output="logits"), chaos_reference[N_CHAOS_OPS]
    ), f"continued state diverges after crash at {point!r}"


# --------------------------------------------------------------------------- #
# Targeted chaos: crash between compact() and WAL truncate
# --------------------------------------------------------------------------- #
_COMPACT_CHILD = """
import os, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, os.environ["CHAOS_SRC"])
from repro.serving import FrozenModel, SessionPool

ckpt = Path(os.environ["CHAOS_CKPT"])
frozen = FrozenModel.load(ckpt if ckpt.exists() else os.environ["CHAOS_BUNDLE"])
pool = SessionPool(frozen, checkpoint_path=ckpt, wal_path=os.environ["CHAOS_WAL"])
pool.recover()

def rows(seed, n):
    return np.random.default_rng(seed).normal(
        size=(n, pool.writer.features.shape[1])
    )

# Seq-guarded, per-op-seeded script: a restarted process resumes exactly
# where the WAL says the crashed one stopped.
if pool.last_seq < 1:
    pool.delete([3, 11])          # pre-compact node ids ride the WAL
if pool.last_seq < 2:
    pool.update([7], rows(71, 1))  # pre-compact id again
if pool.last_seq < 3:
    pool.compact()                 # remap + checkpoint: the crash window
if pool.last_seq < 4:
    pool.insert(rows(73, 2))
print("COMPLETED", pool.last_seq)
"""


@pytest.mark.chaos
@pytest.mark.parametrize("point", ["pool.before_checkpoint", "pool.after_checkpoint"])
def test_crash_between_compact_and_wal_truncate(point, bundle_path, tmp_path):
    """``compact()`` remaps ids, checkpoints, then truncates the WAL.  A
    crash inside that window leaves records that reference *pre-compact*
    node ids in the journal; a restart must replay them bit-identically —
    from the pre-compact checkpoint when the new one never landed
    (``before_checkpoint``), or dedup them all by sequence number when it
    did (``after_checkpoint``).

    Checkpoints are skipped while tombstones exist, so the compact's
    checkpoint is exactly the second crossing (after the one at pool init):
    ``crash@2`` is deterministic, unlike the randomized matrix above.
    """

    def rows(seed, n, n_cols):
        return np.random.default_rng(seed).normal(size=(n, n_cols))

    # Uncrashed reference for every state the recovery must hit.
    reference = SessionPool(FrozenModel.load(bundle_path))
    n_cols = reference.writer.features.shape[1]
    reference.delete([3, 11])
    reference.update([7], rows(71, 1, n_cols))
    reference.compact()
    after_compact = reference.writer.predict(output="logits").copy()
    reference.insert(rows(73, 2, n_cols))
    final = reference.writer.predict(output="logits").copy()

    ckpt, wal = tmp_path / "ckpt.npz", tmp_path / "mut.wal"
    env = {key: value for key, value in os.environ.items() if key != "REPRO_FAULTS"}
    env.update(
        CHAOS_SRC=str(SRC_DIR),
        CHAOS_BUNDLE=str(bundle_path),
        CHAOS_CKPT=str(ckpt),
        CHAOS_WAL=str(wal),
        REPRO_FAULTS=f"{point}=crash@2",
    )
    run = subprocess.run(
        [sys.executable, "-c", _COMPACT_CHILD],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode == CRASH_EXIT_CODE, run.stderr
    assert ckpt.exists()  # at least the init checkpoint always lands

    recovered = SessionPool(
        FrozenModel.load(ckpt), checkpoint_path=ckpt, wal_path=wal
    )
    if point == "pool.before_checkpoint":
        # The compact's checkpoint never hit disk: the journal replays the
        # delete, the update and the compact on the pre-compact snapshot.
        assert recovered.recover() == 3
    else:
        # The checkpoint landed but the truncate didn't: every journalled
        # record is subsumed by its wal_seq and must be deduplicated.
        assert recovered.recover() == 0
    assert recovered.last_seq == 3
    assert not recovered.read_only, recovered.failure
    assert np.array_equal(
        recovered.writer.predict(output="logits"), after_compact
    ), f"recovered state diverges after crash at {point!r}"

    # Finishing the script lands on the uncrashed run's exact final state.
    recovered.insert(rows(73, 2, n_cols))
    assert np.array_equal(recovered.writer.predict(output="logits"), final)


# --------------------------------------------------------------------------- #
# HTTP front-end: deadlines, degraded mode, structured failures
# --------------------------------------------------------------------------- #
async def _http(reader, writer, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        if b":" in line:
            name, _, value = line.partition(b":")
            headers[name.decode().lower()] = value.strip().decode()
    length = int(headers["content-length"])
    return status, json.loads(await reader.readexactly(length)), headers


class _Client:
    """One keep-alive connection to a test server."""

    def __init__(self, port):
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def request(self, method, path, payload=None):
        return await _http(self.reader, self.writer, method, path, payload)


def _serve(bundle_path, scenario, **config_kwargs):
    config_kwargs.setdefault("port", 0)

    async def run():
        server = ServingServer(
            FrozenModel.load(bundle_path)
            if "checkpoint_path" not in config_kwargs
            else str(bundle_path),
            ServerConfig(**config_kwargs),
        )
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()

    return asyncio.run(run())


class TestDeadlines:
    def test_write_deadline_answers_504_and_degrades(self, bundle_path):
        fault_registry().set("pool.mid_apply", "delay:2.0")

        async def scenario(server):
            async with _Client(server.port) as client:
                started = time.perf_counter()
                status, _, _ = await client.request(
                    "POST", "/insert", {"features": [[0.0] * 40]}
                )
                elapsed = time.perf_counter() - started
                health = (await client.request("GET", "/healthz"))[1]
                retry, _, retry_headers = await client.request(
                    "POST", "/compact", {}
                )
                read_status, _, _ = await client.request(
                    "POST", "/predict", {"node": 3}
                )
            return status, elapsed, health, retry, retry_headers, read_status

        status, elapsed, health, retry, retry_headers, read_status = _serve(
            bundle_path, scenario,
            write_timeout_s=0.25, drain_timeout_s=0.1,
        )
        assert status == 504 and elapsed < 0.7
        assert health["status"] == "degraded"
        assert "deadline" in health["failure"]
        assert retry == 503 and "retry-after" in retry_headers
        assert read_status == 200  # reads keep serving in degraded mode


class TestDegradedMode:
    def test_writer_failure_maps_to_500_then_503_with_reads_alive(
        self, bundle_path
    ):
        fault_registry().set("pool.mid_apply", "raise")

        async def scenario(server):
            async with _Client(server.port) as client:
                before = (await client.request("POST", "/predict", {"node": 3}))[1]
                fail_status, fail_body, _ = await client.request(
                    "POST", "/insert", {"features": [[0.0] * 40]}
                )
                health = (await client.request("GET", "/healthz"))[1]
                retry_status, retry_body, headers = await client.request(
                    "POST", "/delete", {"nodes": [1]}
                )
                after = await client.request("POST", "/predict", {"node": 3})
                stats = (await client.request("GET", "/stats"))[1]
            return (
                before, fail_status, fail_body, health,
                retry_status, retry_body, headers, after, stats,
            )

        (
            before, fail_status, fail_body, health,
            retry_status, retry_body, headers, after, stats,
        ) = _serve(bundle_path, scenario)
        assert fail_status == 500
        assert fail_body["type"] == "FaultInjected"
        assert health["status"] == "degraded"
        assert "FaultInjected" in health["failure"]
        assert retry_status == 503
        assert retry_body["status"] == "degraded"
        assert headers["retry-after"] == "30"
        # Reads survive quarantine bit-identically (same generation).
        assert after[0] == 200 and after[1]["result"] == before["result"]
        assert stats["status"] == "degraded"
        assert stats["pool"]["failure"] is not None

    def test_read_failure_answers_structured_500(self, bundle_path, monkeypatch):
        from repro.serving import Generation

        def unreadable(self, nodes=None, *, output="labels"):
            raise RuntimeError("generation unreadable")

        async def scenario(server):
            async with _Client(server.port) as client:
                with monkeypatch.context() as patch:
                    patch.setattr(Generation, "answer", unreadable)
                    failed = await client.request("POST", "/predict", {"node": 1})
                # Same connection, next request: served normally.
                recovered = await client.request("POST", "/predict", {"node": 1})
            return failed, recovered

        (status, body, _), recovered = _serve(bundle_path, scenario)
        assert status == 500 and body["type"] == "RuntimeError"
        assert "generation unreadable" in body["error"]
        assert recovered[0] == 200

    def test_healthz_reports_wal_and_checkpoint_state(self, bundle_path, tmp_path):
        async def scenario(server):
            async with _Client(server.port) as client:
                await client.request(
                    "POST", "/insert",
                    {"features": [[0.0] * 40]},
                )
                await client.request("POST", "/delete", {"nodes": [2]})
                return (await client.request("GET", "/healthz"))[1]

        health = _serve(
            bundle_path, scenario,
            checkpoint_path=tmp_path / "ckpt.npz",
            wal_path=tmp_path / "mut.wal",
        )
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["wal_depth"] == 1  # the tombstoning delete, uncheckpointed
        assert health["last_checkpoint_age_s"] >= 0.0


class TestServerRestart:
    def test_restart_prefers_checkpoint_and_replays_wal(
        self, bundle_path, tmp_path
    ):
        ckpt = tmp_path / "ckpt.npz"
        wal = tmp_path / "mut.wal"
        config = dict(
            checkpoint_path=ckpt, wal_path=wal, drain_timeout_s=0.5
        )

        async def first(server):
            async with _Client(server.port) as client:
                await client.request(
                    "POST", "/insert", {"features": [[0.1] * 40, [0.2] * 40]}
                )
                await client.request("POST", "/delete", {"nodes": [3, 11]})
                _, body, _ = await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                )
            return body["result"], server.pool.last_seq

        reference, last_seq = _serve(bundle_path, first, **config)
        assert last_seq == 2

        async def second(server):
            assert server.recovered == 1  # the delete rode the WAL
            assert server.pool.last_seq == last_seq
            async with _Client(server.port) as client:
                _, body, _ = await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                )
            return body["result"]

        replayed = _serve(bundle_path, second, **config)
        assert replayed == reference  # bit-identical across the restart

    def test_non_finite_writes_are_rejected_and_survive_a_restart(
        self, bundle_path, tmp_path
    ):
        # json.loads accepts NaN / Infinity literals.  Such a write is a 400
        # that leaves the writer healthy — and since it is journalled before
        # it is rejected, a restart must skip it rather than re-poison the
        # writer.
        config = dict(
            checkpoint_path=tmp_path / "ckpt.npz", wal_path=tmp_path / "mut.wal",
            drain_timeout_s=0.5,
        )
        row = [0.1] * 40

        async def first(server):
            async with _Client(server.port) as client:
                before = (await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                ))[1]["result"]
                nan_update = await client.request(
                    "POST", "/update", {"nodes": [4], "features": [row[:-1] + [float("nan")]]}
                )
                health = (await client.request("GET", "/healthz"))[1]
                after = (await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                ))[1]["result"]
                valid = await client.request(
                    "POST", "/update", {"nodes": [4], "features": [row]}
                )
                inf_insert = await client.request(
                    "POST", "/insert", {"features": [row, [float("-inf")] + row[1:]]}
                )
                wal_depth = (await client.request("GET", "/healthz"))[1]["wal_depth"]
                final = (await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                ))[1]["result"]
            return before, nan_update, health, after, valid, inf_insert, wal_depth, final

        before, nan_update, health, after, valid, inf_insert, wal_depth, final = _serve(
            bundle_path, first, **config
        )
        assert nan_update[0] == 400 and "non-finite" in nan_update[1]["error"]
        assert health["status"] == "ok"
        assert after == before
        assert valid[0] == 200
        assert inf_insert[0] == 400 and "rows [1]" in inf_insert[1]["error"]
        assert wal_depth == 1  # the rejected insert, journalled after the checkpoint

        async def second(server):
            # The bad insert (seq 3) is replayed, rejected again and skipped.
            assert server.recovered == 0 and server.pool.last_seq == 3
            async with _Client(server.port) as client:
                health = (await client.request("GET", "/healthz"))[1]
                logits = (await client.request(
                    "POST", "/predict", {"nodes": None, "output": "logits"}
                ))[1]["result"]
            return health, logits

        health, logits = _serve(bundle_path, second, **config)
        assert health["status"] == "ok"
        assert logits == final


# --------------------------------------------------------------------------- #
# CLI: kill -9 a live server, restart it, verify nothing was lost
# --------------------------------------------------------------------------- #
@pytest.mark.chaos
def test_cli_serve_survives_kill_dash_nine(bundle_path, tmp_path):
    import re
    import signal

    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop("REPRO_FAULTS", None)
    ckpt, wal = tmp_path / "ckpt.npz", tmp_path / "mut.wal"
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--bundle", str(bundle_path), "--port", "0",
        "--checkpoint", str(ckpt), "--wal", str(wal),
    ]

    def start():
        process = subprocess.Popen(
            argv, env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(600):
            line = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match:
                return process, int(match.group(1))
        process.kill()
        raise AssertionError("server did not report its port")

    async def drive(port, *requests):
        async with _Client(port) as client:
            return [
                await client.request(method, path, payload)
                for method, path, payload in requests
            ]

    process, port = start()
    try:
        responses = asyncio.run(drive(
            port,
            ("POST", "/insert", {"features": [[0.3] * 40]}),
            ("POST", "/delete", {"nodes": [5]}),
            ("POST", "/predict", {"nodes": None, "output": "logits"}),
        ))
        assert [status for status, _, _ in responses] == [200, 200, 200]
        reference = responses[-1][1]["result"]
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        process.stderr.close()

    restarted, port = start()
    try:
        responses = asyncio.run(drive(
            port, ("POST", "/predict", {"nodes": None, "output": "logits"})
        ))
        assert responses[0][0] == 200
        assert responses[0][1]["result"] == reference
    finally:
        restarted.terminate()
        restarted.wait(timeout=30)
        restarted.stdout.close()
        restarted.stderr.close()
