"""Write-ahead log for serving-stack mutations.

The :class:`~repro.serving.SessionPool` persists tombstone-free generations
as atomic :class:`~repro.serving.OperatorStore` checkpoints — but a crash
between checkpoints silently loses every mutation since the last one.  The
:class:`WriteAheadLog` closes that window with the classic discipline:

1. every write-path request (``insert`` / ``update`` / ``delete`` /
   ``compact`` / ``reassign``) is serialised to JSON, framed, checksummed
   and **fsync'd to the journal before the writer applies it**;
2. recovery replays the journal suffix (records with a sequence number
   beyond the one recorded inside the last checkpoint) through the exact
   same apply path, deterministically reconstructing pre-crash state —
   bit-identical predictions are the contract, pinned by the crash-matrix
   suite in ``tests/test_serving_faults.py``;
3. whenever a checkpoint lands, the journal is truncated — the checkpoint
   carries its high-water sequence number, so a crash *between* the
   checkpoint landing and the truncation merely replays already-absorbed
   records into a sequence-number dedup check, never twice into the state.

On-disk format: a fixed header (:data:`WAL_HEADER`) followed by records of
``uint32-le payload length + 16-byte blake2b digest + JSON payload``.  Two
corruption classes are distinguished deliberately:

* a **torn tail** — the final record is incomplete because the process died
  mid-write (or mid-OS-flush).  This is an expected crash artefact: replay
  stops cleanly at the last complete record, and opening the log for append
  truncates the torn bytes so the next record starts on a valid frame;
* a **checksum mismatch on a complete record** — bit rot or external
  interference, never produced by a crash of this code.  This raises
  :class:`WALCorruptionError` (with the file offset) instead of silently
  serving a state that diverges from what was acknowledged.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.analysis.sanitize import guard_attrs
from repro.obs.metrics import get_registry
from repro.obs.tracing import record_span
from repro.serving.faults import declare_fault_point, fault_point

__all__ = ["WAL_HEADER", "WALCorruptionError", "WALError", "WALRecord", "WriteAheadLog"]

#: File header (magic + format version); bump on incompatible layout change.
WAL_HEADER = b"REPRO-WAL/1\n"

_LEN = struct.Struct("<I")
_DIGEST_SIZE = 16

declare_fault_point("wal.before_append", "before the record frame is written")
declare_fault_point("wal.before_fsync", "record written, not yet durable")
declare_fault_point("wal.after_fsync", "record durable, not yet applied")
declare_fault_point("wal.before_truncate", "checkpoint landed, journal still full")
declare_fault_point("wal.after_truncate", "journal reset after a checkpoint")


class WALError(Exception):
    """The journal file is not a WAL, or cannot be used as one."""


class WALCorruptionError(WALError):
    """A *complete* record failed its checksum (not a torn tail)."""


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


@dataclass(frozen=True)
class WALRecord:
    """One durable mutation: monotonic sequence number, op name, payload."""

    seq: int
    op: str
    payload: dict[str, Any]


def _scan(data: bytes, path: Path) -> tuple[list[WALRecord], int]:
    """Parse ``data``; returns (records, offset of the first torn byte).

    Stops cleanly at a torn tail (incomplete frame at EOF); raises
    :class:`WALCorruptionError` on a checksum mismatch of a complete record.
    """
    if not data.startswith(WAL_HEADER):
        raise WALError(f"{path} is not a write-ahead log (bad header)")
    records: list[WALRecord] = []
    offset = len(WAL_HEADER)
    end = len(data)
    while offset < end:
        if offset + _LEN.size > end:
            break  # torn tail: partial length prefix
        (length,) = _LEN.unpack_from(data, offset)
        frame_end = offset + _LEN.size + _DIGEST_SIZE + length
        if frame_end > end:
            break  # torn tail: frame declared longer than the bytes present
        digest = data[offset + _LEN.size : offset + _LEN.size + _DIGEST_SIZE]
        payload = data[offset + _LEN.size + _DIGEST_SIZE : frame_end]
        if _digest(payload) != digest:
            raise WALCorruptionError(
                f"{path}: checksum mismatch in record {len(records)} "
                f"at byte offset {offset}"
            )
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WALCorruptionError(
                f"{path}: record {len(records)} at offset {offset} passed its "
                f"checksum but is not valid JSON ({error})"
            ) from error
        records.append(
            WALRecord(int(decoded["seq"]), str(decoded["op"]), decoded["payload"])
        )
        offset = frame_end
    return records, offset


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so a fresh/renamed file itself survives."""
    with suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@guard_attrs("_lock", "_depth", "_last_seq", "_handle")
class WriteAheadLog:
    """Append-only, checksummed, fsync'd mutation journal.

    Opening an existing journal scans it once: a torn tail left by a crash is
    truncated away (so appends resume on a valid frame boundary), corruption
    raises, and :attr:`depth` / :attr:`last_seq` reflect the surviving
    records.  ``fsync=False`` trades durability of the last few records for
    write latency (the frames still flush to the OS per append) — benchmarks
    quantify the gap; servers should keep the default.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        # The journal is written from writer/executor threads while the
        # event loop polls depth/last_seq for telemetry; the lock covers the
        # handle and both counters (lint rule RL006 + REPRO_SANITIZE=locks).
        self._lock = threading.Lock()
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            records, good_end = _scan(self.path.read_bytes(), self.path)
            if good_end < self.path.stat().st_size:
                # Crash artefact: drop the torn tail before appending.
                with open(self.path, "r+b") as handle:
                    handle.truncate(good_end)
                    handle.flush()
                    os.fsync(handle.fileno())
        else:
            records = []
            self.path.write_bytes(WAL_HEADER)
            _fsync_dir(self.path.parent)
        with self._lock:
            self._depth = len(records)
            self._last_seq = records[-1].seq if records else 0
            self._handle = open(self.path, "ab")
        registry = get_registry()
        self._metric_append = registry.histogram(
            "repro_wal_append_seconds", "WAL record frame write + flush latency"
        )
        self._metric_fsync = registry.histogram(
            "repro_wal_fsync_seconds", "WAL per-record fsync latency"
        )

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of complete records currently in the journal."""
        with self._lock:
            return self._depth

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 when empty)."""
        with self._lock:
            return self._last_seq

    def append(self, op: str, payload: dict[str, Any], seq: int) -> None:
        """Frame, write and (by default) fsync one record — *before* apply.

        The record is durable when this returns: a crash at any later point
        of the request replays it on recovery.  A crash *inside* this method
        leaves at most a torn tail, which the next open truncates — the
        mutation was never acknowledged, so losing it is correct.
        """
        record = json.dumps(
            {"seq": int(seq), "op": op, "payload": payload},
            separators=(",", ":"),
        ).encode("utf-8")
        fault_point("wal.before_append")
        start = time.perf_counter()
        with self._lock:
            self._handle.write(_LEN.pack(len(record)) + _digest(record) + record)
            fault_point("wal.before_fsync")
            self._handle.flush()
            elapsed = time.perf_counter() - start
            record_span("wal_append", elapsed)
            self._metric_append.observe(elapsed)
            if self.fsync:
                start = time.perf_counter()
                os.fsync(self._handle.fileno())
                elapsed = time.perf_counter() - start
                record_span("wal_fsync", elapsed)
                self._metric_fsync.observe(elapsed)
            fault_point("wal.after_fsync")
            self._depth += 1
            self._last_seq = int(seq)

    def read_records(self) -> list[WALRecord]:
        """Every complete record currently on disk (tolerates a torn tail)."""
        with self._lock:
            self._handle.flush()
            data = self.path.read_bytes()
        records, _ = _scan(data, self.path)
        return records

    def truncate(self) -> None:
        """Reset the journal to empty — call only after a checkpoint landed.

        Records removed here are, by the caller's contract, already absorbed
        into a durable checkpoint whose metadata carries their high-water
        sequence number; a crash immediately *before* this call therefore
        only costs a redundant (sequence-deduplicated) replay.
        """
        fault_point("wal.before_truncate")
        with self._lock:
            self._handle.close()
            with open(self.path, "wb") as handle:
                handle.write(WAL_HEADER)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle = open(self.path, "ab")
            self._depth = 0
        fault_point("wal.after_truncate")

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                with suppress(ValueError, OSError):
                    self._handle.close()
                self._handle = None

    def __del__(self) -> None:
        # GC backstop so an abandoned journal never leaks its file handle
        # (the suite runs with warnings-as-errors, which turns the resulting
        # ResourceWarning fatal).  Explicit close() remains the contract.
        with suppress(Exception):
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            depth = self._depth
        return f"WriteAheadLog({str(self.path)!r}, depth={depth})"
