"""Correctness gate: server answers against a direct ``InferenceSession``.

* Reads: every sampled ``/predict`` answer (labels and logits) must equal
  the same request made to a session loaded from the same bundle, bit for
  bit (JSON floats round-trip exactly).
* Writes: after ``write`` and ``churn``, the server's logits for every node
  must equal a local session that replays the acknowledged mutations in
  acknowledgement order.  ``refresh_each`` refreshes after every mutation,
  as the server publishes after every write; ``write`` sends updates only,
  whose final state does not depend on refresh points, so it refreshes once.

A mismatch raises :class:`GateError`; the run then reports
``"correct": false`` instead of a timing.
"""

from __future__ import annotations

import json

import numpy as np


class GateError(AssertionError):
    """The program under test answered differently from the reference."""


def _session(bundle):
    from repro.serving import FrozenModel, InferenceSession

    return InferenceSession(FrozenModel.load(bundle))


def check_reads(bundle, samples: list) -> int:
    """Compare sampled read answers; returns how many were checked."""
    session = _session(bundle)
    for request, body in samples:
        nodes = request.get("nodes", request.get("node"))
        expected = session.predict(nodes, output=request.get("output", "labels"))
        got = np.asarray(json.loads(body)["result"], dtype=expected.dtype)
        if got.shape != expected.shape or not np.array_equal(got, expected):
            raise GateError(f"read {request} answered {got!r}, reference {expected!r}")
    return len(samples)


def replay(bundle, acked: list, *, refresh_each: bool) -> np.ndarray:
    """Logits of every alive node after replaying ``acked`` mutations."""
    session = _session(bundle)
    for op, payload in acked:
        if op == "update":
            session.update_features(payload["nodes"], np.asarray(payload["features"]))
        elif op == "insert":
            session.insert_nodes(np.asarray(payload["features"]))
        elif op == "delete":
            session.delete_nodes(payload["nodes"])
        elif op == "compact":
            session.compact()
        else:
            raise GateError(f"unknown mutation {op!r}")
        if refresh_each:
            session.predict()
    return session.predict(None, output="logits")


def check_state(bundle, acked: list, served: list, *, refresh_each: bool) -> int:
    """Served logits must equal the replayed reference; returns rows checked."""
    expected = replay(bundle, acked, refresh_each=refresh_each)
    got = np.asarray(served, dtype=expected.dtype)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        rows = (
            int((got != expected).any(axis=1).sum()) if got.shape == expected.shape else "all"
        )
        raise GateError(
            f"served logits differ from the replayed reference in {rows} rows "
            f"after {len(acked)} mutations"
        )
    return int(expected.shape[0])
