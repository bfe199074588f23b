"""Fault-injection registry for the serving stack.

Production failure handling is only as good as its tests, and the failures
worth testing — a process killed between an fsync and an apply, a wedged
worker thread, an exception thrown halfway through a mutation — do not occur
naturally under pytest.  This module provides **named fault points**: cheap
no-op hooks threaded through the serving write path
(:mod:`repro.serving.wal`, :mod:`repro.serving.store`,
:mod:`repro.serving.session`, :mod:`repro.serving.server`) at every
fsync / apply / publish boundary.  A test (or a chaos run) arms a point with
an *action* and the next time execution crosses it, the fault fires:

``crash``
    ``os._exit(86)`` — the process dies instantly, with no ``atexit`` hooks,
    no buffer flushing and no ``finally`` blocks, exactly like ``kill -9``.
    This is how the crash-recovery suite proves the WAL contract: whatever a
    crash at any point leaves on disk, replay must reconstruct the pre-crash
    state bit-for-bit.
``raise``
    raises :class:`FaultInjected` — simulates a writer failing mid-apply, the
    trigger for the session pool's quarantine / read-only degraded mode.
``delay:<seconds>``
    sleeps — simulates a wedged executor call, the trigger for the server's
    per-request deadlines (HTTP 504).

An action may carry an ``@N`` suffix (``crash@3``): the fault stays dormant
until the point's Nth crossing, so a crash can land mid-sequence instead of
on the first write.

Configuration is programmatic (:func:`fault_registry`, ``set`` / ``clear``)
or declarative through the ``REPRO_FAULTS`` environment variable — a
comma-separated ``point=action`` list read at import time, which is how a
*subprocess* under test is armed::

    REPRO_FAULTS="wal.before_fsync=crash@2" python -m repro.cli serve ...
    REPRO_FAULTS="pool.mid_apply=raise,wal.before_fsync=delay:0.5"

Modules *declare* their points at import time (:func:`declare_fault_point`),
so ``fault_registry().points()`` enumerates every crash point in the codebase
— the crash-recovery property test iterates exactly that list and can never
silently miss a new boundary.  An unarmed point costs one dict lookup.
"""

from __future__ import annotations

import os
import threading
import time

from repro.analysis.sanitize import guard_attrs
from repro.errors import ConfigurationError

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "FaultRegistry",
    "clear_faults",
    "configure_faults",
    "declare_fault_point",
    "fault_point",
    "fault_registry",
]

#: Exit status of a ``crash`` action — distinguishable from every normal
#: Python failure (1) and from signal deaths (negative returncodes), so a
#: test harness can assert that the *injected* crash, not a bug, killed the
#: subprocess.
CRASH_EXIT_CODE = 86

_ACTIONS = ("crash", "raise", "delay")


class FaultInjected(RuntimeError):
    """Raised by a fault point armed with the ``raise`` action."""


class _Rule:
    __slots__ = ("action", "seconds", "after")

    def __init__(self, action: str, seconds: float, after: int) -> None:
        self.action = action
        self.seconds = seconds
        self.after = after


def _parse_action(spec: str) -> _Rule:
    """``crash`` / ``raise`` / ``delay:0.5``, optionally ``...@N``."""
    text = spec.strip()
    after = 1
    if "@" in text:
        text, _, nth = text.partition("@")
        try:
            after = int(nth)
        except ValueError:
            raise ConfigurationError(f"bad fault trigger count in {spec!r}")
        if after < 1:
            raise ConfigurationError(f"fault trigger count must be >= 1 in {spec!r}")
    action, _, argument = text.partition(":")
    action = action.strip()
    if action not in _ACTIONS:
        raise ConfigurationError(
            f"unknown fault action {action!r} (expected one of {_ACTIONS})"
        )
    seconds = 0.0
    if action == "delay":
        try:
            seconds = float(argument)
        except ValueError:
            raise ConfigurationError(f"delay needs seconds, got {spec!r}")
        if seconds < 0:
            raise ConfigurationError(f"delay must be >= 0, got {spec!r}")
    elif argument:
        raise ConfigurationError(f"action {action!r} takes no argument, got {spec!r}")
    return _Rule(action, seconds, after)


@guard_attrs("_lock", "_rules", "_hits")
class FaultRegistry:
    """Declared fault points, armed rules and per-point hit counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._points: dict[str, str] = {}
        self._rules: dict[str, _Rule] = {}
        self._hits: dict[str, int] = {}

    # -- declaration ---------------------------------------------------- #
    def declare(self, name: str, description: str = "") -> str:
        """Register a point name (idempotent); returns the name for reuse."""
        self._points.setdefault(name, description)
        return name

    def points(self) -> dict[str, str]:
        """Every declared fault point, name -> description."""
        return dict(self._points)

    # -- arming --------------------------------------------------------- #
    def set(self, point: str, action: str, *, strict: bool = True) -> None:
        """Arm ``point`` with ``action`` (``crash``/``raise``/``delay:s``[@N]).

        With ``strict`` (default) the point must be declared — an unknown
        name raises :class:`~repro.errors.ConfigurationError`, catching
        typos; environment configuration uses ``strict=False`` because it is
        parsed before the serving modules (whose imports declare the points)
        are loaded.  A malformed ``action`` raises
        :class:`~repro.errors.ConfigurationError` either way.
        """
        if strict and point not in self._points:
            known = ", ".join(sorted(self._points)) or "<none declared yet>"
            raise ConfigurationError(
                f"unknown fault point {point!r} (declared points: {known})"
            )
        rule = _parse_action(action)
        with self._lock:
            self._rules[point] = rule

    def configure(self, spec: str, *, strict: bool = True) -> None:
        """Arm several points from ``point=action[,point=action...]``.

        Raises :class:`~repro.errors.ConfigurationError` for a malformed
        spec or (under ``strict``) an undeclared point name.
        """
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            point, sep, action = entry.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"bad fault spec entry {entry!r} (expected point=action)"
                )
            self.set(point.strip(), action, strict=strict)

    def clear(self, point: str | None = None) -> None:
        """Disarm one point (or all) and reset the hit counters."""
        with self._lock:
            if point is None:
                self._rules.clear()
                self._hits.clear()
            else:
                self._rules.pop(point, None)
                self._hits.pop(point, None)

    def hits(self, point: str) -> int:
        """How many times execution has crossed ``point`` since ``clear``."""
        with self._lock:
            return self._hits.get(point, 0)

    def active(self) -> dict[str, str]:
        """Currently armed rules, point -> action summary."""
        with self._lock:
            return {
                point: (
                    f"{rule.action}"
                    + (f":{rule.seconds}" if rule.action == "delay" else "")
                    + (f"@{rule.after}" if rule.after > 1 else "")
                )
                for point, rule in self._rules.items()
            }

    # -- firing --------------------------------------------------------- #
    def fire(self, point: str) -> None:
        """Trigger ``point``: run its armed action, if any.

        ``crash`` kills the process with ``os._exit``; ``raise`` raises
        :class:`FaultInjected`; ``delay:s`` sleeps.  Unarmed points return
        immediately (the production fast path).
        """
        with self._lock:
            if not self._rules:
                return  # fast path: nothing armed anywhere
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            rule = self._rules.get(point)
            if rule is None or count < rule.after:
                return
        if rule.action == "delay":
            time.sleep(rule.seconds)
            return
        if rule.action == "raise":
            raise FaultInjected(f"injected fault at {point!r} (hit {count})")
        os._exit(CRASH_EXIT_CODE)  # "crash": die like kill -9


_REGISTRY = FaultRegistry()


def fault_registry() -> FaultRegistry:
    """The process-wide registry (one per process, like the fault itself)."""
    return _REGISTRY


def declare_fault_point(name: str, description: str = "") -> str:
    return _REGISTRY.declare(name, description)


def fault_point(name: str) -> None:
    """Cross the named fault point (no-op unless armed)."""
    _REGISTRY.fire(name)


def configure_faults(spec: str, *, strict: bool = True) -> None:
    _REGISTRY.configure(spec, strict=strict)


def clear_faults() -> None:
    _REGISTRY.clear()


_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    # Subprocess arming: parsed before the serving modules declare their
    # points, hence non-strict.
    _REGISTRY.configure(_env_spec, strict=False)
del _env_spec
