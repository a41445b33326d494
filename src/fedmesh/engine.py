"""Deterministic discrete-event core.

Virtual time is integer milliseconds. Events fire in (fire_at, seq) order,
where seq is assigned at schedule time, so the delivery order is a pure
function of the scenario and its seed. Each entity has one inbox: its handler,
which receives the scheduled payload itself (the engine keeps the time,
``now``), and a bounded count of undelivered events. Overflowing an inbox is
an explicit error, never a silent drop, and scheduling to a target that never
registered a handler is rejected at once, not when the event would fire.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Any, Callable

from .errors import BufferOverflowError, InvalidArgumentError, SimulationError

DEFAULT_INBOX_CAPACITY = 1000


class Inbox:
    """One entity's handler and its bounded count of undelivered events."""

    __slots__ = ("handler", "capacity", "pending")

    def __init__(self, handler: Callable[[Any], None], capacity: int) -> None:
        self.handler = handler
        self.capacity = capacity
        self.pending = 0


class RngStream:
    """A labeled deterministic random stream.

    The underlying generator is seeded from a stable hash of (seed, label),
    so the same pair always yields the same draw sequence regardless of what
    other streams consumed.
    """

    def __init__(self, seed: int, label: str) -> None:
        material = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).digest()
        self._random = random.Random(int.from_bytes(material[:8], "big"))

    def uniform(self, lo: float, hi: float) -> float:
        """Draw from [lo, hi); lo == hi returns exactly lo."""
        if lo > hi:
            raise InvalidArgumentError(f"uniform bounds reversed: {lo} > {hi}")
        if lo == hi:
            return lo
        draw = lo + (hi - lo) * self._random.random()
        if draw >= hi:  # multiplication rounding can graze the upper bound
            draw = math.nextafter(hi, lo)
        return draw


class SimulationEngine:
    """Single-threaded event loop over a global (fire_at, seq) order."""

    def __init__(self, *, default_inbox_capacity: int = DEFAULT_INBOX_CAPACITY) -> None:
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, str, Any]] = []
        self._inboxes: dict[str, Inbox] = {}
        self._default_capacity = default_inbox_capacity
        self.events_processed = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def has_pending_events(self) -> bool:
        return bool(self._heap)

    def register(self, target: str, handler: Callable[[Any], None]) -> None:
        """Create the target's inbox, or swap the handler of an existing one."""
        box = self._inboxes.get(target)
        if box is None:
            self._inboxes[target] = Inbox(handler, self._default_capacity)
        else:
            box.handler = handler

    def inbox(self, target: str) -> Inbox:
        """The inbox of a registered target (KeyError for any other)."""
        return self._inboxes[target]

    def schedule(self, delay_ms: int, target: str, payload: Any) -> int:
        """Enqueue an event at now + delay_ms; returns its sequence number."""
        if delay_ms < 0:
            raise InvalidArgumentError(f"delay must be >= 0, got {delay_ms}")
        box = self._inboxes.get(target)
        if box is None:
            raise SimulationError(
                f"no handler for entity {target!r} ({type(payload).__name__} at t={self._now})"
            )
        if box.pending + 1 > box.capacity:
            raise BufferOverflowError(
                f"inbox of {target!r} at capacity {box.capacity}; refusing to enqueue"
            )
        box.pending += 1
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (self._now + int(delay_ms), seq, target, payload))
        return seq

    def run(self, until_ms: int | None = None) -> int:
        """Process events in order until the queue empties or time runs out.

        Events with fire_at beyond until_ms stay queued. A handler exception
        aborts the run with entity/event/time diagnostics attached.
        """
        processed = 0
        while self._heap:
            fire_at, _, target, payload = self._heap[0]
            if until_ms is not None and fire_at > until_ms:
                break
            heapq.heappop(self._heap)
            assert fire_at >= self._now, "clock must never run backwards"
            self._now = fire_at
            box = self._inboxes[target]
            box.pending -= 1
            try:
                box.handler(payload)
            except Exception as exc:
                raise SimulationError(
                    f"handler for {target!r} failed on {type(payload).__name__} at t={fire_at}: {exc}"
                ) from exc
            processed += 1
            self.events_processed += 1
        return processed
