"""Deterministic discrete-event core.

Virtual time is integer milliseconds. Events fire in (fire_at, schedule
order): by time, and within one millisecond in the order they were
scheduled, so the delivery order is a pure function of the scenario and its
seed. Each entity registers one inbox, once: its handler, which receives the
scheduled payload itself (the engine keeps the time, ``now``), and a bounded
count of undelivered events. Overflowing an inbox is an explicit error, never
a silent drop, and scheduling to a target that never registered a handler is
rejected at once, not when the event would fire.

The queue is a calendar of slots (R. Brown, "Calendar queues", CACM 1988):
one list of (inbox, payload) per fire time, kept in schedule order, plus a
heap of the distinct fire times. Events that share a millisecond, such as the
replicas of one claim, are appended to one list instead of each being pushed
on a heap. A zero-delay event scheduled while a slot is delivered joins the
end of that slot, after its earlier-scheduled siblings.
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
    """One entity's target name, handler and bounded count of undelivered
    events."""

    __slots__ = ("target", "handler", "capacity", "pending")

    def __init__(self, target: str, handler: Callable[[Any], None], capacity: int) -> None:
        self.target = target
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
    """Single-threaded event loop in global (fire_at, schedule order)."""

    def __init__(self, *, default_inbox_capacity: int = DEFAULT_INBOX_CAPACITY) -> None:
        self._now = 0
        self._slots: dict[int, list[tuple[Inbox, Any]]] = {}
        self._times: list[int] = []  # heap of the fire times that have a slot
        self._inboxes: dict[str, Inbox] = {}
        self._default_capacity = default_inbox_capacity
        self.events_processed = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def has_pending_events(self) -> bool:
        return bool(self._times)

    def register(self, target: str, handler: Callable[[Any], None]) -> None:
        """Create the target's inbox; a target registers once."""
        if target in self._inboxes:
            raise InvalidArgumentError(f"target {target!r} is already registered")
        self._inboxes[target] = Inbox(target, handler, self._default_capacity)

    def inbox(self, target: str) -> Inbox:
        """The inbox of a registered target (KeyError for any other)."""
        return self._inboxes[target]

    def pending_by_target(self) -> dict[str, int]:
        """Undelivered event count of every target that has any."""
        return {target: box.pending for target, box in self._inboxes.items() if box.pending}

    def schedule(self, delay_ms: int, target: str, payload: Any) -> None:
        """Enqueue an event at now + delay_ms, after every event already
        queued for that millisecond.

        The delay is a non-negative ``int`` number of milliseconds (not a
        bool or a float); any other value is rejected before anything is
        queued or counted.
        """
        if type(delay_ms) is not int or delay_ms < 0:
            raise InvalidArgumentError(
                f"delay to {target!r} must be a non-negative int of ms, got {delay_ms!r}"
            )
        box = self._inboxes.get(target)
        if box is None:
            raise SimulationError(
                f"no handler for entity {target!r} ({type(payload).__name__} at t={self._now})"
            )
        if box.pending >= box.capacity:
            raise BufferOverflowError(
                f"inbox of {target!r} at capacity {box.capacity}; refusing to enqueue"
            )
        box.pending += 1
        fire_at = self._now + delay_ms
        slot = self._slots.get(fire_at)
        if slot is None:
            self._slots[fire_at] = [(box, payload)]
            heapq.heappush(self._times, fire_at)
        else:
            slot.append((box, payload))

    def run(self, until_ms: int | None = None) -> None:
        """Process events in order until the queue empties or time runs out.

        Events with fire_at beyond until_ms stay queued. ``events_processed``
        counts the events delivered by every call, so a run driven through
        several calls reads its total there. A handler exception
        aborts the run with entity/event/time diagnostics attached; the failed
        event is dropped and the rest of its millisecond stays queued.
        """
        slots, times = self._slots, self._times
        while times:
            fire_at = times[0]
            if until_ms is not None and fire_at > until_ms:
                break
            assert fire_at >= self._now, "clock must never run backwards"
            self._now = fire_at
            slot = slots[fire_at]
            done = 0
            try:
                # The list iterator re-reads the length, so it also reaches
                # the zero-delay events that handlers append to this slot.
                for box, payload in slot:
                    box.pending -= 1
                    box.handler(payload)
                    done += 1
            except Exception as exc:
                raise SimulationError(
                    f"handler for {box.target!r} failed on {type(payload).__name__} at t={fire_at}: {exc}"
                ) from exc
            finally:
                # Delivered events leave the slot, and so does one whose
                # handler raised; the rest of its millisecond stays queued.
                self.events_processed += done
                del slot[: done + 1]
                if not slot:
                    heapq.heappop(times)
                    del slots[fire_at]
