"""Per-cell claim queues grouped by claim class, and ticket allocation.

One ClaimStore serves a whole federation and holds, keyed by index cell, the
claims waiting at each cell. A cell has a queue exactly while a claim waits
there: the first claim builds it, and the claim whose service or discard
empties it takes it away, so a drained cell holds nothing. Claims with
equal constraint tuples form one claim class. Every unit a cloud submits
for one model shares its constraints, so a cell holding thousands of claims
holds only a few classes. Each class is a FIFO bucket in
(arrival_time, claim_id) order.

The federation interns one spatial.ClaimClass per (cloud, model), so a
cell insert pays one cached-hash call and finds its bucket by identity;
claims built with fresh equal tuples (as the oracles and tests build them)
still meet an interned class in one bucket.

Whether a claim matches a ticket depends on its constraints and the ticket's
point alone, and both are fixed for a whole run. So the store decides each
(ticket point, claim class) pair once, on the first ticket at that point that
meets the class waiting, and keeps the answer in one memo for every cell. A
ticket tests only the classes waiting in its cell that the memo has not seen
at its point, so a point that never repeats (as the oracles' random ones)
costs one test per waiting class, as it would with no memo. A ticket walks
the matching non-empty buckets, merged back into global
(arrival_time, claim_id) order, and serves them first fit, exactly as one
scan of a single sorted cell queue would serve them. The least bucket head
comes first in that order, so when it requests exactly the ticket's capacity
(a one-unit claim meeting a one-unit node ticket, the common case) it is
served alone and nothing is merged. Tickets are transient: any leftover
capacity is discarded, since a fresh status ticket will follow. A ticket
at a cell where no claim waits serves nothing; has_waiting tells whether
one waits.

The store builds every AllocationDecision unchecked, with new_record. A
served claim leaves its bucket by id; it is almost always the bucket's
head, which is dropped without a search.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge
from itertools import chain
from typing import NamedTuple

from .spatial import Constraint, IndexCell, ResourceClaim, ResourceTicket, matches

# (arrival_time, claim_id, claim): unique on the first two within a cell.
_Entry = tuple[int, str, ResourceClaim]

# new_record(cls, fields) builds a NamedTuple message or record from a tuple
# of its fields in C, more cheaply than the generated Python __new__; the
# object is the same. Claims, tickets, claim posts and workload specs are
# tuple records: NamedTuple subclasses whose public constructors check their
# fields.
# new_record skips that check, so each caller passes only fields that hold
# it by construction. The federation builds this way every message it sends
# per unit, per ticket or per claim post, each unit's ResourceClaim (with
# the literal 1 unit), each ResourceTicket (with the literal 1 free unit)
# and each ClaimPost (with a non-empty tuple of claims);
# generate_units builds each WorkUnit, the store every AllocationDecision,
# and the scenario parser each WorkloadSpec, whose key converters already
# hold each field to its domain.
# NamedTuple's _replace and _make build through tuple.__new__ too, so the
# library calls neither on a record.
new_record = tuple.__new__


class AllocationDecision(NamedTuple):
    """One claim granted against one ticket."""

    ticket_id: str
    claim_id: str
    units_granted: int
    decided_at: int
    target: str  # ticket origin: the execution node gaining the work
    notify: str  # claim origin: the scheduler to inform


class _CellQueue:
    """One cell's claims: a FIFO bucket per claim class, and an index from
    claim id to (bucket, arrival_time), so removal never rehashes a class.
    Emptied buckets stay in place for the class's next claim."""

    __slots__ = ("buckets", "index")

    def __init__(self) -> None:
        self.buckets: dict[tuple[Constraint, ...], list[_Entry]] = {}
        self.index: dict[str, tuple[list[_Entry], int]] = {}

    def insert(self, claim: ResourceClaim) -> None:
        bucket = self.buckets.get(claim.constraints)
        if bucket is None:
            bucket = self.buckets[claim.constraints] = []
        insort(bucket, (claim.arrival_time, claim.claim_id, claim))
        self.index[claim.claim_id] = (bucket, claim.arrival_time)

    def remove_id(self, claim_id: str) -> bool:
        found = self.index.pop(claim_id, None)
        if found is None:
            return False
        bucket, arrival_time = found
        # A served claim is almost always its bucket's head: drop it unsearched.
        if bucket[0][1] == claim_id:
            del bucket[0]
        else:
            del bucket[bisect_left(bucket, (arrival_time, claim_id))]
        return True


class ClaimStore:
    """Claim-class buckets keyed by index cell, and the memo of which class
    each ticket point satisfies. A cell has a queue exactly while a claim
    waits there; emptied buckets stay only in a queue still holding claims."""

    def __init__(self) -> None:
        self._cells: dict[IndexCell, _CellQueue] = {}
        self._fits: dict[tuple[object, ...], dict[tuple[Constraint, ...], bool]] = {}

    def post_claim(self, cell: IndexCell, claim: ResourceClaim) -> None:
        """Insert in (arrival_time, claim_id) order; duplicates are ignored."""
        queue = self._cells.get(cell)
        if queue is None:
            queue = self._cells[cell] = _CellQueue()
        if claim.claim_id not in queue.index:
            queue.insert(claim)

    def post_ticket(
        self, cell: IndexCell, ticket: ResourceTicket, now_ms: int | None = None
    ) -> list[AllocationDecision]:
        """Allocate the ticket against this cell's waiting claims.

        Walks the matching classes in (arrival_time, claim_id) order; a claim
        is served when its requested units fit the remaining capacity (first
        fit, so a large claim does not block later smaller ones). Served
        claims leave this cell; the walk stops as soon as capacity reaches
        zero. Leftover capacity is discarded rather than parked.
        """
        decided_at = ticket.issue_time if now_ms is None else now_ms
        queue = self._cells.get(cell)
        remaining = ticket.available_units
        if queue is None or remaining <= 0:
            return []
        fits = self._fits.setdefault(ticket.point, {})
        classes = []
        for constraints, bucket in queue.buckets.items():
            if bucket:
                fit = fits.get(constraints)
                if fit is None:
                    fit = fits[constraints] = matches(bucket[0][2], ticket)
                if fit:
                    classes.append(bucket)
        if not classes:
            return []
        # The least head comes first in merged order: when it takes the
        # whole capacity, it is the only claim served. Buckets compare by
        # their heads, since no two entries of a cell are equal.
        head = min(classes)[0]
        walk = (head,) if head[2].requested_units == remaining else merge(*classes)
        decisions: list[AllocationDecision] = []
        for _, _, claim in walk:
            if claim.requested_units > remaining:
                continue
            fields = (
                ticket.ticket_id, claim.claim_id, claim.requested_units,
                decided_at, ticket.origin, claim.origin,
            )
            decisions.append(new_record(AllocationDecision, fields))
            remaining -= claim.requested_units
            if remaining <= 0:
                break
        for decision in decisions:
            queue.remove_id(decision.claim_id)
        if not queue.index:
            del self._cells[cell]
        return decisions

    def has_waiting(self, cell: IndexCell) -> bool:
        """Whether any claim waits at the cell, so a ticket there could serve one."""
        return cell in self._cells

    def discard(self, cell: IndexCell, claim_id: str) -> bool:
        """Drop one replica of a claim from one cell; False if it was not there."""
        queue = self._cells.get(cell)
        if queue is None or not queue.remove_id(claim_id):
            return False
        if not queue.index:
            del self._cells[cell]
        return True

    def snapshot(self, cell: IndexCell) -> list[ResourceClaim]:
        """Read-only copy of one cell's claims, in (arrival_time, claim_id) order."""
        queue = self._cells.get(cell)
        return [] if queue is None else [e[2] for e in sorted(chain(*queue.buckets.values()))]

    def waiting_claim_ids(self) -> tuple[str, ...]:
        """Distinct ids of all claims still stored, sorted."""
        ids: set[str] = set()
        for queue in self._cells.values():
            ids.update(queue.index)
        return tuple(sorted(ids))
