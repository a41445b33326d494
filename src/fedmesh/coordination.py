"""Per-cell claim queues grouped by claim class, and ticket allocation.

One ClaimStore serves a whole federation and holds, keyed by index cell, the
claims waiting at each cell. Claims with equal constraint tuples form one
claim class. Every unit a cloud submits for one model shares its
constraints, so a cell holding thousands of claims holds only a few
classes. Each cell is a dict from class to that class's FIFO bucket in
(arrival_time, claim_id) order, and the claims live there alone: a cell is
present exactly while a claim waits there, and a class exactly while its
bucket holds a claim. The claim whose service or discard empties a bucket
takes it away, and its cell with it when no other class waits, so a
drained cell holds nothing.

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
served or discarded claim is found through its own class and
(arrival_time, claim_id); it is almost always its bucket's head, which is
dropped without a search.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import merge
from itertools import chain
from typing import NamedTuple

from .spatial import Constraint, IndexCell, ResourceClaim, ResourceTicket, matches

# (arrival_time, claim_id, claim): unique on the first two within a cell.
_Entry = tuple[int, str, ResourceClaim]

# new_record(cls, fields) builds a NamedTuple message or record from a tuple
# of its fields in C, more cheaply than the generated Python __new__; the
# object is the same. Claims, tickets and workload specs are tuple records:
# NamedTuple subclasses whose public constructors check their fields.
# new_record skips that check, so each caller passes only fields that hold
# it by construction. The federation builds this way every message it sends
# per unit, per ticket or per claim post, each unit's ResourceClaim (with
# the literal 1 unit) and each ResourceTicket (with the literal 1 free unit);
# a waiting unit is stored as its Dispatch, built once at submission and
# sent as it is when the unit's claim is allocated;
# a ClaimPost checks nothing, and the Batch that carries it counts its
# claims, so the engine refuses an empty post when it is scheduled;
# generate_units builds each WorkUnit, the store every AllocationDecision,
# and the scenario parser each WorkloadSpec, whose key converters already
# hold each field to its domain and whose section name, its app_id, is
# never empty.
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


class ClaimStore:
    """Claim-class buckets keyed by index cell, and the memo of which class
    each ticket point satisfies. A cell is present exactly while a claim
    waits there, and a class exactly while its bucket holds a claim."""

    def __init__(self) -> None:
        self._cells: dict[IndexCell, dict[tuple[Constraint, ...], list[_Entry]]] = {}
        self._fits: dict[tuple[object, ...], dict[tuple[Constraint, ...], bool]] = {}

    def post_claim(self, cell: IndexCell, claim: ResourceClaim) -> None:
        """Insert into the claim's class bucket in (arrival_time, claim_id)
        order. The search that places a claim also finds it if it is
        already stored, so a re-post is ignored."""
        buckets = self._cells.get(cell)
        if buckets is None:
            buckets = self._cells[cell] = {}
        bucket = buckets.get(claim.constraints)
        if bucket is None:
            bucket = buckets[claim.constraints] = []
        at = bisect_left(bucket, (claim.arrival_time, claim.claim_id))
        if at == len(bucket) or bucket[at][1] != claim.claim_id:
            bucket.insert(at, (claim.arrival_time, claim.claim_id, claim))

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
        buckets = self._cells.get(cell)
        remaining = ticket.available_units
        if buckets is None or remaining <= 0:
            return []
        fits = self._fits.setdefault(ticket.point, {})
        classes = []
        for constraints, bucket in buckets.items():
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
        served: list[ResourceClaim] = []
        for _, _, claim in walk:
            if claim.requested_units > remaining:
                continue
            fields = (
                ticket.ticket_id, claim.claim_id, claim.requested_units,
                decided_at, ticket.origin, claim.origin,
            )
            decisions.append(new_record(AllocationDecision, fields))
            served.append(claim)
            remaining -= claim.requested_units
            if remaining <= 0:
                break
        for claim in served:
            self._remove(cell, claim)
        return decisions

    def has_waiting(self, cell: IndexCell) -> bool:
        """Whether any claim waits at the cell, so a ticket there could serve one."""
        return cell in self._cells

    def discard(self, cell: IndexCell, claim: ResourceClaim) -> bool:
        """Drop one replica of a claim from one cell, found through the
        claim's class; False if it was not there."""
        buckets = self._cells.get(cell)
        bucket = None if buckets is None else buckets.get(claim.constraints)
        if bucket is None:
            return False
        # A served claim is almost always its bucket's head: drop it unsearched.
        if bucket[0][1] == claim.claim_id:
            del bucket[0]
        else:
            at = bisect_left(bucket, (claim.arrival_time, claim.claim_id))
            if at == len(bucket) or bucket[at][1] != claim.claim_id:
                return False
            del bucket[at]
        if not bucket:
            del buckets[claim.constraints]
            if not buckets:
                del self._cells[cell]
        return True

    # post_ticket removes the claims it serves under this second name, so a
    # count or trace of discard calls sees only replicas retired by a caller.
    _remove = discard

    def snapshot(self, cell: IndexCell) -> list[ResourceClaim]:
        """Read-only copy of one cell's claims, in (arrival_time, claim_id) order."""
        buckets = self._cells.get(cell)
        return [] if buckets is None else [e[2] for e in sorted(chain(*buckets.values()))]

    def waiting_claim_ids(self) -> tuple[str, ...]:
        """Distinct ids of all claims still stored, sorted."""
        cells = self._cells.values()
        return tuple(sorted({e[1] for buckets in cells for e in chain(*buckets.values())}))
