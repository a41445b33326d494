"""Brute-force oracles and randomized equivalence harnesses.

Everything here deliberately avoids the clever paths it checks: ownership and
prefix tables by linear scan instead of ring search, allocation by a
centralized scan of the global claim list instead of per-cell queues, and
rendezvous by direct constraint evaluation. The CLI's ``oracle`` command and
the acceptance suite both drive these.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass

from .coordination import ClaimStore
from .errors import InvalidArgumentError
from .overlay import NodeId, OverlayMembership, circular_distance
from .scenario import MAX_CELLS
from .spatial import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpace,
    DimensionSpec,
    Eq,
    Ge,
    IndexCell,
    Le,
    Range,
    ResourceClaim,
    ResourceTicket,
    # Unused here: bench/tracing.py's spatial.build_base_cells row patches this name.
    build_base_cells,  # noqa: F401
    map_claim,
    map_ticket,
    matches,
)

# Independent SHA-1 (textbook round structure), used only to cross-check the
# hashlib-backed id derivation.


def pure_sha1(data: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    length = len(data) * 8
    data += b"\x80"
    data += b"\x00" * ((56 - len(data) % 64) % 64)
    data += struct.pack(">Q", length)

    def rol(x: int, n: int) -> int:
        return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF

    for block_start in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[block_start : block_start + 64]))
        for t in range(16, 80):
            w.append(rol(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = h
        for t in range(80):
            if t < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif t < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif t < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (rol(a, 5) + f + e + k + w[t]) & 0xFFFFFFFF, a, rol(b, 30), c, d
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return struct.pack(">5I", *h)


def brute_force_owner(members: tuple[NodeId, ...], key: NodeId) -> NodeId:
    """Global-view nearest peer by plain linear scan; exact ties go to the
    smaller id."""
    if not members:
        raise ValueError("no members to scan")
    k = key.value
    best, best_d = members[0], circular_distance(members[0].value, k)
    for m in members:
        d = circular_distance(m.value, k)
        if d < best_d or (d == best_d and m.value < best.value):
            best, best_d = m, d
    return best


def shared_prefix_len(a: str, b: str) -> int:
    """Number of leading hex digits two canonical ids share."""
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def brute_force_prefix_table(
    members: tuple[NodeId, ...], owner: NodeId
) -> dict[tuple[int, str], NodeId]:
    """Prefix table by linear scan: group every other member by slot (shared
    hex digits with the owner, next digit), keep each slot's nearest."""
    slots: dict[tuple[int, str], list[NodeId]] = {}
    for member in members:
        if member != owner:
            depth = shared_prefix_len(owner.hex, member.hex)
            slots.setdefault((depth, member.hex[depth]), []).append(member)
    return {slot: brute_force_owner(tuple(group), owner) for slot, group in slots.items()}


@dataclass(frozen=True)
class RoutingStats:
    samples: int
    agreements: int
    mean_hops: float
    max_hops: int


def measure_routing(n: int, num_keys: int, seed: int) -> RoutingStats:
    """Route random keys from random sources over n uniformly hashed peers."""
    membership = OverlayMembership()
    for i in range(n):
        membership.join(f"peer-{seed}-{i}")
    members = membership.members()
    rng = random.Random(seed)
    hops_total = 0
    hops_max = 0
    agree = 0
    for _ in range(num_keys):
        key = NodeId(rng.getrandbits(160))
        source = members[rng.randrange(n)]
        owner, hops = membership.route(source, key)
        hops_total += hops
        hops_max = max(hops_max, hops)
        if owner == brute_force_owner(members, key):
            agree += 1
    return RoutingStats(
        samples=num_keys,
        agreements=agree,
        mean_hops=hops_total / num_keys,
        max_hops=hops_max,
    )


# Random spatial instances.


# The largest division level random_space draws.
RANDOM_F_MAX = 4


def random_space(rng: random.Random, dim: int, f_min: int | None = None) -> AttributeSpace:
    dims = []
    for i in range(dim):
        if rng.random() < 0.5:
            labels = tuple(f"label-{i}-{j}" for j in range(rng.randint(2, 4)))
            dims.append(DimensionSpec(name=f"d{i}", kind=CATEGORICAL, labels=labels))
        else:
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + rng.uniform(0.5, 10.0)
            dims.append(DimensionSpec(name=f"d{i}", kind=NUMERIC, bounds=(lo, hi)))
    f = f_min if f_min is not None else rng.randint(1, RANDOM_F_MAX)
    return AttributeSpace(dims=tuple(dims), f_min=f)


def random_ticket(
    rng: random.Random, space: AttributeSpace, ident: str, units: int = 1, issue_time: int = 0
) -> ResourceTicket:
    point = []
    for spec in space.dims:
        if spec.kind == CATEGORICAL:
            point.append(spec.labels[rng.randrange(len(spec.labels))])
        else:
            lo, hi = spec.bounds
            point.append(rng.uniform(lo, hi))
    return ResourceTicket(
        ticket_id=ident,
        point=tuple(point),
        available_units=units,
        origin=f"origin/{ident}",
        issue_time=issue_time,
    )


def random_claim(
    rng: random.Random,
    space: AttributeSpace,
    ident: str,
    anchor: ResourceTicket | None = None,
    units: int = 1,
    arrival_time: int = 0,
) -> ResourceClaim:
    """A random claim; when anchored to a ticket, the ticket satisfies it."""
    constraints = []
    for i, spec in enumerate(space.dims):
        anchored = anchor.point[i] if anchor is not None else None
        if spec.kind == CATEGORICAL:
            value = anchored if anchored is not None else spec.labels[rng.randrange(len(spec.labels))]
            constraints.append(Eq(value))
            continue
        lo, hi = spec.bounds
        v = anchored if anchored is not None else rng.uniform(lo, hi)
        kind = rng.randrange(4)
        if kind == 0:
            constraints.append(Eq(v))
        elif kind == 1:
            constraints.append(Ge(rng.uniform(lo, v) if anchor is not None else rng.uniform(lo, hi)))
        elif kind == 2:
            constraints.append(Le(rng.uniform(v, hi) if anchor is not None else rng.uniform(lo, hi)))
        else:
            if anchor is not None:
                a, b = rng.uniform(lo, v), rng.uniform(v, hi)
            else:
                a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
            constraints.append(Range(a, b))
    return ResourceClaim(
        claim_id=ident,
        constraints=tuple(constraints),
        requested_units=units,
        origin=f"origin/{ident}",
        arrival_time=arrival_time,
    )


def centralized_fifo_allocate(
    claims: list[ResourceClaim], tickets: list[ResourceTicket]
) -> list[tuple[str, str, int]]:
    """Reference allocator: one global claim list, first-fit FIFO per ticket."""
    waiting = sorted(claims, key=lambda c: (c.arrival_time, c.claim_id))
    allocations: list[tuple[str, str, int]] = []
    for ticket in tickets:
        remaining = ticket.available_units
        still_waiting = []
        for claim in waiting:
            if remaining > 0 and matches(claim, ticket) and claim.requested_units <= remaining:
                allocations.append((ticket.ticket_id, claim.claim_id, claim.requested_units))
                remaining -= claim.requested_units
            else:
                still_waiting.append(claim)
        waiting = still_waiting
    return allocations


def distributed_fifo_allocate(
    space: AttributeSpace,
    claims: list[ResourceClaim],
    tickets: list[ResourceTicket],
) -> list[tuple[str, str, int]]:
    """The per-cell path: replicate claims, match each ticket at its one cell,
    retire replicas of served claims before the next ticket."""
    store = ClaimStore()
    replicas: dict[str, tuple[ResourceClaim, tuple[IndexCell, ...]]] = {}
    for claim in claims:
        cells = map_claim(space, claim)
        replicas[claim.claim_id] = (claim, cells)
        for cell in cells:
            store.post_claim(cell, claim)
    allocations: list[tuple[str, str, int]] = []
    for ticket in tickets:
        cell = map_ticket(space, ticket)
        decisions = store.post_ticket(cell, ticket)
        for d in decisions:
            claim, cells = replicas[d.claim_id]
            for replica in cells:
                store.discard(replica, claim)
            allocations.append((d.ticket_id, d.claim_id, d.units_granted))
    return allocations


def replica_count(store: ClaimStore, cells: tuple[IndexCell, ...], claim_id: str) -> int:
    """How many of the given cells still hold a replica of the claim."""
    return sum(any(c.claim_id == claim_id for c in store.snapshot(cell)) for cell in cells)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def rendezvous_suite(trials: int, dims: tuple[int, ...], seed: int) -> SuiteReport:
    """Whenever a claim matches a ticket, the ticket's cell is among the
    claim's cells."""
    rng = random.Random(seed)
    failures = 0
    total = 0
    for dim in dims:
        for t in range(trials):
            space = random_space(rng, dim)
            ticket = random_ticket(rng, space, f"t{dim}-{t}")
            anchored = rng.random() < 0.6
            claim = random_claim(
                rng, space, f"c{dim}-{t}", anchor=ticket if anchored else None
            )
            total += 1
            if matches(claim, ticket):
                if map_ticket(space, ticket) not in map_claim(space, claim):
                    failures += 1
    return SuiteReport(name="rendezvous", trials=total, failures=failures)


def allocation_suite(instances: int, seed: int) -> SuiteReport:
    """Distributed end state must equal the centralized FIFO allocator's."""
    rng = random.Random(seed)
    failures = 0
    for k in range(instances):
        space = random_space(rng, rng.randint(1, 3))
        tickets = []
        for j in range(rng.randint(1, 10)):
            tickets.append(
                random_ticket(
                    rng, space, f"t{k}-{j:02d}", units=rng.randint(0, 4), issue_time=j * 10
                )
            )
        claims = []
        for j in range(rng.randint(1, 20)):
            anchor = tickets[rng.randrange(len(tickets))] if rng.random() < 0.7 else None
            claims.append(
                random_claim(
                    rng,
                    space,
                    f"c{k}-{j:02d}",
                    anchor=anchor,
                    units=rng.randint(1, 3),
                    arrival_time=rng.randrange(5) * 100,
                )
            )
        reference = centralized_fifo_allocate(claims, tickets)
        observed = distributed_fifo_allocate(space, claims, tickets)
        if reference != observed:
            failures += 1
            continue
        granted: dict[str, int] = {}
        for ticket_id, _, units in observed:
            granted[ticket_id] = granted.get(ticket_id, 0) + units
        by_id = {t.ticket_id: t.available_units for t in tickets}
        if any(total > by_id[tid] for tid, total in granted.items()):
            failures += 1
    return SuiteReport(name="allocation", trials=instances, failures=failures)


def routing_suite(checks: int, seed: int) -> SuiteReport:
    """route() must land on the brute-force nearest peer: measure_routing
    over memberships of 1 to 64 peers, up to 50 keys each."""
    rng = random.Random(seed)
    failures = 0
    done = 0
    while done < checks:
        stats = measure_routing(rng.randint(1, 64), min(50, checks - done), rng.getrandbits(32))
        failures += stats.samples - stats.agreements
        done += stats.samples
    return SuiteReport(name="routing", trials=done, failures=failures)


def run_oracle_suites(trials: int, max_dims: int, seed: int) -> list[SuiteReport]:
    if max_dims < 2:
        raise InvalidArgumentError(f"oracle suites need max_dims >= 2, got {max_dims}")
    # A claim in a random space of max_dims dimensions meets up to
    # RANDOM_F_MAX**max_dims cells, and map_claim builds each of them; no
    # suite builds the grid. Logarithms are compared: that power of a huge
    # max_dims is too big.
    if max_dims > math.log(MAX_CELLS, RANDOM_F_MAX):
        raise InvalidArgumentError(
            f"oracle suites need {RANDOM_F_MAX}**max_dims <= {MAX_CELLS} cells, the scenario "
            f"cell guard, got max_dims {max_dims}"
        )
    dims = tuple(range(2, max_dims + 1))
    per_dim = max(1, trials // len(dims))
    return [
        rendezvous_suite(per_dim, dims, seed),
        allocation_suite(max(1, trials // 10), seed + 1),
        routing_suite(max(1, trials // 10), seed + 2),
    ]
