"""Coordinator services wiring schedulers, execution nodes, and the overlay.

Message flow for one work unit (all delays are per-link scenario constants):

  1. a client submission (the WorkloadSpec) reaches the scheduling service
     of its submit cloud directly;
  2. the scheduler wraps each unit in a resource claim and posts every
     claim to every index cell their one region intersects, even when one
     peer owns several of them: one ClaimPost per cell holds the
     submission's claims in unit order and travels as one engine Batch,
     counted as one message per claim, so each cell's owner handles a
     submission in one call while the message cost and every inbox count
     stay per claim;
  3. idle execution nodes periodically advertise themselves, one TicketPost
     per hosted service type, routed to the owner of their point's cell;
  4. the owning peer allocates the ticket against the cell's waiting claims
     (see coordination); replicas of a served claim are retired from every
     other ticket cell before any further event fires, which makes service
     exactly-once by construction;
  5. the peer notifies the claim's scheduler (the AllocationDecision), the
     scheduler dispatches the unit (Dispatch) to the granted node, which
     re-checks that its point satisfies the claim, executes for
     demand/speed seconds (ExecDone) and returns the finished WorkUnit; on
     completion the node (optionally) re-advertises.

A node with an allocation in flight is "committed": its stale tickets are
discarded by the coordination peers until the unit finishes, so a node never
executes two units at once even though status tickets are periodic.

Ticket cells. The node set is fixed for a run and every node of a cloud
shares its attributes, so each (cloud, service type)'s point, its ticket
cell and its route (delay, owner's target, cell) are built once, at deploy,
and routes are re-pointed by recompute_cell_assignment. Only these ticket
cells (state.ticket_cells) ever receive a ticket, so only they store a
claim: a replica posted to any other cell is delivered and forwarded like
any post but stored nowhere, so it is never discarded either. A TicketPost
carries (node, label, issue time, cell), not a ticket: the cell's owner
builds the ResourceTicket after the stale check and only when a claim waits
in the cell, so neither a stale post nor one reaching an empty cell builds
one.

Placement. A cell is placed on the overlay (hashed to its owning peer) the
first time a post is routed to it, as a Pastry key's root is found by
routing to it: state.cell_owner holds the cells routed so far, which are
the only cells any post names. Which peer owns a cell decides who handles
its messages and what latency they pay, not where its claims are kept:
they wait in the federation's one ClaimStore, keyed by cell, so a cell that
changes owner keeps its queue with no handoff. A post that reaches a peer
no longer owning its cell is forwarded to the current owner, as Pastry
routes a message on to a key's new root.

Every message is a NamedTuple. The federation builds every message it
sends per unit, per ticket or per claim post, each unit's ResourceClaim and
each ResourceTicket unchecked, with coordination.new_record. A ClaimPost is
only ever sent through _claim_batch, so no post counts as fewer messages
than it holds claims. A peer drops a post's claims that are already served;
it forwards the rest as one batch if it no longer owns the cell, and
otherwise stores them in order if the cell is a ticket cell. Each entity
kind (scheduler, peer, node) dispatches on the payload's type through one
table; any other payload is a named error. A node's TimerTick is built
once, at deploy, and carries the stream its status intervals are drawn
from; it is re-scheduled until the run is finished and then dropped, so a
finished run holds no timer stream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

from .config import (
    DIM_CPU,
    DIM_PROCESSORS,
    DIM_SERVICE,
    DIM_SPEED,
    FULL_P2P,
    HUB,
    REQUIRED_DIMS,
    CloudConfig,
    Scenario,
)
from .coordination import AllocationDecision, ClaimStore, new_record
from .engine import Batch, RngStream, SimulationEngine
from .errors import (
    ConsistencyError,
    InvalidArgumentError,
    NotReadyError,
    SimulationError,
)
from .overlay import OverlayMembership
from .spatial import (
    ClaimClass,
    Eq,
    Ge,
    IndexCell,
    ResourceClaim,
    ResourceTicket,
    # Unused here: bench/tracing.py's spatial.build_base_cells row patches this name.
    build_base_cells,  # noqa: F401
    map_claim,
    map_ticket,
    point_satisfies,
    spatial_hash,
)
from .workloads import (
    SERVICE_LABELS,
    MetricsSink,
    WorkloadSpec,
    WorkUnit,
    generate_units,
)

log = logging.getLogger("fedmesh.federation")


@dataclass
class ExecutionNode:
    """One compute node; busy while executing, committed from allocation to
    completion (the window in which its old tickets are stale), so a busy
    node is always committed."""

    node_id: str
    cloud_id: str
    busy: bool = False
    committed: bool = False
    target: str = field(init=False)  # the node's engine address, built once

    def __post_init__(self) -> None:
        self.target = f"node/{self.node_id}"


# Message payloads that are not domain objects themselves.


class _ClaimPostFields(NamedTuple):
    claims: tuple[ResourceClaim, ...]
    cell: IndexCell


class ClaimPost(_ClaimPostFields):
    """The claims one submission posts to one cell, in unit order, sent as
    one Batch that counts one message per claim (see _claim_batch).

    A tuple record whose constructor checks that ``claims`` is a non-empty
    tuple of ResourceClaims; coordination.new_record builds it without the
    check.
    """

    __slots__ = ()

    def __new__(cls, claims: tuple[ResourceClaim, ...], cell: IndexCell) -> ClaimPost:
        if type(claims) is not tuple or not claims or not all(
            isinstance(claim, ResourceClaim) for claim in claims
        ):
            raise InvalidArgumentError(
                f"claims must be a non-empty tuple of ResourceClaim, got {claims!r}"
            )
        return tuple.__new__(cls, (claims, cell))


class TicketPost(NamedTuple):
    """A node's status ticket for one label, as posted to its cell's owner."""

    node: ExecutionNode
    label: str
    issue_time: int
    cell: IndexCell


class Dispatch(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit


class ExecDone(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit


class TimerTick(NamedTuple):
    """A node's periodic status-update timer, carrying the stream its
    intervals are drawn from."""

    stream: RngStream


class _ClaimClassRecord(NamedTuple):
    """The one constraint tuple every claim of a class shares, and whether
    any node in the federation can satisfy it."""

    constraints: ClaimClass
    satisfiable: bool


class _PendingUnit(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit
    # The ticket cells among map_claim's: where a replica is stored, so
    # where it is retired. One tuple shared by every unit of a submission.
    cells: tuple[IndexCell, ...]


@dataclass
class ApplicationHandle:
    app_id: str
    model: str
    submit_cloud: str
    submit_time_ms: int
    unit_count: int
    completions: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.completions) == self.unit_count


class FederationState:
    """All simulation state owned by one engine's event loop, built from one
    scenario.

    Under the hub model one coordinator peer joins per cloud; under full_p2p
    every node joins as an autonomous coordinator. Scheduling services stay
    one per cloud (they are the submission entry points), and each routed
    cell's owner is derived deterministically from the membership. No grid
    is built: a cell is its coordinates, which map_claim and map_ticket
    compute from the space, so a deploy's cost does not grow with
    f_min ** dim.
    """

    def __init__(self, scenario: Scenario) -> None:
        clouds: dict[str, CloudConfig] = {}
        for cloud in scenario.clouds:
            if cloud.cloud_id in clouds:
                raise InvalidArgumentError(f"duplicate cloud id {cloud.cloud_id!r}")
            clouds[cloud.cloud_id] = cloud
        self.clouds = {cid: clouds[cid] for cid in sorted(clouds)}
        self.space = scenario.space()
        names = [d.name for d in self.space.dims]
        if clouds and set(names) != REQUIRED_DIMS.keys():
            raise InvalidArgumentError(
                f"claims need exactly the dimensions {sorted(REQUIRED_DIMS)}; the space has {names}"
            )
        self.engine = SimulationEngine(default_inbox_capacity=scenario.inbox_capacity)
        self.membership = OverlayMembership()
        self.peer_cloud: dict[str, str] = {}
        self.nodes: dict[str, ExecutionNode] = {}
        for cloud in self.clouds.values():
            if cloud.topology == HUB:
                self.membership.join(cloud.cloud_id)
                self.peer_cloud[cloud.cloud_id] = cloud.cloud_id
            for i in range(cloud.node_count):
                node = ExecutionNode(f"{cloud.cloud_id}/n{i}", cloud.cloud_id)
                self.nodes[node.node_id] = node
                if cloud.topology == FULL_P2P:
                    self.membership.join(node.node_id)
                    self.peer_cloud[node.node_id] = cloud.cloud_id
        self.latency = scenario.latency
        self.eager_tickets = scenario.eager_tickets
        self.seed = scenario.seed
        self.max_virtual_ms = scenario.max_virtual_ms
        self.metrics = MetricsSink()
        self.store = ClaimStore()
        self.cell_owner: dict[IndexCell, str] = {}
        # Engine addresses and sorted service labels, built once at deploy.
        self.peer_targets = {peer: f"peer/{peer}" for peer in self.peer_cloud}
        self.scheduler_targets = {cid: f"scheduler/{cid}" for cid in self.clouds}
        self.service_labels = {cid: tuple(sorted(c.service_types)) for cid, c in self.clouds.items()}
        self.apps: dict[str, ApplicationHandle] = {}
        self.pending: dict[str, _PendingUnit] = {}
        self.served: set[str] = set()
        self.dispatched: set[str] = set()
        self.stranded_ids: set[str] = set()
        self.pending_submits = 0
        self.submitted_total = 0
        self.completed_total = 0
        # Keyed by (model, cpu_type, speed), the inputs of a cloud's claims, so
        # clouds submitting equal claims share one record. Satisfiability is
        # valid for the whole run because the node set is fixed.
        self.claim_classes: dict[tuple[str, str, float], _ClaimClassRecord] = {}
        self.ticket_routes: dict[tuple[str, str], tuple[int, str, IndexCell]] = {}
        # Places nothing yet (the routes below place the ticket cells); it
        # checks the deployed membership as every later change is checked.
        recompute_cell_assignment(self)
        # map_ticket runs once per distinct point; a point outside the space
        # is a DomainError naming the cloud and the label.
        self.node_points: dict[tuple[str, str], tuple[object, ...]] = {}
        point_cells: dict[tuple[object, ...], IndexCell] = {}
        for cid, labels in self.service_labels.items():
            cloud = self.clouds[cid]
            values = {DIM_PROCESSORS: 1, DIM_CPU: cloud.cpu_type, DIM_SPEED: cloud.node_speed_ghz}
            for label in labels:
                values[DIM_SERVICE] = label
                point = self.node_points[cid, label] = tuple(values[d.name] for d in self.space.dims)
                cell = point_cells.get(point)
                if cell is None:
                    ticket = ResourceTicket(f"{cid}/{label}", point, 1, cid, 0)
                    cell = point_cells[point] = map_ticket(self.space, ticket)
                self.ticket_routes[cid, label] = _route(self, cid, cell)
        # The only cells a ticket can reach, so the only ones that store a claim.
        self.ticket_cells = frozenset(point_cells.values())

    @property
    def finished(self) -> bool:
        """No submissions outstanding and every unit completed or stranded."""
        return (
            self.pending_submits == 0
            and self.completed_total + len(self.stranded_ids) >= self.submitted_total
        )


@dataclass(frozen=True)
class RunReport:
    events_processed: int
    virtual_time_ms: int


def place_cell(state: FederationState, cell: IndexCell) -> str:
    """The peer owning a cell under the current membership: the cell's
    control point hashed onto the overlay. The one placement function."""
    membership = state.membership
    return membership.name_of(membership.owner_of(spatial_hash(cell, state.space.f_min)))


def recompute_cell_assignment(state: FederationState) -> None:
    """Re-derive the owner of each placed cell from the current overlay
    membership.

    The one place owners change: every cell routed so far is placed anew
    and every ticket route is re-pointed at its cell's new owner, so a
    membership change costs O(cells routed), not O(f_min ** dim); a cell
    not yet routed is placed on its first route. Every overlay member must
    be a deployed peer, so every cell, placed or not, goes to one; otherwise
    this raises ConsistencyError naming the peer and leaves the map and the
    routes as they were. The undeployed member stays on the overlay, so the
    state must not route again until it leaves and this succeeds: a first
    route to a cell that member owns has no cloud.
    """
    membership = state.membership
    for node_id in membership.members():
        peer = membership.name_of(node_id)
        if peer not in state.peer_cloud:
            raise ConsistencyError(f"peer {peer!r} is on the overlay but was never deployed")
    state.cell_owner = {cell: place_cell(state, cell) for cell in state.cell_owner}
    for key, (_, _, cell) in state.ticket_routes.items():
        state.ticket_routes[key] = _route(state, key[0], cell)


def deploy_federation(scenario: Scenario) -> FederationState:
    """Build the federation's state, then wire it up: register every entity's
    handler, arm each node's status timer and schedule the submissions."""
    state = FederationState(scenario)
    for cloud_id, target in state.scheduler_targets.items():
        _register(state, _SCHEDULER, target, cloud_id)
    for peer_name, target in state.peer_targets.items():
        _register(state, _PEER, target, peer_name)
    for node in state.nodes.values():
        _register(state, _NODE, node.target, node)
        _arm_timer(state, node, TimerTick(RngStream(state.seed, f"ticket/{node.node_id}")))

    for spec in scenario.workloads:
        if spec.submit_cloud not in state.clouds:
            raise InvalidArgumentError(f"workload targets unknown cloud {spec.submit_cloud!r}")
        state.pending_submits += 1
        state.engine.schedule(spec.submit_time_ms, state.scheduler_targets[spec.submit_cloud], spec)

    log.info(
        "deployed federation: %d clouds, %d nodes, %d peers, %d cells",
        len(state.clouds), len(state.nodes), len(state.peer_cloud), state.space.f_min ** state.space.dim,
    )
    return state


def submit_application(state: FederationState, spec: WorkloadSpec) -> ApplicationHandle:
    """Create one claim per work unit of a spec and post each to its index
    cells, from the spec's submit cloud.

    The claims pin the submitting cloud's own attributes: service type and
    CPU type as equalities, one processor, and speed at least as fast as the
    local nodes; every claim of one (cloud, model) shares one interned
    ClaimClass. Units no node in the federation can ever satisfy are marked
    stranded up front (their claims are still posted and reported at the
    end of the run).
    """
    cloud_id = spec.submit_cloud
    cloud = state.clouds.get(cloud_id)
    if cloud is None:
        raise InvalidArgumentError(f"unknown cloud {cloud_id!r}")
    app_id = spec.resolved_app_id
    if app_id in state.apps:
        raise InvalidArgumentError(f"application {app_id!r} already submitted")

    now = state.engine.now
    units = generate_units(spec, state.seed)
    handle = ApplicationHandle(
        app_id=app_id,
        model=spec.model,
        submit_cloud=cloud_id,
        submit_time_ms=now,
        unit_count=len(units),
    )
    state.apps[app_id] = handle
    state.submitted_total += len(units)

    claim_class = _claim_class(state, cloud, spec.model)
    # One claim class, so one region: the same cells for every unit, and the
    # same routes, since ownership cannot change before this call returns.
    claims = []
    stored, cells = None, ()
    for unit in units:
        # Built in C, unchecked: the literal 1 unit passes
        # ResourceClaim's requested_units >= 1 check by construction.
        claim = new_record(ResourceClaim, (unit.unit_id, claim_class.constraints, 1, cloud_id, now))
        if not claim_class.satisfiable:
            state.stranded_ids.add(claim.claim_id)
        cells = map_claim(state.space, claim)
        if stored is None:
            stored = tuple([cell for cell in cells if cell in state.ticket_cells])
        state.pending[claim.claim_id] = new_record(_PendingUnit, (claim, unit, stored))
        claims.append(claim)
    claims = tuple(claims)
    schedule = state.engine.schedule
    for cell in cells:
        delay, target, _ = _route(state, cloud_id, cell)
        schedule(delay, target, _claim_batch(claims, cell))
    return handle


def publish_ticket(state: FederationState, node: ExecutionNode) -> None:
    """Advertise an idle node: one point ticket per hosted service type.

    A committed node publishes nothing (a busy one is committed too). Each
    ticket carries one free processor and routes to the single cell
    containing the node's attribute point.
    """
    if node.committed:
        return
    now = state.engine.now
    cloud_id = node.cloud_id
    routes = state.ticket_routes
    schedule = state.engine.schedule
    for label in state.service_labels[cloud_id]:
        delay, target, cell = routes[cloud_id, label]
        schedule(delay, target, new_record(TicketPost, (node, label, now, cell)))
        state.metrics.tickets_published += 1


def on_allocation(state: FederationState, cloud_id: str, decision: AllocationDecision) -> None:
    """A scheduler's handling of a match notification: dispatch the unit."""
    if decision.claim_id in state.dispatched:
        raise ConsistencyError(f"claim {decision.claim_id} allocated twice")
    state.dispatched.add(decision.claim_id)
    pending = state.pending.pop(decision.claim_id, None)
    if pending is None:
        raise ConsistencyError(f"allocation for unknown claim {decision.claim_id}")
    node = state.nodes[decision.target]
    delay = state.latency.between(pending.claim.origin, node.cloud_id)
    state.engine.schedule(delay, node.target, new_record(Dispatch, (pending.claim, pending.unit)))


def response_time(handle: ApplicationHandle) -> float:
    """Seconds from submission to the last unit's result arrival."""
    if not handle.complete:
        raise NotReadyError(
            f"application {handle.app_id!r}: {len(handle.completions)}/{handle.unit_count} units done"
        )
    last = max(handle.completions.values())
    return (last - handle.submit_time_ms) / 1000.0


def run_to_quiescence(state: FederationState) -> RunReport:
    """Drive the event loop until nothing remains to do.

    Periodic timers stop rescheduling once every unit is completed or
    stranded, so the queue drains naturally; hitting the virtual-time horizon
    with events still pending is reported as an error that names up to five
    targets with the most undelivered events, then counts the claims still
    waiting (submitted and not yet served, stored in some cell or in none)
    and names the five oldest of them. Any claim left waiting
    must be one that was marked unsatisfiable at submission. The report
    reads the engine's totals, so a run driven through several engine calls
    reports all of its events; the stranded claims stay in
    ``state.stranded_ids``.
    """
    state.engine.run(until_ms=state.max_virtual_ms)
    if state.engine.has_pending_events:
        pending = sorted(state.engine.pending_by_target().items(), key=lambda tp: (-tp[1], tp[0]))
        named = ", ".join(f"{target} ({count} pending)" for target, count in pending[:5])
        waiting = sorted(
            (p.claim for p in state.pending.values() if p.claim.claim_id not in state.served),
            key=lambda c: (c.arrival_time, c.claim_id),
        )
        raise SimulationError(
            f"virtual-time horizon {state.max_virtual_ms} ms reached with events still pending "
            f"for {len(pending)} targets: {named}; "
            f"{len(waiting)} claims still waiting, oldest unserved: "
            + (", ".join(c.claim_id for c in waiting[:5]) or "none")
        )
    unexpected = set(state.store.waiting_claim_ids()) - state.stranded_ids
    if unexpected:
        raise ConsistencyError(
            f"satisfiable claims left waiting at quiescence: {sorted(unexpected)[:5]}"
        )
    # A drained dict keeps its high-water table; a copy is sized to the
    # stranded units still in it.
    state.pending = dict(state.pending)
    return RunReport(events_processed=state.engine.events_processed, virtual_time_ms=state.engine.now)


# Event handlers: one table per entity kind, keyed by payload type. Each
# _on_* receives the state, the entity (a scheduler's cloud id, a peer's name
# or the ExecutionNode itself) and the payload.


def _register(state: FederationState, table: dict, target: str, entity: object) -> None:
    def handle(payload: object) -> None:
        on = table.get(type(payload))
        if on is None:
            raise ConsistencyError(f"{target}: unexpected {type(payload).__name__}")
        on(state, entity, payload)

    state.engine.register(target, handle)


def _on_submit(state: FederationState, cloud_id: str, spec: WorkloadSpec) -> None:
    state.pending_submits -= 1
    submit_application(state, spec)


def _on_result(state: FederationState, cloud_id: str, unit: WorkUnit) -> None:
    handle = state.apps[unit.app_id]
    handle.completions[unit.unit_id] = state.engine.now
    state.completed_total += 1
    if handle.complete:
        state.metrics.record_response(handle.app_id, response_time(handle))


def _forward(
    state: FederationState, peer: str, cell: IndexCell, payload: Batch | TicketPost
) -> None:
    """Pass a post for a cell this peer no longer owns on to the cell's
    current owner, as Pastry routes a key on to its new root. A route back
    to this same peer would deliver the post to it forever, so it raises
    ConsistencyError naming the cell and the peer."""
    delay, target, _ = _route(state, state.peer_cloud[peer], cell)
    if target == state.peer_targets[peer]:
        raise ConsistencyError(f"peer {peer!r} owns cell {cell}, yet forwards its post")
    state.engine.schedule(delay, target, payload)


def _claim_batch(claims: tuple[ResourceClaim, ...], cell: IndexCell) -> Batch:
    """The one way a ClaimPost is sent: one delivery to the cell's owner,
    counted as one message per claim."""
    return new_record(Batch, (new_record(ClaimPost, (claims, cell)), len(claims)))


def _on_claim(state: FederationState, peer: str, post: ClaimPost) -> None:
    claims, cell = post.claims, post.cell
    # Replicas still in flight when their claim was served are dropped.
    served = state.served
    if state.cell_owner[cell] != peer:
        rest = tuple([claim for claim in claims if claim.claim_id not in served])
        if rest:
            _forward(state, peer, cell, _claim_batch(rest, cell))
    elif cell in state.ticket_cells:
        post_claim = state.store.post_claim
        for claim in claims:
            if claim.claim_id not in served:
                post_claim(cell, claim)


def _on_ticket(state: FederationState, peer: str, post: TicketPost) -> None:
    if state.finished:
        return
    cell = post.cell
    if state.cell_owner[cell] != peer:
        _forward(state, peer, cell, post)
        return
    node = post.node
    if node.committed:
        state.metrics.stale_tickets += 1
        return
    if not state.store.has_waiting(cell):
        return  # no claim waits here, so no ticket is built
    ticket = _ticket(state, node, post.label, post.issue_time)
    for decision in state.store.post_ticket(cell, ticket, now_ms=state.engine.now):
        if decision.claim_id in state.served:
            raise ConsistencyError(f"claim {decision.claim_id} served twice")
        state.served.add(decision.claim_id)
        node.committed = True
        # Retire every replica before any further event can observe it.
        pending = state.pending[decision.claim_id]
        for other in pending.cells:
            if other != cell:  # the matched copy is already gone
                state.store.discard(other, pending.claim)
        state.metrics.record_decision(decision)
        delay = state.latency.between(state.peer_cloud[peer], decision.notify)
        state.engine.schedule(delay, state.scheduler_targets[decision.notify], decision)


def _on_tick(state: FederationState, node: ExecutionNode, tick: TimerTick) -> None:
    if state.finished:
        return
    publish_ticket(state, node)
    _arm_timer(state, node, tick)


def _arm_timer(state: FederationState, node: ExecutionNode, tick: TimerTick) -> None:
    """Fire the node's status timer after a draw from the tick's stream in
    its cloud's interval."""
    lo, hi = state.clouds[node.cloud_id].status_update_interval_ms
    state.engine.schedule(int(round(tick.stream.uniform(lo, hi))), node.target, tick)


def _on_dispatch(state: FederationState, node: ExecutionNode, dispatch: Dispatch) -> None:
    if node.busy:
        raise ConsistencyError(f"node {node.node_id} dispatched while busy")
    point = state.node_points[node.cloud_id, SERVICE_LABELS[dispatch.unit.model]]
    if not point_satisfies(dispatch.claim.constraints, point):
        raise ConsistencyError(
            f"unit {dispatch.unit.unit_id} dispatched to node {node.node_id} "
            "that fails its claim constraints"
        )
    node.busy = True
    speed = state.clouds[node.cloud_id].node_speed_ghz
    exec_ms = max(1, round(dispatch.unit.demand_ghz_s / speed * 1000))
    # The same (claim, unit) pair, now as the node's completion.
    state.engine.schedule(exec_ms, node.target, new_record(ExecDone, dispatch))


def _on_done(state: FederationState, node: ExecutionNode, done: ExecDone) -> None:
    node.busy = False
    node.committed = False
    state.metrics.record_completion(node.cloud_id, done.unit.model)
    delay = state.latency.between(node.cloud_id, done.claim.origin)
    state.engine.schedule(delay, state.scheduler_targets[done.claim.origin], done.unit)
    if state.eager_tickets:
        publish_ticket(state, node)


def _ticket(
    state: FederationState, node: ExecutionNode, label: str, issue_time: int
) -> ResourceTicket:
    """The node's status ticket for one label: one free processor."""
    point = state.node_points[node.cloud_id, label]
    # Built in C, unchecked: the literal 1 unit passes ResourceTicket's
    # available_units >= 0 check by construction.
    fields = (f"{node.node_id}@{issue_time}/{label}", point, 1, node.node_id, issue_time)
    return new_record(ResourceTicket, fields)


def _route(state: FederationState, cloud_id: str, cell: IndexCell) -> tuple[int, str, IndexCell]:
    """(delay, owner's target, cell) of a cloud's posts to a cell's current
    owner; a cell's first route places it."""
    owner = state.cell_owner.get(cell)
    if owner is None:
        owner = state.cell_owner[cell] = place_cell(state, cell)
    return state.latency.between(cloud_id, state.peer_cloud[owner]), state.peer_targets[owner], cell


_SCHEDULER = {WorkloadSpec: _on_submit, AllocationDecision: on_allocation, WorkUnit: _on_result}
_PEER = {ClaimPost: _on_claim, TicketPost: _on_ticket}
_NODE = {TimerTick: _on_tick, Dispatch: _on_dispatch, ExecDone: _on_done}


# Claim classes.


def _claim_class(state: FederationState, cloud: CloudConfig, model: str) -> _ClaimClassRecord:
    """The claim class of a cloud's units of one model, built on first use."""
    key = (model, cloud.cpu_type, cloud.node_speed_ghz)
    record = state.claim_classes.get(key)
    if record is None:
        values = {
            DIM_SERVICE: Eq(SERVICE_LABELS[model]),
            DIM_PROCESSORS: Eq(1),
            DIM_CPU: Eq(cloud.cpu_type),
            DIM_SPEED: Ge(cloud.node_speed_ghz),
        }
        constraints = ClaimClass(values[d.name] for d in state.space.dims)
        # Every cloud has at least one node, and its nodes share one point
        # per label, so checking clouds x labels checks every node.
        satisfiable = any(
            point_satisfies(constraints, state.node_points[cid, label])
            for cid, other in state.clouds.items()
            for label in other.service_types
        )
        record = state.claim_classes[key] = _ClaimClassRecord(constraints, satisfiable)
    return record
