"""Coordinator services wiring schedulers, execution nodes, and the overlay.

Message flow for one work unit (all delays are per-link scenario constants):

  1. a client submission reaches the cloud's scheduling service directly;
  2. the scheduler wraps each unit in a resource claim and posts it to every
     index cell the claim's region intersects (one message per cell owner);
  3. idle execution nodes periodically advertise themselves with resource
     tickets, one per hosted service type, routed to their single cell owner;
  4. the owning peer allocates the ticket against the cell's waiting claims;
     replicas of a served claim are retired from every other cell before any
     further event fires, which makes service exactly-once by construction;
  5. the peer notifies the claim's scheduler, the scheduler dispatches the
     unit to the granted node, the node executes for demand/speed seconds and
     returns the result; on completion the node (optionally) re-advertises.

A node with an allocation in flight is "committed": its stale tickets are
discarded by the coordination peers until the unit finishes, so a node never
executes two units at once even though status tickets are periodic.

Messages: the WorkloadSpec (submission), ClaimPost, TicketPost, the
AllocationDecision (match notification), Dispatch, ExecDone, the finished
WorkUnit (result) and a node's TimerTick. Each entity kind (scheduler, peer,
node) dispatches on the payload's type through one table; any other payload
is a named error.

Waiting claims live in one ClaimStore keyed by cell. Which peer owns a cell
decides who handles the cell's messages and what latency they pay, not where
its claims are kept, so a cell that changes owner keeps its queue. A claim or
ticket post that reaches a peer no longer owning its cell is forwarded to the
current owner, as Pastry routes a message on to a key's new root.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .config import (
    DIM_CPU,
    DIM_PROCESSORS,
    DIM_SERVICE,
    DIM_SPEED,
    FULL_P2P,
    HUB,
    CloudConfig,
    LatencyModel,
    Scenario,
)
from .coordination import AllocationDecision, ClaimStore
from .engine import RngStream, SimulationEngine
from .errors import (
    ConsistencyError,
    InvalidArgumentError,
    NotReadyError,
    SimulationError,
)
from .overlay import OverlayMembership
from .spatial import (
    AttributeSpace,
    Constraint,
    Eq,
    Ge,
    IndexCell,
    ResourceClaim,
    ResourceTicket,
    build_base_cells,
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
    completion (the window in which its old tickets are stale)."""

    node_id: str
    cloud_id: str
    speed_ghz: float
    cpu_type: str
    busy: bool = False
    committed: bool = False


# Message payloads that are not domain objects themselves.


class ClaimPost(NamedTuple):
    claim: ResourceClaim
    cell_coords: tuple[int, ...]


class TicketPost(NamedTuple):
    ticket: ResourceTicket
    cell_coords: tuple[int, ...]


class Dispatch(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit


class ExecDone(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit


class TimerTick(NamedTuple):
    """A node's periodic status-update timer."""


class _PendingUnit(NamedTuple):
    claim: ResourceClaim
    unit: WorkUnit
    cells: list[tuple[int, ...]]  # each replica's cell; a list costs less heap than a tuple


@dataclass
class ApplicationHandle:
    app_id: str
    model: str
    submit_cloud: str
    granularity: int
    submit_time_ms: int
    unit_count: int
    completions: dict[str, int] = field(default_factory=dict)
    stranded: set[str] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return len(self.completions) == self.unit_count


class FederationState:
    """All simulation state owned by one engine's event loop."""

    def __init__(
        self,
        *,
        engine: SimulationEngine,
        space: AttributeSpace,
        cells: tuple[IndexCell, ...],
        membership: OverlayMembership,
        peer_cloud: dict[str, str],
        clouds: dict[str, CloudConfig],
        nodes: dict[str, ExecutionNode],
        latency: LatencyModel,
        eager_tickets: bool,
        seed: int,
        max_virtual_ms: int,
    ) -> None:
        self.engine = engine
        self.space = space
        self.cells = cells
        self.cells_by_coords = {c.coords: c for c in cells}
        self.membership = membership
        self.peer_cloud = peer_cloud
        self.clouds = clouds
        self.nodes = nodes
        self.latency = latency
        self.eager_tickets = eager_tickets
        self.seed = seed
        self.max_virtual_ms = max_virtual_ms
        self.metrics = MetricsSink()
        self.store = ClaimStore()
        self.cell_owner: dict[tuple[int, ...], str] = {}
        self.apps: dict[str, ApplicationHandle] = {}
        self.pending: dict[str, _PendingUnit] = {}
        self.served: set[str] = set()
        self.dispatched: set[str] = set()
        self.stranded_ids: set[str] = set()
        self.pending_submits = 0
        self.submitted_total = 0
        self.completed_total = 0
        self.node_points: dict[tuple[str, str], tuple[object, ...]] = {}
        # A node's tickets for one label share its point, hence its cell.
        self.ticket_cells: dict[tuple[str, str], IndexCell] = {}
        # Keyed by constraint tuple; valid because the node set is fixed.
        self.satisfiable: dict[tuple[Constraint, ...], bool] = {}
        self.ticket_streams: dict[str, RngStream] = {}
        recompute_cell_assignment(self)

    @property
    def finished(self) -> bool:
        """No submissions outstanding and every unit completed or stranded."""
        return (
            self.pending_submits == 0
            and self.completed_total + len(self.stranded_ids) >= self.submitted_total
        )

    def node_point(self, node: ExecutionNode, service_label: str) -> tuple[object, ...]:
        key = (node.node_id, service_label)
        point = self.node_points.get(key)
        if point is None:
            values = {
                DIM_SERVICE: service_label,
                DIM_PROCESSORS: 1,
                DIM_CPU: node.cpu_type,
                DIM_SPEED: node.speed_ghz,
            }
            point = tuple(values[d.name] for d in self.space.dims)
            self.node_points[key] = point
        return point


@dataclass(frozen=True)
class RunReport:
    events_processed: int
    virtual_time_ms: int
    stranded_claim_ids: tuple[str, ...]


def recompute_cell_assignment(state: FederationState) -> None:
    """Re-derive the cell-to-peer map from the current overlay membership.

    The only place cells are hashed onto the overlay, once per cell. Waiting
    claims stay with their cell, so a new owner serves them with no handoff,
    and a post still in flight to a cell's old owner is forwarded on arrival.
    Every new owner must be a deployed peer; otherwise this raises
    ConsistencyError naming the peer and leaves the map as it was.
    """
    membership = state.membership
    owners = {
        cell.coords: membership.name_of(membership.owner_of(spatial_hash(cell)))
        for cell in state.cells
    }
    for peer, count in sorted(Counter(owners.values()).items()):
        if peer not in state.peer_cloud:
            raise ConsistencyError(f"peer {peer!r} would own {count} cells but was never deployed")
    state.cell_owner = owners


def deploy_federation(scenario: Scenario) -> FederationState:
    """Instantiate coordinators, build the index, and arm the timers.

    Under the hub model one coordinator peer joins per cloud; under full_p2p
    every node joins as an autonomous coordinator. Scheduling services stay
    one per cloud (they are the submission entry points), and the cell-owner
    map is derived deterministically from the membership.
    """
    clouds: dict[str, CloudConfig] = {}
    for cloud in scenario.clouds:
        if cloud.cloud_id in clouds:
            raise InvalidArgumentError(f"duplicate cloud id {cloud.cloud_id!r}")
        clouds[cloud.cloud_id] = cloud
    clouds = {cid: clouds[cid] for cid in sorted(clouds)}

    engine = SimulationEngine(default_inbox_capacity=scenario.inbox_capacity)
    space = scenario.space()
    cells = build_base_cells(space)

    membership = OverlayMembership()
    peer_cloud: dict[str, str] = {}
    nodes: dict[str, ExecutionNode] = {}
    for cloud in clouds.values():
        if cloud.topology == HUB:
            membership.join(cloud.cloud_id)
            peer_cloud[cloud.cloud_id] = cloud.cloud_id
        for i in range(cloud.node_count):
            node_id = f"{cloud.cloud_id}/n{i}"
            nodes[node_id] = ExecutionNode(
                node_id=node_id,
                cloud_id=cloud.cloud_id,
                speed_ghz=cloud.node_speed_ghz,
                cpu_type=cloud.cpu_type,
            )
            if cloud.topology == FULL_P2P:
                membership.join(node_id)
                peer_cloud[node_id] = cloud.cloud_id

    state = FederationState(
        engine=engine,
        space=space,
        cells=cells,
        membership=membership,
        peer_cloud=peer_cloud,
        clouds=clouds,
        nodes=nodes,
        latency=scenario.latency,
        eager_tickets=scenario.eager_tickets,
        seed=scenario.seed,
        max_virtual_ms=scenario.max_virtual_ms,
    )

    for cloud_id in clouds:
        _register(state, _SCHEDULER, f"scheduler/{cloud_id}", cloud_id)
    for peer_name in peer_cloud:
        _register(state, _PEER, f"peer/{peer_name}", peer_name)
    for node_id, node in nodes.items():
        _register(state, _NODE, f"node/{node_id}", node)

    for node_id, node in nodes.items():
        stream = RngStream(scenario.seed, f"ticket/{node_id}")
        state.ticket_streams[node_id] = stream
        lo, hi = clouds[node.cloud_id].status_update_interval_ms
        delay = int(round(stream.uniform(lo, hi)))
        engine.schedule(delay, f"node/{node_id}", TimerTick())

    for spec in scenario.workloads:
        if spec.submit_cloud not in clouds:
            raise InvalidArgumentError(f"workload targets unknown cloud {spec.submit_cloud!r}")
        state.pending_submits += 1
        engine.schedule(spec.submit_time_ms, f"scheduler/{spec.submit_cloud}", spec)

    log.info(
        "deployed federation: %d clouds, %d nodes, %d peers, %d cells",
        len(clouds), len(nodes), len(peer_cloud), len(cells),
    )
    return state


def submit_application(
    state: FederationState, cloud_id: str, spec: WorkloadSpec
) -> ApplicationHandle:
    """Create one claim per work unit and post each to its index cells.

    The claims pin the submitting cloud's own attributes: service type and
    CPU type as equalities, one processor, and speed at least as fast as the
    local nodes. Units no node in the federation can ever satisfy are marked
    stranded up front (their claims are still posted and reported at the
    end of the run).
    """
    cloud = state.clouds.get(cloud_id)
    if cloud is None:
        raise InvalidArgumentError(f"unknown cloud {cloud_id!r}")
    if spec.unit_count < 1:
        raise InvalidArgumentError("application must carry at least one unit")
    app_id = spec.resolved_app_id
    if app_id in state.apps:
        raise InvalidArgumentError(f"application {app_id!r} already submitted")

    now = state.engine.now
    units = generate_units(spec, state.seed)
    handle = ApplicationHandle(
        app_id=app_id,
        model=spec.model,
        submit_cloud=cloud_id,
        granularity=spec.unit_count,
        submit_time_ms=now,
        unit_count=len(units),
    )
    state.apps[app_id] = handle
    state.metrics.record_submitted(spec.model, len(units))
    state.submitted_total += len(units)

    scheduler_cloud = cloud_id
    for unit in units:
        claim = _build_claim(state, cloud, unit, now)
        if not _claim_satisfiable(state, claim):
            handle.stranded.add(unit.unit_id)
            state.stranded_ids.add(claim.claim_id)
        cells = [cell.coords for cell in map_claim(state.space, state.cells, claim)]
        state.pending[claim.claim_id] = _PendingUnit(claim, unit, cells)
        for coords in cells:
            owner = state.cell_owner[coords]
            delay = state.latency.between(scheduler_cloud, state.peer_cloud[owner])
            state.engine.schedule(delay, f"peer/{owner}", ClaimPost(claim, coords))
    return handle


def publish_ticket(state: FederationState, node: ExecutionNode) -> None:
    """Advertise an idle node: one point ticket per hosted service type.

    A busy or committed node publishes nothing. Each ticket carries one free
    processor and routes to the single cell containing the node's attribute
    point.
    """
    if state.finished:
        return
    if node.busy or node.committed:
        return
    now = state.engine.now
    cloud = state.clouds[node.cloud_id]
    for label in sorted(cloud.service_types):
        point = state.node_point(node, label)
        ticket = ResourceTicket(
            ticket_id=f"{node.node_id}@{now}/{label}",
            point=point,
            available_units=1,
            origin=node.node_id,
            issue_time=now,
        )
        key = (node.node_id, label)
        cell = state.ticket_cells.get(key)
        if cell is None:
            cell = state.ticket_cells[key] = map_ticket(state.space, state.cells, ticket)
        owner = state.cell_owner[cell.coords]
        delay = state.latency.between(node.cloud_id, state.peer_cloud[owner])
        state.engine.schedule(delay, f"peer/{owner}", TicketPost(ticket, cell.coords))
        state.metrics.tickets_published += 1


def on_allocation(state: FederationState, decision: AllocationDecision) -> None:
    """Scheduler-side handling of a match notification: dispatch the unit."""
    if decision.claim_id in state.dispatched:
        raise ConsistencyError(f"claim {decision.claim_id} allocated twice")
    state.dispatched.add(decision.claim_id)
    pending = state.pending.pop(decision.claim_id, None)
    if pending is None:
        raise ConsistencyError(f"allocation for unknown claim {decision.claim_id}")
    node = state.nodes[decision.target]
    delay = state.latency.between(pending.claim.origin, node.cloud_id)
    state.engine.schedule(delay, f"node/{node.node_id}", Dispatch(pending.claim, pending.unit))


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
    with events still pending is reported as an error. Any claim left waiting
    must be one that was marked unsatisfiable at submission.
    """
    processed = state.engine.run(until_ms=state.max_virtual_ms)
    if state.engine.has_pending_events:
        raise SimulationError(
            f"virtual-time horizon {state.max_virtual_ms} ms reached with events still pending"
        )
    leftover = state.store.waiting_claim_ids()
    unexpected = set(leftover) - state.stranded_ids
    if unexpected:
        raise ConsistencyError(
            f"satisfiable claims left waiting at quiescence: {sorted(unexpected)[:5]}"
        )
    return RunReport(
        events_processed=processed,
        virtual_time_ms=state.engine.now,
        stranded_claim_ids=leftover,
    )


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
    submit_application(state, cloud_id, spec)


def _on_match(state: FederationState, cloud_id: str, decision: AllocationDecision) -> None:
    on_allocation(state, decision)


def _on_result(state: FederationState, cloud_id: str, unit: WorkUnit) -> None:
    handle = state.apps[unit.app_id]
    handle.completions[unit.unit_id] = state.engine.now
    state.completed_total += 1
    if handle.complete:
        state.metrics.record_response(handle.app_id, response_time(handle))


def _forwarded(state: FederationState, peer: str, post: ClaimPost | TicketPost) -> bool:
    """Pass a post for a cell this peer no longer owns on to the cell's
    current owner, as Pastry routes a key on to its new root."""
    owner = state.cell_owner[post.cell_coords]
    if owner == peer:
        return False
    delay = state.latency.between(state.peer_cloud[peer], state.peer_cloud[owner])
    state.engine.schedule(delay, f"peer/{owner}", post)
    return True


def _on_claim(state: FederationState, peer: str, post: ClaimPost) -> None:
    if post.claim.claim_id in state.served:
        return  # replica still in flight when the claim was served
    if not _forwarded(state, peer, post):
        state.store.post_claim(state.cells_by_coords[post.cell_coords], post.claim)


def _on_ticket(state: FederationState, peer: str, post: TicketPost) -> None:
    if state.finished or _forwarded(state, peer, post):
        return
    node = state.nodes[post.ticket.origin]
    if node.busy or node.committed:
        state.metrics.stale_tickets += 1
        return
    cell = state.cells_by_coords[post.cell_coords]
    for decision in state.store.post_ticket(cell, post.ticket, now_ms=state.engine.now):
        if decision.claim_id in state.served:
            raise ConsistencyError(f"claim {decision.claim_id} served twice")
        state.served.add(decision.claim_id)
        node.committed = True
        # Retire every replica before any further event can observe it.
        for coords in state.pending[decision.claim_id].cells:
            if coords != post.cell_coords:  # the matched copy is already gone
                state.store.discard(coords, decision.claim_id)
        state.metrics.record_decision(decision)
        delay = state.latency.between(state.peer_cloud[peer], decision.notify)
        state.engine.schedule(delay, f"scheduler/{decision.notify}", decision)


def _on_tick(state: FederationState, node: ExecutionNode, tick: TimerTick) -> None:
    if state.finished:
        return
    publish_ticket(state, node)
    lo, hi = state.clouds[node.cloud_id].status_update_interval_ms
    delay = int(round(state.ticket_streams[node.node_id].uniform(lo, hi)))
    state.engine.schedule(delay, f"node/{node.node_id}", tick)


def _on_dispatch(state: FederationState, node: ExecutionNode, dispatch: Dispatch) -> None:
    if node.busy:
        raise ConsistencyError(f"node {node.node_id} dispatched while busy")
    label = SERVICE_LABELS[dispatch.unit.model]
    if not point_satisfies(dispatch.claim, state.node_point(node, label)):
        raise ConsistencyError(
            f"unit {dispatch.unit.unit_id} dispatched to node {node.node_id} "
            "that fails its claim constraints"
        )
    node.busy = True
    exec_ms = max(1, round(dispatch.unit.demand_ghz_s / node.speed_ghz * 1000))
    state.engine.schedule(exec_ms, f"node/{node.node_id}", ExecDone(dispatch.claim, dispatch.unit))


def _on_done(state: FederationState, node: ExecutionNode, done: ExecDone) -> None:
    node.busy = False
    node.committed = False
    label = SERVICE_LABELS[done.unit.model]
    state.metrics.record_completion(node.cloud_id, label, done.unit.model)
    delay = state.latency.between(node.cloud_id, done.claim.origin)
    state.engine.schedule(delay, f"scheduler/{done.claim.origin}", done.unit)
    if state.eager_tickets:
        publish_ticket(state, node)


_SCHEDULER = {WorkloadSpec: _on_submit, AllocationDecision: _on_match, WorkUnit: _on_result}
_PEER = {ClaimPost: _on_claim, TicketPost: _on_ticket}
_NODE = {TimerTick: _on_tick, Dispatch: _on_dispatch, ExecDone: _on_done}


# Claim construction helpers.


def _build_claim(
    state: FederationState, cloud: CloudConfig, unit: WorkUnit, now: int
) -> ResourceClaim:
    values = {
        DIM_SERVICE: Eq(SERVICE_LABELS[unit.model]),
        DIM_PROCESSORS: Eq(1),
        DIM_CPU: Eq(cloud.cpu_type),
        DIM_SPEED: Ge(cloud.node_speed_ghz),
    }
    try:
        constraints = tuple(values[d.name] for d in state.space.dims)
    except KeyError as exc:
        raise InvalidArgumentError(f"attribute space lacks required dimension {exc}") from None
    return ResourceClaim(
        claim_id=unit.unit_id,
        constraints=constraints,
        requested_units=1,
        origin=cloud.cloud_id,
        arrival_time=now,
        job_ref=unit.unit_id,
    )


def _claim_satisfiable(state: FederationState, claim: ResourceClaim) -> bool:
    known = state.satisfiable.get(claim.constraints)
    if known is None:
        known = state.satisfiable[claim.constraints] = any(
            point_satisfies(claim, state.node_point(node, label))
            for node in state.nodes.values()
            for label in state.clouds[node.cloud_id].service_types
        )
    return known
