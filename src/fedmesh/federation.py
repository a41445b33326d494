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

Waiting claims live in one ClaimStore keyed by cell. Which peer owns a cell
decides who handles the cell's messages and what latency they pay, not where
its claims are kept, so a cell that changes owner keeps its queue.
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


# Simulation message payloads.


@dataclass(frozen=True)
class SubmitApp:
    spec: WorkloadSpec


@dataclass(frozen=True)
class ClaimPost:
    claim: ResourceClaim
    cell_coords: tuple[int, ...]


@dataclass(frozen=True)
class TicketPost:
    ticket: ResourceTicket
    cell_coords: tuple[int, ...]


@dataclass(frozen=True)
class MatchNotify:
    decision: AllocationDecision


@dataclass(frozen=True)
class Dispatch:
    decision: AllocationDecision
    claim: ResourceClaim
    unit: WorkUnit


@dataclass(frozen=True)
class ExecDone:
    unit: WorkUnit
    claim: ResourceClaim


@dataclass(frozen=True)
class ResultMsg:
    unit: WorkUnit
    node_id: str
    service_label: str


@dataclass(frozen=True)
class TimerTick:
    node_id: str


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
    claims stay with their cell, so a new owner serves them with no handoff.
    Messages already in flight are not forwarded, though: a peer may lose
    cells only while nothing is in flight to it, and every new owner must be
    a deployed peer. Otherwise this raises ConsistencyError naming the peer
    and leaves the map as it was.
    """
    membership = state.membership
    owners = {
        cell.coords: membership.name_of(membership.owner_of(spatial_hash(cell)))
        for cell in state.cells
    }
    for peer, count in sorted(Counter(owners.values()).items()):
        if peer not in state.peer_cloud:
            raise ConsistencyError(f"peer {peer!r} would own {count} cells but was never deployed")
    losing = {old for coords, old in state.cell_owner.items() if old != owners[coords]}
    for peer in sorted(losing):
        in_flight = state.engine.inbox(f"peer/{peer}").pending
        if in_flight:
            raise ConsistencyError(
                f"peer {peer!r} would lose cells with {in_flight} events in flight to it; "
                "in-flight messages are not forwarded"
            )
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
        engine.register(f"scheduler/{cloud_id}", _scheduler_handler(state, cloud_id))
    for peer_name in peer_cloud:
        engine.register(f"peer/{peer_name}", _peer_handler(state, peer_name))
    for node_id in nodes:
        engine.register(f"node/{node_id}", _node_handler(state, node_id))

    for node_id, node in nodes.items():
        stream = RngStream(scenario.seed, f"ticket/{node_id}")
        state.ticket_streams[node_id] = stream
        lo, hi = clouds[node.cloud_id].status_update_interval_ms
        delay = int(round(stream.uniform(lo, hi)))
        engine.schedule(delay, f"node/{node_id}", TimerTick(node_id=node_id))

    for spec in scenario.workloads:
        if spec.submit_cloud not in clouds:
            raise InvalidArgumentError(f"workload targets unknown cloud {spec.submit_cloud!r}")
        state.pending_submits += 1
        engine.schedule(spec.submit_time_ms, f"scheduler/{spec.submit_cloud}", SubmitApp(spec))

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
    state.engine.schedule(
        delay, f"node/{node.node_id}", Dispatch(decision, pending.claim, pending.unit)
    )


def response_time(state: FederationState, handle: ApplicationHandle) -> float:
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


# Event handlers (one closure per entity).


def _scheduler_handler(state: FederationState, cloud_id: str):
    def handle(payload: object) -> None:
        if isinstance(payload, SubmitApp):
            state.pending_submits -= 1
            submit_application(state, payload.spec.submit_cloud, payload.spec)
        elif isinstance(payload, MatchNotify):
            on_allocation(state, payload.decision)
        elif isinstance(payload, ResultMsg):
            handle_result(payload)
        else:
            raise ConsistencyError(f"scheduler/{cloud_id}: unexpected {type(payload).__name__}")

    def handle_result(payload: ResultMsg) -> None:
        handle = state.apps[payload.unit.app_id]
        handle.completions[payload.unit.unit_id] = state.engine.now
        state.completed_total += 1
        if handle.complete:
            state.metrics.record_response(handle.app_id, response_time(state, handle))

    return handle


def _peer_handler(state: FederationState, peer_name: str):
    store = state.store

    def handle(payload: object) -> None:
        if isinstance(payload, ClaimPost):
            if payload.claim.claim_id in state.served:
                return  # replica still in flight when the claim was served
            cell = state.cells_by_coords[payload.cell_coords]
            store.post_claim(cell, payload.claim)
        elif isinstance(payload, TicketPost):
            handle_ticket(payload)
        else:
            raise ConsistencyError(f"peer/{peer_name}: unexpected {type(payload).__name__}")

    def handle_ticket(payload: TicketPost) -> None:
        if state.finished:
            return
        node = state.nodes[payload.ticket.origin]
        if node.busy or node.committed:
            state.metrics.stale_tickets += 1
            return
        cell = state.cells_by_coords[payload.cell_coords]
        decisions = store.post_ticket(cell, payload.ticket, now_ms=state.engine.now)
        for decision in decisions:
            if decision.claim_id in state.served:
                raise ConsistencyError(f"claim {decision.claim_id} served twice")
            state.served.add(decision.claim_id)
            node.committed = True
            # Retire every replica before any further event can observe it.
            for coords in state.pending[decision.claim_id].cells:
                if coords != payload.cell_coords:  # the matched copy is already gone
                    store.discard(coords, decision.claim_id)
            state.metrics.record_decision(decision)
            delay = state.latency.between(state.peer_cloud[peer_name], decision.notify)
            state.engine.schedule(
                delay, f"scheduler/{decision.notify}", MatchNotify(decision)
            )

    return handle


def _node_handler(state: FederationState, node_id: str):
    def handle(payload: object) -> None:
        node = state.nodes[node_id]
        if isinstance(payload, TimerTick):
            if state.finished:
                return
            publish_ticket(state, node)
            lo, hi = state.clouds[node.cloud_id].status_update_interval_ms
            delay = int(round(state.ticket_streams[node_id].uniform(lo, hi)))
            state.engine.schedule(delay, f"node/{node_id}", TimerTick(node_id=node_id))
        elif isinstance(payload, Dispatch):
            handle_dispatch(node, payload)
        elif isinstance(payload, ExecDone):
            handle_done(node, payload)
        else:
            raise ConsistencyError(f"node/{node_id}: unexpected {type(payload).__name__}")

    def handle_dispatch(node: ExecutionNode, payload: Dispatch) -> None:
        if node.busy:
            raise ConsistencyError(f"node {node.node_id} dispatched while busy")
        label = SERVICE_LABELS[payload.unit.model]
        if not point_satisfies(payload.claim, state.node_point(node, label)):
            raise ConsistencyError(
                f"unit {payload.unit.unit_id} dispatched to node {node.node_id} "
                "that fails its claim constraints"
            )
        node.busy = True
        exec_ms = max(1, round(payload.unit.demand_ghz_s / node.speed_ghz * 1000))
        state.engine.schedule(
            exec_ms, f"node/{node.node_id}", ExecDone(payload.unit, payload.claim)
        )

    def handle_done(node: ExecutionNode, payload: ExecDone) -> None:
        node.busy = False
        node.committed = False
        label = SERVICE_LABELS[payload.unit.model]
        state.metrics.record_completion(node.cloud_id, label, payload.unit.model)
        delay = state.latency.between(node.cloud_id, payload.claim.origin)
        state.engine.schedule(
            delay,
            f"scheduler/{payload.claim.origin}",
            ResultMsg(payload.unit, node.node_id, label),
        )
        if state.eager_tickets:
            publish_ticket(state, node)

    return handle


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
