"""Builders, strategies and whole-run checks that several test modules share.

``scenario``/``cloud``/``workload``/``dims`` build a small federation by
hand; ``federations()`` draws one, with optional churn, for Hypothesis.
``run_with_churn`` drives a deployed federation through a leave and
re-join; ``FifoReplay`` replays the paper's allocation rule beside a run;
``assert_served_once_or_stranded`` checks a whole run's outcome.
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from fedmesh import RunResult, Scenario
from fedmesh.config import CloudConfig, LatencyModel
from fedmesh.federation import (
    ClaimPost,
    TicketPost,
    deploy_federation,
    place_cell,
    recompute_cell_assignment,
    run_to_quiescence,
)
from fedmesh.oracles import brute_force_owner, centralized_fifo_allocate
from fedmesh.overlay import hash_name
from fedmesh.reporting import write_run_outputs
from fedmesh.spatial import DimensionSpec, ResourceClaim, ResourceTicket, build_base_cells, spatial_hash
from fedmesh.workloads import SERVICE_LABELS, DemandDistribution, WorkloadSpec

from conftest import TASK_LABEL, THREAD_LABEL

BOTH = (TASK_LABEL, THREAD_LABEL)


def dims():
    return (
        DimensionSpec(name="service_type", kind="categorical", labels=BOTH),
        DimensionSpec(name="processors", kind="numeric", bounds=(1.0, 8.0)),
        DimensionSpec(name="cpu_type", kind="categorical", labels=("Intel", "AMD")),
        DimensionSpec(name="speed_ghz", kind="numeric", bounds=(0.0, 4.0)),
    )


def cloud(cloud_id, speed, nodes=4, services=BOTH, interval=(5000, 40000), topology="hub"):
    return CloudConfig(
        cloud_id=cloud_id,
        node_count=nodes,
        node_speed_ghz=speed,
        cpu_type="Intel",
        service_types=tuple(services),
        status_update_interval_ms=interval,
        topology=topology,
    )


def workload(cloud_id, model="task", rows=5, cols=5, demand=None, at=0, app_id=None):
    return WorkloadSpec(
        model=model,
        rows=rows,
        cols=cols,
        unit_demand=demand or DemandDistribution(3.0, 6.0),
        submit_cloud=cloud_id,
        submit_time_ms=at,
        app_id=app_id,
    )


def scenario(clouds, workloads=(), seed=42, eager=True):
    return Scenario(
        seed=seed,
        eager_tickets=eager,
        inbox_capacity=1000,
        max_virtual_ms=1_000_000_000,
        f_min=3,
        dims=dims(),
        latency=LatencyModel(),
        clouds=tuple(clouds),
        workloads=tuple(workloads),
    )


# Whole runs of random small federations, with optional churn.

_SPEEDS = st.integers(10, 39).map(lambda tenths: tenths / 10)


@st.composite
def federations(draw):
    n = draw(st.integers(1, 6))
    clouds = [
        dataclasses.replace(
            cloud(
                f"cloud-{i}",
                draw(_SPEEDS),
                nodes=draw(st.integers(1, 3)),
                services=draw(st.sampled_from((BOTH, (TASK_LABEL,), (THREAD_LABEL,)))),
                interval=(100, 2000),
                topology=draw(st.sampled_from(("hub", "full_p2p"))),
            ),
            cpu_type=draw(st.sampled_from(("Intel", "AMD"))),
        )
        for i in range(n)
    ]
    workloads = [
        workload(
            f"cloud-{draw(st.integers(0, n - 1))}",
            model=draw(st.sampled_from(("task", "thread"))),
            rows=draw(st.integers(1, 3)),
            cols=draw(st.integers(1, 3)),
            at=draw(st.integers(0, 3000)),
            app_id=f"app-{j}",
        )
        for j in range(draw(st.integers(1, 4)))
    ]
    sc = scenario(clouds, workloads, eager=draw(st.booleans()))
    # (peer index, leave at, re-join after or None), or no churn at all.
    churn = draw(
        st.none()
        | st.tuples(st.integers(0, 20), st.integers(0, 8000), st.none() | st.integers(0, 4000))
    )
    return sc, churn


def assert_placed_by_the_oracle(state, cells=None):
    """Every cell of the grid, or each of the given cells, placed or not,
    goes to the peer brute_force_owner finds for its key, and each placed
    cell's cell_owner entry names that peer. Returns those cells' owners."""
    if cells is None:
        cells = build_base_cells(state.space)
    membership, f_min = state.membership, state.space.f_min
    members = membership.members()
    owners = {
        cell: membership.name_of(brute_force_owner(members, spatial_hash(cell, f_min)))
        for cell in cells
    }
    assert {cell: place_cell(state, cell) for cell in cells} == owners
    assert state.cell_owner.items() <= owners.items()
    return owners


def run_with_churn(state, churn):
    """Run a deployed federation to quiescence; a churn (peer index, leave
    at, re-join after) makes one peer leave and maybe re-join. With a single
    peer there is no one to leave to, so nothing leaves. Cell placement is
    checked against the oracle after each change and at quiescence."""
    deployed = assert_placed_by_the_oracle(state)
    peers = sorted(state.peer_cloud)
    if churn is not None and len(peers) > 1:
        pick, leave_at, rejoin_after = churn
        peer = peers[pick % len(peers)]
        state.engine.run(until_ms=leave_at)
        state.membership.leave(hash_name(peer))
        recompute_cell_assignment(state)
        assert peer not in assert_placed_by_the_oracle(state).values()
        if rejoin_after is not None:
            state.engine.run(until_ms=state.engine.now + rejoin_after)
            state.membership.join(peer)
            recompute_cell_assignment(state)
            assert assert_placed_by_the_oracle(state) == deployed
    report = run_to_quiescence(state)
    assert_placed_by_the_oracle(state)
    return report


def fixed_run_outputs(out_dir) -> str:
    """One mixed-topology federation with a leave and re-join: its output
    files go to out_dir, its decision stream is returned."""
    clouds = [
        cloud("cloud-1", 2.4, nodes=2, interval=(100, 900)),
        dataclasses.replace(
            cloud("cloud-2", 3.0, nodes=2, interval=(100, 900), topology="full_p2p"),
            cpu_type="AMD",
        ),
        cloud("cloud-3", 3.0, nodes=1, interval=(100, 900)),
    ]
    workloads = [
        workload("cloud-1", rows=3, cols=3),
        workload("cloud-2", model="thread", rows=2, cols=3, at=40),
        workload("cloud-3", model="thread", rows=2, cols=2, at=70),
    ]
    sc = scenario(clouds, workloads, eager=False)
    state = deploy_federation(sc)
    report = run_with_churn(state, (1, 300, 500))
    write_run_outputs(RunResult(scenario=sc, state=state, report=report), out_dir)
    return "\n".join(
        f"{d.ticket_id} {d.claim_id} {d.decided_at} {d.target}" for d in state.metrics.decisions
    )


class FifoReplay:
    """The paper's allocation rule, replayed beside a whole run.

    Wraps each peer's handler and the store's post_ticket from outside, as
    bench/tracing.py wraps its spans. Every post is delivered to a cell
    already placed, since its route placed it. Every claim delivered at its cell's
    current owner joins that cell's plain list (every cell, not only ticket
    cells), unless the replay has already served it; every ticket handed to
    the store must then serve exactly what centralized_fifo_allocate serves
    from its cell's list, and the run's recorded decisions must be the
    replay's, in order. A live ticket post (neither stale nor after the run
    finished) delivered at its cell's owner that never reaches the store
    must be one that list serves nothing: the replay builds that ticket
    itself from the node's point."""

    def __init__(self, state):
        self.state = state
        self.waiting: dict[object, list[ResourceClaim]] = {}
        self.served: set[str] = set()
        self.decisions: list[tuple[str, str, int]] = []  # (ticket, claim, decided_at)
        self.unposted = None  # the live TicketPost being delivered, until the store sees it
        for peer, target in state.peer_targets.items():
            box = state.engine.inbox(target)
            box.handler = self.delivery(peer, box.handler)
        state.store.post_ticket = self.ticket(state.store.post_ticket)

    def delivery(self, peer, handler):
        state = self.state

        def deliver(payload):
            kind = type(payload)
            posted = kind in (ClaimPost, TicketPost)
            assert not posted or payload.cell in state.cell_owner, (
                f"{kind.__name__} delivered to {peer} for the unplaced cell {payload.cell}"
            )
            owned = posted and state.cell_owner[payload.cell] == peer
            if owned and kind is ClaimPost and payload.claim.claim_id not in self.served:
                self.waiting.setdefault(payload.cell, []).append(payload.claim)
            live = (
                owned
                and kind is TicketPost
                and not state.finished
                and not (payload.node.busy or payload.node.committed)
            )
            self.unposted = payload if live else None
            handler(payload)
            if self.unposted is not None:
                self.check_unposted(self.unposted)

        return deliver

    def fifo(self, cell, ticket):
        """(cell's unserved claims, what first-fit FIFO serves of them)."""
        waiting = [c for c in self.waiting.get(cell, []) if c.claim_id not in self.served]
        return waiting, centralized_fifo_allocate(waiting, [ticket])

    def check_unposted(self, post):
        node, label, issue_time, cell = post
        point = self.state.node_points[node.cloud_id, label]
        ticket = ResourceTicket(f"{node.node_id}@{issue_time}/{label}", point, 1, node.node_id, issue_time)
        _, expected = self.fifo(cell, ticket)
        assert not expected, (
            f"ticket {ticket.ticket_id} at t={self.state.engine.now} never reached the store "
            f"at cell {cell}; first-fit FIFO at its cell serves {[c for _, c, _ in expected]}"
        )

    def ticket(self, post_ticket):
        def posted(cell, ticket, now_ms):
            self.unposted = None
            waiting, expected = self.fifo(cell, ticket)
            decisions = post_ticket(cell, ticket, now_ms=now_ms)
            got = [(d.ticket_id, d.claim_id, d.units_granted) for d in decisions]
            assert got == expected, (
                f"ticket {ticket.ticket_id} at t={now_ms} served claims "
                f"{[c for _, c, _ in got]}; first-fit FIFO at its cell serves "
                f"{[c for _, c, _ in expected]}"
            )
            self.served.update(claim_id for _, claim_id, _ in expected)
            self.waiting[cell] = waiting
            self.decisions += [(t, c, now_ms) for t, c, _ in expected]
            return decisions

        return posted

    def check(self):
        recorded = [(d.ticket_id, d.claim_id, d.decided_at) for d in self.state.metrics.decisions]
        assert recorded == self.decisions


def stranded_units(state, app_id):
    """The ids of one application's stranded units."""
    return {unit_id for unit_id in state.stranded_ids if unit_id.startswith(f"{app_id}#")}


def assert_served_once_or_stranded(sc, state, report):
    """A whole run ended quiescent, served each unit some node can serve
    exactly once, and stranded every unit of the rest."""
    # Quiescence: nothing queued, nothing outstanding, and the report counts
    # every event the engine delivered, over however many calls.
    assert not state.engine.has_pending_events and state.finished
    assert report.events_processed == state.engine.events_processed
    # Exactly once, and never more than a ticket's one unit.
    claim_ids = [d.claim_id for d in state.metrics.decisions]
    assert len(claim_ids) == len(set(claim_ids))
    assert state.served == state.dispatched == set(claim_ids)
    completed = {u for handle in state.apps.values() for u in handle.completions}
    assert completed == state.dispatched and state.completed_total == len(completed)
    granted: dict[str, int] = {}
    for d in state.metrics.decisions:
        granted[d.ticket_id] = granted.get(d.ticket_id, 0) + d.units_granted
    assert all(units <= 1 for units in granted.values())
    # Stranded exactly when no node hosts the model on a fast enough CPU
    # of the submitting cloud's type.
    clouds = {c.cloud_id: c for c in sc.clouds}
    unservable: set[str] = set()
    for spec in sc.workloads:
        handle = state.apps[spec.app_id]
        own = clouds[spec.submit_cloud]
        servable = any(
            SERVICE_LABELS[spec.model] in c.service_types
            and c.cpu_type == own.cpu_type
            and c.node_speed_ghz >= own.node_speed_ghz
            for c in sc.clouds
        )
        if servable:
            assert handle.complete and not stranded_units(state, spec.app_id)
        else:
            assert not handle.completions
            unservable.update(f"{spec.app_id}#{k}" for k in range(spec.unit_count))
    assert state.stranded_ids == unservable
    assert set(state.pending) == unservable
