from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import (
    BufferOverflowError,
    ConsistencyError,
    DomainError,
    InvalidArgumentError,
    NotReadyError,
    SimulationError,
    builtin_scenario_path,
    federation,
    parse_scenario,
    run_scenario,
    run_sweep,
)
from fedmesh.config import LatencyModel
from fedmesh.coordination import AllocationDecision, ClaimStore
from fedmesh.engine import Batch, RngStream
from fedmesh.experiments import scale_workloads
from fedmesh.federation import (
    ClaimPost,
    Dispatch,
    TicketPost,
    TimerTick,
    _forward,
    deploy_federation,
    on_allocation,
    place_cell,
    publish_ticket,
    recompute_cell_assignment,
    response_time,
    run_to_quiescence,
    submit_application,
)
from fedmesh.oracles import replica_count
from fedmesh.overlay import hash_name
from fedmesh.spatial import (
    DimensionSpec,
    Eq,
    Ge,
    ResourceClaim,
    ResourceTicket,
    build_base_cells,
    claim_region,
    map_claim,
    map_ticket,
    spatial_hash,
)
from fedmesh.workloads import DemandDistribution, WorkUnit

from conftest import TASK_LABEL, THREAD_LABEL, published_ticket
from support import (
    BOTH,
    FifoReplay,
    assert_placed_by_the_oracle,
    assert_served_once_or_stranded,
    cloud,
    dims,
    federations,
    run_with_churn,
    scenario,
    stranded_units,
    workload,
)

BUILTIN_PEERS = tuple(f"cloud-{i}" for i in range(1, 6))
BUILTIN_UNITS = 250
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


class TestDeploy:
    def test_hub_one_peer_per_cloud(self):
        state = deploy_federation(scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)]))
        assert len(state.membership) == 5
        assert len(state.nodes) == 20
        per_peer = Counter(place_cell(state, cell) for cell in build_base_cells(state.space))
        assert sum(per_peer.values()) == 81
        assert sum(per_peer.values()) / 5 == pytest.approx(16.2)
        assert set(per_peer) == set(state.peer_cloud)
        # Deploy places the ticket cells only, each where every cell goes.
        assert state.cell_owner.keys() == state.ticket_cells
        assert all(state.cell_owner[cell] == place_cell(state, cell) for cell in state.ticket_cells)

    def test_full_p2p_one_peer_per_node(self):
        clouds = [cloud(f"cloud-{i}", 2.4, topology="full_p2p") for i in range(1, 6)]
        state = deploy_federation(scenario(clouds))
        assert len(state.membership) == 20
        assert set(state.peer_cloud) == set(state.nodes)

    def test_cell_assignment_deterministic(self):
        sc = scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)])
        first, second = deploy_federation(sc), deploy_federation(sc)
        assert first.cell_owner == second.cell_owner
        cells = build_base_cells(sc.space())
        assert {c: place_cell(first, c) for c in cells} == {c: place_cell(second, c) for c in cells}

    def test_duplicate_cloud_rejected(self):
        with pytest.raises(InvalidArgumentError, match="duplicate cloud id 'a'"):
            deploy_federation(scenario([cloud("a", 2.4), cloud("a", 3.0)]))

    def test_recompute_after_membership_change(self):
        state = deploy_federation(scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)]))
        state.membership.leave(hash_name("cloud-3"))
        state.peer_cloud.pop("cloud-3")
        recompute_cell_assignment(state)
        cells = build_base_cells(state.space)
        owners = {cell: place_cell(state, cell) for cell in cells}
        assert "cloud-3" not in set(owners.values())
        for cell in cells:
            owner = state.membership.owner_of(spatial_hash(cell, state.space.f_min))
            assert owners[cell] == state.membership.name_of(owner)
        assert state.cell_owner.items() <= owners.items()

    def test_builtin_deploy_passes_the_handoff_check(self, melbourne_scenario):
        state = deploy_federation(melbourne_scenario)
        before, placed = assert_placed_by_the_oracle(state), dict(state.cell_owner)
        recompute_cell_assignment(state)
        assert assert_placed_by_the_oracle(state) == before
        assert state.cell_owner == placed

    def test_a_run_builds_no_grid(self, monkeypatch):
        # The built-in scenario on 16 slices per dimension: 65,536 cells, of
        # which a run places only the few its posts are routed to.
        text = builtin_scenario_path("melbourne-5").read_text(encoding="utf-8")
        sc = parse_scenario(text.replace("f_min = 3\nf_max = 3", "f_min = 16\nf_max = 16"))
        assert sc.f_min ** len(sc.dims) == 65_536

        def no_grid(space):
            raise AssertionError("the grid was enumerated")

        for module in ("fedmesh.spatial", "fedmesh.federation", "fedmesh.oracles"):
            monkeypatch.setattr(f"{module}.build_base_cells", no_grid)
        state = deploy_federation(sc)
        run_to_quiescence(state)
        assert not state.stranded_ids
        assert len(state.ticket_cells) < len(state.cell_owner) < 100
        assert_placed_by_the_oracle(state, tuple(state.cell_owner))
        assert_served_exactly_once(state)

    def test_cells_never_go_to_an_undeployed_peer(self, melbourne_scenario):
        # A peer that joins the overlay mid-run has no handler and no cloud.
        # Refused for being on the overlay, whether or not it owns a cell
        # yet routed; of all cells it would own 10.
        state = deploy_federation(melbourne_scenario)
        before, routes = dict(state.cell_owner), dict(state.ticket_routes)
        state.membership.join("cloud-9")
        assert Counter(place_cell(state, c) for c in build_base_cells(state.space))["cloud-9"] == 10
        with pytest.raises(ConsistencyError, match=r"'cloud-9' is on the overlay but was never deployed"):
            recompute_cell_assignment(state)
        assert state.cell_owner == before and state.ticket_routes == routes

    def test_a_refused_recompute_is_mended_by_the_undeployed_peer_leaving(
        self, melbourne_scenario
    ):
        # After the refusal the undeployed peer is still on the overlay, so
        # no post may be routed until it leaves and a recompute succeeds;
        # then every cell goes where it went at deploy and the run completes.
        state = deploy_federation(melbourne_scenario)
        deployed = assert_placed_by_the_oracle(state)
        state.engine.run(until_ms=2_000)
        state.membership.join("cloud-9")
        with pytest.raises(ConsistencyError):
            recompute_cell_assignment(state)
        state.membership.leave(hash_name("cloud-9"))
        recompute_cell_assignment(state)
        assert assert_placed_by_the_oracle(state) == deployed
        run_to_quiescence(state)
        assert "cloud-9" not in assert_placed_by_the_oracle(state).values()
        assert_served_exactly_once(state)

    def test_leave_forwards_posts_in_flight(self, melbourne_scenario):
        # At t=0 cloud-1's posts of 25 claims are still in flight to it.
        # After it leaves, each post reaching it is passed on to its cell's
        # new owner: the departed peer stores none of the 25 itself.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=0)
        box = state.engine.inbox("peer/cloud-1")
        assert box.pending == 25
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        departed, seen = box.handler, []

        def watched(payload):
            waiting = state.store.waiting_claim_ids()
            departed(payload)
            assert state.store.waiting_claim_ids() == waiting
            seen.append(payload)

        box.handler = watched
        run_to_quiescence(state)
        assert {type(post) for post in seen} == {ClaimPost}
        assert sum(len(post.claims) for post in seen) == 25
        assert "cloud-1" not in assert_placed_by_the_oracle(state).values()
        assert_served_exactly_once(state)

    def test_forward_to_the_forwarding_peer_is_a_named_error(self, melbourne_scenario):
        # A post reaching its cell's own owner is handled, never forwarded:
        # forwarding it would deliver it to that peer again and again.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=0)
        cell, owner = next(iter(state.cell_owner.items()))
        post = ClaimPost((state.pending[next(iter(state.pending))].claim,), cell)
        with pytest.raises(ConsistencyError, match=re.escape(f"peer '{owner}' owns cell {cell}")):
            _forward(state, owner, cell, Batch(post, 1))

    def test_leave_hands_waiting_claims_to_new_owners(self, melbourne_scenario):
        # At t=2 s cloud-1 owns 18 cells holding 175 waiting claims and has
        # nothing in flight; the claims stay with their cells and the cells'
        # new owners serve them.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=2_000)
        lost = [c for c in build_base_cells(state.space) if place_cell(state, c) == "cloud-1"]
        waiting = {claim.claim_id for cell in lost for claim in state.store.snapshot(cell)}
        assert (len(lost), len(waiting)) == (18, 175)
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        run_to_quiescence(state)
        assert "cloud-1" not in assert_placed_by_the_oracle(state).values()
        assert_served_exactly_once(state)

    def test_submission_after_a_leave_posts_each_replica_to_its_cells_new_owner(
        self, melbourne_scenario
    ):
        # cloud-1 submitted at t=0 and owned cells until it left; routes are
        # looked up anew by each submission, so none of the next one's
        # replicas goes to the departed peer or needs forwarding.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=2_000)
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        arrivals = []
        for peer, target in state.peer_targets.items():

            def watched(payload, peer=peer, handler=state.engine.inbox(target).handler):
                if isinstance(payload, ClaimPost):
                    arrivals.append((peer, state.engine.now, payload))
                handler(payload)

            state.engine.inbox(target).handler = watched
        earlier = set(state.pending)
        sent_at = state.engine.now
        submit_application(state, workload("cloud-1", rows=2, cols=3, app_id="late"))
        replicas = sorted(
            (claim_id, cell)
            for claim_id, pending in state.pending.items()
            if claim_id not in earlier
            for cell in pending.cells
        )
        state.engine.run(until_ms=sent_at + state.latency.inter_cloud_ms)
        late = [
            (peer, t, claim, post.cell)
            for peer, t, post in arrivals
            for claim in post.claims
            if claim.claim_id not in earlier
        ]
        assert len(replicas) > 6
        assert sorted((claim.claim_id, cell) for _, _, claim, cell in late) == replicas
        assert not [peer for peer, _, _, _ in late if peer == "cloud-1"]
        for peer, t, _, cell in late:
            assert peer == state.cell_owner[cell]
            assert t == sent_at + state.latency.between("cloud-1", state.peer_cloud[peer])

    def test_a_forwarded_post_carries_only_its_unserved_claims(self, melbourne_scenario):
        # A claim of a post in flight to cloud-1 is served elsewhere before
        # the post arrives; after cloud-1 leaves, it forwards the rest as one
        # batch, and the new owner's inbox counts exactly those claims.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=0)
        # The engine's queue is private; this reads it only to find a post.
        post = next(
            payload.payload
            for slot in state.engine._slots.values()
            for box, payload in slot
            if box.target == "peer/cloud-1" and payload.messages > 1
        )
        state.served.add(post.claims[0].claim_id)  # as the decision-taking peer would
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        owner = state.engine.inbox(state.peer_targets[state.cell_owner[post.cell]])
        box = state.engine.inbox("peer/cloud-1")
        departed, schedule, sent = box.handler, state.engine.schedule, []

        def watched(payload):
            if payload is not post:
                return departed(payload)
            before = owner.pending
            state.engine.schedule = lambda *args: sent.append(args) or schedule(*args)
            try:
                departed(payload)
            finally:
                del state.engine.schedule
            assert owner.pending == before + len(post.claims) - 1

        box.handler = watched
        state.engine.run(until_ms=state.latency.inter_cloud_ms)
        ((_, target, batch),) = sent
        assert target == owner.target
        assert batch == Batch(ClaimPost(post.claims[1:], post.cell), len(post.claims) - 1)

    def test_tickets_after_a_leave_go_straight_to_their_cells_new_owner(
        self, melbourne_scenario
    ):
        # Every (cloud, label) has a route from deploy on, five of them to
        # cloud-1; recompute_cell_assignment re-points each, so no ticket
        # published after the leave goes to the departed peer or needs
        # forwarding, and each pays the latency to its new owner's cloud.
        state = deploy_federation(melbourne_scenario)
        keys = {(cid, label) for cid, labels in state.service_labels.items() for label in labels}
        assert state.ticket_routes.keys() == state.node_points.keys() == keys
        assert [t for _, t, _ in state.ticket_routes.values()].count("peer/cloud-1") == 5
        state.engine.run(until_ms=20_000)
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        assert state.ticket_routes.keys() == keys
        assert "peer/cloud-1" not in [t for _, t, _ in state.ticket_routes.values()]
        arrivals = []
        for peer, target in state.peer_targets.items():

            def watched(payload, peer=peer, handler=state.engine.inbox(target).handler):
                if isinstance(payload, TicketPost):
                    arrivals.append((peer, state.engine.now, payload))
                handler(payload)

            state.engine.inbox(target).handler = watched
        sent_at = state.engine.now
        idle = [n for n in state.nodes.values() if not (n.busy or n.committed)]
        for node in idle:
            publish_ticket(state, node)
        state.engine.run(until_ms=sent_at + state.latency.inter_cloud_ms)
        published = {(n.node_id, label) for n in idle for label in state.service_labels[n.cloud_id]}
        assert len(published) > 10
        fresh = {(p.node.node_id, p.label) for _, _, p in arrivals if p.issue_time == sent_at}
        assert published <= fresh
        for peer, t, post in arrivals:
            assert peer != "cloud-1"
            assert peer == state.cell_owner[post.cell]
            assert t == post.issue_time + state.latency.between(
                post.node.cloud_id, state.peer_cloud[peer]
            )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(peer=st.sampled_from(BUILTIN_PEERS), until_ms=st.integers(0, 80_000))
    def test_property_any_leave_completes(self, melbourne_scenario, peer, until_ms):
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=until_ms)
        state.membership.leave(hash_name(peer))
        recompute_cell_assignment(state)
        run_to_quiescence(state)
        assert peer not in assert_placed_by_the_oracle(state).values()
        assert_served_exactly_once(state)


def assert_served_exactly_once(state, units=BUILTIN_UNITS):
    claim_ids = [d.claim_id for d in state.metrics.decisions]
    assert len(claim_ids) == len(set(claim_ids)) == units
    assert state.served == state.dispatched
    assert state.completed_total == state.submitted_total == units
    assert not state.stranded_ids
    assert not state.store.waiting_claim_ids()


class TestSubmit:
    def test_one_claim_per_unit(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        handle = submit_application(state, workload("cloud-1", rows=5, cols=5))
        assert handle.unit_count == 25
        assert len(state.pending) == 25

    def test_claim_constraint_shape(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        submit_application(state, workload("cloud-1", model="thread", rows=1, cols=1))
        (pending,) = state.pending.values()
        by_dim = dict(zip((d.name for d in state.space.dims), pending.claim.constraints))
        assert by_dim["service_type"] == Eq(THREAD_LABEL)
        assert by_dim["processors"] == Eq(1)
        assert by_dim["cpu_type"] == Eq("Intel")
        assert by_dim["speed_ghz"] == Ge(2.4)

    def test_records_built_in_c_pass_their_checks(self, melbourne_scenario, monkeypatch):
        # Each unit's claim and each ticket skip their constructor's check;
        # every one the built-in run makes must pass it all the same.
        tickets, built = [], federation._ticket

        def kept(*args):
            tickets.append(built(*args))
            return tickets[-1]

        monkeypatch.setattr(federation, "_ticket", kept)
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=2_000)
        pending = [p.claim for p in state.pending.values()]
        stored = [c for cell in state.ticket_cells for c in state.store.snapshot(cell)]
        assert pending and stored
        for claim in pending + stored:
            assert type(claim) is ResourceClaim and claim == ResourceClaim(*claim)
        run_to_quiescence(state)
        assert_served_exactly_once(state)
        assert tickets
        for ticket in tickets:
            assert type(ticket) is ResourceTicket and ticket == ResourceTicket(*ticket)

    def test_claims_of_one_cloud_and_model_share_one_interned_class(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        for cloud_id in ("cloud-1", "cloud-2"):
            for model in ("task", "thread"):
                for app in range(2):
                    spec = workload(cloud_id, model=model, rows=2, cols=3, app_id=f"{cloud_id}/{model}{app}")
                    submit_application(state, spec)
        by_pair = {}
        for pending in state.pending.values():
            pair = (pending.claim.origin, pending.unit.model)
            by_pair.setdefault(pair, set()).add(id(pending.claim.constraints))
        assert len(by_pair) == 4
        assert all(len(ids) == 1 for ids in by_pair.values())
        distinct = {id(p.claim.constraints) for p in state.pending.values()}
        assert len(distinct) == len(by_pair)

    def test_clouds_submitting_equal_claims_share_one_class(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 2.4)]))
        submit_application(state, workload("cloud-1", rows=1, cols=2))
        submit_application(state, workload("cloud-2", rows=1, cols=2))
        assert len({id(p.claim.constraints) for p in state.pending.values()}) == 1
        assert len(state.claim_classes) == 1

    def test_a_run_validates_each_claim_class_once_and_maps_every_unit(
        self, melbourne_scenario, monkeypatch
    ):
        regions, mapped = [], []
        monkeypatch.setattr(
            "fedmesh.spatial.claim_region", lambda *args: regions.append(args) or claim_region(*args)
        )
        monkeypatch.setattr(
            "fedmesh.federation.map_claim", lambda *args: mapped.append(args[1]) or map_claim(*args)
        )
        state = deploy_federation(melbourne_scenario)
        run_to_quiescence(state)
        # map_claim is still called once per unit; only each class's first
        # call computes its region.
        assert len({claim.claim_id for claim in mapped}) == len(mapped) == state.submitted_total
        assert len(regions) == len(state.claim_classes) < state.submitted_total
        classes = {id(record.constraints) for record in state.claim_classes.values()}
        assert {id(claim.constraints) for _, claim in regions} == classes

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_space_without_exactly_the_claim_dimensions_rejected(self, change):
        if change == "missing":
            space_dims = tuple(d for d in dims() if d.name != "speed_ghz")
        else:
            space_dims = dims() + (DimensionSpec(name="memory_gb", kind="numeric", bounds=(0.0, 64.0)),)
        bad = dataclasses.replace(scenario([cloud("cloud-1", 2.4)], [workload("cloud-1")]), dims=space_dims)
        with pytest.raises(InvalidArgumentError, match="claims need exactly the dimensions"):
            deploy_federation(bad)

    def test_unknown_cloud_rejected(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        with pytest.raises(InvalidArgumentError, match="unknown cloud 'nowhere'"):
            submit_application(state, workload("nowhere"))

    def test_deploy_rejects_a_workload_for_an_undeclared_cloud(self):
        # A Scenario built in code skips the parser's submit_cloud check.
        bad = scenario([cloud("cloud-1", 2.4)], [workload("cloud-1"), workload("nowhere")])
        with pytest.raises(InvalidArgumentError, match="workload targets unknown cloud 'nowhere'"):
            deploy_federation(bad)

    def test_a_submission_queues_one_message_per_claim_and_route(self):
        # One batch per (submission, cell), each counted as its six claims.
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, workload("cloud-1", rows=2, cols=3))
        cells = map_claim(state.space, next(iter(state.pending.values())).claim)
        routes = Counter(state.peer_targets[state.cell_owner[cell]] for cell in cells)
        pending = state.engine.pending_by_target()
        assert {target: pending[target] for target in state.peer_targets.values()} == {
            target: 6 * routes[target] for target in state.peer_targets.values()
        }
        # The engine's queue is private; this reads it only to count.
        batches = [p for slot in state.engine._slots.values() for box, p in slot if type(p) is Batch]
        assert sorted(batch.payload.cell for batch in batches) == sorted(cells)

    def test_claims_posted_to_owning_peers(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, workload("cloud-1", rows=1, cols=1))
        state.engine.run(until_ms=10)  # let claim-post messages land
        (claim_id,) = state.pending
        replicas = replica_count(state.store, build_base_cells(state.space), claim_id)
        assert replicas == len(state.pending[claim_id].cells) >= 1


class TestPublishTicket:
    def test_idle_node_emits_one_ticket_per_service(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.7, nodes=1)]))
        publish_ticket(state, state.nodes["cloud-1/n0"])
        assert state.metrics.tickets_published == 2

    def test_busy_or_committed_node_stays_silent(self):
        # The two states a node reaches between its allocation and its
        # completion: committed, then committed and busy.
        state = deploy_federation(scenario([cloud("cloud-1", 2.7, nodes=1)]))
        node = state.nodes["cloud-1/n0"]
        node.committed = True
        publish_ticket(state, node)
        node.busy = True
        publish_ticket(state, node)
        assert state.metrics.tickets_published == 0

    def test_a_busy_node_is_always_committed(self, melbourne_scenario, monkeypatch):
        # Why publish_ticket and _on_ticket test committed alone. Only a
        # node's own handlers set busy or clear committed.
        busy_events = Counter()

        def checked(on):
            def handle(state, node, payload):
                on(state, node, payload)
                assert node.committed or not node.busy, (node.node_id, payload)
                busy_events[node.busy] += 1

            return handle

        for kind, on in list(federation._NODE.items()):
            monkeypatch.setitem(federation._NODE, kind, checked(on))
        result = run_scenario(melbourne_scenario)
        assert result.state.completed_total == BUILTIN_UNITS
        assert busy_events[True] > 0 and busy_events[False] > 0

    def test_tickets_go_out_in_sorted_label_order(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.7, nodes=1, services=(THREAD_LABEL, TASK_LABEL))]))
        received = []
        state.engine.inbox("peer/cloud-1").handler = received.append
        publish_ticket(state, state.nodes["cloud-1/n0"])
        state.engine.run(until_ms=10)
        assert [post.label for post in received] == [TASK_LABEL, THREAD_LABEL] == sorted(BOTH)
        for post in received:
            assert state.node_points["cloud-1", post.label][0] == post.label

    def test_ticket_point_mirrors_node_attributes(self):
        state = deploy_federation(scenario([cloud("cloud-2", 2.7, nodes=1)]))
        node = state.nodes["cloud-2/n0"]
        point = state.node_points[node.cloud_id, THREAD_LABEL]
        assert point == (THREAD_LABEL, 1, "Intel", 2.7)


class TestExecutionFlow:
    def closed_form(self, speed, demand, tick_ms=5000):
        sc = scenario(
            [cloud("cloud-1", speed, nodes=1, interval=(tick_ms, tick_ms))],
            [workload("cloud-1", rows=1, cols=1, demand=DemandDistribution.constant(demand))],
        )
        return run_scenario(sc)

    def test_response_time_closed_form_2_4_ghz(self):
        # claim waits for the first status tick at 5000 ms; then notify (1 ms),
        # dispatch (1 ms), execution 4.8/2.4 = 2000 ms, result (1 ms); the
        # ticket itself takes 1 ms from node to peer.
        result = self.closed_form(2.4, 4.8)
        (rt,) = result.state.metrics.response_times.values()
        assert rt == pytest.approx(7.004)

    def test_response_time_closed_form_3_5_ghz(self):
        # 4.8 GHz-s on 3.5 GHz executes for round(1371.42..) = 1371 ms.
        result = self.closed_form(3.5, 4.8)
        (rt,) = result.state.metrics.response_times.values()
        assert rt == pytest.approx(6.375)

    def test_two_units_one_node_fifo_via_eager_ticket(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, nodes=1, interval=(5000, 5000))],
            [workload("cloud-1", rows=2, cols=1, demand=DemandDistribution.constant(4.8))],
        )
        result = run_scenario(sc)
        decisions = result.state.metrics.decisions
        assert [d.claim_id for d in decisions] == [
            "cloud-1/task-2x1#0",
            "cloud-1/task-2x1#1",
        ]
        # Second allocation rides the post-completion ticket, not a timer:
        # exec-done at 7003 republishes, so the next decision lands at 7004
        # and the second result at 9007.
        assert decisions[1].decided_at - decisions[0].decided_at < 5000
        (rt,) = result.state.metrics.response_times.values()
        assert rt == pytest.approx(9.007)

    def test_without_eager_tickets_second_unit_waits_for_timer(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, nodes=1, interval=(5000, 5000))],
            [workload("cloud-1", rows=2, cols=1, demand=DemandDistribution.constant(4.8))],
            eager=False,
        )
        result = run_scenario(sc)
        decisions = result.state.metrics.decisions
        assert decisions[1].decided_at - decisions[0].decided_at == 5000

    def test_exactly_once_accounting(self):
        sc = scenario(
            [cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)],
            [workload("cloud-1", rows=3, cols=3), workload("cloud-2", model="thread", rows=3, cols=3, at=10)],
        )
        result = run_scenario(sc)
        state = result.state
        decisions = state.metrics.decisions
        assert len(decisions) == 18
        assert len({d.claim_id for d in decisions}) == 18
        assert state.served == state.dispatched
        assert state.completed_total == 18
        assert not state.pending

    def test_constraint_safety_executed_nodes_satisfy_claims(self):
        sc = scenario(
            [cloud("cloud-1", 2.4), cloud("cloud-2", 3.5)],
            [workload("cloud-2", rows=4, cols=4)],
        )
        result = run_scenario(sc)
        for decision in result.state.metrics.decisions:
            node = result.state.nodes[decision.target]
            speed = result.state.clouds[node.cloud_id].node_speed_ghz
            assert speed >= 3.5  # cloud-2 claims demand >= 3.5 GHz

    def test_node_exclusivity_overlapping_workloads(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, nodes=2, interval=(1000, 2000))],
            [
                workload("cloud-1", rows=4, cols=2, at=0),
                workload("cloud-1", model="thread", rows=4, cols=2, at=5),
            ],
        )
        result = run_scenario(sc)  # internal asserts police exclusivity
        assert result.state.completed_total == 16

    def test_full_p2p_runs_to_completion(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, topology="full_p2p"), cloud("cloud-2", 3.0, topology="full_p2p")],
            [workload("cloud-1", rows=3, cols=3)],
        )
        result = run_scenario(sc)
        assert result.state.completed_total == 9
        assert not result.stranded

    def test_mixed_topologies_coexist(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, topology="hub"), cloud("cloud-2", 3.0, topology="full_p2p")],
            [workload("cloud-1", rows=2, cols=2), workload("cloud-2", rows=2, cols=2, at=5)],
        )
        result = run_scenario(sc)
        assert len(result.state.membership) == 1 + 4  # one hub peer + four node peers
        assert result.state.completed_total == 8

    def test_identical_runs_produce_identical_decision_streams(self):
        sc = scenario(
            [cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)],
            [workload("cloud-1", rows=4, cols=4), workload("cloud-2", model="thread", rows=4, cols=4, at=10)],
        )
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.state.metrics.decisions == b.state.metrics.decisions
        assert a.state.metrics.response_times == b.state.metrics.response_times
        assert a.report == b.report


class TestResponseTime:
    def test_not_ready_before_completion(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        handle = submit_application(state, workload("cloud-1", rows=1, cols=1))
        with pytest.raises(NotReadyError):
            response_time(handle)

    def test_lower_bound_is_execution_time(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, nodes=2)],
            [workload("cloud-1", rows=3, cols=3, demand=DemandDistribution.constant(4.8))],
        )
        result = run_scenario(sc)
        (rt,) = result.state.metrics.response_times.values()
        assert rt >= 2.0

    def test_monotone_in_granularity(self):
        base = scenario(
            [cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)],
            [workload("cloud-1", rows=5, cols=5), workload("cloud-2", rows=5, cols=5, at=10)],
        )
        small = run_scenario(scale_workloads(base, ("task",), 5))
        large = run_scenario(scale_workloads(base, ("task",), 13))
        rt_small = small.state.metrics.response_times["cloud-1/task-5x5"]
        rt_large = large.state.metrics.response_times["cloud-1/task-13x13"]
        assert rt_large >= rt_small


class TestStranded:
    def test_unservable_model_strands_claims(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, services=(TASK_LABEL,))],
            [workload("cloud-1", model="thread", rows=2, cols=2)],
        )
        result = run_scenario(sc)
        assert len(result.stranded) == 4
        assert result.state.completed_total == 0
        handle = result.state.apps["cloud-1/thread-2x2"]
        assert not handle.complete
        assert stranded_units(result.state, handle.app_id) == set(result.stranded)
        # No node hosts the thread label, so the claims' region meets no
        # ticket cell and no cell stores them; the report still names them.
        assert not set(result.state.store.waiting_claim_ids()) & set(result.stranded)

    def test_class_no_node_can_satisfy_strands_all_its_units(self):
        # cloud-1 offers only task execution at 3.0 GHz; cloud-2's thread
        # nodes are too slow for cloud-1's thread claims (speed >= 3.0).
        sc = scenario(
            [cloud("cloud-1", 3.0, services=(TASK_LABEL,)), cloud("cloud-2", 2.4)],
            [
                workload("cloud-1", model="thread", rows=2, cols=3),
                workload("cloud-1", model="task", rows=2, cols=2, at=3),
                workload("cloud-2", model="thread", rows=1, cols=2, at=6),
            ],
        )
        result = run_scenario(sc)
        stranded = stranded_units(result.state, "cloud-1/thread-2x3")
        assert sorted(result.stranded) == sorted(stranded)
        assert len(stranded) == 6
        assert result.state.completed_total == 6
        assert [r.satisfiable for r in result.state.claim_classes.values()].count(False) == 1

    def test_mixed_satisfiable_units_still_finish(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, services=(TASK_LABEL,))],
            [
                workload("cloud-1", model="task", rows=2, cols=2),
                workload("cloud-1", model="thread", rows=1, cols=1, at=5),
            ],
        )
        result = run_scenario(sc)
        assert result.state.completed_total == 4
        assert len(result.stranded) == 1


def fanned_p2p_scenario():
    """Six full_p2p peers on a 4,096-cell grid: every claim meets 11 or 14
    more cells than the 4 that hold a node point."""
    sc = scenario(
        [
            cloud("cloud-1", 2.4, nodes=3, topology="full_p2p"),
            cloud("cloud-2", 3.0, nodes=3, topology="full_p2p"),
        ],
        [
            workload("cloud-1", rows=3, cols=4),
            workload("cloud-2", model="thread", rows=2, cols=5, at=500),
            workload("cloud-1", model="thread", rows=2, cols=2, at=1000),
        ],
    )
    return dataclasses.replace(sc, f_min=8)


def decision_digest(state):
    decisions = [(d.ticket_id, d.claim_id, d.decided_at) for d in state.metrics.decisions]
    return hashlib.sha256(repr(decisions).encode()).hexdigest()


class TestTicketCells:
    """A replica is stored only in a cell holding some node's point; every
    post is still delivered, so events and decisions keep their figures."""

    # Recorded at commit 560b0d1, which stored every replica.
    EVENTS, DECISIONS = 563, "37e469680e5dc1d256dc4ad3e9dda7dccc6be725f15011ba9c31d14a4e6ecbce"
    LEAVE_EVENTS = 591
    LEAVE_DECISIONS = "fa49044c92d1cf587962ed115a987f620e5bd1239d1092d0933ddbfeff96d040"

    def test_events_and_decisions_match_a_store_of_every_replica(self):
        state = deploy_federation(fanned_p2p_scenario())
        report = run_to_quiescence(state)
        assert report.events_processed == self.EVENTS
        assert decision_digest(state) == self.DECISIONS
        assert_served_exactly_once(state, units=26)

    def test_claims_are_stored_only_in_ticket_cells(self):
        state = deploy_federation(fanned_p2p_scenario())
        state.engine.run(until_ms=1_000)
        assert len(state.ticket_cells) == 4
        holding = {cell for cell in build_base_cells(state.space) if state.store.snapshot(cell)}
        assert holding and holding <= state.ticket_cells
        for pending in state.pending.values():
            cells = map_claim(state.space, pending.claim)
            assert pending.cells == tuple(c for c in cells if c in state.ticket_cells)
            assert len(cells) > len(pending.cells)

    def test_a_run_hashes_each_cell_it_routes_to_once(self, monkeypatch):
        # Deploy places the ticket cells; the run's claims place the rest of
        # the cells they reach, each on its first route.
        hashed = []
        monkeypatch.setattr(
            "fedmesh.federation.spatial_hash",
            lambda cell, f_min: hashed.append(cell) or spatial_hash(cell, f_min),
        )
        state = deploy_federation(fanned_p2p_scenario())
        assert sorted(hashed) == sorted(state.ticket_cells)
        run_to_quiescence(state)
        assert len(hashed) == len(set(hashed)) == len(state.cell_owner) > len(state.ticket_cells)

    def test_a_leave_mid_run_keeps_events_and_serves_each_unit_once(self):
        # At t=1 s cloud-2/n0 owns every ticket cell, holds 22 claims and has
        # 28 posts in flight; the posts are forwarded and the cells move.
        state = deploy_federation(fanned_p2p_scenario())
        state.engine.run(until_ms=1_000)
        assert set(map(state.cell_owner.get, state.ticket_cells)) == {"cloud-2/n0"}
        state.membership.leave(hash_name("cloud-2/n0"))
        recompute_cell_assignment(state)
        report = run_to_quiescence(state)
        assert "cloud-2/n0" not in assert_placed_by_the_oracle(state).values()
        # The report counts the events of both engine calls.
        assert report.events_processed == state.engine.events_processed == self.LEAVE_EVENTS
        assert decision_digest(state) == self.LEAVE_DECISIONS
        assert_served_exactly_once(state, units=26)

    def test_a_node_point_outside_the_space_is_named_at_deploy(self):
        # The parser rejects such a point; a Scenario built in code meets
        # the same check when its federation is deployed.
        sc = scenario([cloud("cloud-1", 2.4, nodes=1), cloud("cloud-2", 5.0, nodes=1)])
        with pytest.raises(DomainError, match=re.escape(f"ticket cloud-2/{TASK_LABEL}: speed")):
            deploy_federation(sc)

    def test_deploy_maps_each_node_point_once_and_a_run_maps_none(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "fedmesh.federation.map_ticket", lambda *args: calls.append(args) or map_ticket(*args)
        )
        state = deploy_federation(fanned_p2p_scenario())
        points = set(state.node_points.values())
        assert len(calls) == len(points) == len(state.ticket_cells) == 4
        assert type(state.ticket_cells) is frozenset
        assert sorted(ticket.point for _, ticket in calls) == sorted(points)
        assert len(state.ticket_routes) == 4  # two clouds, two labels each
        run_to_quiescence(state)  # every submission and publish
        assert len(calls) == 4 and state.metrics.tickets_published > 0

    def test_no_attribute_is_first_set_after_deploy(self, melbourne_scenario):
        state = deploy_federation(melbourne_scenario)
        attributes = set(vars(state))
        run_to_quiescence(state)
        assert set(vars(state)) == attributes

    def test_a_finished_run_holds_no_ticket_stream(self, melbourne_scenario, monkeypatch):
        # Each status timer carries its node's interval stream, and a tick
        # that finds the run finished is not re-armed: the streams end with
        # the run, while the state lives on.
        streams = []

        class Recorded(RngStream):
            def __init__(self, seed, label):
                super().__init__(seed, label)
                if label.startswith("ticket/"):
                    streams.append(weakref.ref(self))

        monkeypatch.setattr(federation, "RngStream", Recorded)
        state = deploy_federation(melbourne_scenario)
        run_to_quiescence(state)
        gc.collect()
        assert state.finished and len(streams) == len(state.nodes)
        assert [ref for ref in streams if ref() is not None] == []

    def test_a_finished_run_holds_no_drained_pending_table(self, melbourne_scenario):
        # Every unit was dispatched, and the emptied table is no larger than
        # a new empty dict: it keeps no high-water hash table.
        state = run_scenario(melbourne_scenario).state
        assert not state.stranded_ids and not state.pending
        assert sys.getsizeof(state.pending) == sys.getsizeof({})


class TestRecords:
    def test_per_unit_and_per_message_records_have_no_instance_dict(self):
        # Slotted records keep the heap of a deep claim backlog small.
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)], [workload("cloud-1", rows=1, cols=2)]))
        state.engine.run(until_ms=0)
        pending = next(iter(state.pending.values()))
        # The engine's queue is private; this reads it only to find a post.
        batch = next(p for slot in state.engine._slots.values() for _, p in slot if type(p) is Batch)
        run_to_quiescence(state)
        records = (
            pending.claim, pending.unit, state.metrics.decisions[0], published_ticket(),
            batch, batch.payload,
        )
        kinds = (ResourceClaim, WorkUnit, AllocationDecision, ResourceTicket, Batch, ClaimPost)
        for record, kind in zip(records, kinds, strict=True):
            assert type(record) is kind
            assert not hasattr(record, "__dict__")


class TestProtocolGuards:
    def test_late_replica_post_after_service_is_dropped(self):
        # A claim replica can still be in flight to one cell when a ticket
        # serves the claim at another; the late post must not resurrect it.
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, workload("cloud-1", rows=1, cols=1))
        (claim_id,) = state.pending
        claim = state.pending[claim_id].claim
        state.served.add(claim_id)  # as the decision-taking peer would
        cell = state.pending[claim_id].cells[0]
        target_peer = state.cell_owner[cell]
        state.engine.schedule(1, f"peer/{target_peer}", ClaimPost((claim,), cell))
        state.engine.run(until_ms=20)
        assert replica_count(state.store, build_base_cells(state.space), claim_id) == 0

    def test_a_post_stores_only_its_unserved_claims_in_order(self):
        # The middle claim is served while the submission's posts are in
        # flight: each of its cells stores the other two, in unit order.
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, workload("cloud-1", rows=1, cols=3))
        first, middle, last = (pending.claim for pending in state.pending.values())
        state.served.add(middle.claim_id)  # as the decision-taking peer would
        state.engine.run(until_ms=20)
        cells = state.pending[first.claim_id].cells
        assert cells
        for cell in cells:
            assert state.store.snapshot(cell) == [first, last]

    @pytest.mark.parametrize("claims", ["bare", (), "list", "mixed"])
    def test_a_claim_post_takes_only_a_nonempty_tuple_of_claims(self, claims):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        submit_application(state, workload("cloud-1", rows=1, cols=1))
        ((claim_id, pending),) = state.pending.items()
        claims = {
            "bare": pending.claim, "list": [pending.claim], "mixed": (pending.claim, claim_id)
        }.get(claims, claims)
        with pytest.raises(InvalidArgumentError, match="claims must be a non-empty tuple"):
            ClaimPost(claims, pending.cells[0])

    @pytest.mark.parametrize(
        "target, payload",
        [
            ("peer/cloud-1", TimerTick(RngStream(0, "ticket/x"))),
            ("scheduler/cloud-1", TimerTick(RngStream(0, "ticket/x"))),
            ("node/cloud-1/n0", workload("cloud-1")),
        ],
        ids=["peer", "scheduler", "node"],
    )
    def test_payload_for_another_entity_kind_is_rejected(self, melbourne_scenario, target, payload):
        state = deploy_federation(melbourne_scenario)
        state.engine.schedule(0, target, payload)
        kind = type(payload).__name__
        with pytest.raises(SimulationError, match=rf"{target}.*{kind}") as caught:
            state.engine.run()
        assert isinstance(caught.value.__cause__, ConsistencyError)
        assert f"{target}: unexpected {kind}" in str(caught.value.__cause__)

    @pytest.mark.parametrize("stranded", [False, True], ids=["builtin", "stranded-unstored"])
    def test_horizon_failure_names_pending_targets_and_waiting_claims(
        self, melbourne_scenario, stranded
    ):
        if stranded:
            # Thread claims on a cloud hosting only tasks are stranded, and
            # their cells hold no node point, so no cell stores them.
            sc = scenario(
                [cloud("cloud-1", 2.4, services=(TASK_LABEL,))],
                [workload("cloud-1", model="thread", rows=2, cols=2), workload("cloud-1", rows=1, cols=1, at=5)],
            )
            sc = dataclasses.replace(sc, max_virtual_ms=3)
        else:
            sc = dataclasses.replace(melbourne_scenario, max_virtual_ms=100)
        state = deploy_federation(sc)
        with pytest.raises(SimulationError, match=f"virtual-time horizon {sc.max_virtual_ms} ms") as caught:
            run_to_quiescence(state)
        message = str(caught.value)
        named = re.findall(r"((?:node|peer|scheduler)/\S+) \((\d+) pending\)", message)
        assert 1 <= len(named) <= 5
        for target, count in named:
            assert state.engine.inbox(target).pending == int(count)
        assert f"for {len(state.engine.pending_by_target())} targets" in message
        unserved = sorted(
            (p.claim for p in state.pending.values() if p.claim.claim_id not in state.served),
            key=lambda c: (c.arrival_time, c.claim_id),
        )
        assert f"; {len(unserved)} claims still waiting" in message
        oldest = message.split("oldest unserved: ")[1].split(", ")
        assert oldest == [c.claim_id for c in unserved[:5]]
        if stranded:
            assert not state.store.waiting_claim_ids()
            assert message.endswith(
                "; 4 claims still waiting, oldest unserved: "
                + ", ".join(f"cloud-1/thread-2x2#{k}" for k in range(4))
            )
        else:
            assert len(unserved) > 5

    def test_rapid_tickets_interleaving_with_claim_posts(self):
        # Status intervals of a few ms overlap ticket arrivals with claim-post
        # deliveries; exactly-once accounting must survive the interleaving.
        sc = scenario(
            [
                cloud("cloud-1", 2.4, nodes=2, interval=(1, 5)),
                cloud("cloud-2", 3.0, nodes=2, interval=(1, 5)),
            ],
            [
                workload("cloud-1", rows=4, cols=3, at=0),
                workload("cloud-2", model="thread", rows=4, cols=3, at=2),
            ],
        )
        result = run_scenario(sc)
        state = result.state
        assert state.completed_total == 24
        claim_ids = [d.claim_id for d in state.metrics.decisions]
        assert len(claim_ids) == len(set(claim_ids)) == 24

    def test_double_allocation_detected(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4, nodes=1)]))
        submit_application(state, workload("cloud-1", rows=1, cols=1))
        (pending,) = state.pending.values()
        from fedmesh.coordination import AllocationDecision

        decision = AllocationDecision(
            ticket_id="t",
            claim_id=pending.claim.claim_id,
            units_granted=1,
            decided_at=0,
            target="cloud-1/n0",
            notify="cloud-1",
        )
        on_allocation(state, "cloud-1", decision)
        with pytest.raises(ConsistencyError):
            on_allocation(state, "cloud-1", decision)

    def test_dispatch_to_a_node_failing_the_claim_is_refused_every_time(self):
        state = deploy_federation(
            scenario([cloud("cloud-1", 2.4, nodes=2), cloud("cloud-2", 3.0, nodes=1)])
        )
        submit_application(state, workload("cloud-2", rows=1, cols=3))
        units = list(state.pending.values())  # each claim needs >= 3.0 GHz

        def dispatch(pending, node_id):
            target = state.nodes[node_id].target
            state.engine.schedule(0, target, Dispatch(pending.claim, pending.unit))
            state.engine.run(until_ms=state.engine.now)

        dispatch(units[0], "cloud-2/n0")  # a fitting pair of this class
        assert state.nodes["cloud-2/n0"].busy
        # Too slow: refused after the fitting pair, again on the same pair,
        # and on another node with the same point.
        for pending, node_id in (
            (units[1], "cloud-1/n0"),
            (units[2], "cloud-1/n0"),
            (units[1], "cloud-1/n1"),
        ):
            with pytest.raises(SimulationError) as failed:
                dispatch(pending, node_id)
            cause = failed.value.__cause__
            assert isinstance(cause, ConsistencyError)
            assert pending.unit.unit_id in str(cause) and node_id in str(cause)
            assert not state.nodes[node_id].busy


class TestSweepDriver:
    def test_sweep_collects_all_observation_points(self):
        sc = scenario(
            [cloud("cloud-1", 2.4, nodes=2), cloud("cloud-2", 3.0, nodes=2)],
            [workload("cloud-1", rows=5, cols=5)],
        )
        sweep = run_sweep(sc, models=("task",), sizes=(2, 3))
        assert set(sweep.runs) == {2, 3}
        assert ("cloud-1", "task", 4) in sweep.response
        assert ("cloud-1", "task", 9) in sweep.response


def engine_targets(state):
    """Every engine address the federation registered."""
    nodes = (node.target for node in state.nodes.values())
    return [*state.scheduler_targets.values(), *state.peer_targets.values(), *nodes]


def assert_overflow_names_an_inbox(exc, targets, capacity):
    assert isinstance(exc, BufferOverflowError), repr(exc)
    named = re.fullmatch(rf"inbox of '(.+)' at capacity {capacity}; refusing to enqueue", str(exc))
    assert named is not None and named.group(1) in targets, str(exc)


class TestWholeRuns:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(federations())
    def test_property_random_federation_serves_each_satisfiable_unit_once(self, federation):
        sc, churn = federation
        state = deploy_federation(sc)
        replay = FifoReplay(state)
        report = run_with_churn(state, churn)
        assert_served_once_or_stranded(sc, state, report)
        replay.check()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(federations(), st.integers(1, 40))
    def test_property_small_inboxes_complete_or_overflow_by_name(self, federation, capacity):
        # Under inbox pressure a run either completes exactly once or fails
        # naming the full inbox; it never runs on to the virtual-time horizon
        # and never leaves an inbox's count out of step with its queue.
        sc, churn = federation
        sc = dataclasses.replace(sc, inbox_capacity=capacity)
        try:
            state = deploy_federation(sc)
        except BufferOverflowError as exc:
            # Only submissions share an inbox at deploy: one timer per node.
            schedulers = {f"scheduler/{c.cloud_id}" for c in sc.clouds}
            assert_overflow_names_an_inbox(exc, schedulers, capacity)
            return
        replay = FifoReplay(state)
        try:
            report = run_with_churn(state, churn)
        except SimulationError as exc:
            assert_overflow_names_an_inbox(exc.__cause__, engine_targets(state), capacity)
        else:
            assert_served_once_or_stranded(sc, state, report)
        replay.check()
        # The engine's queue is private; this reads it only to count the
        # messages queued, a batch counting one per claim.
        queued = Counter()
        for slot in state.engine._slots.values():
            for box, payload in slot:
                queued[box.target] += payload.messages if type(payload) is Batch else 1
        for target in engine_targets(state):
            assert state.engine.inbox(target).pending == queued[target], target

    def test_builtin_run_serves_first_fit_fifo_at_each_cell(self, melbourne_scenario):
        state = deploy_federation(melbourne_scenario)
        replay = FifoReplay(state)
        run_to_quiescence(state)
        assert_served_exactly_once(state)
        replay.check()
        assert len(replay.decisions) == BUILTIN_UNITS

    def test_p2p_stream_serves_first_fit_fifo_at_each_cell(self, monkeypatch):
        # The benchmark's open loop of 400 apps on 200 full_p2p peers, whose
        # shallow queues leave about half its delivered tickets nothing to serve.
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        from harness import P2P_STREAM
        from scenario_text import render

        state = deploy_federation(parse_scenario(render(P2P_STREAM, 42)))
        replay = FifoReplay(state)
        run_to_quiescence(state)
        assert_served_exactly_once(state, units=10_000)
        replay.check()

    def test_every_ticket_the_store_sees_finds_a_waiting_claim(self, melbourne_scenario, monkeypatch):
        # A ticket reaches ClaimStore.post_ticket only at a cell where some
        # claim waits; over the built-in sweep, no call meets an empty cell.
        calls, empty = [], []
        post_ticket = ClaimStore.post_ticket

        def wrapped(store, cell, ticket, now_ms=None):
            calls.append(ticket.ticket_id)
            if not store.snapshot(cell):
                empty.append((ticket.ticket_id, cell))
            return post_ticket(store, cell, ticket, now_ms=now_ms)

        monkeypatch.setattr(ClaimStore, "post_ticket", wrapped)
        run_sweep(melbourne_scenario, models=("task", "thread"))
        assert calls
        assert not empty, f"{len(empty)} of {len(calls)} tickets met an empty cell: {empty[:3]}"

    def test_fixed_federation_is_identical_under_two_hash_seeds(self, tmp_path):
        here = Path(__file__).resolve().parent
        program = (
            "import sys; from support import fixed_run_outputs; "
            "print(fixed_run_outputs(sys.argv[1]))"
        )
        runs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / hash_seed
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join((str(here.parent / "src"), str(here))),
            )
            done = subprocess.run(
                [sys.executable, "-c", program, str(out)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((done.stdout, files))
        assert runs[0] == runs[1]
        assert len(runs[0][0].splitlines()) == 19 and len(runs[0][1]) == 4


def allocation_outcome(sc):
    """Run a scenario to quiescence: its decisions (ticket, claim, decided
    at, node) in order, response times, ticket counts and stranded ids."""
    state = deploy_federation(sc)
    run_to_quiescence(state)
    sink = state.metrics
    decisions = [(d.ticket_id, d.claim_id, d.decided_at, d.target) for d in sink.decisions]
    return decisions, sink.response_times, sink.stale_tickets, sink.tickets_published, state.stranded_ids


def relaid(sc, f_min, topology, latency):
    """The scenario on f_min slices per dimension, with every cloud on one
    topology and the given link latencies."""
    clouds = tuple(dataclasses.replace(c, topology=topology) for c in sc.clouds)
    return dataclasses.replace(sc, f_min=f_min, clouds=clouds, latency=latency)


class TestIndexIsInvisibleToAllocation:
    """The paper's rendezvous, end to end: a ticket's one cell holds every
    waiting claim it matches, and with equal link latencies no post's
    arrival depends on which peer owns its cell. So neither the index's
    granularity nor the overlay's layout changes any allocation."""

    LAYOUTS = [(f_min, topology) for f_min in (1, 2, 3, 4, 6) for topology in ("hub", "full_p2p")]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(federations(), st.integers(1, 3), st.integers(1, 7), st.sampled_from(("hub", "full_p2p")))
    def test_property_granularity_and_topology_change_no_decision(
        self, federation, latency_ms, f_min, topology
    ):
        sc, _ = federation  # without churn
        equal = LatencyModel(latency_ms, latency_ms)
        drawn = allocation_outcome(dataclasses.replace(sc, latency=equal))
        assert allocation_outcome(relaid(sc, f_min, topology, equal)) == drawn

    @pytest.mark.parametrize(
        "latency, agreeing",
        [(LatencyModel(3, 3), LAYOUTS), (LatencyModel(1, 5), [(1, "hub")])],
        ids=["equal-3-3-ms", "builtin-1-5-ms"],
    )
    def test_builtin_layouts_agree_exactly_when_latencies_are_equal(
        self, melbourne_scenario, latency, agreeing
    ):
        # The built-in links (1 ms in a cloud, 5 ms between clouds) are the
        # control: there the owners set the latencies, and every layout
        # differs from the first.
        runs = [allocation_outcome(relaid(melbourne_scenario, *layout, latency)) for layout in self.LAYOUTS]
        assert [layout for layout, run in zip(self.LAYOUTS, runs) if run == runs[0]] == agreeing
