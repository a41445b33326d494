from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import (
    CloudConfig,
    ConsistencyError,
    DemandDistribution,
    DimensionSpec,
    Eq,
    Ge,
    LatencyModel,
    NotReadyError,
    Scenario,
    SimulationError,
    WorkloadSpec,
    deploy_federation,
    hash_name,
    publish_ticket,
    recompute_cell_assignment,
    response_time,
    run_scenario,
    run_sweep,
    run_to_quiescence,
    scale_workloads,
    spatial_hash,
    submit_application,
)
from fedmesh.federation import ClaimPost, TimerTick, on_allocation
from fedmesh.oracles import replica_count
from fedmesh.workloads import SERVICE_LABELS

from conftest import TASK_LABEL, THREAD_LABEL

BOTH = (TASK_LABEL, THREAD_LABEL)
BUILTIN_PEERS = tuple(f"cloud-{i}" for i in range(1, 6))
BUILTIN_UNITS = 250


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
        unit_demand=demand or DemandDistribution.uniform(3.0, 6.0),
        submit_cloud=cloud_id,
        submit_time_ms=at,
        app_id=app_id,
    )


def scenario(clouds, workloads=(), seed=42, eager=True):
    return Scenario(
        schema_version=1,
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


class TestDeploy:
    def test_hub_one_peer_per_cloud(self):
        state = deploy_federation(scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)]))
        assert len(state.membership) == 5
        assert len(state.nodes) == 20
        assert len(state.cell_owner) == 81
        per_peer = {}
        for owner in state.cell_owner.values():
            per_peer[owner] = per_peer.get(owner, 0) + 1
        assert sum(per_peer.values()) / 5 == pytest.approx(16.2)

    def test_full_p2p_one_peer_per_node(self):
        clouds = [cloud(f"cloud-{i}", 2.4, topology="full_p2p") for i in range(1, 6)]
        state = deploy_federation(scenario(clouds))
        assert len(state.membership) == 20
        assert set(state.peer_cloud) == set(state.nodes)

    def test_cell_assignment_deterministic(self):
        sc = scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)])
        assert deploy_federation(sc).cell_owner == deploy_federation(sc).cell_owner

    def test_duplicate_cloud_rejected(self):
        with pytest.raises(Exception):
            deploy_federation(scenario([cloud("a", 2.4), cloud("a", 3.0)]))

    def test_recompute_after_membership_change(self):
        state = deploy_federation(scenario([cloud(f"cloud-{i}", 2.4) for i in range(1, 6)]))
        state.membership.leave(hash_name("cloud-3"))
        state.peer_cloud.pop("cloud-3")
        recompute_cell_assignment(state)
        assert len(state.cell_owner) == 81
        assert "cloud-3" not in set(state.cell_owner.values())
        for cell in state.cells:
            expected = state.membership.name_of(state.membership.owner_of(spatial_hash(cell)))
            assert state.cell_owner[cell.coords] == expected

    def test_builtin_deploy_passes_the_handoff_check(self, melbourne_scenario):
        state = deploy_federation(melbourne_scenario)
        before = dict(state.cell_owner)
        recompute_cell_assignment(state)
        assert state.cell_owner == before

    def test_cells_never_go_to_an_undeployed_peer(self, melbourne_scenario):
        # A peer that joins the overlay mid-run has no handler and no cloud.
        state = deploy_federation(melbourne_scenario)
        before = dict(state.cell_owner)
        state.membership.join("cloud-9")
        with pytest.raises(ConsistencyError, match=r"'cloud-9' would own 10 cells .*never deployed"):
            recompute_cell_assignment(state)
        assert state.cell_owner == before

    def test_leave_forwards_posts_in_flight(self, melbourne_scenario):
        # At t=0 cloud-1's first 25 claim posts are still in flight to it.
        # After it leaves, each one reaching it is passed on to its cell's
        # new owner: the departed peer stores nothing itself.
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
            seen.append(type(payload))

        state.engine.register("peer/cloud-1", watched)
        run_to_quiescence(state)
        assert seen == [ClaimPost] * 25
        assert "cloud-1" not in state.cell_owner.values()
        assert_served_exactly_once(state)

    def test_leave_hands_waiting_claims_to_new_owners(self, melbourne_scenario):
        # At t=2 s cloud-1 owns 18 cells holding 175 waiting claims and has
        # nothing in flight; the claims stay with their cells and the cells'
        # new owners serve them.
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=2_000)
        lost = [state.cells_by_coords[c] for c, o in state.cell_owner.items() if o == "cloud-1"]
        waiting = {claim.claim_id for cell in lost for claim in state.store.snapshot(cell)}
        assert (len(lost), len(waiting)) == (18, 175)
        state.membership.leave(hash_name("cloud-1"))
        recompute_cell_assignment(state)
        run_to_quiescence(state)
        assert "cloud-1" not in state.cell_owner.values()
        assert_served_exactly_once(state)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(peer=st.sampled_from(BUILTIN_PEERS), until_ms=st.integers(0, 80_000))
    def test_property_any_leave_completes(self, melbourne_scenario, peer, until_ms):
        state = deploy_federation(melbourne_scenario)
        state.engine.run(until_ms=until_ms)
        state.membership.leave(hash_name(peer))
        recompute_cell_assignment(state)
        run_to_quiescence(state)
        assert peer not in state.cell_owner.values()
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
        handle = submit_application(state, "cloud-1", workload("cloud-1", rows=5, cols=5))
        assert handle.unit_count == 25
        assert len(state.pending) == 25

    def test_claim_constraint_shape(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        submit_application(state, "cloud-1", workload("cloud-1", model="thread", rows=1, cols=1))
        (pending,) = state.pending.values()
        by_dim = dict(zip((d.name for d in state.space.dims), pending.claim.constraints))
        assert by_dim["service_type"] == Eq(THREAD_LABEL)
        assert by_dim["processors"] == Eq(1)
        assert by_dim["cpu_type"] == Eq("Intel")
        assert by_dim["speed_ghz"] == Ge(2.4)

    def test_unknown_cloud_rejected(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4)]))
        with pytest.raises(Exception):
            submit_application(state, "nowhere", workload("cloud-1"))

    def test_claims_posted_to_owning_peers(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, "cloud-1", workload("cloud-1", rows=1, cols=1))
        state.engine.run(until_ms=10)  # let claim-post messages land
        (claim_id,) = state.pending
        replicas = replica_count(state.store, state.cells, claim_id)
        assert replicas == len(state.pending[claim_id].cells) >= 1


class TestPublishTicket:
    def test_idle_node_emits_one_ticket_per_service(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.7, nodes=1)]))
        state.submitted_total = 1  # keep the run "unfinished" for this probe
        publish_ticket(state, state.nodes["cloud-1/n0"])
        assert state.metrics.tickets_published == 2

    def test_busy_or_committed_node_stays_silent(self):
        state = deploy_federation(scenario([cloud("cloud-1", 2.7, nodes=1)]))
        state.submitted_total = 1
        node = state.nodes["cloud-1/n0"]
        node.busy = True
        publish_ticket(state, node)
        node.busy = False
        node.committed = True
        publish_ticket(state, node)
        assert state.metrics.tickets_published == 0

    def test_ticket_point_mirrors_node_attributes(self):
        state = deploy_federation(scenario([cloud("cloud-2", 2.7, nodes=1)]))
        node = state.nodes["cloud-2/n0"]
        point = state.node_point(node, THREAD_LABEL)
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
            assert node.speed_ghz >= 3.5  # cloud-2 claims demand >= 3.5 GHz

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
        handle = submit_application(state, "cloud-1", workload("cloud-1", rows=1, cols=1))
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
        assert len(handle.stranded) == 4

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


class TestProtocolGuards:
    def test_late_replica_post_after_service_is_dropped(self):
        # A claim replica can still be in flight to one cell when a ticket
        # serves the claim at another; the late post must not resurrect it.
        state = deploy_federation(scenario([cloud("cloud-1", 2.4), cloud("cloud-2", 3.0)]))
        submit_application(state, "cloud-1", workload("cloud-1", rows=1, cols=1))
        (claim_id,) = state.pending
        claim = state.pending[claim_id].claim
        state.served.add(claim_id)  # as the decision-taking peer would
        coords = state.pending[claim_id].cells[0]
        target_peer = state.cell_owner[coords]
        state.engine.schedule(1, f"peer/{target_peer}", ClaimPost(claim, coords))
        state.engine.run(until_ms=20)
        assert replica_count(state.store, state.cells, claim_id) == 0

    @pytest.mark.parametrize(
        "target, payload",
        [
            ("peer/cloud-1", TimerTick()),
            ("scheduler/cloud-1", TimerTick()),
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
        submit_application(state, "cloud-1", workload("cloud-1", rows=1, cols=1))
        (pending,) = state.pending.values()
        from fedmesh import AllocationDecision

        decision = AllocationDecision(
            ticket_id="t",
            claim_id=pending.claim.claim_id,
            units_granted=1,
            decided_at=0,
            target="cloud-1/n0",
            notify="cloud-1",
        )
        on_allocation(state, decision)
        with pytest.raises(ConsistencyError):
            on_allocation(state, decision)


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
