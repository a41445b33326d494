"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; budgets are asserted alongside the functional tolerances.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from fedmesh import builtin_scenario_path, load_scenario, run_sweep
from fedmesh.cli import main
from fedmesh.coordination import ClaimStore
from fedmesh.oracles import (
    allocation_suite,
    brute_force_owner,
    measure_routing,
    rendezvous_suite,
    replica_count,
)
from fedmesh.overlay import NodeId, OverlayMembership
from fedmesh.spatial import (
    AttributeSpace,
    DimensionSpec,
    build_base_cells,
    map_claim,
    map_ticket,
    spatial_hash,
)
from fedmesh.workloads import job_share_percent

from conftest import published_ticket, stored_claims

CLOUDS_12 = ("cloud-1", "cloud-2")
CLOUDS_34 = ("cloud-3", "cloud-4")


def announce(number: int, text: str) -> None:
    print(f"\n[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def melbourne():
    return load_scenario(builtin_scenario_path("melbourne-5"))


@pytest.fixture(scope="module")
def sweep(melbourne):
    """Both models swept together over the five observation points."""
    return run_sweep(melbourne, models=("task", "thread"))


@pytest.fixture(scope="module")
def determinism_outputs(tmp_path_factory):
    names = ("summary.json", "response_times.csv", "jobs_by_cloud.csv", "job_share.csv")
    outputs = []
    for label in ("first", "second"):
        out = tmp_path_factory.mktemp(f"det-{label}")
        code = main(["run", str(builtin_scenario_path()), "--seed", "42", "--out", str(out)])
        assert code == 0
        outputs.append({name: (out / name).read_bytes() for name in names})
    return outputs


def test_criterion_1_base_cell_counts(testbed_space, grid2x2_space):
    start = time.monotonic()
    assert len(build_base_cells(testbed_space)) == 81
    assert len(build_base_cells(grid2x2_space)) == 4
    assert time.monotonic() - start < 1.0
    announce(1, "4-dim f_min=3 space has 81 base cells; 2-dim f_min=2 space has 4")


def test_criterion_2_cell_distribution(testbed_cells):
    start = time.monotonic()

    def loads(names):
        membership = OverlayMembership()
        for name in names:
            membership.join(name)
        counts: dict[str, int] = {}
        for cell in testbed_cells:
            owner = membership.name_of(membership.owner_of(spatial_hash(cell, 3)))
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    counts = loads([f"cloud-{i}" for i in range(1, 6)])
    assert sum(counts.values()) == 81
    assert sum(counts.values()) / 5 == 16.2

    rng = random.Random(2)
    grand = []
    for trial in range(100):
        counts = loads([f"peer-{trial}-{rng.getrandbits(32):08x}" for _ in range(5)])
        assert sum(counts.values()) == 81
        assert sum(counts.values()) / 5 == 16.2
        assert max(counts.values()) <= 81
        grand.append(sum(counts.values()) / 5)
    assert all(mean == 16.2 for mean in grand)  # exact per membership
    assert math.fsum(grand) / len(grand) == 16.2
    assert time.monotonic() - start < 5.0
    announce(2, "5 coordinator peers hold exactly 16.2 cells each on average")


def test_criterion_3_stored_claims_replay(testbed_space, testbed_cells):
    start = time.monotonic()
    store = ClaimStore()
    claims = stored_claims(times=(300, 400, 500))
    for claim in claims:
        for cell in map_claim(testbed_space, claim):
            store.post_claim(cell, claim)
    ticket = published_ticket(issue_time=700)
    tcell = map_ticket(testbed_space, ticket)
    decisions = store.post_ticket(tcell, ticket)
    assert len(decisions) == 1
    assert decisions[0].claim_id == "claim-1"
    assert decisions[0].units_granted == 1
    assert replica_count(store, testbed_cells, "claim-1") == 1  # only the unmatched replica left
    assert replica_count(store, testbed_cells, "claim-2") == 2
    assert replica_count(store, testbed_cells, "claim-3") == 2
    assert {c.claim_id for c in store.snapshot(tcell)} == {"claim-3"}
    assert time.monotonic() - start < 1.0
    announce(3, "replaying the stored-claims table serves exactly claim 1")


def test_criterion_4_rendezvous_oracle(grid2x2_space):
    start = time.monotonic()
    report = rendezvous_suite(10_000, dims=(2, 3, 4), seed=424242)
    assert report.trials == 30_000
    assert report.failures == 0

    # Exhaustive discretized enumeration on the 2-dim, twice-divided grid.
    from fedmesh.spatial import Eq, Ge, Le, Range, ResourceClaim, ResourceTicket, matches

    bounds = [d.bounds for d in grid2x2_space.dims]
    points = [[lo + k * (hi - lo) / 8 for k in range(9)] for lo, hi in bounds]
    pairs = 0
    for x in points[0]:
        for y in points[1]:
            ticket = ResourceTicket("t", (x, y), 1, "n", 0)
            tcell = map_ticket(grid2x2_space, ticket)
            cons_x = [Eq(x), Ge(x), Le(x), Range(bounds[0][0], x), Range(x, bounds[0][1])]
            cons_y = [Eq(y), Ge(y), Le(y), Range(bounds[1][0], y), Range(y, bounds[1][1])]
            for cx in cons_x:
                for cy in cons_y:
                    claim = ResourceClaim("c", (cx, cy), 1, "o", 0)
                    assert matches(claim, ticket)
                    assert tcell in map_claim(grid2x2_space, claim)
                    pairs += 1
    assert pairs == 81 * 25
    assert time.monotonic() - start < 30.0
    announce(4, "30,000 seeded pairs plus exhaustive 2-dim grid: rendezvous never missed")


def test_criterion_5_allocation_oracle():
    start = time.monotonic()
    report = allocation_suite(1_000, seed=515151)
    assert report.trials == 1_000
    assert report.failures == 0
    assert time.monotonic() - start < 30.0
    announce(5, "1,000 random instances: distributed allocation equals centralized FIFO")


def test_criterion_6_routing():
    start = time.monotonic()
    for n in (8, 32, 128, 256):
        stats = measure_routing(n, 10_000, seed=600 + n)
        assert stats.agreements == stats.samples == 10_000
        bound = math.ceil(math.log(n, 16)) + 2
        assert stats.mean_hops <= bound, f"n={n}: mean {stats.mean_hops} > {bound}"
    assert time.monotonic() - start < 60.0
    announce(6, "route owner always equals brute force; mean hops within log bound")


def test_criterion_7_qualitative_testbed_reproduction(sweep):
    start = time.monotonic()
    sizes = (5, 7, 9, 11, 13)
    assert sweep.sizes == sizes

    # (a) apps from the slow clouds always respond at least as fast.
    for model in ("task", "thread"):
        for size in sizes:
            g = size * size
            fast_submitters = max(sweep.response[(c, model, g)] for c in CLOUDS_12)
            slow_submitters = min(sweep.response[(c, model, g)] for c in CLOUDS_34)
            assert fast_submitters <= slow_submitters, (model, g)

    # (b, c) at full scale: the fast clouds dominate the processed share and
    # the fastest cloud processes the most jobs.
    full = sweep.runs[13].state
    share = job_share_percent(full.metrics, tuple(sorted(full.clouds)))
    combined_345 = sum(sum(share.shares[f"cloud-{i}"]) for i in (3, 4, 5))
    combined_12 = sum(sum(share.shares[f"cloud-{i}"]) for i in (1, 2))
    assert combined_345 > combined_12

    totals: dict[str, int] = {}
    for (cloud, _), count in full.metrics.completed_by_model.items():
        totals[cloud] = totals.get(cloud, 0) + count
    top = max(totals, key=lambda c: totals[c])
    assert top == "cloud-5"
    assert all(totals["cloud-5"] > v for c, v in totals.items() if c != "cloud-5")
    assert time.monotonic() - start < 60.0
    announce(7, "testbed sweep reproduces the response-time and job-share orderings")


def test_criterion_8_byte_determinism(determinism_outputs):
    first, second = determinism_outputs
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    announce(8, "two seed-42 runs emit byte-identical CSV/JSON outputs")


def test_criterion_9_exactly_once(sweep, testbed_space):
    # Across every simulation this suite ran: no claim is ever granted twice
    # and every completed unit was dispatched exactly once.
    for size, result in sweep.runs.items():
        state = result.state
        claim_ids = [d.claim_id for d in state.metrics.decisions]
        assert len(claim_ids) == len(set(claim_ids)), f"duplicate grant at size {size}"
        assert state.served == state.dispatched
        completed = {unit_id for h in state.apps.values() for unit_id in h.completions}
        assert completed == state.dispatched
        assert state.completed_total == len(completed)
        assert not state.pending

    # The coordination-level replay grants claim-1 exactly once as well.
    store = ClaimStore()
    claims = stored_claims()
    for claim in claims:
        for cell in map_claim(testbed_space, claim):
            store.post_claim(cell, claim)
    ticket = published_ticket()
    tcell = map_ticket(testbed_space, ticket)
    first = store.post_ticket(tcell, ticket)
    for cell in map_claim(testbed_space, claims[0]):  # retire claim-1
        store.discard(cell, "claim-1")
    second = store.post_ticket(tcell, published_ticket(issue_time=800))
    granted = [d.claim_id for d in first + second]
    assert granted.count("claim-1") == 1
    announce(9, "no claim served twice; every completed unit dispatched exactly once")
