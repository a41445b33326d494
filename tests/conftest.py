from __future__ import annotations

import pytest

from fedmesh import builtin_scenario_path, load_scenario
from fedmesh.spatial import (
    AttributeSpace,
    DimensionSpec,
    Eq,
    Ge,
    ResourceClaim,
    ResourceTicket,
    build_base_cells,
)

TASK_LABEL = "P2PTaskExecution"
THREAD_LABEL = "P2PThreadExecution"


def service_dim(labels=(TASK_LABEL, THREAD_LABEL)) -> DimensionSpec:
    return DimensionSpec(name="service_type", kind="categorical", labels=tuple(labels))


@pytest.fixture(scope="session")
def testbed_space() -> AttributeSpace:
    """The 4-dimensional space the 5-cloud testbed runs on (f_min = 3)."""
    return AttributeSpace(
        dims=(
            service_dim(),
            DimensionSpec(name="processors", kind="numeric", bounds=(1.0, 8.0)),
            DimensionSpec(name="cpu_type", kind="categorical", labels=("Intel", "AMD")),
            DimensionSpec(name="speed_ghz", kind="numeric", bounds=(0.0, 4.0)),
        ),
        f_min=3,
    )


@pytest.fixture(scope="session")
def testbed_cells(testbed_space):
    return build_base_cells(testbed_space)


@pytest.fixture(scope="session")
def grid2x2_space() -> AttributeSpace:
    """A 2-dimensional space divided twice per axis (4 cells)."""
    return AttributeSpace(
        dims=(
            DimensionSpec(name="x", kind="numeric", bounds=(0.0, 4.0)),
            DimensionSpec(name="y", kind="numeric", bounds=(0.0, 1.0)),
        ),
        f_min=2,
    )


@pytest.fixture(scope="session")
def melbourne_scenario():
    return load_scenario(builtin_scenario_path("melbourne-5"))


def stored_claims(times=(300, 400, 500)) -> list[ResourceClaim]:
    """The three claims waiting with a coordination service at time 700:
    two thread requests and one task request, all single-processor Intel."""
    c1 = ResourceClaim(
        claim_id="claim-1",
        constraints=(Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(2.0)),
        requested_units=1,
        origin="cloud-1",
        arrival_time=times[0],
    )
    c2 = ResourceClaim(
        claim_id="claim-2",
        constraints=(Eq(TASK_LABEL), Eq(1), Eq("Intel"), Ge(2.0)),
        requested_units=1,
        origin="cloud-3",
        arrival_time=times[1],
    )
    c3 = ResourceClaim(
        claim_id="claim-3",
        constraints=(Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(2.4)),
        requested_units=1,
        origin="cloud-4",
        arrival_time=times[2],
    )
    return [c1, c2, c3]


def published_ticket(issue_time=700) -> ResourceTicket:
    """Cloud 2's status ticket: an idle 2.7 GHz Intel thread-execution node."""
    return ResourceTicket(
        ticket_id="ticket-cloud2",
        point=(THREAD_LABEL, 1, "Intel", 2.7),
        available_units=1,
        origin="cloud-2/n0",
        issue_time=issue_time,
    )
