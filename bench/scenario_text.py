"""Render synthetic federations as fedmesh scenario text.

The benchmark hands the simulator only scenario text, exactly as a user
would, so parsing stays inside every measured run. The text uses the four
dimensions the scheduling services need and the testbed's speed ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

SPEED_LADDER = (2.4, 2.4, 3.0, 3.0, 3.5)
MODELS = ("task", "thread")
STATUS_INTERVAL_MS = (5000, 40000)
UNIT_DEMAND = "uniform, 3.0, 6.0"

_HEADER = """\
schema_version = 1
seed = {seed}
eager_tickets = true
inbox_capacity = {inbox_capacity}

[space]
f_min = {f_min}
f_max = {f_min}

[dimension service_type]
kind = categorical
labels = P2PTaskExecution, P2PThreadExecution

[dimension processors]
kind = numeric
bounds = 1, 8

[dimension cpu_type]
kind = categorical
labels = Intel, AMD

[dimension speed_ghz]
kind = numeric
bounds = 0, 4

[latency]
intra_cloud_ms = 1
inter_cloud_ms = 5
"""


@dataclass(frozen=True)
class FederationSpec:
    """Shape of one synthetic federation and its application stream.

    Applications are numbered k = 0, 1, ...; application k is submitted at
    ``k * arrival_gap_ms`` from cloud ``k % clouds``. With ``apps=None``
    every cloud submits one task and one thread application (a closed
    batch); otherwise ``apps`` applications are submitted in an open loop
    and each cloud alternates between the two models.
    """

    clouds: int
    nodes: int
    side: int
    topology: str
    f_min: int
    arrival_gap_ms: int
    inbox_capacity: int
    apps: int | None = None

    def app_plan(self) -> list[tuple[str, str]]:
        """(cloud id, model) of every application, in submission order."""
        if self.apps is None:
            return [
                (_cloud_id(c), model) for c in range(self.clouds) for model in MODELS
            ]
        return [
            (_cloud_id(k % self.clouds), MODELS[(k // self.clouds) % 2])
            for k in range(self.apps)
        ]


def _cloud_id(index: int) -> str:
    return f"cloud-{index + 1:02d}"


def render(spec: FederationSpec, seed: int) -> str:
    """Scenario text for ``spec``; ``seed`` becomes the scenario's seed."""
    parts = [
        _HEADER.format(seed=seed, inbox_capacity=spec.inbox_capacity, f_min=spec.f_min)
    ]
    lo, hi = STATUS_INTERVAL_MS
    for c in range(spec.clouds):
        parts.append(
            f"[cloud {_cloud_id(c)}]\n"
            f"nodes = {spec.nodes}\n"
            f"speed_ghz = {SPEED_LADDER[c % len(SPEED_LADDER)]}\n"
            "cpu_type = Intel\n"
            "service_types = P2PTaskExecution, P2PThreadExecution\n"
            f"status_update_interval_ms = {lo}, {hi}\n"
            f"topology = {spec.topology}\n"
        )
    for k, (cloud, model) in enumerate(spec.app_plan()):
        parts.append(
            f"[workload app-{k:04d}-{cloud}-{model}]\n"
            f"model = {model}\n"
            f"rows = {spec.side}\n"
            f"cols = {spec.side}\n"
            f"unit_demand = {UNIT_DEMAND}\n"
            f"submit_cloud = {cloud}\n"
            f"submit_time_ms = {k * spec.arrival_gap_ms}\n"
        )
    return "\n".join(parts)


def with_seed(text: str, seed: int) -> str:
    """Replace the top-level ``seed = N`` line of existing scenario text."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, sep, _ = line.partition("=")
        if sep and key.strip() == "seed":
            lines[i] = f"seed = {seed}\n"
            return "".join(lines)
    raise ValueError("scenario text has no top-level seed key")
