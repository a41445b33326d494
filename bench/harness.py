"""The benchmark's four workloads and the correctness gate on every run.

Each workload turns a seed into inputs once, then offers ``setup()`` (the
part timed as ``setup_s``) and ``run(out_dir)`` (one full run, timed as
``wall_s``). A run calls fedmesh only through module attributes such as
``fedmesh.experiments.run_scenario``, so the tracer's replacements apply.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import fedmesh.experiments
import fedmesh.federation
import fedmesh.oracles
import fedmesh.overlay
import fedmesh.reporting
import fedmesh.scenario
import fedmesh.workloads

from scenario_text import FederationSpec, render, with_seed
from tracing import stopwatch

DEFAULT_SEED = 42
DIGESTS_FILE = Path(__file__).resolve().parent / "expected_digests.json"

SWEEP_MODELS = ("task", "thread")

# 1000 is the engine's default capacity, stated so that a change of default
# cannot change the workload. With 10 ms between submissions the deepest
# inbox holds 169 events; submitting all 40 applications at t=0 overflows it.
INBOX_CAPACITY = 1000

HUB_BURST = FederationSpec(
    clouds=20, nodes=10, side=13, topology="hub", f_min=3,
    arrival_gap_ms=10, inbox_capacity=INBOX_CAPACITY,
)
P2P_STREAM = FederationSpec(
    clouds=10, nodes=20, side=5, topology="full_p2p", f_min=8,
    arrival_gap_ms=1000, inbox_capacity=INBOX_CAPACITY, apps=400,
)

RENDEZVOUS_DIMS = (2, 3, 4, 5)
RENDEZVOUS_TRIALS = 250  # per dimension count
ALLOCATION_INSTANCES = 200
ROUTING = ((256, 1000), (1024, 1000))  # (peers, keys)

FAST_CLOUDS = ("cloud-1", "cloud-2")
SLOW_CLOUDS = ("cloud-3", "cloud-4")


@dataclass
class RunOutcome:
    """What one run produced, and every check it failed."""

    digests: dict[str, str] = field(default_factory=dict)
    units: int = 0
    events: int = 0
    run_s: float = 0.0
    responses: list[float] = field(default_factory=list)
    tickets_published: int = 0
    stale_tickets: int = 0
    failures: list[str] = field(default_factory=list)


def _digests(paths) -> dict[str, str]:
    return {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in sorted(paths, key=lambda p: Path(p).name)
    }


def exactly_once_failures(result) -> list[str]:
    """Checks made from outside on one finished simulation."""
    state = result.state
    failures = []
    claim_ids = [d.claim_id for d in state.metrics.decisions]
    if len(claim_ids) != len(set(claim_ids)):
        failures.append("duplicate decision claim ids")
    if state.served != state.dispatched:
        failures.append("served != dispatched")
    completed = {unit for handle in state.apps.values() for unit in handle.completions}
    if completed != state.dispatched:
        failures.append("completed units != dispatched units")
    if state.completed_total != state.submitted_total:
        failures.append(
            f"completed {state.completed_total} != submitted {state.submitted_total}"
        )
    if result.stranded or state.stranded_ids:
        failures.append(f"{len(result.stranded)} stranded claims")
    return failures


def ordering_failures(sweep) -> list[str]:
    """Acceptance criterion 7's qualitative orderings on a testbed sweep."""
    failures = []
    for model in SWEEP_MODELS:
        for size in sweep.sizes:
            g = size * size
            fast = max(sweep.response[(c, model, g)] for c in FAST_CLOUDS)
            slow = min(sweep.response[(c, model, g)] for c in SLOW_CLOUDS)
            if fast > slow:
                failures.append(f"criterion 7a broken for {model} at {g} units")
    full = sweep.runs[max(sweep.sizes)].state
    share = fedmesh.workloads.job_share_percent(full.metrics, tuple(sorted(full.clouds)))
    fast_share = sum(sum(share.shares[f"cloud-{i}"]) for i in (3, 4, 5))
    slow_share = sum(sum(share.shares[f"cloud-{i}"]) for i in (1, 2))
    if not fast_share > slow_share:
        failures.append("criterion 7b broken: clouds 3-5 do not dominate the job share")
    totals: dict[str, int] = {}
    for (cloud, _), count in full.metrics.completed_by_model.items():
        totals[cloud] = totals.get(cloud, 0) + count
    if not all(totals["cloud-5"] > v for c, v in totals.items() if c != "cloud-5"):
        failures.append("criterion 7c broken: cloud-5 does not process the most jobs")
    return failures


class SimulationWorkload:
    """Scenario text in, simulation outputs written out."""

    def __init__(self, name: str, text: str, sweep: bool) -> None:
        self.name = name
        self.text = text
        self.sweep = sweep

    def setup(self) -> None:
        scenario = fedmesh.scenario.parse_scenario(self.text)
        if self.sweep:
            for size in fedmesh.workloads.SWEEP_SIZES:
                scaled = fedmesh.experiments.scale_workloads(scenario, SWEEP_MODELS, size)
                fedmesh.federation.deploy_federation(scaled)
        else:
            fedmesh.federation.deploy_federation(scenario)

    def run(self, out_dir: Path) -> RunOutcome:
        outcome = RunOutcome()
        with stopwatch("fedmesh.experiments", "run_to_quiescence") as run_s:
            scenario = fedmesh.scenario.parse_scenario(self.text)
            if self.sweep:
                sweep = fedmesh.experiments.run_sweep(scenario, models=SWEEP_MODELS)
                results = [sweep.runs[size] for size in sweep.sizes]
                paths = fedmesh.reporting.write_sweep_outputs(sweep, out_dir)
                outcome.failures += ordering_failures(sweep)
            else:
                result = fedmesh.experiments.run_scenario(scenario)
                results = [result]
                paths = fedmesh.reporting.write_run_outputs(result, out_dir)
        outcome.run_s = run_s[0]
        outcome.digests = _digests(paths)
        for result in results:
            sink = result.state.metrics
            outcome.failures += exactly_once_failures(result)
            outcome.units += result.state.completed_total
            outcome.events += result.report.events_processed
            outcome.responses += sink.response_times.values()
            outcome.tickets_published += sink.tickets_published
            outcome.stale_tickets += sink.stale_tickets
        return outcome


class OracleWorkload:
    """The brute-force suites and overlay routing; no engine, no federation."""

    name = "oracle-suite"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _peer_names(self, n: int, index: int) -> list[str]:
        seed = self.seed + 2 + index
        return [f"peer-{seed}-{i}" for i in range(n)]

    def setup(self) -> None:
        """Build the overlay memberships that ``measure_routing`` routes over."""
        for index, (n, _) in enumerate(ROUTING):
            membership = fedmesh.overlay.OverlayMembership()
            for name in self._peer_names(n, index):
                membership.join(name)
            membership.members()

    def run(self, out_dir: Path) -> RunOutcome:
        oracles = fedmesh.oracles
        outcome = RunOutcome()
        # Routing first: its n=1024 membership sets the heap peak, which then
        # does not depend on how much suite garbage the seed leaves behind.
        routing = [
            (n, oracles.measure_routing(n, keys, self.seed + 2 + index))
            for index, (n, keys) in enumerate(ROUTING)
        ]
        rendezvous = oracles.rendezvous_suite(RENDEZVOUS_TRIALS, RENDEZVOUS_DIMS, self.seed)
        allocation = oracles.allocation_suite(ALLOCATION_INSTANCES, self.seed + 1)
        report = {
            "seed": self.seed,
            "suites": [
                {"name": r.name, "trials": r.trials, "failures": r.failures}
                for r in (rendezvous, allocation)
            ],
            "routing": [
                {
                    "peers": n, "samples": s.samples, "agreements": s.agreements,
                    "mean_hops": s.mean_hops, "max_hops": s.max_hops,
                }
                for n, s in routing
            ],
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "oracle_report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        outcome.digests = _digests([path])
        for suite in (rendezvous, allocation):
            if suite.failures:
                outcome.failures.append(f"{suite.name} suite: {suite.failures} failures")
        for n, stats in routing:
            if stats.agreements != stats.samples:
                outcome.failures.append(
                    f"routing at n={n}: {stats.samples - stats.agreements} disagreements"
                )
        outcome.units = rendezvous.trials + allocation.trials + sum(s.samples for _, s in routing)
        return outcome


WORKLOADS = ("testbed-sweep", "hub-burst", "p2p-stream", "oracle-suite")


def make_workload(name: str, seed: int):
    """The named workload with its inputs generated from ``seed``."""
    if name == "testbed-sweep":
        text = fedmesh.scenario.builtin_scenario_path().read_text(encoding="utf-8")
        return SimulationWorkload(name, with_seed(text, seed), sweep=True)
    if name == "hub-burst":
        return SimulationWorkload(name, render(HUB_BURST, seed), sweep=False)
    if name == "p2p-stream":
        return SimulationWorkload(name, render(P2P_STREAM, seed), sweep=False)
    if name == "oracle-suite":
        return OracleWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


def expected_digests(name: str, seed: int) -> dict[str, str] | None:
    """Output digests recorded at the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return recorded[name]


def response_tail(responses: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still has
    at least ten responses beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(responses)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def simulated_metrics(outcome: RunOutcome) -> dict[str, float]:
    """Deterministic figures of the simulated federation (0 when none ran)."""
    tail, pct, count = response_tail(outcome.responses)
    published = outcome.tickets_published
    return {
        "sim_response_p50_s": statistics.median(outcome.responses) if outcome.responses else 0.0,
        "sim_response_tail_s": tail,
        "sim_response_tail_pct": pct,
        "sim_response_count": count,
        "stale_ticket_ratio": outcome.stale_tickets / published if published else 0.0,
    }
