"""Experiment drivers: single runs and granularity sweeps over a scenario."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .config import Scenario
from .federation import FederationState, RunReport, deploy_federation, run_to_quiescence
from .workloads import MODELS, SWEEP_SIZES, WorkloadSpec

log = logging.getLogger("fedmesh.experiments")


@dataclass
class RunResult:
    scenario: Scenario
    state: FederationState
    report: RunReport

    @property
    def stranded(self) -> tuple[str, ...]:
        return self.report.stranded_claim_ids


def run_scenario(scenario: Scenario) -> RunResult:
    """Deploy the federation, run to quiescence, and keep the final state."""
    state = deploy_federation(scenario)
    report = run_to_quiescence(state)
    log.info(
        "run finished: %d events, %d ms virtual, %d stranded",
        report.events_processed, report.virtual_time_ms, len(report.stranded_claim_ids),
    )
    return RunResult(scenario=scenario, state=state, report=report)


def scale_workloads(scenario: Scenario, models: tuple[str, ...], size: int) -> Scenario:
    """Resize the selected models' workloads to a size x size partition."""
    scaled = tuple(
        WorkloadSpec(**{**spec._asdict(), "rows": size, "cols": size})
        if spec.model in models else spec
        for spec in scenario.workloads
    )
    return replace(scenario, workloads=scaled)


@dataclass
class SweepResult:
    scenario: Scenario
    models: tuple[str, ...]
    sizes: tuple[int, ...]
    runs: dict[int, RunResult]
    # (submit_cloud, model, granularity) -> response seconds
    response: dict[tuple[str, str, int], float]

    @property
    def stranded(self) -> tuple[str, ...]:
        """Distinct ids of the claims stranded in any run, sorted."""
        return tuple(sorted({cid for run in self.runs.values() for cid in run.stranded}))


def run_sweep(
    scenario: Scenario,
    models: tuple[str, ...] = MODELS,
    sizes: tuple[int, ...] = SWEEP_SIZES,
) -> SweepResult:
    """One independent simulation per observation point.

    Each point resizes every workload of the swept models to size x size and
    replays the whole scenario with the same seed, so points are directly
    comparable.
    """
    runs: dict[int, RunResult] = {}
    response: dict[tuple[str, str, int], float] = {}
    for size in sizes:
        result = run_scenario(scale_workloads(scenario, models, size))
        runs[size] = result
        for handle in result.state.apps.values():
            if handle.model in models and handle.complete:
                key = (handle.submit_cloud, handle.model, handle.unit_count)
                response[key] = result.state.metrics.response_times[handle.app_id]
    return SweepResult(
        scenario=scenario, models=models, sizes=sizes, runs=runs, response=response
    )
