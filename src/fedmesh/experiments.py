"""Experiment drivers: single runs and granularity sweeps over a scenario.

A run's response rows are built in one place, ``RunResult.responses``; a
sweep takes the swept models' rows of each of its runs, so the run and
sweep writers report one row per application alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

from .config import Scenario
from .federation import FederationState, RunReport, deploy_federation, run_to_quiescence
from .workloads import MODELS, SWEEP_SIZES, WorkloadSpec

log = logging.getLogger("fedmesh.experiments")

# (submit_cloud, model, granularity, response seconds)
ResponseRow = tuple[str, str, int, float]


@dataclass
class RunResult:
    scenario: Scenario
    state: FederationState
    report: RunReport

    @property
    def stranded(self) -> tuple[str, ...]:
        """The ids of the claims the run stranded, sorted."""
        return tuple(sorted(self.state.stranded_ids))

    def responses(self) -> list[ResponseRow]:
        """One row per completed application, sorted on (cloud, model,
        granularity); applications that tie stay in submission order."""
        times = self.state.metrics.response_times
        rows = [
            (handle.submit_cloud, handle.model, handle.unit_count, times[handle.app_id])
            for handle in self.state.apps.values()
            if handle.complete
        ]
        rows.sort(key=lambda row: row[:3])
        return rows


def run_scenario(scenario: Scenario) -> RunResult:
    """Deploy the federation, run to quiescence, and keep the final state."""
    state = deploy_federation(scenario)
    report = run_to_quiescence(state)
    log.info(
        "run finished: %d events, %d ms virtual, %d stranded",
        report.events_processed, report.virtual_time_ms, len(state.stranded_ids),
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

    @property
    def stranded(self) -> tuple[str, ...]:
        """Distinct ids of the claims stranded in any run, sorted."""
        return tuple(sorted({cid for run in self.runs.values() for cid in run.stranded}))

    def responses(self) -> list[ResponseRow]:
        """The swept models' rows of every run's ``responses()``, one per
        application, sorted as those are."""
        rows = [
            row for run in self.runs.values() for row in run.responses() if row[1] in self.models
        ]
        rows.sort(key=lambda row: row[:3])
        return rows

    @cached_property
    def response(self) -> dict[tuple[str, str, int], float]:
        """(submit_cloud, model, granularity) -> response seconds, from
        ``responses()``: when two applications share a key, the
        later-submitted one is kept."""
        return {row[:3]: row[3] for row in self.responses()}


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
    runs = {size: run_scenario(scale_workloads(scenario, models, size)) for size in sizes}
    return SweepResult(scenario=scenario, models=models, sizes=sizes, runs=runs)
