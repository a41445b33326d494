"""Result tables and byte-deterministic CSV/JSON emission.

All rows are sorted and floats fixed to three decimals, so identical
(scenario, seed) pairs always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .experiments import RunResult, SweepResult
from .workloads import MODELS, JobShare, MetricsSink, job_share_percent

RESPONSE_HEADER = "cloud_id,model,granularity,response_time_s"
JOBS_HEADER = "cloud_id,service_type,jobs_completed"
SHARE_HEADER = "cloud_id,task_pct,thread_pct"

RESPONSE_CSV = "response_times.csv"
JOBS_CSV = "jobs_by_cloud.csv"
SHARE_CSV = "job_share.csv"
SUMMARY_JSON = "summary.json"


def _f3(x: float) -> str:
    return f"{x:.3f}"


@dataclass(frozen=True)
class ResultRow:
    metric: str
    scope: str
    granularity: int
    value: float
    unit: str


class ResultTable:
    """Deterministically ordered (metric, scope, granularity) rows."""

    def __init__(self) -> None:
        self._rows: list[ResultRow] = []

    def add(self, metric: str, scope: str, granularity: int, value: float, unit: str) -> None:
        self._rows.append(ResultRow(metric, scope, granularity, round(value, 6), unit))

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self._rows, key=lambda r: (r.metric, r.scope, r.granularity))

    def to_json(self, meta: dict) -> str:
        payload = dict(meta)
        payload["rows"] = [
            {
                "metric": r.metric,
                "scope": r.scope,
                "granularity": r.granularity,
                "value": r.value,
                "unit": r.unit,
            }
            for r in self.sorted_rows()
        ]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _response_rows(result: RunResult) -> list[tuple[str, str, int, float]]:
    rows = []
    for handle in result.state.apps.values():
        if handle.complete:
            rt = result.state.metrics.response_times[handle.app_id]
            rows.append((handle.submit_cloud, handle.model, handle.granularity, rt))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _jobs_rows(result: RunResult) -> list[tuple[str, str, int]]:
    sink = result.state.metrics
    rows = []
    for cloud in result.scenario.clouds:
        for label in sorted(cloud.service_types):
            rows.append((cloud.cloud_id, label, sink.completed_jobs.get((cloud.cloud_id, label), 0)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _write_outputs(
    out_dir: str | Path,
    fmt: str,
    table: ResultTable,
    meta: dict,
    responses: list[tuple[str, str, int, float]],
    jobs: list[tuple[str, str, int]],
    share: JobShare,
) -> list[Path]:
    """Add the response, jobs and share rows to ``table`` and write
    summary.json with ``meta``; csv also writes the three CSVs from the
    same rows."""
    for cloud, model, granularity, rt in responses:
        table.add("response_time_s", f"{cloud}/{model}", granularity, rt, "s")
    for cloud, label, count in jobs:
        table.add("jobs_completed", f"{cloud}/{label}", 0, float(count), "jobs")
    shares = share.shares.items()
    for cloud, (task_pct, thread_pct) in shares:
        table.add("job_share_pct", f"{cloud}/task", 0, task_pct, "%")
        table.add("job_share_pct", f"{cloud}/thread", 0, thread_pct, "%")
    out = Path(out_dir)
    written = [_write(out / SUMMARY_JSON, table.to_json(meta))]
    if fmt == "csv":
        csvs = (
            (RESPONSE_CSV, RESPONSE_HEADER, [f"{c},{m},{g},{_f3(r)}" for c, m, g, r in responses]),
            (JOBS_CSV, JOBS_HEADER, [f"{c},{s},{n}" for c, s, n in jobs]),
            (SHARE_CSV, SHARE_HEADER, [f"{c},{_f3(t)},{_f3(th)}" for c, (t, th) in shares]),
        )
        for name, header, lines in csvs:
            written.append(_write(out / name, "\n".join([header, *lines]) + "\n"))
    return written


def write_run_outputs(result: RunResult, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Emit the run's metric files; csv writes all four, json just the summary."""
    sink = result.state.metrics
    table = ResultTable()
    table.add("events_processed", "engine", 0, float(result.report.events_processed), "events")
    table.add("virtual_time_ms", "engine", 0, float(result.report.virtual_time_ms), "ms")
    table.add("stranded_claims", "engine", 0, float(len(result.stranded)), "claims")
    for model in MODELS:
        table.add("units_submitted", model, 0, float(sink.submitted_units.get(model, 0)), "units")
        table.add("units_completed", model, 0, float(sink.completed_units.get(model, 0)), "units")
    table.add("tickets_published", "engine", 0, float(sink.tickets_published), "tickets")
    table.add("stale_tickets_dropped", "engine", 0, float(sink.stale_tickets), "tickets")
    cloud_ids = tuple(sorted(c.cloud_id for c in result.scenario.clouds))
    share = job_share_percent(sink, cloud_ids)
    meta = {
        "schema_version": result.scenario.schema_version,
        "seed": result.scenario.seed,
        "zero_job_models": list(share.zero_models),
        "stranded_claims": list(result.stranded),
    }
    return _write_outputs(
        out_dir, fmt, table, meta, _response_rows(result), _jobs_rows(result), share
    )


def write_sweep_outputs(sweep: SweepResult, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Emit one response-time row per (cloud, model, granularity); the jobs
    and share tables aggregate across the sweep's runs."""
    table = ResultTable()
    merged = MetricsSink()
    stranded: list[str] = []
    for size in sweep.sizes:
        result = sweep.runs[size]
        for key, count in result.state.metrics.completed_jobs.items():
            merged.completed_jobs[key] = merged.completed_jobs.get(key, 0) + count
        for key, count in result.state.metrics.completed_by_model.items():
            merged.completed_by_model[key] = merged.completed_by_model.get(key, 0) + count
        stranded.extend(result.stranded)
        table.add(
            "events_processed", "engine", size * size,
            float(result.report.events_processed), "events",
        )
    cloud_ids = tuple(sorted(c.cloud_id for c in sweep.scenario.clouds))
    share = job_share_percent(merged, cloud_ids)
    meta = {
        "schema_version": sweep.scenario.schema_version,
        "seed": sweep.scenario.seed,
        "models": list(sweep.models),
        "sizes": list(sweep.sizes),
        "zero_job_models": list(share.zero_models),
        "stranded_claims": sorted(set(stranded)),
    }
    responses = [(c, m, g, rt) for (c, m, g), rt in sorted(sweep.response.items())]
    job_rows = [(c, s, n) for (c, s), n in sorted(merged.completed_jobs.items())]
    return _write_outputs(out_dir, fmt, table, meta, responses, job_rows, share)
