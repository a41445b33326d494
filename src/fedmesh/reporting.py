"""Result tables and byte-deterministic CSV/JSON emission.

All rows are sorted and floats fixed to three decimals, so identical
(scenario, seed) pairs always produce identical bytes. Response rows, one
per application, come from ``RunResult.responses`` for a run and
``SweepResult.responses`` for a sweep, which takes them from its runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import SCHEMA_VERSION
from .experiments import ResponseRow, RunResult, SweepResult
from .workloads import MODELS, SERVICE_LABELS, JobShare, MetricsSink, job_share_percent

RESPONSE_HEADER = "cloud_id,model,granularity,response_time_s"
JOBS_HEADER = "cloud_id,service_type,jobs_completed"
SHARE_HEADER = "cloud_id,task_pct,thread_pct"

RESPONSE_CSV = "response_times.csv"
JOBS_CSV = "jobs_by_cloud.csv"
SHARE_CSV = "job_share.csv"
SUMMARY_JSON = "summary.json"

_MODEL_OF_LABEL = {label: model for model, label in SERVICE_LABELS.items()}


def _f3(x: float) -> str:
    return f"{x:.3f}"


_Row = tuple[str, str, int, float, str]
_ROW_KEYS = ("metric", "scope", "granularity", "value", "unit")


def _summary_json(meta: dict, rows: list[_Row]) -> str:
    """summary.json: ``meta`` plus the rows in (metric, scope, granularity)
    order, values rounded to six decimals."""
    ordered = [(m, s, g, round(v, 6), u) for m, s, g, v, u in sorted(rows, key=lambda r: r[:3])]
    payload = dict(meta, rows=[dict(zip(_ROW_KEYS, row)) for row in ordered])
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _jobs_rows(result: RunResult) -> list[tuple[str, str, int]]:
    done = result.state.metrics.completed_by_model
    return sorted(
        (cloud.cloud_id, label, done.get((cloud.cloud_id, _MODEL_OF_LABEL.get(label)), 0))
        for cloud in result.scenario.clouds
        for label in cloud.service_types
    )


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _write_outputs(
    out_dir: str | Path,
    fmt: str,
    rows: list[_Row],
    meta: dict,
    responses: list[ResponseRow],
    jobs: list[tuple[str, str, int]],
    share: JobShare,
) -> list[Path]:
    """Add the response, jobs and share rows to ``rows`` and write
    summary.json with ``meta``; csv also writes the three CSVs from the
    same rows."""
    for cloud, model, granularity, rt in responses:
        rows.append(("response_time_s", f"{cloud}/{model}", granularity, rt, "s"))
    for cloud, label, count in jobs:
        rows.append(("jobs_completed", f"{cloud}/{label}", 0, float(count), "jobs"))
    shares = share.shares.items()
    for cloud, (task_pct, thread_pct) in shares:
        rows.append(("job_share_pct", f"{cloud}/task", 0, task_pct, "%"))
        rows.append(("job_share_pct", f"{cloud}/thread", 0, thread_pct, "%"))
    out = Path(out_dir)
    written = [_write(out / SUMMARY_JSON, _summary_json(meta, rows))]
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
    submitted = dict.fromkeys(MODELS, 0)
    for handle in result.state.apps.values():
        submitted[handle.model] += handle.unit_count
    rows: list[_Row] = [
        ("events_processed", "engine", 0, float(result.report.events_processed), "events"),
        ("virtual_time_ms", "engine", 0, float(result.report.virtual_time_ms), "ms"),
        ("stranded_claims", "engine", 0, float(len(result.stranded)), "claims"),
        ("tickets_published", "engine", 0, float(sink.tickets_published), "tickets"),
        ("stale_tickets_dropped", "engine", 0, float(sink.stale_tickets), "tickets"),
        *(("units_submitted", m, 0, float(n), "units") for m, n in submitted.items()),
        *(("units_completed", m, 0, float(n), "units") for m, n in sink.completed_per_model().items()),
    ]
    cloud_ids = tuple(sorted(c.cloud_id for c in result.scenario.clouds))
    share = job_share_percent(sink, cloud_ids)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "seed": result.scenario.seed,
        "zero_job_models": list(share.zero_models),
        "stranded_claims": list(result.stranded),
    }
    return _write_outputs(out_dir, fmt, rows, meta, result.responses(), _jobs_rows(result), share)


def write_sweep_outputs(sweep: SweepResult, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Emit one response-time row per application of the swept models in
    each run; the jobs and share tables aggregate across the sweep's runs."""
    rows: list[_Row] = []
    merged = MetricsSink()
    for size in sweep.sizes:
        result = sweep.runs[size]
        for key, count in result.state.metrics.completed_by_model.items():
            merged.completed_by_model[key] = merged.completed_by_model.get(key, 0) + count
        events = float(result.report.events_processed)
        rows.append(("events_processed", "engine", size * size, events, "events"))
    cloud_ids = tuple(sorted(c.cloud_id for c in sweep.scenario.clouds))
    share = job_share_percent(merged, cloud_ids)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "seed": sweep.scenario.seed,
        "models": list(sweep.models),
        "sizes": list(sweep.sizes),
        "zero_job_models": list(share.zero_models),
        "stranded_claims": list(sweep.stranded),
    }
    job_rows = sorted((c, SERVICE_LABELS[m], n) for (c, m), n in merged.completed_by_model.items())
    return _write_outputs(out_dir, fmt, rows, meta, sweep.responses(), job_rows, share)
