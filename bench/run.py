"""fedmesh benchmark: one workload, one seed, one measurement run.

Run from the repository root:

    python3 bench/run.py --workload hub-burst --seed 42 --seconds 14 --trace 0
    python3 bench/run.py --workload hub-burst --seed 42 --seconds 14 --trace 1
    python3 bench/run.py --workload p2p-stream --profile

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics; ``--profile`` runs the workload once under cProfile
instead of measuring. Every run is checked (see bench/README.md); the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Outputs, span files and profiles go under
``bench/out/``. The exit code is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import gzip
import json
import pstats
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_PER_RUN = 5
# Per-layer figures that may differ between two traced runs of one seed;
# every other one is a count or a ratio of counts and must repeat exactly.
VARYING_UNITS = {"s", "us", "1/s"}
VARYING_NAMES = {"trace.overhead_ratio"}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", action="store_true",
        help="run the workload once under cProfile and print the top functions",
    )
    return parser.parse_args(argv)


def _load_program() -> None:
    """Import fedmesh from this checkout's sources, never from elsewhere."""
    package = SRC / "fedmesh"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: fedmesh sources not found under {SRC}")
    if not CONFIG.is_file():
        raise SystemExit(f"error: {CONFIG.name} not found in {ROOT}")
    sys.path.insert(0, str(SRC))
    import fedmesh

    if Path(fedmesh.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported fedmesh from {fedmesh.__file__}, not {package}")


class Session:
    """Runs of one workload: counts attempts and failures, checks digests."""

    def __init__(self, workload, expected: dict[str, str] | None, out_dir: Path) -> None:
        self.workload = workload
        self.reference = expected
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0

    def attempt(self, execute=None, sample: bool = True):
        """One full run; returns (outcome, timing), or (None, None) when it
        raised or failed a check. ``timing`` is hostspeed.timed()'s dict, or
        None when ``sample`` is off (profiled and heap runs)."""
        execute = execute or self.workload.run
        self.attempted += 1
        gc.collect()
        timing = None
        try:
            if sample:
                with hostspeed.timed() as timing:
                    outcome = execute(self.out_dir)
            else:
                outcome = execute(self.out_dir)
        except Exception:  # a crashing run is a failed run, not a crashed benchmark
            self.fail(traceback.format_exc())
            return None, None
        problems = list(outcome.failures)
        if self.reference is None:
            self.reference = outcome.digests
        elif outcome.digests != self.reference:
            problems.append(f"output digests {outcome.digests} != expected {self.reference}")
        if problems:
            self.fail(*problems)
            return None, None
        return outcome, timing

    def timed_runs(self, seconds: float, minimum: int, execute=None, between=None):
        """Repeat runs until ``seconds`` have passed and ``minimum`` passed
        their checks; ``between()`` runs after each run, outside its time."""
        results = []
        deadline = time.perf_counter() + seconds
        while len(results) < minimum or time.perf_counter() < deadline:
            outcome, timing = self.attempt(execute)
            if outcome is not None:
                results.append((outcome, timing))
                print(
                    f"run {len(results)}: {timing['seconds']:.4f} s at reference speed "
                    f"({timing['raw_s']:.4f} s measured, speed factor {timing['factor']:.3f})"
                )
            elif self.failed > 3 * minimum:
                break
            if between is not None:
                between()
        return results

    def fail(self, *problems: str) -> None:
        self.failed += 1
        for problem in problems:
            print(f"[{self.workload.name}] run failed: {problem}", file=sys.stderr)


def _peak_heap_mb(session: Session) -> float:
    peak = [0]

    def execute(out_dir):
        tracemalloc.start()
        try:
            return session.workload.run(out_dir)
        finally:
            peak[0] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    session.attempt(execute, sample=False)
    return peak[0] / 1e6


def _throughput(results) -> dict[str, float]:
    """Figures of untraced runs: medians over the runs, in reference-speed
    seconds (see hostspeed.py)."""
    import harness

    wall = statistics.median(t["seconds"] for _, t in results)
    outcome = results[0][0]
    is_oracle = outcome.events == 0
    return {
        "wall_s": wall,
        "units_per_s": outcome.units / wall,
        "events_per_s": 0.0 if is_oracle else statistics.median(
            o.events / (o.run_s * t["factor"]) for o, t in results
        ),
        "trials_per_s": outcome.units / wall if is_oracle else 0.0,
        **harness.simulated_metrics(outcome),
    }


def _check_repeats(session: Session, results, label: str) -> None:
    """Units and simulated figures must repeat exactly across runs."""
    import harness

    first = results[0][0]
    expected = (first.units, harness.simulated_metrics(first))
    for outcome, _ in results[1:]:
        if (outcome.units, harness.simulated_metrics(outcome)) != expected:
            session.fail(f"{label} runs disagree on units or simulated metrics")


def measure_end_to_end(session: Session, seconds: float) -> dict[str, float]:
    setup_times: list[float] = []

    def set_up():
        # Interleaved with the runs so that set-up samples the whole run.
        for _ in range(SETUP_PER_RUN):
            gc.collect()
            with hostspeed.timed() as timing:
                session.workload.setup()
            setup_times.append(timing["seconds"])

    # The untimed heap pass doubles as the warm-up run.
    peak_heap_mb = _peak_heap_mb(session)
    results = session.timed_runs(seconds, MIN_TIMED_RUNS, between=set_up)
    if not results:
        return {}
    _check_repeats(session, results, "timed")
    metrics = _throughput(results)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_heap_mb"] = peak_heap_mb
    return metrics


def measure_per_layer(
    session: Session, seconds: float, seed: int, specs: list[dict]
) -> dict[str, float]:
    import tracing

    session.attempt()  # warm-up
    plain = session.timed_runs(seconds / 2, MIN_TRACED_RUNS)
    tracers: list[tracing.Tracer] = []

    def traced(out_dir):
        tracer = tracing.Tracer()
        tracers.append(tracer)
        with tracing.instrument(tracer), tracing.traced_run(tracer, len(tracers)):
            return session.workload.run(out_dir)

    traced_results = session.timed_runs(seconds / 2, MIN_TRACED_RUNS, traced)
    if not plain or not traced_results:
        return {}
    _check_repeats(session, plain + traced_results, "traced and untraced")
    per_run = [tracing.layer_metrics(t) for t in tracers]
    varying = VARYING_NAMES | {s["name"] for s in specs if s["unit"] in VARYING_UNITS}
    metrics = _throughput(plain)
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if name in varying:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                session.fail(f"{name} differs between traced runs: {values}")
    traced_wall = statistics.median(t["seconds"] for _, t in traced_results)
    metrics["trace.overhead_ratio"] = traced_wall / metrics["wall_s"] - 1
    metrics["failed_ratio"] = session.failed / session.attempted
    _write_spans(tracers, session.workload.name, seed)
    print("span self-time shares (first traced run):")
    for name, share in tracing.span_shares(tracers[0])[:12]:
        print(f"  {share:7.2%}  {name}")
    return metrics


def _write_spans(tracers, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("run\tspan\tparent\tname\tstart_us\tend_us\n")
        for tracer in tracers:
            origin = tracer.start[0] if len(tracer.start) else 0.0
            for run, span, parent, name, start, end in tracer.spans():
                out.write(
                    f"{run}\t{span}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}\n"
                )
    print(f"spans written to {path.relative_to(ROOT)}")


def profile(session: Session) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"profile-{session.workload.name}.pstats"
    profiler = cProfile.Profile()

    def execute(out_dir):
        profiler.enable()
        try:
            return session.workload.run(out_dir)
        finally:
            profiler.disable()

    session.attempt(sample=False)  # warm-up, unprofiled
    session.attempt(execute, sample=False)
    profiler.dump_stats(path)
    pstats.Stats(str(path)).sort_stats("cumulative").print_stats(25)
    print(f"profile written to {path.relative_to(ROOT)}")
    return 0 if session.failed == 0 else 1


def _select(metrics: dict[str, float], wanted: list[dict]) -> dict[str, dict]:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _load_program()
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    workload = harness.make_workload(args.workload, args.seed)
    session = Session(
        workload,
        harness.expected_digests(args.workload, args.seed),
        OUT_DIR / args.workload,
    )
    if args.profile:
        return profile(session)

    try:
        if args.trace:
            wanted = config["per_layer"]
            metrics = measure_per_layer(session, args.seconds, args.seed, wanted)
        else:
            wanted = config["end_to_end"]
            metrics = measure_end_to_end(session, args.seconds)
        selected = _select(metrics, wanted) if metrics else {}
    except Exception:
        traceback.print_exc()
        session.failed += 1
        session.attempted = max(session.attempted, session.failed)
        selected = {}

    for name, entry in selected.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    correct = session.failed == 0 and bool(selected)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": selected,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
