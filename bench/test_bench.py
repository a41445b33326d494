"""Tests of the benchmark's own machinery (run: python3 -m pytest bench)."""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import tracing  # noqa: E402
from fedmesh import parse_scenario  # noqa: E402
from fedmesh.scenario import builtin_scenario_path  # noqa: E402
from scenario_text import FederationSpec, render, with_seed  # noqa: E402

TINY_HUB = FederationSpec(
    clouds=3, nodes=2, side=2, topology="hub", f_min=3, arrival_gap_ms=10, inbox_capacity=1000
)
TINY_P2P = FederationSpec(
    clouds=2, nodes=3, side=2, topology="full_p2p", f_min=4, arrival_gap_ms=1000,
    inbox_capacity=1000, apps=6,
)


@pytest.mark.parametrize("spec", [harness.HUB_BURST, harness.P2P_STREAM, TINY_P2P])
def test_generated_scenarios_parse(spec):
    scenario = parse_scenario(render(spec, seed=7))
    assert scenario.seed == 7
    assert scenario.inbox_capacity == spec.inbox_capacity
    assert scenario.f_min == spec.f_min
    assert len(scenario.clouds) == spec.clouds
    assert {c.topology for c in scenario.clouds} == {spec.topology}
    assert all(c.node_count == spec.nodes for c in scenario.clouds)
    assert len(scenario.workloads) == len(spec.app_plan())
    times = [w.submit_time_ms for w in scenario.workloads]
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert gaps == {spec.arrival_gap_ms}


def test_workload_shapes_match_their_description():
    hub = parse_scenario(render(harness.HUB_BURST, seed=1))
    assert sum(w.unit_count for w in hub.workloads) == 6760
    p2p = parse_scenario(render(harness.P2P_STREAM, seed=1))
    assert len(p2p.workloads) == 400 and p2p.f_min ** len(p2p.dims) == 4096
    per_cloud = {}
    for w in p2p.workloads:
        per_cloud.setdefault(w.submit_cloud, set()).add(w.model)
    assert all(models == {"task", "thread"} for models in per_cloud.values())


def test_with_seed_replaces_only_the_seed():
    text = builtin_scenario_path().read_text(encoding="utf-8")
    original = parse_scenario(text)
    reseeded = parse_scenario(with_seed(text, 9))
    assert reseeded.seed == 9
    assert reseeded.with_seed(original.seed) == original


def test_self_time_arithmetic_on_a_hand_built_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 8]; a second root d [20, 21].
    names = ["root", "a", "b", "c", "d"]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 8.0, 21.0]
    own, inclusive, calls = tracing.self_times(names, parent, start, end)
    assert own == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}
    assert inclusive == {"root": 10.0, "a": 3.0, "b": 4.0, "c": 2.0, "d": 1.0}
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1, "d": 1}
    # Repeated names accumulate.
    own, inclusive, calls = tracing.self_times(["x", "x"], [-1, 0], [0.0, 1.0], [4.0, 2.0])
    assert own == {"x": 4.0} and inclusive == {"x": 5.0} and calls == {"x": 2}


def _patched_attributes():
    targets = [(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTED]
    for module, path in targets + [tracing.HANDLER_REGISTRY]:
        owner = import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        yield owner, attr


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_instrument_restores_every_original():
    before = [(owner, attr, _current(owner, attr)) for owner, attr in _patched_attributes()]
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert all(_current(owner, attr) is not fn for owner, attr, fn in before)
            raise RuntimeError("leave the block early")
    for owner, attr, fn in before:
        assert _current(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"


def _traced(workload, out_dir):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracing.traced_run(tracer, 1):
        outcome = workload.run(out_dir)
    return outcome, tracer


@pytest.mark.parametrize("spec", [TINY_HUB, TINY_P2P])
def test_traced_and_untraced_runs_agree(spec, tmp_path):
    workload = harness.SimulationWorkload("tiny", render(spec, seed=3), sweep=False)
    plain = workload.run(tmp_path / "plain")
    traced, tracer = _traced(workload, tmp_path / "traced")
    assert plain.failures == [] and traced.failures == []
    assert plain.digests == traced.digests
    assert harness.simulated_metrics(plain) == harness.simulated_metrics(traced)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.events"] == plain.events
    assert metrics["federation.submit_application.calls"] == len(spec.app_plan())
    assert metrics["spatial.map_claim.calls"] == plain.units
    assert metrics["overlay.route.calls"] == 0


def test_traced_oracle_suite_agrees_and_runs_no_engine(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RENDEZVOUS_TRIALS", 5)
    monkeypatch.setattr(harness, "ALLOCATION_INSTANCES", 5)
    monkeypatch.setattr(harness, "ROUTING", ((256, 20), (1024, 5)))
    workload = harness.OracleWorkload(seed=5)
    plain = workload.run(tmp_path / "plain")
    traced, tracer = _traced(workload, tmp_path / "traced")
    assert plain.failures == [] and plain.digests == traced.digests
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.events"] == 0
    assert metrics["overlay.route.calls"] == 25
    assert metrics["overlay.route.us_per_call.n256"] > 0
    assert metrics["overlay.route.us_per_call.n1024"] > 0
    assert metrics["oracles.measure_routing.s"] > 0


def test_response_tail_keeps_ten_samples_beyond_it():
    assert harness.response_tail([]) == (0.0, 0.0, 0)
    assert harness.response_tail([3.0, 1.0]) == (3.0, 100.0, 2)
    value, pct, n = harness.response_tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)


def test_hostspeed_timing_restores_the_alarm_handler():
    import signal

    import hostspeed

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.timed() as timing:
        sum(i * i for i in range(300_000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timing["raw_s"] > 0 and timing["factor"] > 0
    assert timing["seconds"] == timing["raw_s"] * timing["factor"]
