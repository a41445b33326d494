"""Outside-in tracing of fedmesh: spans and counters around public functions.

Nothing in ``src/`` changes. :func:`instrument` replaces each traced function
under the name its caller looks it up by (``fedmesh.federation.map_claim``,
``fedmesh.coordination.matches``, ``ClaimStore.post_ticket``, ...) and puts
every original back on exit. Functions called hundreds of thousands of times
per run (``schedule``, ``matches``, ``point_satisfies``) are counted instead
of span-timed, so their time stays in their caller's self time.

Spans are kept in flat arrays while a run executes and are turned into
per-layer figures afterwards. Calls are synchronous and single-threaded, so
spans nest properly: a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Callable, Iterator

ROOT_SPAN = "bench.run"
PROBE_SPAN = "bench.probe"

# (module, attribute path, span name). The same function is patched once per
# module that calls it, and every copy reports under one span name.
SPANS = (
    ("fedmesh.engine", "SimulationEngine.run", "engine.run"),
    ("fedmesh.experiments", "deploy_federation", "federation.deploy_federation"),
    ("fedmesh.experiments", "run_to_quiescence", "federation.run_to_quiescence"),
    ("fedmesh.federation", "submit_application", "federation.submit_application"),
    ("fedmesh.federation", "publish_ticket", "federation.publish_ticket"),
    ("fedmesh.coordination", "ClaimStore.post_ticket", "coordination.post_ticket"),
    ("fedmesh.coordination", "ClaimStore.post_claim", "coordination.post_claim"),
    ("fedmesh.coordination", "ClaimStore.discard", "coordination.discard"),
    ("fedmesh.federation", "build_base_cells", "spatial.build_base_cells"),
    ("fedmesh.oracles", "build_base_cells", "spatial.build_base_cells"),
    ("fedmesh.federation", "map_claim", "spatial.map_claim"),
    ("fedmesh.oracles", "map_claim", "spatial.map_claim"),
    ("fedmesh.federation", "map_ticket", "spatial.map_ticket"),
    ("fedmesh.oracles", "map_ticket", "spatial.map_ticket"),
    ("fedmesh.overlay", "OverlayMembership.route", "overlay.route"),
    ("fedmesh.overlay", "OverlayMembership.routing_state", "overlay.routing_state"),
    ("fedmesh.overlay", "OverlayMembership.join", "overlay.join"),
    ("fedmesh.overlay", "OverlayMembership.owner_of", "overlay.owner_of"),
    ("fedmesh.federation", "generate_units", "workloads.generate_units"),
    ("fedmesh.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("fedmesh.reporting", "write_run_outputs", "reporting.write_run_outputs"),
    ("fedmesh.reporting", "write_sweep_outputs", "reporting.write_sweep_outputs"),
    ("fedmesh.oracles", "rendezvous_suite", "oracles.rendezvous_suite"),
    ("fedmesh.oracles", "allocation_suite", "oracles.allocation_suite"),
    ("fedmesh.oracles", "measure_routing", "oracles.measure_routing"),
)

# Hot leaves: counted, not span-timed.
COUNTED = (
    ("fedmesh.engine", "SimulationEngine.schedule", "engine.schedule"),
    ("fedmesh.federation", "point_satisfies", "spatial.point_satisfies"),
    ("fedmesh.spatial", "point_satisfies", "spatial.point_satisfies"),
    ("fedmesh.coordination", "matches", "spatial.matches"),
    ("fedmesh.oracles", "matches", "spatial.matches"),
)

HANDLER_REGISTRY = ("fedmesh.engine", "SimulationEngine.register")
HANDLER_KINDS = ("peer", "node", "scheduler")
LAYERS = (
    "engine", "federation", "coordination", "spatial", "overlay",
    "workloads", "scenario", "reporting", "oracles",
)
DEPTH_BUCKETS = ((10, "depth_lt10"), (100, "depth_lt100"), (1000, "depth_lt1000"))
DEPTH_TOP = "depth_ge1000"


class Tracer:
    """Spans in parallel arrays, plus named counters and samples.

    Span ``i`` has name ``names[name_id[i]]``, run ``run_id[i]``, parent span
    index ``parent[i]`` (-1 for a root) and ``start[i]``/``end[i]`` in
    ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_run = 0
        # Scalars and samples observed at span boundaries; see instrument().
        self.counts: dict[str, list[int]] = {}
        self.values: dict[str, list[float]] = {}

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def counter(self, name: str, width: int = 1) -> list[int]:
        return self.counts.setdefault(name, [0] * width)

    def samples(self, name: str) -> list[float]:
        return self.values.setdefault(name, [])

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run_id.append(self.current_run)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[tuple, Any, Any, float], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span. ``before(args)`` runs first, in a span of
        its own (PROBE_SPAN) so that its cost is charged to the benchmark;
        its value is handed to ``after(args, result, value, seconds)``."""
        open_span, close_span = self.open, self.close
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            token = None
            if before is not None:
                probe = open_span(PROBE_SPAN)
                token = before(args)
                close_span(probe)
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(args, result, token, ends[index] - starts[index])
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Iterator[tuple[int, int, int, str, float, float]]:
        """(run, span, parent, name, start, end) for every recorded span."""
        for i in range(len(self.start)):
            yield (
                self.run_id[i], i, self.parent[i], self.names[self.name_id[i]],
                self.start[i], self.end[i],
            )


def self_times(
    names: list[str], parent: list[int], start: list[float], end: list[float]
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """(self seconds, inclusive seconds, span count) per span name.

    Inputs are parallel per-span sequences; ``parent[i]`` is the index of the
    enclosing span or -1. Spans must nest properly.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        duration = end[i] - start[i]
        own[name] = own.get(name, 0.0) + duration - covered[i]
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
    return own, inclusive, calls


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make: Callable[[Any], Any]) -> None:
        owner: Any = import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def stopwatch(module: str, path: str) -> Iterator[list[float]]:
    """Accumulate host seconds spent inside one function (no spans)."""
    total = [0.0]
    clock = time.perf_counter

    def make(fn):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += clock() - t0

        return timed

    patcher = Patcher()
    patcher.replace(module, path, make)
    try:
        yield total
    finally:
        patcher.restore()


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span and counter of this module; restore on exit."""
    patcher = Patcher()
    hooks = _hooks(tracer)
    try:
        for module, path, name in SPANS:
            before, after = hooks.get(name, (None, None))
            patcher.replace(
                module, path, lambda fn, n=name, b=before, a=after: tracer.wrap(n, fn, b, a)
            )
        for module, path, name in COUNTED:
            patcher.replace(module, path, lambda fn, n=name: _counted(tracer, n, fn))
        patcher.replace(*HANDLER_REGISTRY, lambda fn: _registering(tracer, fn))
        yield tracer
    finally:
        patcher.restore()


@contextmanager
def traced_run(tracer: Tracer, run: int) -> Iterator[None]:
    """One root span around a whole run; its self time is the time no
    traced layer accounts for (the benchmark's own code, experiments)."""
    tracer.current_run = run
    index = tracer.open(ROOT_SPAN)
    try:
        yield
    finally:
        tracer.close(index)


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if name == "engine.schedule":
        calls = tracer.counter(name)
        peak = tracer.samples("engine.inbox_peak_ratio")
        peak.append(0.0)

        def schedule(self, delay_ms, target, payload):
            seq = fn(self, delay_ms, target, payload)
            calls[0] += 1
            box = self.inbox(target)
            ratio = box.pending / box.capacity
            if ratio > peak[0]:
                peak[0] = ratio
            return seq

        return schedule
    if name == "spatial.matches":
        cell = tracer.counter(name, 2)  # calls, true results

        def counted_matches(claim, ticket):
            result = fn(claim, ticket)
            cell[0] += 1
            if result:
                cell[1] += 1
            return result

        return counted_matches
    cell = tracer.counter(name)

    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


def _registering(tracer: Tracer, register: Callable) -> Callable:
    """Wrap each handler handed to ``SimulationEngine.register`` in a span
    named after its entity kind (``peer/...``, ``node/...``, ...)."""

    def traced_register(self, target, handler, **kwargs):
        kind = target.split("/", 1)[0]
        return register(self, target, tracer.wrap(f"federation.handler.{kind}", handler), **kwargs)

    return traced_register


def _hooks(tracer: Tracer) -> dict[str, tuple[Callable | None, Callable | None]]:
    """Per-span observations taken at the span boundary."""
    events = tracer.counter("engine.events")
    depths = tracer.samples("coordination.queue_depth_at_ticket")
    ticket_s = tracer.samples("coordination.post_ticket.seconds")
    decisions = tracer.counter("coordination.decisions")
    fanout = tracer.counter("spatial.map_claim.cells")
    hops = tracer.samples("overlay.route.hops")
    route_s = tracer.samples("overlay.route.seconds")
    route_n = tracer.samples("overlay.route.members")
    written = tracer.counter("reporting.bytes_written")
    parsed = tracer.counter("scenario.input_bytes")

    def run_before(args):
        return args[0].events_processed

    def run_after(args, result, before, seconds):
        events[0] += args[0].events_processed - before

    def ticket_before(args):
        # Public read-only copy: its cost stays outside the span.
        return len(args[0].snapshot(args[1]))

    def ticket_after(args, result, depth, seconds):
        depths.append(depth)
        ticket_s.append(seconds)
        decisions[0] += len(result)

    def claim_after(args, result, token, seconds):
        fanout[0] += len(result)

    def route_after(args, result, token, seconds):
        hops.append(result[1])
        route_s.append(seconds)
        route_n.append(len(args[0]))

    def write_after(args, result, token, seconds):
        written[0] += sum(path.stat().st_size for path in result)

    def parse_before(args):
        parsed[0] += len(args[0].encode("utf-8"))

    return {
        "engine.run": (run_before, run_after),
        "coordination.post_ticket": (ticket_before, ticket_after),
        "spatial.map_claim": (None, claim_after),
        "overlay.route": (None, route_after),
        "reporting.write_run_outputs": (None, write_after),
        "reporting.write_sweep_outputs": (None, write_after),
        "scenario.parse_scenario": (parse_before, None),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of a tracer that recorded one run.

    Times are seconds unless the name says otherwise. A figure whose layer
    was never called reads 0.
    """
    names = [tracer.names[i] for i in tracer.name_id]
    own, incl, calls = self_times(names, tracer.parent, tracer.start, tracer.end)
    counts = {name: cell[0] for name, cell in tracer.counts.items()}
    values = tracer.values

    def s(name: str) -> float:
        return incl.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(
            (t for name, t in own.items() if name.split(".", 1)[0] == layer), 0.0
        )

    events = counts.get("engine.events", 0)
    m["engine.events"] = events
    m["engine.schedule.calls"] = counts.get("engine.schedule", 0)
    m["engine.us_per_event"] = ratio(m["engine.self_s"] * 1e6, events)
    m["engine.inbox_peak_ratio"] = max(values.get("engine.inbox_peak_ratio", [0.0]))

    for kind in HANDLER_KINDS:
        m[f"federation.handler_s.{kind}"] = s(f"federation.handler.{kind}")
    for fn in ("submit_application", "publish_ticket"):
        m[f"federation.{fn}.s"] = s(f"federation.{fn}")
        m[f"federation.{fn}.calls"] = n(f"federation.{fn}")
    m["federation.deploy_federation.s"] = s("federation.deploy_federation")

    tickets = n("coordination.post_ticket")
    m["coordination.post_ticket.calls"] = tickets
    m["coordination.post_ticket.s"] = s("coordination.post_ticket")
    m["coordination.post_ticket.us_per_call"] = ratio(
        m["coordination.post_ticket.s"] * 1e6, tickets
    )
    depths = values.get("coordination.queue_depth_at_ticket", [])
    bucket_s: dict[str, list[float]] = {}
    for depth, sec in zip(depths, values.get("coordination.post_ticket.seconds", [])):
        label = next((lab for bound, lab in DEPTH_BUCKETS if depth < bound), DEPTH_TOP)
        bucket_s.setdefault(label, []).append(sec)
    for label in [lab for _, lab in DEPTH_BUCKETS] + [DEPTH_TOP]:
        got = bucket_s.get(label, [])
        m[f"coordination.post_ticket.us_per_call.{label}"] = ratio(sum(got) * 1e6, len(got))
    ordered = sorted(depths)
    m["coordination.queue_depth_at_ticket.p50"] = statistics.median(ordered) if ordered else 0
    m["coordination.queue_depth_at_ticket.p95"] = _nearest_rank(ordered, 0.95)
    m["coordination.queue_depth_at_ticket.max"] = ordered[-1] if ordered else 0
    m["coordination.match_yield"] = ratio(counts.get("coordination.decisions", 0), len(depths))
    for fn in ("post_claim", "discard"):
        m[f"coordination.{fn}.calls"] = n(f"coordination.{fn}")
        m[f"coordination.{fn}.s"] = s(f"coordination.{fn}")

    for fn in ("build_base_cells", "map_claim", "map_ticket"):
        m[f"spatial.{fn}.calls"] = n(f"spatial.{fn}")
        m[f"spatial.{fn}.s"] = s(f"spatial.{fn}")
    m["spatial.map_claim.fanout_mean"] = ratio(
        counts.get("spatial.map_claim.cells", 0), n("spatial.map_claim")
    )
    m["spatial.point_satisfies.calls"] = counts.get("spatial.point_satisfies", 0)
    matched = tracer.counts.get("spatial.matches", [0, 0])
    m["spatial.matches.calls"] = matched[0]
    m["spatial.matches.true_ratio"] = ratio(matched[1], matched[0])

    hops = values.get("overlay.route.hops", [])
    m["overlay.route.calls"] = n("overlay.route")
    m["overlay.route.s"] = s("overlay.route")
    m["overlay.route.hops_mean"] = ratio(sum(hops), len(hops))
    m["overlay.route.hops_max"] = max(hops, default=0)
    members = values.get("overlay.route.members", [])
    for size in (256, 1024):
        got = [
            sec for peers, sec in zip(members, values.get("overlay.route.seconds", []))
            if peers == size
        ]
        m[f"overlay.route.us_per_call.n{size}"] = ratio(sum(got) * 1e6, len(got))
    for fn in ("routing_state", "join", "owner_of"):
        m[f"overlay.{fn}.calls"] = n(f"overlay.{fn}")
        m[f"overlay.{fn}.s"] = s(f"overlay.{fn}")

    m["workloads.generate_units.calls"] = n("workloads.generate_units")
    m["workloads.generate_units.s"] = s("workloads.generate_units")
    m["scenario.parse_scenario.s"] = s("scenario.parse_scenario")
    m["scenario.input_bytes"] = counts.get("scenario.input_bytes", 0)
    m["reporting.write_s"] = s("reporting.write_run_outputs") + s("reporting.write_sweep_outputs")
    m["reporting.bytes_written"] = counts.get("reporting.bytes_written", 0)
    for fn in ("rendezvous_suite", "allocation_suite", "measure_routing"):
        m[f"oracles.{fn}.s"] = own.get(f"oracles.{fn}", 0.0)
    return m


def span_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Each span name's share of all traced self time, largest first."""
    names = [tracer.names[i] for i in tracer.name_id]
    own, _, _ = self_times(names, tracer.parent, tracer.start, tracer.end)
    total = sum(own.values()) or 1.0
    return sorted(((name, t / total) for name, t in own.items()), key=lambda x: -x[1])


def _nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0
    k = max(1, -(-len(ordered) * q // 1))  # ceil(len * q)
    return ordered[int(k) - 1]
