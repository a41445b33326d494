from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import BufferOverflowError, InvalidArgumentError, SimulationError
from fedmesh.engine import RngStream, SimulationEngine


def collector(engine, log):
    def handler(payload):
        log.append((engine.now, payload))

    return handler


class Ping:
    pass


class TestSchedule:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))
        engine.schedule(30, "a", "late")
        engine.schedule(10, "a", "early")
        engine.schedule(20, "a", "middle")
        engine.run()
        assert engine.events_processed == 3
        assert [p for _, p in log] == ["early", "middle", "late"]
        assert engine.now == 30

    def test_equal_timestamps_fire_in_seq_order(self):
        # Within one millisecond, events fire in the order schedule was called.
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))
        engine.register("b", collector(engine, log))
        payloads = ["one", "two", "three", "four"]
        for i, payload in enumerate(payloads):
            assert engine.schedule(5, "ab"[i % 2], payload) is None
        engine.run()
        assert log == [(5, p) for p in payloads]

    def test_zero_delay_fires_before_later_seq(self):
        engine = SimulationEngine()
        log = []

        def chaining(payload):
            log.append(payload)
            if payload == "outer":
                engine.schedule(0, "a", "inner")

        engine.register("a", chaining)
        engine.schedule(0, "a", "outer")
        engine.schedule(0, "a", "sibling")
        engine.run()
        assert log == ["outer", "sibling", "inner"]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(InvalidArgumentError):
            engine.schedule(-1, "a", "x")

    @pytest.mark.parametrize(
        "delay",
        [-1, -0.5, 0.9, 2.5, 3.0, float("nan"), float("inf"), float("-inf"), True, False, "5", None],
    )
    def test_rejected_delay_takes_no_inbox_slot(self, delay):
        engine = SimulationEngine(default_inbox_capacity=1)
        engine.register("a", lambda payload: None)
        with pytest.raises(InvalidArgumentError, match="'a'"):
            engine.schedule(delay, "a", "x")
        assert engine.inbox("a").pending == 0
        assert not engine.has_pending_events
        engine.schedule(1, "a", "y")  # the one slot is still free
        engine.run()
        assert engine.events_processed == 1

    def test_a_target_registers_once(self):
        engine = SimulationEngine()
        log = []
        first = collector(engine, log)
        engine.register("a", first)
        with pytest.raises(InvalidArgumentError, match="'a'"):
            engine.register("a", lambda payload: None)
        assert engine.inbox("a").handler is first
        engine.schedule(1, "a", "x")
        engine.run()
        assert log == [(1, "x")]

    def test_inbox_overflow_is_an_error(self):
        engine = SimulationEngine()
        engine.register("jam", lambda payload: None)
        for _ in range(1000):
            engine.schedule(1, "jam", "msg")
        with pytest.raises(BufferOverflowError):
            engine.schedule(1, "jam", "msg-1001")

    def test_capacity_frees_up_after_delivery(self):
        engine = SimulationEngine(default_inbox_capacity=2)
        engine.register("a", lambda payload: None)
        engine.schedule(1, "a", "x")
        engine.schedule(1, "a", "y")
        engine.run()
        engine.schedule(1, "a", "z")  # would overflow had deliveries not drained


class TestRun:
    def test_empty_queue_is_a_no_op(self):
        engine = SimulationEngine()
        assert engine.run() is None
        assert engine.events_processed == 0
        assert engine.now == 0

    def test_until_between_two_events(self):
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))
        engine.schedule(10, "a", "early")
        engine.schedule(20, "a", "late")
        engine.run(until_ms=15)
        assert engine.events_processed == 1
        assert [p for _, p in log] == ["early"]
        assert engine.has_pending_events
        engine.run()
        assert engine.events_processed == 2  # every call's events

    def test_missing_handler_aborts(self):
        # Rejected when scheduled, not when the event would fire.
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match=r"ghost.*Ping"):
            engine.schedule(1, "ghost", Ping())
        assert not engine.has_pending_events

    def test_handler_error_carries_diagnostics(self):
        engine = SimulationEngine()

        def boom(payload):
            raise RuntimeError("kaput")

        engine.register("frail", boom)
        engine.schedule(7, "frail", Ping())
        with pytest.raises(SimulationError, match=r"frail.*Ping.*t=7"):
            engine.run()


class Halt(BaseException):
    """Not an Exception: passes through run() unwrapped, as an interrupt does."""


class TestCalendarSlots:
    @pytest.mark.parametrize(
        "payloads, left",
        [(("one", "bad", "two", "three"), ["two", "three"]), (("one", "bad"), [])],
        ids=["mid-slot", "slot-end"],
    )
    @pytest.mark.parametrize(
        "error, raised",
        [(RuntimeError("kaput"), SimulationError), (Halt(), Halt)],
        ids=["error", "halt"],
    )
    def test_handler_error_leaves_the_rest_of_its_millisecond_queued(
        self, payloads, left, error, raised
    ):
        engine = SimulationEngine()
        log = []

        def fragile(payload):
            if payload == "bad":
                raise error
            log.append((engine.now, payload))

        engine.register("a", fragile)
        engine.schedule(1, "a", "first")
        for payload in payloads:
            engine.schedule(5, "a", payload)
        with pytest.raises(raised):
            engine.run()
        assert log == [(1, "first"), (5, "one")]
        assert engine.events_processed == 2  # the failed event is not counted
        assert engine.inbox("a").pending == len(left)
        assert engine.has_pending_events == bool(left)
        engine.run()
        assert log[2:] == [(5, p) for p in left]
        assert engine.events_processed == 2 + len(left)

    def test_run_until_stops_at_a_slot_boundary_and_resumes(self):
        engine = SimulationEngine()
        log = []

        def handler(payload):
            log.append((engine.now, payload))
            if payload == "a2":
                engine.schedule(0, "a", "a2-echo")  # same millisecond, same run

        engine.register("a", handler)
        for delay, payload in ((5, "a1"), (5, "a2"), (6, "b1"), (7, "c1")):
            engine.schedule(delay, "a", payload)
        engine.run(until_ms=5)
        assert engine.events_processed == 3
        assert log == [(5, "a1"), (5, "a2"), (5, "a2-echo")]
        assert engine.now == 5
        engine.schedule(0, "a", "a3")  # a new slot at the current time
        engine.run(until_ms=6)
        assert engine.events_processed == 5
        assert log[3:] == [(5, "a3"), (6, "b1")]
        engine.run()
        assert engine.events_processed == 6
        assert log[5:] == [(7, "c1")]
        assert not engine.has_pending_events

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        initial=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        chained=st.lists(st.integers(0, 3), max_size=24),
        stops=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 4)), max_size=4),
    )
    def test_property_delivery_in_fire_at_then_seq_order(self, initial, chained, stops):
        # Handlers schedule the `chained` delays (zero delays included) one
        # per delivery, and `stops` splits the run with run(until_ms), each
        # followed by one more event scheduled from outside. Each event is
        # keyed by (fire_at, the index of its schedule call).
        engine = SimulationEngine()
        scheduled, delivered = [], []
        chained = list(chained)

        def send(delay):
            key = [(engine.now + delay, len(scheduled))]
            engine.schedule(delay, "ab"[len(scheduled) % 2], key)
            scheduled.append(key[0])

        def handler(key):
            assert key[0][0] == engine.now
            delivered.append(key[0])
            if chained:
                send(chained.pop())

        engine.register("a", handler)
        engine.register("b", handler)
        for delay in initial:
            send(delay)
        for until, delay in sorted(stops):
            engine.run(until_ms=until)
            assert all(fire_at > until for fire_at, _ in set(scheduled) - set(delivered))
            send(delay)
        engine.run()
        assert delivered == sorted(scheduled)
        assert engine.events_processed == len(scheduled)
        assert not engine.has_pending_events


class TestRngStream:
    def test_identical_seed_and_label_replay(self):
        a = RngStream(42, "ticket/n0")
        b = RngStream(42, "ticket/n0")
        assert [a.uniform(0, 1) for _ in range(20)] == [b.uniform(0, 1) for _ in range(20)]

    def test_stream_isolation_by_label(self):
        a = RngStream(42, "ticket/n0")
        b = RngStream(42, "ticket/n1")
        assert [a.uniform(0, 1) for _ in range(5)] != [b.uniform(0, 1) for _ in range(5)]

    def test_degenerate_interval_returns_lo(self):
        stream = RngStream(1, "x")
        assert stream.uniform(5.0, 5.0) == 5.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RngStream(1, "x").uniform(2.0, 1.0)

    def test_draws_stay_in_half_open_interval(self):
        stream = RngStream(7, "bounds")
        for _ in range(10_000):
            v = stream.uniform(5.0, 40.0)
            assert 5.0 <= v < 40.0

    def test_draw_rounding_up_to_hi_is_clamped_below_it(self, monkeypatch):
        # 1 + (2 - 1) * (1 - 2**-53) rounds to 2.0 (ties to even).
        stream = RngStream(1, "x")
        monkeypatch.setattr(stream._random, "random", lambda: 1 - 2**-53)
        assert stream.uniform(1.0, 2.0) == math.nextafter(2.0, 1.0)

    def test_mean_of_uniform_5_40(self):
        stream = RngStream(2024, "status")
        n = 100_000
        mean = sum(stream.uniform(5.0, 40.0) for _ in range(n)) / n
        assert abs(mean - 22.5) < 0.5
