from __future__ import annotations

import pytest

from fedmesh import (
    BufferOverflowError,
    InvalidArgumentError,
    RngStream,
    SimulationEngine,
    SimulationError,
)


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
        assert engine.run() == 3
        assert [p for _, p in log] == ["early", "middle", "late"]
        assert engine.now == 30

    def test_equal_timestamps_fire_in_seq_order(self):
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))
        first = engine.schedule(5, "a", "one")
        second = engine.schedule(5, "a", "two")
        assert first < second
        engine.run()
        assert [p for _, p in log] == ["one", "two"]

    def test_zero_delay_fires_before_later_seq(self):
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))

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
        assert engine.run() == 0
        assert engine.now == 0

    def test_until_between_two_events(self):
        engine = SimulationEngine()
        log = []
        engine.register("a", collector(engine, log))
        engine.schedule(10, "a", "early")
        engine.schedule(20, "a", "late")
        assert engine.run(until_ms=15) == 1
        assert [p for _, p in log] == ["early"]
        assert engine.has_pending_events
        assert engine.run() == 1

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

    def test_mean_of_uniform_5_40(self):
        stream = RngStream(2024, "status")
        n = 100_000
        mean = sum(stream.uniform(5.0, 40.0) for _ in range(n)) / n
        assert abs(mean - 22.5) < 0.5
