from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import coordination
from fedmesh.coordination import ClaimStore
from fedmesh.oracles import (
    centralized_fifo_allocate,
    distributed_fifo_allocate,
    random_claim,
    random_space,
    random_ticket,
    replica_count,
)
from fedmesh.spatial import (
    ClaimClass,
    Eq,
    Ge,
    IndexCell,
    Le,
    Range,
    ResourceClaim,
    ResourceTicket,
    map_claim,
    map_ticket,
)

from conftest import THREAD_LABEL, published_ticket, stored_claims


def _replaced(record, **changes):
    """A copy of a claim or ticket with some fields changed, built by its
    checking constructor (NamedTuple's _replace would skip the check)."""
    return type(record)(**{**record._asdict(), **changes})


@pytest.fixture()
def replay(testbed_space):
    """Store loaded with the three waiting claims, plus the incoming ticket."""
    store = ClaimStore()
    claims = stored_claims()
    for claim in claims:
        for cell in map_claim(testbed_space, claim):
            store.post_claim(cell, claim)
    ticket = published_ticket()
    tcell = map_ticket(testbed_space, ticket)
    return store, claims, ticket, tcell


class TestPostClaim:
    def test_first_claim_in_empty_cell(self, testbed_space):
        store = ClaimStore()
        claim = stored_claims()[0]
        cell = map_claim(testbed_space, claim)[0]
        store.post_claim(cell, claim)
        assert store.snapshot(cell) == [claim]

    def test_arrival_order_preserved(self, replay):
        store, claims, ticket, tcell = replay
        waiting = store.snapshot(tcell)
        times = [c.arrival_time for c in waiting]
        assert times == sorted(times)
        assert waiting[0].claim_id == "claim-1"

    def test_out_of_order_posts_are_sorted(self, testbed_space):
        store = ClaimStore()
        c1, c2, c3 = stored_claims()
        cell = map_ticket(testbed_space, published_ticket())
        for claim in (c3, c1):  # c2 maps elsewhere (task cells)
            store.post_claim(cell, claim)
        assert [c.claim_id for c in store.snapshot(cell)] == ["claim-1", "claim-3"]

    def test_duplicate_post_ignored(self, testbed_space):
        store = ClaimStore()
        claim = stored_claims()[0]
        cell = map_claim(testbed_space, claim)[0]
        store.post_claim(cell, claim)
        store.post_claim(cell, claim)
        assert len(store.snapshot(cell)) == 1

    def test_equal_arrival_times_tie_break_on_id(self, testbed_space):
        store = ClaimStore()
        base = stored_claims()[0]
        a = _replaced(base, claim_id="b-claim", arrival_time=100)
        b = _replaced(base, claim_id="a-claim", arrival_time=100)
        cell = map_claim(testbed_space, base)[0]
        store.post_claim(cell, a)
        store.post_claim(cell, b)
        assert [c.claim_id for c in store.snapshot(cell)] == ["a-claim", "b-claim"]


class TestPostTicket:
    def test_replay_serves_only_first_thread_claim(self, testbed_cells, replay):
        store, claims, ticket, tcell = replay
        decisions = store.post_ticket(tcell, ticket)
        assert len(decisions) == 1
        d = decisions[0]
        assert d.claim_id == "claim-1"
        assert d.units_granted == 1
        assert d.target == ticket.origin
        assert d.notify == "cloud-1"
        # claims 2 and 3 stay stored (claim-3 matched but capacity ran out).
        remaining = {c.claim_id for c in store.snapshot(tcell)}
        assert "claim-3" in remaining
        assert replica_count(store, testbed_cells, "claim-2") > 0

    def test_zero_capacity_ticket_changes_nothing(self, replay):
        store, claims, ticket, tcell = replay
        empty = ResourceTicket("none", ticket.point, 0, ticket.origin, ticket.issue_time)
        before = store.snapshot(tcell)
        assert store.post_ticket(tcell, empty) == []
        assert store.snapshot(tcell) == before

    def test_two_units_serve_two_earliest(self, replay):
        store, claims, ticket, tcell = replay
        big = ResourceTicket("big", ticket.point, 2, ticket.origin, ticket.issue_time)
        decisions = store.post_ticket(tcell, big)
        assert [d.claim_id for d in decisions] == ["claim-1", "claim-3"]

    def test_large_claim_does_not_block_smaller(self, testbed_space, testbed_cells):
        store = ClaimStore()
        base = stored_claims()[0]
        hungry = _replaced(base, claim_id="hungry", requested_units=3, arrival_time=10)
        modest = _replaced(base, claim_id="modest", requested_units=1, arrival_time=20)
        cell = map_ticket(testbed_space, published_ticket())
        store.post_claim(cell, hungry)
        store.post_claim(cell, modest)
        decisions = store.post_ticket(cell, published_ticket())
        assert [d.claim_id for d in decisions] == ["modest"]
        assert replica_count(store, testbed_cells, "hungry") == 1

    def test_decided_at_defaults_to_issue_time(self, replay):
        store, claims, ticket, tcell = replay
        assert store.post_ticket(tcell, ticket)[0].decided_at == 700

    def test_decided_at_override(self, replay):
        store, claims, ticket, tcell = replay
        assert store.post_ticket(tcell, ticket, now_ms=705)[0].decided_at == 705


def discard_replicas(store, cells, claim) -> int:
    """Discard a claim from each of its replica cells; returns how many held it."""
    return sum(store.discard(cell, claim) for cell in cells)


class TestDiscard:
    def test_removes_every_replica(self, testbed_space, testbed_cells, replay):
        store, claims, ticket, tcell = replay
        cells = map_claim(testbed_space, claims[0])
        assert replica_count(store, testbed_cells, "claim-1") == len(cells) == 2
        assert discard_replicas(store, cells, claims[0]) == 2
        assert replica_count(store, testbed_cells, "claim-1") == 0

    def test_unknown_id_returns_zero(self, testbed_cells):
        assert discard_replicas(ClaimStore(), testbed_cells, _thread_claim("ghost", 2.4, 100)) == 0

    def test_after_service_one_replica_already_gone(
        self, testbed_space, testbed_cells, replay
    ):
        store, claims, ticket, tcell = replay
        cells = map_claim(testbed_space, claims[0])
        before = replica_count(store, testbed_cells, "claim-1")
        store.post_ticket(tcell, ticket)
        assert discard_replicas(store, cells, claims[0]) == before - 1


class TestSnapshot:
    def test_replay_order(self, replay):
        store, claims, ticket, tcell = replay
        assert [c.claim_id for c in store.snapshot(tcell)] == ["claim-1", "claim-3"]

    def test_empty_cell(self, testbed_cells):
        assert ClaimStore().snapshot(testbed_cells[0]) == []

    def test_copy_semantics(self, replay):
        store, claims, ticket, tcell = replay
        snap = store.snapshot(tcell)
        store.post_ticket(tcell, ticket)
        assert [c.claim_id for c in snap] == ["claim-1", "claim-3"]


class TestOracleEquivalence:
    def test_random_instances_match_centralized_allocator(self):
        rng = random.Random(1009)
        for k in range(150):
            space = random_space(rng, rng.randint(1, 3))
            tickets = [
                random_ticket(rng, space, f"t{j:02d}", units=rng.randint(0, 3), issue_time=j)
                for j in range(rng.randint(1, 8))
            ]
            claims = [
                random_claim(
                    rng,
                    space,
                    f"c{j:02d}",
                    anchor=tickets[rng.randrange(len(tickets))] if rng.random() < 0.7 else None,
                    units=rng.randint(1, 2),
                    arrival_time=rng.randrange(3) * 50,
                )
                for j in range(rng.randint(1, 15))
            ]
            assert distributed_fifo_allocate(space, claims, tickets) == (
                centralized_fifo_allocate(claims, tickets)
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_property_no_over_provisioning(self, rnd):
        space = random_space(rnd, rnd.randint(1, 3))
        tickets = [
            random_ticket(rnd, space, f"t{j}", units=rnd.randint(0, 4), issue_time=j)
            for j in range(rnd.randint(1, 5))
        ]
        claims = [
            random_claim(
                rnd, space, f"c{j}",
                anchor=tickets[rnd.randrange(len(tickets))],
                units=rnd.randint(1, 3),
            )
            for j in range(rnd.randint(1, 12))
        ]
        allocations = distributed_fifo_allocate(space, claims, tickets)
        granted: dict[str, int] = {}
        for ticket_id, _, units in allocations:
            granted[ticket_id] = granted.get(ticket_id, 0) + units
        capacity = {t.ticket_id: t.available_units for t in tickets}
        for ticket_id, total in granted.items():
            assert total <= capacity[ticket_id]


def _thread_claim(claim_id: str, min_speed: float, arrival_time: int, units: int = 1):
    return ResourceClaim(
        claim_id=claim_id,
        constraints=(Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(min_speed)),
        requested_units=units,
        origin=f"origin/{claim_id}",
        arrival_time=arrival_time,
    )


class TestClaimClasses:
    """Several claims per constraint tuple, as every real workload posts."""

    def test_two_matching_classes_serve_in_global_first_fit_order(
        self, testbed_space
    ):
        # Classes by minimum speed: 2.0 and 2.4 match the 2.7 GHz ticket, 3.0 does not.
        claims = {
            "a1": _thread_claim("a1", 2.0, 100),
            "b1": _thread_claim("b1", 2.4, 100),  # tied with a1, later id
            "c1": _thread_claim("c1", 3.0, 50),  # earliest, never matches
            "big": _thread_claim("big", 2.4, 150, units=6),  # too large for the ticket
            "a2": _thread_claim("a2", 2.0, 200, units=2),
            "b2": _thread_claim("b2", 2.4, 210, units=2),  # fits no more once a2 is served
            "a3": _thread_claim("a3", 2.0, 300),
            "b3": _thread_claim("b3", 2.4, 400),
        }
        base = published_ticket()
        ticket = _replaced(base, available_units=5)
        cell = map_ticket(testbed_space, ticket)
        store = ClaimStore()
        for claim_id in ("a3", "b3", "c1", "b2", "a1", "big", "a2", "b1"):
            store.post_claim(cell, claims[claim_id])
        assert [c.claim_id for c in store.snapshot(cell)] == [
            "c1", "a1", "b1", "big", "a2", "b2", "a3", "b3"
        ]

        decisions = store.post_ticket(cell, ticket)
        assert [d.claim_id for d in decisions] == ["a1", "b1", "a2", "a3"]
        assert [(d.ticket_id, d.claim_id, d.units_granted) for d in decisions] == (
            centralized_fifo_allocate(list(claims.values()), [ticket])
        )
        assert [c.claim_id for c in store.snapshot(cell)] == ["c1", "big", "b2", "b3"]

        assert store.discard(cell, claims["b2"])
        assert not store.discard(cell, claims["b2"])
        assert [c.claim_id for c in store.snapshot(cell)] == ["c1", "big", "b3"]
        assert replica_count(store, (cell,), "b2") == 0
        assert replica_count(store, (cell,), "b3") == 1
        assert store.waiting_claim_ids() == ("b3", "big", "c1")

        # The class whose middle claim left still serves in order.
        follow_up = _replaced(base, ticket_id="again", available_units=7)
        assert [d.claim_id for d in store.post_ticket(cell, follow_up)] == ["big", "b3"]
        assert [c.claim_id for c in store.snapshot(cell)] == ["c1"]

    def test_discard_from_the_middle_and_from_the_head(self, testbed_space):
        # One bucket, tied on arrival time: the middle claim is found by a
        # search, a head claim is dropped without one.
        cell = map_ticket(testbed_space, published_ticket())
        store = ClaimStore()
        claims = {claim_id: _thread_claim(claim_id, 2.4, 100) for claim_id in ("c", "a", "b")}
        for claim in claims.values():
            store.post_claim(cell, claim)
        assert len(store._cells[cell]) == 1
        for claim_id, left in (("b", ["a", "c"]), ("a", ["c"]), ("c", [])):
            assert store.discard(cell, claims[claim_id])
            assert not store.discard(cell, claims[claim_id])
            assert [c.claim_id for c in store.snapshot(cell)] == left
            # A cell is stored exactly while a claim waits there.
            assert (cell in store._cells) == store.has_waiting(cell) == bool(left)

    def test_a_ticket_serves_claims_behind_an_unserved_head(self, testbed_space):
        # The head wants more than the ticket holds, so both claims served
        # leave from behind it.
        claims = [
            _thread_claim("a", 2.4, 100, units=3),
            _thread_claim("b", 2.4, 100),
            _thread_claim("c", 2.4, 100),
        ]
        ticket = _replaced(published_ticket(), available_units=2)
        cell = map_ticket(testbed_space, ticket)
        store = ClaimStore()
        for claim in claims:
            store.post_claim(cell, claim)
        decisions = store.post_ticket(cell, ticket)
        assert [(d.ticket_id, d.claim_id, d.units_granted) for d in decisions] == (
            centralized_fifo_allocate(claims, [ticket])
        ) == [(ticket.ticket_id, "b", 1), (ticket.ticket_id, "c", 1)]
        assert store.snapshot(cell) == claims[:1]
        assert store.waiting_claim_ids() == ("a",)

    def test_claim_class_hashes_and_compares_as_its_tuple(self):
        plain = (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(2.4))
        interned = ClaimClass(plain)
        assert isinstance(interned, tuple) and interned is not plain
        assert hash(interned) == hash(plain)
        assert interned == plain and plain == interned
        assert interned != ClaimClass((Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(3.0)))
        assert {plain: "bucket"}[interned] == "bucket"

    def test_claim_class_hashes_its_constraints_once(self):
        calls = []

        class Counted:
            def __hash__(self):
                calls.append(1)
                return 7

        interned = ClaimClass((Counted(), Counted()))
        assert len(calls) == 2
        for _ in range(3):
            hash(interned)
        assert len(calls) == 2

    def test_interned_and_plain_claims_share_one_bucket(self, testbed_space):
        interned = ClaimClass((Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(2.4)))
        claims = [
            _replaced(
                _thread_claim(f"u{j}", 2.4, arrival_time=(j * 7) % 5 * 10),
                constraints=interned if j % 2 else tuple(interned),
            )
            for j in range(8)
        ]
        assert {type(c.constraints) for c in claims} == {tuple, ClaimClass}
        ticket = _replaced(published_ticket(), available_units=5)
        cell = map_ticket(testbed_space, ticket)
        store = ClaimStore()
        for claim in claims:
            store.post_claim(cell, claim)
        assert len(store._cells[cell]) == 1
        fifo = sorted(claims, key=lambda c: (c.arrival_time, c.claim_id))
        assert store.snapshot(cell) == fifo
        decisions = store.post_ticket(cell, ticket)
        assert [(d.ticket_id, d.claim_id, d.units_granted) for d in decisions] == (
            centralized_fifo_allocate(claims, [ticket])
        )
        assert store.snapshot(cell) == fifo[5:]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_property_shared_classes_match_centralized_allocator(self, rnd):
        space = random_space(rnd, rnd.randint(1, 3))
        tickets = [
            random_ticket(rnd, space, f"t{j}", units=rnd.randint(0, 4), issue_time=j)
            for j in range(rnd.randint(1, 6))
        ]
        pool = [
            random_claim(rnd, space, f"class{k}", anchor=rnd.choice(tickets)).constraints
            for k in range(rnd.randint(2, 3))
        ]
        claims = [
            ResourceClaim(
                claim_id=f"c{j:02d}",
                constraints=rnd.choice(pool),
                requested_units=rnd.randint(1, 3),
                origin=f"origin/c{j:02d}",
                arrival_time=rnd.randrange(4) * 10,
            )
            for j in range(rnd.randint(2, 16))
        ]
        assert distributed_fifo_allocate(space, claims, tickets) == (
            centralized_fifo_allocate(claims, tickets)
        )


# Two-dimensional classes and points for the match-memo tests: no geometry is
# involved, since a cell's store never re-checks which cell a point maps to.
_POOL_CLASSES = (
    (Eq("x"), Ge(1.0)),
    (Eq("x"), Ge(2.0)),
    (Eq("x"), Le(1.5)),
    (Eq("y"), Range(0.5, 2.5)),
    (Eq("x"), Range(1.0, 3.0)),
)
_POOL_POINTS = (("x", 1.0), ("x", 2.0), ("x", 3.0), ("y", 2.0), ("y", 3.0))
_POOL_CELLS: tuple[IndexCell, ...] = ((0,), (1,))


def _pool_claim(n: int, constraints, arrival_time: int, units: int = 1) -> ResourceClaim:
    return ResourceClaim(f"c{n:03d}", constraints, units, f"origin/{n}", arrival_time)


def _pool_ticket(n: int, point, units: int) -> ResourceTicket:
    return ResourceTicket(f"t{n:03d}", point, units, f"node/{n}", n)


def _served(decisions) -> list[tuple[str, str, int]]:
    return [(d.ticket_id, d.claim_id, d.units_granted) for d in decisions]


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("post"),
            st.sampled_from(_POOL_CLASSES),
            st.integers(0, 1),  # cell
            st.integers(0, 3).map(lambda k: k * 10),  # arrival time
            st.integers(1, 2),  # units
        ),
        st.tuples(st.just("discard"), st.integers(0, 1), st.integers(0, 30)),
        st.tuples(
            st.just("ticket"),
            st.sampled_from(_POOL_POINTS),
            st.integers(0, 1),  # cell
            st.integers(0, 3),  # units
            st.integers(1, 3),  # tickets in a row at this point
        ),
    ),
    # Long enough that a point often recurs, in either cell, before every
    # class has reached the store, so memo entries are both filled and read.
    min_size=15,
    max_size=40,
)


class TestMatchLists:
    """The store decides each (ticket point, claim class) pair once, for every
    cell: a pair is tested on the first ticket at that point that meets the
    class waiting, and a class new to the store is still tested at a point
    already seen."""

    @pytest.fixture()
    def tested(self, monkeypatch):
        calls = []
        real = coordination.matches
        monkeypatch.setattr(coordination, "matches", lambda c, t: calls.append(c) or real(c, t))
        return calls

    def test_new_class_reaches_a_cached_point(self, tested):
        cell = _POOL_CELLS[0]
        point = ("x", 2.0)
        store = ClaimStore()
        a1, a2, a3 = (_pool_claim(n, _POOL_CLASSES[0], 100 * n) for n in (1, 2, 3))
        for claim in (a1, a2, a3):
            store.post_claim(cell, claim)
        # The point's first ticket decides class A there; the second reuses it.
        for n, claim in ((1, a1), (2, a2)):
            ticket = _pool_ticket(n, point, 1)
            assert _served(store.post_ticket(cell, ticket)) == [(ticket.ticket_id, claim.claim_id, 1)]
        assert tested == [a1]

        # Class B is new to the store, matches the seen point and arrived first.
        b = _pool_claim(4, _POOL_CLASSES[1], 50)
        store.post_claim(cell, b)
        third = _pool_ticket(3, point, 1)
        expected = centralized_fifo_allocate([a3, b], [third])
        assert expected == [("t003", "c004", 1)]
        assert _served(store.post_ticket(cell, third)) == expected
        assert store.snapshot(cell) == [a3]
        assert tested == [a1, b]

    def test_a_point_seen_once_tests_only_waiting_classes(self, tested):
        # Points that never repeat (random floats) must not pay for a memo:
        # the first ticket at a point tests each non-empty bucket once, and
        # a second ticket there tests nothing.
        cell = _POOL_CELLS[0]
        store = ClaimStore()
        claims = [_pool_claim(n, constraints, n) for n, constraints in enumerate(_POOL_CLASSES)]
        later = _pool_claim(len(claims), _POOL_CLASSES[0], len(claims))
        for claim in (*claims, later):
            store.post_claim(cell, claim)
        for claim in claims[1:]:
            store.discard(cell, claim)
        for n, claim in enumerate((claims[0], later)):
            ticket = _pool_ticket(n, ("x", 2.0), 1)
            assert _served(store.post_ticket(cell, ticket)) == [(ticket.ticket_id, claim.claim_id, 1)]
            assert tested == [claims[0]]

    def test_a_pair_decided_in_one_cell_is_not_tested_in_another(self, tested):
        store = ClaimStore()
        claims = [_pool_claim(n, _POOL_CLASSES[0], n) for n in (1, 2)]
        for cell, claim in zip(_POOL_CELLS, claims):
            store.post_claim(cell, claim)
        for n, (cell, claim) in enumerate(zip(_POOL_CELLS, claims)):
            ticket = _pool_ticket(n, ("x", 2.0), 1)
            assert _served(store.post_ticket(cell, ticket)) == [(ticket.ticket_id, claim.claim_id, 1)]
        assert tested == claims[:1]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_OPS)
    def test_property_interleaved_posts_discards_and_tickets(self, ops):
        store = ClaimStore()
        waiting: list[list[ResourceClaim]] = [[] for _ in _POOL_CELLS]
        posted: list[ResourceClaim] = []
        for n, op in enumerate(ops):
            if op[0] == "post":
                _, constraints, k, arrival_time, units = op
                claim = _pool_claim(n, constraints, arrival_time, units)
                store.post_claim(_POOL_CELLS[k], claim)
                waiting[k].append(claim)
                posted.append(claim)
            elif op[0] == "discard":
                _, k, pick = op
                if not posted:
                    continue
                claim = posted[pick % len(posted)]
                held = [c for c in waiting[k] if c.claim_id == claim.claim_id]
                assert store.discard(_POOL_CELLS[k], claim) == bool(held)
                waiting[k] = [c for c in waiting[k] if c.claim_id != claim.claim_id]
            else:
                _, point, k, units, repeats = op
                for r in range(repeats):
                    ticket = _pool_ticket(100 * n + r, point, units)
                    expected = centralized_fifo_allocate(waiting[k], [ticket])
                    assert _served(store.post_ticket(_POOL_CELLS[k], ticket)) == expected
                    served = {claim_id for _, claim_id, _ in expected}
                    waiting[k] = [c for c in waiting[k] if c.claim_id not in served]
            # A cell is stored exactly while a claim waits there, its classes
            # are exactly those with a waiting claim, and no bucket is empty.
            for held, cell in zip(waiting, _POOL_CELLS):
                assert (cell in store._cells) == bool(held)
                buckets = store._cells.get(cell, {})
                assert set(buckets) == {c.constraints for c in held}
                assert all(buckets.values())
        for k, cell in enumerate(_POOL_CELLS):
            assert store.snapshot(cell) == sorted(
                waiting[k], key=lambda c: (c.arrival_time, c.claim_id)
            )


class TestWalks:
    """A ticket takes the least head of the buckets it meets alone when that
    claim requests exactly the ticket's capacity, and merges the buckets
    otherwise, one bucket included; both serve as one scan of the merged
    queue would."""

    POINT = ("x", 2.0)  # satisfies _POOL_CLASSES[0] and _POOL_CLASSES[1]

    @pytest.fixture()
    def merges(self, monkeypatch):
        calls = []
        real = coordination.merge
        monkeypatch.setattr(coordination, "merge", lambda *b: calls.append(len(b)) or real(*b))
        return calls

    def serve(self, claims, units):
        cell = _POOL_CELLS[0]
        store = ClaimStore()
        for claim in claims:
            store.post_claim(cell, claim)
        ticket = _pool_ticket(1, self.POINT, units)
        served = _served(store.post_ticket(cell, ticket))
        assert served == centralized_fifo_allocate(claims, [ticket])
        return [claim_id for _, claim_id, _ in served]

    def test_a_head_too_large_for_the_ticket_falls_back_to_the_merge(self, merges):
        a1 = _pool_claim(1, _POOL_CLASSES[0], 10, units=2)
        b1 = _pool_claim(2, _POOL_CLASSES[1], 20)
        a2 = _pool_claim(3, _POOL_CLASSES[0], 30)
        assert self.serve([a1, b1, a2], units=1) == [b1.claim_id]
        assert merges == [2]

    def test_a_head_that_takes_the_whole_ticket_is_served_alone(self, merges):
        a1 = _pool_claim(1, _POOL_CLASSES[0], 10)
        b1 = _pool_claim(2, _POOL_CLASSES[1], 5)
        a2 = _pool_claim(3, _POOL_CLASSES[0], 30)
        assert self.serve([a1, b1, a2], units=1) == [b1.claim_id]
        assert merges == []

    def test_a_ticket_larger_than_the_head_merges(self, merges):
        a1 = _pool_claim(1, _POOL_CLASSES[0], 10)
        b1 = _pool_claim(2, _POOL_CLASSES[1], 20)
        a2 = _pool_claim(3, _POOL_CLASSES[0], 30)
        assert self.serve([a1, b1, a2], units=2) == [a1.claim_id, b1.claim_id]
        assert merges == [2]

    def test_property_both_walks_match_centralized_allocator(self, merges):
        heads = []
        cell = _POOL_CELLS[0]

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.randoms(use_true_random=False))
        def check(rnd):
            classes = rnd.sample(_POOL_CLASSES, rnd.randint(2, len(_POOL_CLASSES)))
            waiting = [
                _pool_claim(n, rnd.choice(classes), rnd.randrange(6) * 10, rnd.randint(1, 3))
                for n in range(rnd.randint(2, 12))
            ]
            store = ClaimStore()
            for claim in waiting:
                store.post_claim(cell, claim)
            for n in range(rnd.randint(1, 6)):
                ticket = _pool_ticket(n, rnd.choice(_POOL_POINTS), rnd.randint(0, 4))
                expected = centralized_fifo_allocate(waiting, [ticket])
                met = {c.constraints for c in waiting if coordination.matches(c, ticket)}
                before = len(merges)
                assert _served(store.post_ticket(cell, ticket)) == expected
                if len(met) > 1 and ticket.available_units and len(merges) == before:
                    heads.append(ticket.ticket_id)
                served = {claim_id for _, claim_id, _ in expected}
                waiting = [c for c in waiting if c.claim_id not in served]
                assert (cell in store._cells) == store.has_waiting(cell) == bool(waiting)

        check()
        assert merges and heads
