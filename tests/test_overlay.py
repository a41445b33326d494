from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import (
    AlreadyMemberError,
    IdCollisionError,
    InvalidArgumentError,
    InvalidSourceError,
    NoRouteError,
    NotAMemberError,
)
from fedmesh.oracles import (
    brute_force_owner,
    brute_force_prefix_table,
    pure_sha1,
    shared_prefix_len,
)
from fedmesh.overlay import (
    LEAF_SET_SIZE,
    RING_SIZE,
    NodeId,
    OverlayMembership,
    circular_distance,
    hash_name,
)


def fill(names):
    m = OverlayMembership()
    for name in names:
        m.join(name)
    return m


class TestHashName:
    def test_deterministic(self):
        assert hash_name("cloud-1") == hash_name("cloud-1")

    def test_distinct_names_distinct_ids(self):
        assert hash_name("cloud-1") != hash_name("cloud-2")

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hash_name("")

    def test_agrees_with_independent_sha1(self):
        # pure_sha1 is validated against the published test vector first,
        # then used as the oracle for the id derivation.
        assert pure_sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
        assert pure_sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        for name in ("cloud-1", "cloud-2", "a-much-longer-peer-name/with/path", "x" * 200):
            expected = int.from_bytes(pure_sha1(name.encode("utf-8")), "big")
            assert hash_name(name).value == expected


class TestNodeId:
    def test_canonical_hex_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            nid = NodeId(rng.getrandbits(160))
            text = nid.hex
            assert len(text) == 40
            assert text == text.lower()
            assert NodeId(int(text, 16)) == nid

    def test_value_range_enforced(self):
        NodeId(0)
        NodeId(RING_SIZE - 1)
        with pytest.raises(InvalidArgumentError):
            NodeId(RING_SIZE)
        with pytest.raises(InvalidArgumentError):
            NodeId(-1)

    def test_circular_distance_wraps(self):
        assert circular_distance(0, RING_SIZE - 1) == 1
        assert circular_distance(5, 5) == 0
        assert circular_distance(0, RING_SIZE // 2) == RING_SIZE // 2

    def test_shared_prefix_len(self):
        a = "0" * 40
        b = "0" * 39 + "1"
        assert shared_prefix_len(a, a) == 40
        assert shared_prefix_len(a, b) == 39
        assert shared_prefix_len("f" + "0" * 39, a) == 0


class TestMembership:
    def test_join_returns_hash_of_name(self):
        m = OverlayMembership()
        nid = m.join("cloud-1")
        assert nid == hash_name("cloud-1")
        assert len(m) == 1

    def test_five_clouds(self):
        m = fill(f"cloud-{i}" for i in range(1, 6))
        assert len(m) == 5
        assert len(set(m.members())) == 5

    def test_duplicate_join_rejected(self):
        m = fill(["cloud-1"])
        with pytest.raises(AlreadyMemberError):
            m.join("cloud-1")

    def test_id_collision_aborts(self, monkeypatch):
        fixed = NodeId(1234)
        monkeypatch.setattr("fedmesh.overlay.hash_name", lambda name: fixed)
        m = OverlayMembership()
        m.join("a")
        with pytest.raises(IdCollisionError):
            m.join("b")

    def test_leave_inverse_of_join(self):
        m = fill(["a", "b", "c"])
        before = m.members()
        nid = m.join("d")
        m.leave(nid)
        assert m.members() == before

    def test_leave_unknown_rejected(self):
        m = fill(["a"])
        with pytest.raises(NotAMemberError):
            m.leave(NodeId(42))

    def test_leave_singleton_then_route_errors(self):
        m = OverlayMembership()
        nid = m.join("only")
        m.leave(nid)
        assert len(m) == 0
        with pytest.raises(NoRouteError):
            m.route(nid, NodeId(7))
        with pytest.raises(NoRouteError):
            m.owner_of(NodeId(7))

    def test_dump_sorted_by_id(self):
        m = fill(["b", "a", "c"])
        ids = m.members()
        assert len(ids) == 3
        assert [nid.hex for nid in ids] == sorted(nid.hex for nid in ids)
        assert sorted(m.name_of(nid) for nid in ids) == ["a", "b", "c"]
        for nid in ids:
            assert hash_name(m.name_of(nid)) == nid


class TestOwnerOf:
    def test_key_equal_to_member(self):
        m = fill(["a", "b", "c"])
        nid = hash_name("b")
        assert m.owner_of(nid) == nid

    def test_symmetric_tie_goes_to_smaller_id(self, monkeypatch):
        ids = {"zero": NodeId(0), "half": NodeId(1 << 159)}
        monkeypatch.setattr("fedmesh.overlay.hash_name", lambda name: ids[name])
        m = OverlayMembership()
        m.join("zero")
        m.join("half")
        # Key exactly between the two: both distances are 2**158.
        assert m.owner_of(NodeId(1 << 158)) == NodeId(0)

    @pytest.mark.parametrize(
        "members, key, owner",
        [
            ((5 << 150,), 0, 5 << 150),
            # Below the smallest member: 2**158 away from each wrap neighbour.
            ((1 << 158, 3 << 158), 0, 1 << 158),
            # Above the largest member: 5 * 2**156 away from each.
            ((1 << 157, 1 << 159), (1 << 159) + (1 << 158) + (1 << 156), 1 << 157),
        ],
        ids=["singleton", "tie-below-smallest", "tie-above-largest"],
    )
    def test_wrap_neighbours_match_brute_force(self, monkeypatch, members, key, owner):
        ids = {f"m{v}": NodeId(v) for v in members}
        monkeypatch.setattr("fedmesh.overlay.hash_name", lambda name: ids[name])
        m = fill(ids)
        assert m.owner_of(NodeId(key)) == brute_force_owner(m.members(), NodeId(key)) == NodeId(owner)

    def test_matches_brute_force(self):
        rng = random.Random(11)
        m = fill(f"peer-{i}" for i in range(17))
        members = m.members()
        for _ in range(1000):
            key = NodeId(rng.getrandbits(160))
            assert m.owner_of(key) == brute_force_owner(members, key)


class TestRoutingState:
    def test_prefix_table_invariant(self):
        m = fill(f"node-{i}" for i in range(40))
        for owner in m.members():
            state = m.routing_state(owner)
            for (depth, digit), entry in state.prefix_table.items():
                assert shared_prefix_len(owner.hex, entry.hex) == depth
                assert entry.hex[depth] == digit
                assert digit != owner.hex[depth]

    def test_leaf_set_shape(self):
        m = fill(f"node-{i}" for i in range(40))
        for owner in m.members():
            leaf = m.routing_state(owner).leaf_set
            assert len(leaf) == len(set(leaf)) <= LEAF_SET_SIZE
            assert owner not in leaf

    def test_small_membership_leaf_holds_everyone(self):
        m = fill(f"node-{i}" for i in range(6))
        for owner in m.members():
            assert set(m.routing_state(owner).leaf_set) == set(m.members()) - {owner}


class TableWalk:
    """Reference routing: each hop reads the current peer's whole routing
    state, with the prefix table from a member-by-member scan and the leaf set
    from the sorted member list. ``OverlayMembership.route`` reads one slot
    per hop instead and must take the same hops."""

    def __init__(self, members):
        self.members = members
        self.tables = {}

    def route(self, source, key):
        members, n, half = self.members, len(self.members), LEAF_SET_SIZE // 2

        def closeness(nid):
            return (circular_distance(nid.value, key.value), nid.value)

        cur, hops = source, 0
        while True:
            idx = members.index(cur)
            reach = range(1, min(half, n - 1) + 1)
            succs = [members[(idx + j) % n] for j in reach]
            preds = [members[(idx - j) % n] for j in reach]
            leaf = succs + preds
            covered = n - 1 <= LEAF_SET_SIZE
            if not covered:
                far_pred, far_succ = preds[-1].value, succs[-1].value
                covered = (key.value - far_pred) % RING_SIZE <= (far_succ - far_pred) % RING_SIZE
            if covered:
                best = min([cur, *leaf], key=closeness)
                return best, hops + (best != cur)
            if cur not in self.tables:
                self.tables[cur] = brute_force_prefix_table(members, cur)
            table = self.tables[cur]
            depth = shared_prefix_len(cur.hex, key.hex)
            nxt = table.get((depth, key.hex[depth]))
            if nxt is None:
                nxt = min(
                    (
                        nid
                        for nid in [*leaf, *table.values()]
                        if shared_prefix_len(nid.hex, key.hex) >= depth
                        and closeness(nid) < closeness(cur)
                    ),
                    key=closeness,
                )
            cur = nxt
            hops += 1


class TestPrefixTableFromRingSlices:
    """The prefix table built from ring slices equals a member-by-member scan,
    and on crafted memberships routing takes the table walk's hops."""

    def check(self, m):
        members = m.members()
        for owner in members:
            assert m.routing_state(owner).prefix_table == brute_force_prefix_table(members, owner)

    def check_crafted(self, monkeypatch, values):
        ids = {f"n{i}": NodeId(v) for i, v in enumerate(sorted({v % RING_SIZE for v in values}))}
        monkeypatch.setattr("fedmesh.overlay.hash_name", lambda name: ids[name])
        m = fill(ids)
        self.check(m)
        # Keys on, just past and opposite each member, from every source in turn.
        members = m.members()
        walk = TableWalk(members)
        keys = [(nid.value + delta) % RING_SIZE for nid in members for delta in (0, 1, RING_SIZE // 2)]
        for i, key in enumerate(map(NodeId, keys)):
            source = members[i % len(members)]
            assert m.route(source, key) == walk.route(source, key)

    @pytest.mark.parametrize("n", [1, 2, 9, 40, 300])
    def test_hashed_memberships(self, n):
        self.check(fill(f"slice-{n}-{i}" for i in range(n)))

    def test_ids_sharing_long_prefixes(self, monkeypatch):
        rng = random.Random(41)
        for _ in range(40):
            base = rng.getrandbits(160)
            values = [base]
            for _ in range(rng.randint(1, 24)):
                low_bits = 4 * rng.randint(1, 40)  # keep the other leading digits of base
                values.append(base >> low_bits << low_bits | rng.getrandbits(low_bits))
            self.check_crafted(monkeypatch, values)

    def test_same_slot_ties_around_the_antipode(self, monkeypatch):
        # Pairs mirrored about the owner's antipode are equally far from the
        # owner and usually share a slot: the smaller id must win.
        rng = random.Random(43)
        for _ in range(60):
            owner = rng.getrandbits(160)
            values = [owner] + [rng.getrandbits(160) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 4)):
                delta = rng.getrandbits(rng.randint(1, 152))
                values += [owner + RING_SIZE // 2 + delta, owner + RING_SIZE // 2 - delta]
            self.check_crafted(monkeypatch, values)

    def test_ids_straddling_the_wrap(self, monkeypatch):
        rng = random.Random(47)
        for _ in range(30):
            values = [rng.getrandbits(rng.randint(1, 156)) for _ in range(rng.randint(1, 12))]
            values += [-rng.getrandbits(rng.randint(1, 156)) for _ in range(rng.randint(1, 12))]
            self.check_crafted(monkeypatch, values)


class TestRoute:
    def test_matches_the_table_walk(self, monkeypatch):
        # Same (owner, hops) as the whole-table walk; route falls back to the
        # whole routing state only when the key's slot is empty, and some
        # of these routes do.
        fallbacks = []
        real = OverlayMembership.routing_state
        monkeypatch.setattr(
            OverlayMembership,
            "routing_state",
            lambda self, nid: fallbacks.append(nid) or real(self, nid),
        )
        rng = random.Random(53)
        for n in (1, 2, 9, 10, 17, 64, 256):
            m = fill(f"walk-{n}-{i}" for i in range(n))
            walk = TableWalk(m.members())
            for _ in range(150):
                key, source = NodeId(rng.getrandbits(160)), walk.members[rng.randrange(n)]
                assert m.route(source, key) == walk.route(source, key)
        assert fallbacks

    def test_singleton_zero_hops(self):
        m = fill(["solo"])
        nid = hash_name("solo")
        owner, hops = m.route(nid, NodeId(99))
        assert owner == nid
        assert hops == 0

    def test_invalid_source(self):
        m = fill(["a"])
        with pytest.raises(InvalidSourceError):
            m.route(NodeId(5), NodeId(6))

    def test_agrees_with_owner_of(self):
        rng = random.Random(3)
        for n in (2, 5, 9, 17, 33, 64):
            m = fill(f"p{n}-{i}" for i in range(n))
            members = m.members()
            for _ in range(200):
                key = NodeId(rng.getrandbits(160))
                source = members[rng.randrange(n)]
                owner, hops = m.route(source, key)
                assert owner == m.owner_of(key)
                assert hops >= 0

    def test_owner_independent_of_source(self):
        rng = random.Random(4)
        m = fill(f"q-{i}" for i in range(24))
        members = m.members()
        for _ in range(100):
            key = NodeId(rng.getrandbits(160))
            owners = {m.route(source, key)[0] for source in members[::5]}
            assert len(owners) == 1

    def test_mean_hops_within_log_bound(self):
        # 32 uniformly hashed peers: ceil(log16 32) + 2 = 4.
        from fedmesh.oracles import measure_routing

        stats = measure_routing(32, 10_000, seed=2024)
        assert stats.agreements == stats.samples
        assert stats.mean_hops <= 4.0

    def test_max_hops_within_leaf_slack(self):
        # max hops stays below ceil(log16 n) + half the leaf set size.
        import math

        from fedmesh.oracles import measure_routing
        from fedmesh.overlay import LEAF_SET_SIZE

        for n in (16, 64, 256):
            stats = measure_routing(n, 3_000, seed=77)
            assert stats.max_hops <= math.ceil(math.log(n, 16)) + LEAF_SET_SIZE // 2

    def test_ownership_transfer_after_leave(self):
        rng = random.Random(8)
        m = fill(f"r-{i}" for i in range(12))
        keys = [NodeId(rng.getrandbits(160)) for _ in range(50)]
        owners_before = {k: m.owner_of(k) for k in keys}
        victim = m.members()[3]
        m.leave(victim)
        survivors = m.members()
        for k in keys:
            expected = brute_force_owner(survivors, k)
            assert m.owner_of(k) == expected
            if owners_before[k] != victim:
                assert m.owner_of(k) == owners_before[k]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    names=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=32, unique=True),
    keys=st.lists(st.integers(min_value=0, max_value=RING_SIZE - 1), min_size=1, max_size=20),
)
def test_property_route_matches_brute_force(names, keys):
    m = fill(names)
    members = m.members()
    for raw in keys:
        key = NodeId(raw)
        owner, _ = m.route(members[raw % len(members)], key)
        assert owner == brute_force_owner(members, key)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_property_join_leave_closure(data):
    # Any interleaving of joins and leaves keeps routing consistent.
    m = OverlayMembership()
    alive: list[str] = []
    ops = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 1000)), max_size=30))
    counter = 0
    for is_join, pick in ops:
        if is_join or not alive:
            name = f"peer-{counter}"
            counter += 1
            m.join(name)
            alive.append(name)
        else:
            name = alive.pop(pick % len(alive))
            m.leave(hash_name(name))
    assert len(m) == len(alive)
    if alive:
        members = m.members()
        rng = random.Random(99)
        for _ in range(20):
            key = NodeId(rng.getrandbits(160))
            owner, _ = m.route(members[0], key)
            assert owner == brute_force_owner(members, key)


class TestAdversarialPlacements:
    """Clustered and boundary-straddling ids, far from uniform hashing."""

    def build(self, monkeypatch, values):
        ids = {f"n{i}": NodeId(v % RING_SIZE) for i, v in enumerate(values)}
        monkeypatch.setattr("fedmesh.overlay.hash_name", lambda name: ids[name])
        m = OverlayMembership()
        for name in ids:
            m.join(name)
        return m

    def probe_keys(self, members):
        keys = []
        for nid in members:
            for delta in (-2, -1, 0, 1, 2):
                keys.append(NodeId((nid.value + delta) % RING_SIZE))
        # hex-block boundaries near the members
        for nid in members:
            block = nid.value >> 152 << 152
            keys += [NodeId(block), NodeId((block - 1) % RING_SIZE)]
        return keys

    def check_all(self, m):
        members = m.members()
        for key in self.probe_keys(members):
            expected = brute_force_owner(members, key)
            for source in members:
                owner, hops = m.route(source, key)
                assert owner == expected
                assert hops <= 48  # digits + leaf slack; no wandering

    def test_tight_cluster_plus_outliers(self, monkeypatch):
        cluster = [10_000 + i for i in range(12)]
        outliers = [RING_SIZE // 3, 2 * RING_SIZE // 3, RING_SIZE - 5]
        self.check_all(self.build(monkeypatch, cluster + outliers))

    def test_ids_straddling_the_wrap(self, monkeypatch):
        values = [RING_SIZE - 4, RING_SIZE - 3, RING_SIZE - 1, 0, 1, 3, 7, RING_SIZE // 2]
        self.check_all(self.build(monkeypatch, values))

    def test_deep_shared_prefixes(self, monkeypatch):
        # Two dense blocks sharing 30+ hex digits, plus sparse fillers.
        base_a = 0x123456789ABCDEF0 << 96
        base_b = 0xFEDCBA9876543210 << 96
        values = [base_a + i for i in range(10)] + [base_b + 7 * i for i in range(10)]
        values += [i * (RING_SIZE // 7) + 11 for i in range(5)]
        self.check_all(self.build(monkeypatch, values))

    def test_evenly_spaced_ring(self, monkeypatch):
        n = 24
        values = [i * (RING_SIZE // n) for i in range(n)]
        self.check_all(self.build(monkeypatch, values))


def test_ownership_consistency_bulk():
    # >= 10^4 random (membership, source, key) cases over n in 1..64.
    from fedmesh.oracles import routing_suite

    report = routing_suite(10_000, seed=31337)
    assert report.trials == 10_000
    assert report.failures == 0


def test_ring_partition_every_key_has_one_owner():
    # Sample keys plus constructed near-boundary keys: exactly one owner each,
    # and the arcs between adjacent peers meet at the distance midpoint.
    m = fill(f"arc-{i}" for i in range(9))
    members = m.members()
    values = [x.value for x in members]
    rng = random.Random(123)
    keys = [NodeId(rng.getrandbits(160)) for _ in range(500)]
    for a, b in zip(values, values[1:] + [values[0] + RING_SIZE]):
        mid = (a + b) // 2
        keys += [NodeId(mid % RING_SIZE), NodeId((mid + 1) % RING_SIZE)]
    for key in keys:
        owner = m.owner_of(key)
        assert owner in members
        assert owner == brute_force_owner(members, key)
