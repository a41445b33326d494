"""Pastry-flavored key-based routing on a 160-bit circular identifier space.

Peers and keys live on the same ring. A global membership registry is the
source of truth; each peer's routing state (hex-digit prefix table plus a
leaf set of ring neighbors) is derived deterministically from the full
membership, so identical join sequences always produce identical tables.
Each prefix-table slot is a range of the sorted ring, found by bisection,
rather than a scan of all n members.
Routing is performed hop by hop, which keeps the logarithmic-hop behavior
observable instead of assumed. A hop reads only what it uses: the current
peer's leaf set (one bisect of the ring) and the one prefix-table slot the
key selects (two bisects). When that slot is empty, the hop also reads the
slots of the only prefix-table rows that can hold its next hop, the
selected row and the deeper ones, so routing builds and keeps no peer's
routing state.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AlreadyMemberError,
    ConsistencyError,
    IdCollisionError,
    InvalidArgumentError,
    InvalidSourceError,
    NoRouteError,
    NotAMemberError,
)

RING_BITS = 160
RING_SIZE = 1 << RING_BITS
ID_HEX_DIGITS = 40
ROUTING_BASE = 16
LEAF_SET_SIZE = 8
_HEX_DIGITS = "0123456789abcdef"


def circular_distance(a: int, b: int) -> int:
    """Shortest arc between two points on the identifier ring."""
    d = a - b if a >= b else b - a
    return d if d <= RING_SIZE - d else RING_SIZE - d


@dataclass(frozen=True, order=True)
class NodeId:
    """A 160-bit ring identifier; ordering is plain unsigned ordering."""

    value: int

    def __post_init__(self) -> None:
        if type(self.value) is not int or not 0 <= self.value < RING_SIZE:
            raise InvalidArgumentError(f"node id must be a {RING_BITS}-bit unsigned integer")

    @cached_property
    def hex(self) -> str:
        """Canonical text form: exactly 40 lowercase hex digits."""
        return format(self.value, "040x")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeId({self.hex})"


def hash_name(name: str) -> NodeId:
    """Map a textual name onto the ring via SHA-1 of its UTF-8 bytes."""
    if not isinstance(name, str) or name == "":
        raise InvalidArgumentError("name must be non-empty text")
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return NodeId(int.from_bytes(digest, "big"))


def _shared_digits(a: int, b: int) -> int:
    """Number of leading hex digits two ring ids share."""
    return (RING_BITS - (a ^ b).bit_length()) // 4


@dataclass(frozen=True)
class RoutingState:
    """One peer's deterministic view: prefix table and leaf set.

    ``prefix_table[(i, d)]`` shares exactly the first ``i`` hex digits with
    the peer whose view this is and has digit ``d`` at position ``i``. The
    leaf set holds, once each, the up to ``LEAF_SET_SIZE`` ring neighbours
    on the peer's leaf arc, half each way, so the immediate successor and
    predecessor are always present; that is what makes greedy routing land
    on the true owner.
    """

    prefix_table: dict[tuple[int, str], NodeId]
    leaf_set: tuple[NodeId, ...]


class OverlayMembership:
    """Global registry of named peers with derived routing state.

    Mutations (join/leave) drop the cached sorted ring, which is rebuilt
    lazily, so repeated join sequences stay cheap for large memberships.
    Routing state is derived from the ring when read and never kept.
    """

    def __init__(self) -> None:
        self._by_value: dict[int, tuple[str, NodeId]] = {}
        self._ring: list[int] | None = None

    def __len__(self) -> int:
        return len(self._by_value)

    def members(self) -> tuple[NodeId, ...]:
        """All peer ids, sorted ascending."""
        return tuple(self._by_value[v][1] for v in self._ring_values())

    def name_of(self, node_id: NodeId) -> str:
        try:
            return self._by_value[node_id.value][0]
        except KeyError:
            raise NotAMemberError(f"no peer with id {node_id.hex}") from None

    def join(self, name: str) -> NodeId:
        """Add a named peer; its id is the hash of the name."""
        nid = hash_name(name)
        if nid.value in self._by_value:
            other = self._by_value[nid.value][0]
            if other == name:
                raise AlreadyMemberError(f"peer {name!r} already joined")
            raise IdCollisionError(f"{name!r} collides with {other!r} at {nid.hex}")
        self._by_value[nid.value] = (name, nid)
        self._invalidate()
        return nid

    def leave(self, node_id: NodeId) -> None:
        if self._by_value.pop(node_id.value, None) is None:
            raise NotAMemberError(f"no peer with id {node_id.hex}")
        self._invalidate()

    def owner_of(self, key: NodeId) -> NodeId:
        """Peer circularly nearest to key; exact ties go to the smaller id.

        The nearest peer is one of the key's two ring neighbours: the first
        member at or after the key and the one before it, wrapping past either
        end of the ring (a single member is both). Only those two are compared.
        """
        ring = self._ring_values()
        if not ring:
            raise NoRouteError("empty membership owns no keys")
        k = key.value
        i = bisect_left(ring, k)
        succ, pred = ring[i % len(ring)], ring[i - 1]
        d_succ, d_pred = circular_distance(succ, k), circular_distance(pred, k)
        best = succ if d_succ < d_pred or (d_succ == d_pred and succ < pred) else pred
        return self._by_value[best][1]

    def routing_state(self, node_id: NodeId) -> RoutingState:
        """A member's whole routing state, built afresh on each call."""
        if node_id.value not in self._by_value:
            raise NotAMemberError(f"no peer with id {node_id.hex}")
        return self._build_state(node_id)

    def route(self, source: NodeId, key: NodeId) -> tuple[NodeId, int]:
        """Greedy prefix routing from source toward the owner of key.

        Returns (owner, hops). Each hop either resolves one more hex digit of
        the key through the prefix table or moves strictly closer along the
        leaf set; the walk ends at the peer with minimal circular distance,
        which is independent of the source. A hop reads only the current
        peer's leaf set and the one prefix-table slot the key selects. When
        that slot is empty, the next hop is the closest of the leaf set and
        the slots of the selected prefix-table row and the deeper ones: a slot
        in a shallower row shares fewer digits with the key than the current
        peer does, so it can never be the next hop.
        """
        if not self._by_value:
            raise NoRouteError("cannot route in an empty membership")
        if source.value not in self._by_value:
            raise InvalidSourceError(f"source {source.hex} is not a member")
        k = key.value

        def closeness(v: int) -> tuple[int, int]:
            return (circular_distance(v, k), v)

        covers_all = len(self._by_value) - 1 <= LEAF_SET_SIZE
        cur = source.value
        hops = 0
        while True:
            arc = self._leaf_arc(cur)
            # A key on the leaf arc has both its ring neighbours, and so its
            # owner, on the arc.
            if covers_all or (k - arc[0]) % RING_SIZE <= (arc[-1] - arc[0]) % RING_SIZE:
                best = min(arc, key=closeness)
                return self._by_value[best][1], hops + (best != cur)
            depth = _shared_digits(cur, k)
            nxt = self._slot(cur, depth, k >> (RING_BITS - 4 - 4 * depth) & 0xF)
            if nxt is None:
                here = closeness(cur)
                slots = (v for _, _, v in self._table_slots(cur, arc, depth))
                candidates = [
                    v
                    for v in (*arc, *slots)
                    if _shared_digits(v, k) >= depth and closeness(v) < here
                ]
                if not candidates:
                    # Unreachable for consistent global tables: a leaf set
                    # reaching both ways always supplies a strictly closer
                    # peer here.
                    raise ConsistencyError(f"routing stuck at {cur:040x} for key {key.hex}")
                nxt = min(candidates, key=closeness)
            cur = nxt
            hops += 1

    # internals

    def _invalidate(self) -> None:
        self._ring = None

    def _ring_values(self) -> list[int]:
        if self._ring is None:
            self._ring = sorted(self._by_value)
        return self._ring

    def _leaf_arc(self, value: int) -> list[int]:
        """A member and its leaf set in ring order: up to ``LEAF_SET_SIZE // 2``
        neighbours each way, so the arc runs from the farthest predecessor
        through the member to the farthest successor. With at most
        ``LEAF_SET_SIZE + 1`` members it holds every member, some of them
        twice when there are fewer."""
        ring = self._ring_values()
        n = len(ring)
        idx = bisect_left(ring, value)
        reach = min(LEAF_SET_SIZE // 2, n - 1)
        return [ring[(idx + j) % n] for j in range(-reach, reach + 1)]

    def _slot(self, owner: int, depth: int, digit: int) -> int | None:
        """Prefix-table slot ``(depth, digit)`` of a member: of the members
        that share its first ``depth`` hex digits and have ``digit`` next, the
        one nearest to it (ties to the smaller id), or None if there are none.

        Those members fill one ring range, found by two bisects. For a digit
        other than the owner's own, the range lies on an arc that avoids the
        owner, where circular distance to the owner rises then falls, so the
        nearest member is the range's first or last.
        """
        ring = self._ring_values()
        shift = (ID_HEX_DIGITS - 1 - depth) * 4
        lo = owner >> (shift + 4) << (shift + 4) | digit << shift
        first = bisect_left(ring, lo)
        end = bisect_left(ring, lo + (1 << shift), first)
        if first == end:
            return None
        best, last = ring[first], ring[end - 1]
        if (circular_distance(last, owner), last) < (circular_distance(best, owner), best):
            best = last
        return best

    def _table_slots(
        self, owner: int, arc: list[int], first_row: int = 0
    ) -> Iterator[tuple[int, int, int]]:
        """``(row, digit, member)`` for each non-empty prefix-table slot of a
        member in row ``first_row`` and the deeper rows; ``arc`` is its leaf
        arc.

        Rows run to the longest prefix the owner shares with another member,
        which one of its leaf-set neighbours attains; each row holds the
        non-empty slots of the 15 digits other than the owner's own.
        """
        rows = max((_shared_digits(owner, v) + 1 for v in arc if v != owner), default=0)
        for depth in range(first_row, rows):
            own = owner >> (ID_HEX_DIGITS - 1 - depth) * 4 & 0xF
            for d in range(ROUTING_BASE):
                if d != own and (best := self._slot(owner, depth, d)) is not None:
                    yield depth, d, best

    def _build_state(self, owner: NodeId) -> RoutingState:
        """Leaf set from the owner's leaf arc; prefix table from its slots."""
        ov = owner.value
        arc = self._leaf_arc(ov)
        by_value = self._by_value
        table = {
            (depth, _HEX_DIGITS[d]): by_value[v][1] for depth, d, v in self._table_slots(ov, arc)
        }
        leaf = dict.fromkeys(v for v in arc if v != ov)
        return RoutingState(prefix_table=table, leaf_set=tuple(by_value[v][1] for v in leaf))
