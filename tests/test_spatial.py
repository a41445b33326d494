from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import DomainError, InvalidArgumentError
from fedmesh.federation import deploy_federation, run_to_quiescence
from fedmesh.oracles import random_claim, random_space, random_ticket
from fedmesh.overlay import OverlayMembership, hash_name
from fedmesh.spatial import (
    AttributeSpace,
    ClaimClass,
    DimensionSpec,
    Eq,
    Ge,
    Le,
    Range,
    ResourceClaim,
    ResourceTicket,
    build_base_cells,
    claim_region,
    control_point,
    map_claim,
    map_ticket,
    matches,
    normalize,
    point_satisfies,
    serialize_control_point,
    spatial_hash,
)

from conftest import TASK_LABEL, THREAD_LABEL, published_ticket, stored_claims


def one_dim_space(f=1):
    return AttributeSpace(
        dims=(DimensionSpec(name="x", kind="numeric", bounds=(0.0, 1.0)),), f_min=f
    )


def cell_bounds(cell, f):
    """A cell's closed slice bounds per dimension, from its coordinates."""
    return tuple((c / f, (c + 1) / f) for c in cell)


class TestBuildBaseCells:
    def test_testbed_produces_81_cells(self, testbed_space, testbed_cells):
        assert testbed_space.dim == 4
        assert len(testbed_cells) == 81

    def test_two_dim_twice_divided_produces_4_cells(self, grid2x2_space):
        cells = build_base_cells(grid2x2_space)
        assert len(cells) == 4
        assert {control_point(c, grid2x2_space.f_min) for c in cells} == {
            (0.25, 0.25),
            (0.25, 0.75),
            (0.75, 0.25),
            (0.75, 0.75),
        }

    def test_single_cell_space(self):
        cells = build_base_cells(one_dim_space())
        assert len(cells) == 1
        assert cells[0] == (0,)
        assert cell_bounds(cells[0], 1) == ((0.0, 1.0),)
        assert control_point(cells[0], 1) == (0.5,)

    def test_row_major_order(self, testbed_cells):
        assert testbed_cells[0] == (0, 0, 0, 0)
        assert testbed_cells[1] == (0, 0, 0, 1)
        assert testbed_cells[3] == (0, 0, 1, 0)
        assert testbed_cells[-1] == (2, 2, 2, 2)

    def test_bounds_are_exact_fractions(self, testbed_cells):
        for cell in testbed_cells:
            bounds, point = cell_bounds(cell, 3), control_point(cell, 3)
            for j, c in enumerate(cell):
                assert bounds[j] == (c / 3, (c + 1) / 3)
                lo, hi = bounds[j]
                assert point[j] == (lo + hi) / 2

    def test_cells_hold_only_their_coordinates(self):
        # 4,096 cells over 4 dimensions, as in a full_p2p federation with
        # f_min = 8: each cell is one tuple of four small ints, about 0.3 MB
        # in all; stored bounds and control points would cost 3 MB more.
        space = AttributeSpace(
            dims=tuple(
                DimensionSpec(name=f"d{i}", kind="numeric", bounds=(0.0, 1.0)) for i in range(4)
            ),
            f_min=8,
        )
        tracemalloc.start()
        try:
            cells = build_base_cells(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 8**4
        assert peak < 1_000_000

    def test_tiling_disjoint_and_covering(self, grid2x2_space):
        cells = build_base_cells(grid2x2_space)
        rng = random.Random(17)
        for _ in range(500):
            x = (rng.random(), rng.random())
            containing = [
                c
                for c in cells
                if all(
                    lo <= v < hi or (hi == 1.0 and v == 1.0)
                    for v, (lo, hi) in zip(x, cell_bounds(c, grid2x2_space.f_min))
                )
            ]
            assert len(containing) == 1


class TestControlPointSerialization:
    def test_canonical_format(self, testbed_cells):
        cell = next(c for c in testbed_cells if c == (0, 1, 0, 2))
        assert serialize_control_point(control_point(cell, 3)) == (
            "cp|0.166667,0.500000,0.166667,0.833333"
        )

    def test_fig_style_2d(self, grid2x2_space):
        cells = build_base_cells(grid2x2_space)
        assert serialize_control_point(control_point(cells[0], 2)) == "cp|0.250000,0.250000"


class TestSpatialHash:
    def test_stable_across_calls(self, testbed_cells):
        for cell in testbed_cells[:5]:
            assert spatial_hash(cell, 3) == spatial_hash(cell, 3) == hash_name(
                serialize_control_point(control_point(cell, 3))
            )

    def test_equals_hash_of_serialized_control_point(self):
        # Overlay keys recorded from the control-point text; a change to
        # that text or its hashing moves every cell's owner.
        recorded = {
            ((0, 0, 0, 0), 3): "3cd48907308c6f27c1a124d874a1f79ce7d62cc3",
            ((2, 1, 0, 2), 3): "46ce3780bda2798d4a3b08e4145afc4bb30ce563",
            ((7, 0, 3, 5), 8): "bd72ab22513c7d9fa859fb11e445e7190de821d3",
            ((16, 16, 16, 16), 17): "7754aac3a3951a0ff24dd8b288718d393cc98cd3",
            ((99,), 100): "36ad3f0fd27c2fb3e8105db7196ca7818ba15146",
        }
        for (cell, f), key in recorded.items():
            assert spatial_hash(cell, f).hex == key, (cell, f)

    def test_all_81_keys_distinct(self, testbed_cells):
        assert len({spatial_hash(c, 3) for c in testbed_cells}) == 81

    def test_cells_are_hashed_when_first_routed(self, monkeypatch, testbed_space, melbourne_scenario):
        # Building the grid hashes nothing, deploy hashes the ticket cells
        # its routes place, and a run hashes each cell it routes to once.
        calls: list[str] = []

        def counting_hash(name: str):
            calls.append(name)
            return hash_name(name)

        monkeypatch.setattr("fedmesh.spatial.hash_name", counting_hash)
        build_base_cells(testbed_space)
        assert calls == []
        state = deploy_federation(melbourne_scenario)
        assert len(calls) == len(state.cell_owner) == len(state.ticket_cells) == 4
        run_to_quiescence(state)
        assert len(calls) == len(set(calls)) == len(state.cell_owner) < 81

    def test_five_peer_distribution_mean(self, testbed_cells):
        membership = OverlayMembership()
        for i in range(1, 6):
            membership.join(f"cloud-{i}")
        counts: dict[str, int] = {}
        for cell in testbed_cells:
            owner = membership.name_of(membership.owner_of(spatial_hash(cell, 3)))
            counts[owner] = counts.get(owner, 0) + 1
        assert sum(counts.values()) == 81
        assert sum(counts.values()) / 5 == pytest.approx(16.2)


class TestNormalize:
    def test_numeric_midpoint(self, testbed_space):
        assert normalize(testbed_space, 3, 2.0) == 0.5

    def test_categorical_rank_midpoints(self):
        space = AttributeSpace(
            dims=(
                DimensionSpec(
                    name="service_type",
                    kind="categorical",
                    labels=(TASK_LABEL, THREAD_LABEL, "P2PDataflowExecution"),
                ),
            ),
            f_min=3,
        )
        assert normalize(space, 0, THREAD_LABEL) == 0.5

    def test_out_of_bounds_rejected(self, testbed_space):
        with pytest.raises(DomainError):
            normalize(testbed_space, 3, 5.0)
        with pytest.raises(DomainError):
            normalize(testbed_space, 0, "NoSuchService")

    def test_round_trip(self, testbed_space):
        rng = random.Random(29)
        for _ in range(1000):
            i = rng.randrange(testbed_space.dim)
            spec = testbed_space.dims[i]
            if spec.kind == "numeric":
                lo, hi = spec.bounds
                v = rng.uniform(lo, hi)
                x = normalize(testbed_space, i, v)
                assert lo + x * (hi - lo) == pytest.approx(v)
            else:
                v = spec.labels[rng.randrange(len(spec.labels))]
                x = normalize(testbed_space, i, v)
                assert spec.labels[int(x * len(spec.labels))] == v


class TestClaimRegion:
    def test_all_eq_collapses_to_point(self, testbed_space):
        region = claim_region(
            testbed_space,
            ResourceClaim("p", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Eq(2.0)), 1, "o", 0),
        )
        for lo, hi in region:
            assert lo == hi

    def test_ge_fills_to_upper_bound(self, testbed_space):
        claim = ResourceClaim("g", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(1.5)), 1, "o", 0)
        assert claim_region(testbed_space, claim)[3] == (0.375, 1.0)

    def test_le_and_range(self, testbed_space):
        claim = ResourceClaim("l", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Le(1.0)), 1, "o", 0)
        assert claim_region(testbed_space, claim)[3] == (0.0, 0.25)
        claim = ResourceClaim(
            "r", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Range(1.0, 3.0)), 1, "o", 0
        )
        assert claim_region(testbed_space, claim)[3] == (0.25, 0.75)

    def test_categorical_rejects_inequalities(self, testbed_space):
        claim = ResourceClaim("bad", (Ge(0.5), Eq(1), Eq("Intel"), Ge(1.5)), 1, "o", 0)
        with pytest.raises(InvalidArgumentError):
            claim_region(testbed_space, claim)

    def test_satisfying_points_fall_inside_region(self):
        rng = random.Random(31)
        hits = 0
        for t in range(2000):
            space = random_space(rng, rng.randint(1, 4))
            ticket = random_ticket(rng, space, f"t{t}")
            claim = random_claim(rng, space, f"c{t}", anchor=ticket if rng.random() < 0.6 else None)
            if not matches(claim, ticket):
                continue
            hits += 1
            region = claim_region(space, claim)
            for i in range(space.dim):
                x = normalize(space, i, ticket.point[i])
                lo, hi = region[i]
                assert lo <= x <= hi
        assert hits > 400


class TestMapClaim:
    def test_point_region_single_cell(self, testbed_space):
        claim = ResourceClaim(
            "pt", (Eq(THREAD_LABEL), Eq(2.0), Eq("Intel"), Eq(2.0)), 1, "o", 0
        )
        cells = map_claim(testbed_space, claim)
        assert len(cells) == 1

    def test_ge_spans_two_of_two_slices(self, grid2x2_space):
        claim = ResourceClaim("span", (Ge(1.5), Eq(0.2)), 1, "o", 0)
        selected = map_claim(grid2x2_space, claim)
        # normalized speed interval [0.375, 1] meets both slices of dim x.
        assert sorted(selected) == [(0, 0), (1, 0)]

    def test_union_of_cells_covers_region(self):
        # Brute force over the whole grid, in grid order. Each claim is mapped
        # twice, and both mappings must list the same cells in that order.
        rng = random.Random(37)
        spaces = [random_space(rng, rng.randint(1, 3)) for _ in range(60)]
        spaces += [random_space(rng, dim, f_min=f) for f in (1, 2, 3) for dim in (1, 2, 3)]
        for s, space in enumerate(spaces):
            cells = build_base_cells(space)
            for t in range(5):
                claim = random_claim(rng, space, f"c{s}.{t}")
                region = claim_region(space, claim)
                expected = tuple(
                    c for c in cells
                    if all(lo <= chi and clo <= hi
                           for (lo, hi), (clo, chi) in zip(region, cell_bounds(c, space.f_min)))
                )
                first = map_claim(space, claim)
                assert first == expected
                again = map_claim(space, claim)
                assert again == expected

    def test_bool_still_rejected_after_equal_number_was_mapped(self, testbed_space):
        # Eq(True) == Eq(1) and both hash alike; mapping the first must not
        # let the second pass.
        one = ResourceClaim("one", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Eq(2.0)), 1, "o", 0)
        true = ResourceClaim("true", (Eq(THREAD_LABEL), Eq(True), Eq("Intel"), Eq(2.0)), 1, "o", 0)
        assert one.constraints == true.constraints
        assert len(map_claim(testbed_space, one)) == 1
        with pytest.raises(DomainError, match="expected a number, got True"):
            map_claim(testbed_space, true)

    def test_wrong_arity_names_its_own_claim_each_call(self, testbed_space):
        constraints = (Eq(THREAD_LABEL), Eq(1), Eq("Intel"))
        for ident in ("short-a", "short-b", "short-a"):
            claim = ResourceClaim(ident, constraints, 1, "o", 0)
            with pytest.raises(InvalidArgumentError, match=f"claim {ident}: 3 constraints for 4 dims"):
                map_claim(testbed_space, claim)

    def test_nan_bound_rejected_with_dimension_named(self, testbed_space):
        claim = ResourceClaim(
            "nan", (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(float("nan"))), 1, "o", 0
        )
        with pytest.raises(DomainError, match="speed_ghz: nan outside bounds"):
            map_claim(testbed_space, claim)


class TestClaimClassMemo:
    """An interned class keeps the cells of its last successful mapping,
    with the space they were mapped in."""

    def test_interned_class_maps_as_its_plain_tuple(self):
        # Each class is mapped on a miss, on a hit, and in an equal but
        # distinct space, which is a miss again.
        rng = random.Random(41)
        for s in range(60):
            space = random_space(rng, rng.randint(1, 3))
            for t in range(4):
                plain = random_claim(rng, space, f"p{s}.{t}")
                expected = map_claim(space, plain)
                interned = ClaimClass(plain.constraints)
                for j in range(2):
                    claim = ResourceClaim(f"i{s}.{t}.{j}", interned, 1, "o", 0)
                    assert map_claim(space, claim) == expected
                    assert interned._mapped[0] is space and interned._mapped[1] == expected
                twin = AttributeSpace(space.dims, space.f_min)
                assert twin == space and twin is not space
                selected = map_claim(twin, ResourceClaim(f"g{s}.{t}", interned, 1, "o", 0))
                assert selected == expected
                assert interned._mapped[0] is twin and interned._mapped[1] is selected

    def test_hit_skips_validation_and_returns_the_stored_cells(
        self, testbed_space, monkeypatch
    ):
        interned = ClaimClass((Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(2.4)))
        first = map_claim(testbed_space, ResourceClaim("u0", interned, 1, "o", 0))
        calls = []
        monkeypatch.setattr(
            "fedmesh.spatial.claim_region", lambda *args: calls.append(args) or claim_region(*args)
        )
        for j in range(1, 4):
            claim = ResourceClaim(f"u{j}", interned, 1, "o", 0)
            assert map_claim(testbed_space, claim) is first
        assert calls == []

    @pytest.mark.parametrize(
        "constraints, error, message",
        [
            (
                (Eq(THREAD_LABEL), Eq(1), Eq("Intel")),
                InvalidArgumentError, "3 constraints for 4 dims",
            ),
            (
                (Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(float("nan"))),
                DomainError, "speed_ghz: nan outside bounds",
            ),
            (
                (Eq("NoSuchService"), Eq(1), Eq("Intel"), Ge(2.0)),
                DomainError, "service_type: unknown label",
            ),
        ],
        ids=["arity", "nan", "label"],
    )
    def test_failing_class_is_rejected_under_each_claim_id_and_never_stored(
        self, testbed_space, constraints, error, message
    ):
        interned = ClaimClass(constraints)
        for ident in ("bad-a", "bad-b", "bad-a"):
            claim = ResourceClaim(ident, interned, 1, "o", 0)
            with pytest.raises(error, match=f"claim {ident}: {message}"):
                map_claim(testbed_space, claim)
            assert interned._mapped is None

    def test_class_is_validated_again_in_another_space(self, testbed_space):
        slower = AttributeSpace(
            dims=testbed_space.dims[:3]
            + (DimensionSpec(name="speed_ghz", kind="numeric", bounds=(0.0, 3.0)),),
            f_min=testbed_space.f_min,
        )
        interned = ClaimClass((Eq(THREAD_LABEL), Eq(1), Eq("Intel"), Ge(3.5)))
        stored = map_claim(testbed_space, ResourceClaim("fast-1", interned, 1, "o", 0))
        assert stored and interned._mapped[1] is stored
        claim = ResourceClaim("fast-2", interned, 1, "o", 0)
        with pytest.raises(DomainError, match=r"claim fast-2: speed_ghz: 3.5 outside bounds \[0.0, 3.0\]"):
            map_claim(slower, claim)
        assert interned._mapped[0] is testbed_space


class TestMapTicket:
    def test_origin_point_maps_to_first_cell(self, testbed_space):
        ticket = ResourceTicket("t0", (TASK_LABEL, 1.0, "Intel", 0.0), 1, "n", 0)
        # first categorical label sits at 1/6 -> slice 0; numeric zeros -> slice 0
        cell = map_ticket(testbed_space, ticket)
        assert cell[1] == 0 and cell[3] == 0

    def test_upper_boundary_belongs_to_last_slice(self, testbed_space):
        ticket = ResourceTicket("t1", (TASK_LABEL, 8.0, "Intel", 4.0), 1, "n", 0)
        cell = map_ticket(testbed_space, ticket)
        assert cell[1] == 2 and cell[3] == 2

    def test_point_of_wrong_length_rejected(self, testbed_space):
        ticket = ResourceTicket("t3", (TASK_LABEL, 1.0, "Intel"), 1, "n", 0)
        with pytest.raises(InvalidArgumentError, match="ticket t3: 3 coordinates for 4 dims"):
            map_ticket(testbed_space, ticket)

    def test_out_of_bounds_point_rejected(self, testbed_space):
        ticket = ResourceTicket("t2", (TASK_LABEL, 1.0, "Intel", 9.9), 1, "n", 0)
        with pytest.raises(DomainError):
            map_ticket(testbed_space, ticket)

    def test_nan_coordinate_rejected_with_dimension_named(self, testbed_space):
        ticket = ResourceTicket("tn", (TASK_LABEL, 1.0, "Intel", float("nan")), 1, "n", 0)
        with pytest.raises(DomainError, match="speed_ghz: nan outside bounds"):
            map_ticket(testbed_space, ticket)

    def test_point_lands_within_reported_cell_bounds(self):
        rng = random.Random(41)
        for t in range(500):
            space = random_space(rng, rng.randint(1, 3))
            ticket = random_ticket(rng, space, f"t{t}")
            cell = map_ticket(space, ticket)
            for i in range(space.dim):
                x = normalize(space, i, ticket.point[i])
                lo, hi = cell_bounds(cell, space.f_min)[i]
                assert lo <= x <= hi


class TestDomainErrorsNameTheirQuery:
    @pytest.mark.parametrize("query", ["claim", "ticket"])
    @pytest.mark.parametrize(
        "dim, value, message",
        [
            pytest.param(3, float("nan"), "speed_ghz: nan outside bounds [0.0, 4.0]", id="nan"),
            pytest.param(3, 9.9, "speed_ghz: 9.9 outside bounds [0.0, 4.0]", id="out-of-bounds"),
            pytest.param(2, "Sparc", "cpu_type: unknown label 'Sparc'", id="unknown-label"),
        ],
    )
    def test_prefixed_with_the_query_id(self, testbed_space, query, dim, value, message):
        point = [THREAD_LABEL, 1, "Intel", 2.0]
        point[dim] = value
        if query == "claim":
            mapper, obj = map_claim, ResourceClaim("bad-7", tuple(Eq(v) for v in point), 1, "o", 0)
        else:
            mapper, obj = map_ticket, ResourceTicket("bad-7", tuple(point), 1, "n", 0)
        with pytest.raises(DomainError, match=f"^{query} bad-7: {re.escape(message)}$"):
            mapper(testbed_space, obj)


class TestRecords:
    """Claims and tickets are tuple records whose constructors check their units."""

    def test_claim_of_no_units_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="requested_units must be >= 1"):
            ResourceClaim("c", stored_claims()[0].constraints, 0, "cloud-1", 0)

    def test_ticket_of_negative_capacity_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="available_units must be >= 0"):
            ResourceTicket("t", published_ticket().point, -1, "cloud-2/n0", 0)

    def test_keyword_construction_names_every_field(self):
        claim = ResourceClaim(
            claim_id="c", constraints=(Eq(THREAD_LABEL),), requested_units=2,
            origin="cloud-1", arrival_time=5,
        )
        assert type(claim) is ResourceClaim
        assert claim == ResourceClaim("c", (Eq(THREAD_LABEL),), 2, "cloud-1", 5)
        assert (claim.claim_id, claim.requested_units, claim.origin, claim.arrival_time) == (
            "c", 2, "cloud-1", 5
        )
        ticket = ResourceTicket(
            ticket_id="t", point=(THREAD_LABEL,), available_units=0, origin="n", issue_time=9
        )
        assert type(ticket) is ResourceTicket
        assert ticket == ResourceTicket("t", (THREAD_LABEL,), 0, "n", 9)
        assert (ticket.ticket_id, ticket.point, ticket.available_units, ticket.issue_time) == (
            "t", (THREAD_LABEL,), 0, 9
        )

    def test_records_have_no_instance_dict(self):
        for record in (stored_claims()[0], published_ticket()):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.note = "x"


class TestMatches:
    def test_thread_claim_served_by_thread_ticket(self):
        claims = stored_claims()
        ticket = published_ticket()
        assert matches(claims[0], ticket) is True

    def test_task_claim_rejected_by_thread_ticket(self):
        claims = stored_claims()
        assert matches(claims[1], published_ticket()) is False

    def test_identity_claim_matches_own_values(self):
        ticket = published_ticket()
        claim = ResourceClaim(
            "self", tuple(Eq(v) for v in ticket.point), 1, "o", 0
        )
        assert matches(claim, ticket) is True

    def test_capacity_not_consulted(self):
        ticket = ResourceTicket(
            "empty", published_ticket().point, available_units=0, origin="n", issue_time=0
        )
        assert matches(stored_claims()[0], ticket) is True


class TestRendezvous:
    def test_exhaustive_on_2d_grid(self, grid2x2_space):
        (lo_x, hi_x), (lo_y, hi_y) = (d.bounds for d in grid2x2_space.dims)
        xs = [lo_x + k * (hi_x - lo_x) / 8 for k in range(9)]
        ys = [lo_y + k * (hi_y - lo_y) / 8 for k in range(9)]

        def constraints_for(values):
            out = []
            for v, (lo, hi) in zip(values, (d.bounds for d in grid2x2_space.dims)):
                out.append([Eq(v), Ge(v), Le(v), Range(lo, v), Range(v, hi)])
            return out

        tickets = [
            ResourceTicket(f"t{i}-{j}", (x, y), 1, "n", 0)
            for i, x in enumerate(xs)
            for j, y in enumerate(ys)
        ]
        checked = 0
        for ticket in tickets:
            tcell = map_ticket(grid2x2_space, ticket)
            per_dim = constraints_for(ticket.point)
            for cx in per_dim[0]:
                for cy in per_dim[1]:
                    claim = ResourceClaim("c", (cx, cy), 1, "o", 0)
                    assert matches(claim, ticket)
                    assert tcell in map_claim(grid2x2_space, claim)
                    checked += 1
        assert checked == 81 * 25

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.randoms(use_true_random=False))
    def test_property_matching_pairs_meet(self, dim, rnd):
        space = random_space(rnd, dim)
        ticket = random_ticket(rnd, space, "t")
        claim = random_claim(rnd, space, "c", anchor=ticket)
        assert matches(claim, ticket)
        assert map_ticket(space, ticket) in map_claim(space, claim)


class TestSliceBoundaries:
    """Claims and tickets sitting exactly on slice boundaries must still meet.

    Boundary coordinates are the nastiest floating-point case: for fractions
    like 1/3 a multiplication ``x * f`` and the division ``a / f`` that bounds
    a slice disagree by one ulp. The ticket's cell index and the claim's
    cells must both come from the divisions.
    """

    @pytest.mark.parametrize("f", [2, 3, 4, 5, 7])
    def test_boundary_points_rendezvous_for_all_constraint_kinds(self, f):
        space = AttributeSpace(
            dims=(
                DimensionSpec(name="u", kind="numeric", bounds=(0.0, 1.0)),
                DimensionSpec(name="v", kind="numeric", bounds=(-3.0, 9.0)),
            ),
            f_min=f,
        )
        u_points = [a / f for a in range(f + 1)]
        v_lo, v_hi = space.dims[1].bounds
        v_points = [v_lo + (v_hi - v_lo) * a / f for a in range(f + 1)]
        for u in u_points:
            for v in v_points:
                ticket = ResourceTicket("t", (u, v), 1, "n", 0)
                tcell = map_ticket(space, ticket)
                for cu in (Eq(u), Ge(u), Le(u)):
                    for cv in (Eq(v), Ge(v), Le(v)):
                        claim = ResourceClaim("c", (cu, cv), 1, "o", 0)
                        assert matches(claim, ticket)
                        assert tcell in map_claim(space, claim), (f, u, v, cu, cv)

    def test_ticket_on_interior_boundary_goes_to_upper_slice(self):
        # Half-open slices: an exact boundary point belongs to the slice above.
        space = AttributeSpace(
            dims=(DimensionSpec(name="u", kind="numeric", bounds=(0.0, 1.0)),),
            f_min=3,
        )
        cells = build_base_cells(space)
        ticket = ResourceTicket("t", (1 / 3,), 1, "n", 0)
        assert map_ticket(space, ticket) == cells[1] == (1,)

    def test_eq_claim_on_boundary_replicates_to_both_neighbors(self):
        space = AttributeSpace(
            dims=(DimensionSpec(name="u", kind="numeric", bounds=(0.0, 1.0)),),
            f_min=3,
        )
        claim = ResourceClaim("c", (Eq(1 / 3),), 1, "o", 0)
        assert sorted(map_claim(space, claim)) == [(0,), (1,)]


def test_build_is_pure(testbed_space):
    a = build_base_cells(testbed_space)
    b = build_base_cells(testbed_space)
    assert a == b


def test_point_satisfies_matches_constraint_table():
    claim = stored_claims()[2]
    assert point_satisfies(claim.constraints, (THREAD_LABEL, 1, "Intel", 2.4)) is True
    assert point_satisfies(claim.constraints, (THREAD_LABEL, 1, "Intel", 2.35)) is False
