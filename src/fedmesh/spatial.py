"""d-dimensional attribute space, base index cells, and claim/ticket mapping.

Every resource attribute is one dimension of a normalized unit cube. The cube
is divided into ``f_min`` equal slices per dimension, giving ``f_min ** dim``
base index cells. Cells are never subdivided. A cell is its coordinates: the
tuple of its slice index per dimension. Its bounds and its midpoint (its
control point) follow from those and ``f_min``, so neither is stored; the
control point is derived only where the federation hashes it onto the overlay
key space, through :func:`spatial_hash`. This module is pure geometry and
keeps no process-wide state: the only mapping memo is the one each interned
:class:`ClaimClass` carries.

Claims are range objects: they are replicated to every base cell their region
intersects. Tickets are point objects: they map to exactly one cell. Matching
therefore happens only at the ticket's cell, and any claim/ticket pair that
matches is guaranteed to meet there. Both mappings compute their cells from
coordinates, as a Pastry key's root is found by routing to the key: no run
lists the grid. :func:`build_base_cells` enumerates it for the geometry
checks that need every cell.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import DomainError, InvalidArgumentError
from .overlay import NodeId, hash_name

NUMERIC = "numeric"
CATEGORICAL = "categorical"

CONTROL_POINT_PREFIX = "cp|"


@dataclass(frozen=True)
class DimensionSpec:
    """One attribute dimension: numeric with bounds, or categorical labels."""

    name: str
    kind: str
    bounds: tuple[float, float] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidArgumentError("dimension needs a name")
        if self.kind == NUMERIC:
            if self.labels is not None:
                raise InvalidArgumentError(f"{self.name}: numeric dimension takes no labels")
            if self.bounds is None or not -math.inf < self.bounds[0] < self.bounds[1] < math.inf:
                raise InvalidArgumentError(f"{self.name}: numeric bounds need finite lo < hi")
        elif self.kind == CATEGORICAL:
            if self.bounds is not None:
                raise InvalidArgumentError(f"{self.name}: categorical dimension takes no bounds")
            if not self.labels:
                raise InvalidArgumentError(f"{self.name}: categorical dimension needs labels")
            if len(set(self.labels)) != len(self.labels):
                raise InvalidArgumentError(f"{self.name}: labels must be unique")
        else:
            raise InvalidArgumentError(f"{self.name}: unknown dimension kind {self.kind!r}")


@dataclass(frozen=True)
class AttributeSpace:
    """Ordered dimensions plus the division level of the index grid."""

    dims: tuple[DimensionSpec, ...]
    f_min: int

    def __post_init__(self) -> None:
        if len(self.dims) < 1:
            raise InvalidArgumentError("attribute space needs at least one dimension")
        if self.f_min < 1:
            raise InvalidArgumentError("division level must satisfy f_min >= 1")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("dimension names must be unique")

    @property
    def dim(self) -> int:
        return len(self.dims)


# Per-dimension claim constraints. Categorical dimensions admit only Eq.


@dataclass(frozen=True)
class Eq:
    value: object


@dataclass(frozen=True)
class Ge:
    value: float


@dataclass(frozen=True)
class Le:
    value: float


@dataclass(frozen=True)
class Range:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise InvalidArgumentError(f"range lo {self.lo} exceeds hi {self.hi}")


Constraint = Union[Eq, Ge, Le, Range]


# One base cell of the grid: its slice index per dimension.
IndexCell = tuple[int, ...]


class ClaimClass(tuple):
    """An interned constraint tuple: equal to, and hashing as, the plain tuple
    of the same constraints, with its hash computed once at construction.

    It also keeps the cells of its last successful :func:`map_claim`, with
    the space they were mapped in, so every later claim of the class in that
    space reuses them without validating or mapping its region again. A
    class that fails validation is never stored, so each of its claims is
    rejected under its own id on every call.
    """

    def __new__(cls, constraints: Iterable[Constraint]) -> ClaimClass:
        self = super().__new__(cls, constraints)
        self._hash = tuple.__hash__(self)
        self._mapped = None
        return self

    def __hash__(self) -> int:
        return self._hash


class _ResourceClaimFields(NamedTuple):
    claim_id: str
    constraints: tuple[Constraint, ...]
    requested_units: int
    origin: str
    arrival_time: int


class ResourceClaim(_ResourceClaimFields):
    """A range look-up query: one constraint per dimension plus capacity.

    A tuple record whose constructor checks ``requested_units >= 1``;
    coordination.new_record builds it without the check.
    """

    __slots__ = ()

    def __new__(
        cls, claim_id: str, constraints: tuple[Constraint, ...], requested_units: int,
        origin: str, arrival_time: int,
    ) -> ResourceClaim:
        if requested_units < 1:
            raise InvalidArgumentError("requested_units must be >= 1")
        return tuple.__new__(cls, (claim_id, constraints, requested_units, origin, arrival_time))


class _ResourceTicketFields(NamedTuple):
    ticket_id: str
    point: tuple[object, ...]
    available_units: int
    origin: str
    issue_time: int


class ResourceTicket(_ResourceTicketFields):
    """A point update query: a node's attribute values plus free capacity.

    A tuple record whose constructor checks ``available_units >= 0``;
    coordination.new_record builds it without the check.
    """

    __slots__ = ()

    def __new__(
        cls, ticket_id: str, point: tuple[object, ...], available_units: int,
        origin: str, issue_time: int,
    ) -> ResourceTicket:
        if available_units < 0:
            raise InvalidArgumentError("available_units must be >= 0")
        return tuple.__new__(cls, (ticket_id, point, available_units, origin, issue_time))


def serialize_control_point(point: tuple[float, ...]) -> str:
    """Canonical, bit-exact text form fed to the spatial hash."""
    return CONTROL_POINT_PREFIX + ",".join(f"{c:.6f}" for c in point)


def build_base_cells(space: AttributeSpace) -> tuple[IndexCell, ...]:
    """All f_min**dim base cells in row-major order of their coordinates."""
    return tuple(itertools.product(range(space.f_min), repeat=space.dim))


def control_point(cell: IndexCell, f_min: int) -> tuple[float, ...]:
    """A cell's midpoint in normalized space: per dimension, the mean of the
    slice bounds ``c / f_min`` and ``(c + 1) / f_min``."""
    return tuple((c / f_min + (c + 1) / f_min) / 2 for c in cell)


def spatial_hash(cell: IndexCell, f_min: int) -> NodeId:
    """Overlay key of a cell: hash of its canonical control-point text."""
    return hash_name(serialize_control_point(control_point(cell, f_min)))


def normalize(space: AttributeSpace, dim_index: int, value: object) -> float:
    """Map a native attribute value into [0, 1].

    Numeric values scale linearly over their bounds. Categorical labels map
    to slice midpoints ``(rank + 0.5) / len(labels)`` so no label ever sits on
    a grid boundary.
    """
    spec = space.dims[dim_index]
    if spec.kind == NUMERIC:
        lo, hi = spec.bounds  # type: ignore[misc]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DomainError(f"{spec.name}: expected a number, got {value!r}")
        if not lo <= value <= hi:  # also rejects NaN
            raise DomainError(f"{spec.name}: {value} outside bounds [{lo}, {hi}]")
        return (value - lo) / (hi - lo)
    labels = spec.labels  # type: ignore[assignment]
    try:
        rank = labels.index(value)
    except ValueError:
        raise DomainError(f"{spec.name}: unknown label {value!r}") from None
    return (rank + 0.5) / len(labels)


def validate_claim(space: AttributeSpace, claim: ResourceClaim) -> None:
    """Check the claim's constraints against the space's dimensions."""
    if len(claim.constraints) != space.dim:
        raise InvalidArgumentError(
            f"claim {claim.claim_id}: {len(claim.constraints)} constraints for {space.dim} dims"
        )
    for spec, constraint in zip(space.dims, claim.constraints):
        if spec.kind == CATEGORICAL and not isinstance(constraint, Eq):
            raise InvalidArgumentError(
                f"claim {claim.claim_id}: categorical dimension {spec.name} admits only Eq"
            )


def claim_region(space: AttributeSpace, claim: ResourceClaim) -> tuple[tuple[float, float], ...]:
    """The claim's closed per-dimension interval in normalized space; a value
    outside its dimension's domain is a DomainError naming the claim."""
    validate_claim(space, claim)
    region = []
    try:
        for i, constraint in enumerate(claim.constraints):
            if isinstance(constraint, Eq):
                x = normalize(space, i, constraint.value)
                region.append((x, x))
            elif isinstance(constraint, Ge):
                region.append((normalize(space, i, constraint.value), 1.0))
            elif isinstance(constraint, Le):
                region.append((0.0, normalize(space, i, constraint.value)))
            else:
                region.append((normalize(space, i, constraint.lo), normalize(space, i, constraint.hi)))
    except DomainError as exc:
        raise DomainError(f"claim {claim.claim_id}: {exc}") from None
    return tuple(region)


def map_claim(space: AttributeSpace, claim: ResourceClaim) -> tuple[IndexCell, ...]:
    """Every base cell whose bounds intersect the claim's region, in
    row-major order of their coordinates.

    Closed-interval intersection per dimension, so a region touching a slice
    boundary lands in both adjacent cells; the matching ticket's single cell
    is always among them. Only the cells the region meets are built, never
    the grid. A claim whose constraints are a plain tuple is validated and
    mapped on every call. An interned :class:`ClaimClass` keeps the cells of
    its last successful call, which a later call with the same ``space``
    object returns without validating or mapping again.
    """
    constraints = claim.constraints
    interned = type(constraints) is ClaimClass
    if interned:
        mapped = constraints._mapped
        if mapped is not None and mapped[0] is space:
            return mapped[1]
    cells = _region_cells(space.f_min, claim_region(space, claim))
    if interned:
        constraints._mapped = (space, cells)
    return cells


def _region_cells(f_min: int, region: tuple[tuple[float, float], ...]) -> tuple[IndexCell, ...]:
    """The cells a validated region meets, in row-major order: the product
    of the slices it meets in each dimension."""
    f = f_min
    per_dim: list[list[int]] = []
    for lo, hi in region:
        indices = [a for a in range(f) if lo <= (a + 1) / f and a / f <= hi]
        assert indices, "a region inside the unit cube always meets at least one slice"
        per_dim.append(indices)
    return tuple(itertools.product(*per_dim))


def map_ticket(space: AttributeSpace, ticket: ResourceTicket) -> IndexCell:
    """The unique cell containing the ticket's normalized point: its slice
    index per dimension.

    Slices are half-open below the top of the space; the upper boundary of
    the whole space belongs to the last slice. The index is the last ``a``
    with ``a / f <= x``, in the bounds arithmetic ``_region_cells`` uses, so
    every region containing the point meets its cell. A coordinate outside
    its dimension's domain is a DomainError naming the ticket.
    """
    if len(ticket.point) != space.dim:
        raise InvalidArgumentError(
            f"ticket {ticket.ticket_id}: {len(ticket.point)} coordinates for {space.dim} dims"
        )
    f = space.f_min
    coords = []
    for i in range(space.dim):
        try:
            x = normalize(space, i, ticket.point[i])
        except DomainError as exc:
            raise DomainError(f"ticket {ticket.ticket_id}: {exc}") from None
        coords.append(max(a for a in range(f) if a / f <= x))
    return tuple(coords)


def constraint_satisfied(constraint: Constraint, value: object) -> bool:
    """Whether one native value satisfies one per-dimension constraint."""
    if isinstance(constraint, Eq):
        return value == constraint.value
    if isinstance(constraint, Ge):
        return value >= constraint.value
    if isinstance(constraint, Le):
        return value <= constraint.value
    return constraint.lo <= value <= constraint.hi


def point_satisfies(constraints: tuple[Constraint, ...], point: tuple[object, ...]) -> bool:
    """True iff every constraint holds for the point's native values."""
    if len(constraints) != len(point):
        raise InvalidArgumentError("constraint/point dimensionality mismatch")
    for constraint, value in zip(constraints, point):
        if not constraint_satisfied(constraint, value):
            return False
    return True


def matches(claim: ResourceClaim, ticket: ResourceTicket) -> bool:
    """True iff every constraint holds for the ticket's native values.

    Capacity is deliberately not checked here; the coordination layer owns
    capacity accounting.
    """
    return point_satisfies(claim.constraints, ticket.point)
