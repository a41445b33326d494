"""Exception hierarchy shared by all fedmesh modules."""

from __future__ import annotations


class FedmeshError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(FedmeshError, ValueError):
    """A caller violated an operation precondition."""


class DomainError(FedmeshError, ValueError):
    """A value falls outside its attribute dimension's domain."""


class AlreadyMemberError(FedmeshError):
    """Join attempted with a name that is already in the overlay."""


class NotAMemberError(FedmeshError):
    """Leave, lookup or route referenced a peer that is not in the overlay."""


class IdCollisionError(FedmeshError):
    """Two distinct peer names hashed to the same 160-bit identifier."""


class NoRouteError(FedmeshError):
    """Routing requested against an empty overlay."""


class BufferOverflowError(FedmeshError):
    """An entity inbox exceeded its configured capacity."""


class SimulationError(FedmeshError):
    """The event loop aborted; carries entity/event/time diagnostics."""


class ConsistencyError(FedmeshError):
    """An internal protocol invariant was violated (should be unreachable)."""
