"""fedmesh: a deterministic simulator of decentralized cloud federation.

A key-based-routing overlay assigns d-dimensional index cells to coordinator
peers; schedulers post range claims, execution nodes post point tickets, and
per-cell FIFO allocation load-balances work units across enterprise clouds.

The package exports only what the README documents, and everything else is
imported from its module, such as `fedmesh.federation` or `fedmesh.oracles`.
"""

from .config import Scenario
from .errors import (
    AlreadyMemberError,
    BufferOverflowError,
    ConsistencyError,
    DomainError,
    FedmeshError,
    IdCollisionError,
    InvalidArgumentError,
    InvalidSourceError,
    NoRouteError,
    NotAMemberError,
    NotReadyError,
    SimulationError,
)
from .experiments import RunResult, SweepResult, run_scenario, run_sweep
from .scenario import ScenarioError, builtin_scenario_path, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AlreadyMemberError",
    "BufferOverflowError",
    "ConsistencyError",
    "DomainError",
    "FedmeshError",
    "IdCollisionError",
    "InvalidArgumentError",
    "InvalidSourceError",
    "NoRouteError",
    "NotAMemberError",
    "NotReadyError",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "SweepResult",
    "builtin_scenario_path",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "run_sweep",
]
