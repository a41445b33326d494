"""The ``fedmesh`` command line: validate, run, sweep, oracle.

Exit codes: 0 ok, 2 invalid scenario, 3 I/O error, 4 internal invariant
failure (including buffer overflow), 5 stranded claims at quiescence.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable

from .errors import FedmeshError, InvalidArgumentError
from .experiments import run_scenario, run_sweep
from .oracles import run_oracle_suites
from .reporting import write_run_outputs, write_sweep_outputs
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_STRANDED = 5

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "trace": logging.DEBUG,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmesh",
        description="Deterministic simulator of a decentralized enterprise-cloud federation",
    )
    parser.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS), default="warn", help="logging verbosity"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("file")

    p = sub.add_parser("run", help="run a scenario to quiescence and emit metrics")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="output directory (default $FEDMESH_OUT or .)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="run the 5-point granularity sweep")
    p.add_argument("file")
    p.add_argument("--model", choices=("task", "thread"), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("oracle", help="run brute-force equivalence suites")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--dims", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _out_dir(arg: str | None) -> Path:
    return Path(arg if arg is not None else os.environ.get("FEDMESH_OUT", "."))


def _load(path: str):
    try:
        return load_scenario(path), EXIT_OK
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(f"{exc.source}: {diag}", file=sys.stderr)
        return None, EXIT_INVALID_SCENARIO
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO


def cmd_validate(args) -> int:
    scenario, code = _load(args.file)
    if scenario is None:
        return code
    print(
        f"ok: {len(scenario.clouds)} clouds, {len(scenario.workloads)} workloads, "
        f"{scenario.f_min ** len(scenario.dims)} index cells"
    )
    return EXIT_OK


def _simulate(args, simulate: Callable, write: Callable) -> int:
    """Load the scenario, simulate it, write the outputs and report any
    stranded claims: the shared body of ``run`` and ``sweep``."""
    scenario, code = _load(args.file)
    if scenario is None:
        return code
    try:
        result = simulate(scenario)
    except FedmeshError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        written = write(result, _out_dir(args.out), fmt=args.format)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    if result.stranded:
        print(f"stranded claims ({len(result.stranded)}):", file=sys.stderr)
        for claim_id in result.stranded:
            print(f"  {claim_id}", file=sys.stderr)
        return EXIT_STRANDED
    return EXIT_OK


def cmd_run(args) -> int:
    def simulate(scenario):
        return run_scenario(scenario if args.seed is None else scenario.with_seed(args.seed))

    return _simulate(args, simulate, write_run_outputs)


def cmd_sweep(args) -> int:
    return _simulate(args, partial(run_sweep, models=(args.model,)), write_sweep_outputs)


def cmd_oracle(args) -> int:
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    if args.dims < 2:
        print("--dims must be >= 2", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    try:
        reports = run_oracle_suites(args.trials, args.dims, args.seed)
    except InvalidArgumentError as exc:
        print(f"--dims: {exc}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    all_passed = True
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{report.name}: {report.trials} trials, {report.failures} failures [{status}]")
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=LOG_LEVELS[args.log_level], stream=sys.stderr)
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "oracle": cmd_oracle,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
