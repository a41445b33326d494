"""Compare two checkouts' simulation outputs and event counts, seed by seed.

    python3 tools/output_diff.py BASE_ROOT HEAD_ROOT [--seeds N]

BASE_ROOT and HEAD_ROOT are repository roots, each holding ``src/fedmesh``
and ``bench``. For each tree one subprocess imports that tree's package and
its ``bench/harness.py``, runs the testbed-sweep, hub-burst and p2p-stream
workloads at seeds 1..N as ``bench/run.py`` builds them, writes each run's
output files to a temporary directory, and reports their SHA-256 digests
and the run's delivered event count. It prints one line per (workload,
seed): ``identical``, or the event counts and the files that differ, then a
total. Informational: the exit code is 0 whatever the differences are.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("testbed-sweep", "hub-burst", "p2p-stream")


def collect(root: str, seeds: int) -> None:
    """Run every workload at seeds 1..seeds from the tree at ``root`` and
    print {workload: {seed: {"events": n, "digests": {file: sha256}}}} as
    JSON. Runs inside the subprocess, so each tree is imported alone."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "bench")]
    import harness

    found: dict[str, dict[str, dict]] = {}
    for name in WORKLOADS:
        for seed in range(1, seeds + 1):
            with tempfile.TemporaryDirectory() as out_dir:
                outcome = harness.make_workload(name, seed).run(Path(out_dir))
            found.setdefault(name, {})[str(seed)] = {
                "events": outcome.events, "digests": outcome.digests,
            }
    json.dump(found, sys.stdout)


def outputs(root: Path, seeds: int) -> subprocess.Popen:
    """Start ``collect`` on one tree in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    code = "import sys, output_diff; output_diff.collect(sys.argv[1], int(sys.argv[2]))"
    return subprocess.Popen(
        [sys.executable, "-c", code, str(root.resolve()), str(seeds)],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def differences(base: dict, head: dict) -> list[str]:
    """What differs between one case's two sides: the event counts, then
    each file whose bytes differ or that one side lacks."""
    found = []
    if base["events"] != head["events"]:
        found.append(f"events {base['events']} -> {head['events']}")
    for name in sorted(base["digests"].keys() | head["digests"].keys()):
        a, b = base["digests"].get(name), head["digests"].get(name)
        if a is None or b is None:
            found.append(f"{name} only in {'head' if a is None else 'base'}")
        elif a != b:
            found.append(f"{name} differs")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    # The two trees run side by side, one process each.
    roots = (args.base, args.head)
    runs = [outputs(root, args.seeds) for root in roots]
    written = [run.communicate()[0] for run in runs]
    for root, run in zip(roots, runs):
        if run.returncode != 0:
            print(f"{root}: the run failed with exit code {run.returncode}")
            return 0
    base, head = (json.loads(stdout) for stdout in written)
    identical = 0
    for name in WORKLOADS:
        for seed in range(1, args.seeds + 1):
            found = differences(base[name][str(seed)], head[name][str(seed)])
            identical += not found
            print(f"{name} seed {seed}: {'; '.join(found) or 'identical'}")
    print(f"{identical} of {len(WORKLOADS) * args.seeds} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
