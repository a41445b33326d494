"""Measured figures (timings, heap sizes, host descriptions) go stale with
every change to the code they measure, so they live in CHANGES.md and
bench/README.md only, never in the README or the source."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIGURE = re.compile(r"\b[0-9][0-9.,]* ?(µs|us|ns|MB|KiB|KB)\b|median of|vCPU")


def test_no_measured_figure_in_the_readme_or_the_source():
    paths = [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
    found = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FIGURE.search(line)
    ]
    assert found == []
