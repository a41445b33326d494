"""Compare two checkouts' scenario parsers on seeded mutations of the
built-in scenario.

    python3 tools/scenario_diff.py BASE_SRC HEAD_SRC [--cases N] [--seed S] [--show CASE]

BASE_SRC and HEAD_SRC are ``src`` directories that each hold a ``fedmesh``
package; both are imported into this process under their own names. Each case
applies one to six edits, drawn from the mutation operators defined here
(``mutate`` and its arguments, ``ARGS``), to the non-comment lines of HEAD's
built-in scenario, and parses the result with both parsers. The mutation
property in tests/test_scenario_cli.py imports the same operators. It prints:

- verdict flips: inputs one parser accepts and the other rejects;
- unequal accepted inputs: both accept, but the scenarios differ in a field
  both sides define (a field defined on one side only is named once);
- crashes: inputs on which a parser raised anything but its ScenarioError;
- for inputs both reject, each (line, field) diagnostic found on one side
  only, counted by class (the side that has it, its field and the shape of
  its message), with one example per class; and how many inputs differ only
  in message text.

``--show CASE`` prints that case's text and both outcomes instead.
Informational: the exit code is 0 whatever the differences are.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import random
import re
import sys
from collections import Counter
from pathlib import Path

MUTANT_VALUES = (
    "", "0", "-1", "1", "3.5", "1e9", "nan", "inf", "x", ",", "a, b", "0, 0", "5, 1",
    "true", "numeric", "categorical", "full_p2p", "constant, 0", "uniform, 1", "cloud-1",
    "P2PTaskExecution", "constant, nan", "uniform, 1, inf", "-inf, 4", "1, 2, 3",
)
MUTANT_NAMES = ("", "x", "cloud-1", "speed_ghz", "two words")
MUTANT_LINES = (
    "[dimension]", "[cloud]", "[workload]", "[space]", "[latency]", "[bogus]", "[]", "[",
    "[bogus name]", "key = value", "junk",
)
# A diagnostic's class is its side, its field and its message with quoted
# names and numbers blanked out.
SHAPE = re.compile(r"'[^']*'|\b\d[\w.+-]*")
ARGS = {
    "value": MUTANT_VALUES, "rename": MUTANT_NAMES, "drop": (None,),
    "insert": MUTANT_LINES, "duplicate": (None,),
}


def mutate(lines: list[str], op: str, at: int, arg: str | None) -> None:
    """Apply one edit in place; value and rename pick among key lines and
    section headers respectively."""
    if op == "insert":
        lines.insert(at % (len(lines) + 1), arg)
        return
    if op in ("value", "rename"):
        header = op == "rename"
        candidates = [i for i, line in enumerate(lines) if line.startswith("[") == header]
        if not candidates:
            return
        i = candidates[at % len(candidates)]
        if header:
            lines[i] = f"[{lines[i].strip('[]').split(' ')[0]} {arg}]"
        elif "=" in lines[i]:
            lines[i] = f"{lines[i].partition('=')[0]}= {arg}"
        return
    if lines:
        i = at % len(lines)
        if op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])


def load(src: Path, alias: str):
    """Import ``src/fedmesh`` as the package ``alias``."""
    init = src / "fedmesh" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def plain(value):
    """Dataclasses and NamedTuple records as field dicts and sequences as
    lists, so two packages' scenarios compare by value, whichever of the two
    record kinds each side builds."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {name: plain(field) for name, field in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [plain(item) for item in value]
    return value


def unequal(a, b, path: str, one_sided: set[str]) -> bool:
    """Whether ``a`` and ``b`` differ in a field both define; fields that
    only one defines go into ``one_sided``."""
    if isinstance(a, dict) and isinstance(b, dict):
        one_sided.update(f"{path}{key}" for key in a.keys() ^ b.keys())
        return any(unequal(a[k], b[k], f"{path}{k}.", one_sided) for k in sorted(a.keys() & b.keys()))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(unequal(x, y, path, one_sided) for x, y in zip(a, b))
    return a != b


def outcome(package, text: str):
    """("ok", plain scenario), ("rejected", {(line, field): message}) or
    ("crash", description)."""
    try:
        return "ok", plain(package.parse_scenario(text))
    except package.ScenarioError as exc:
        return "rejected", {(d.line, d.field): d.message for d in exc.diagnostics}
    except Exception as exc:  # noqa: BLE001 - a crash is what this counts
        return "crash", f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("--cases", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--show", type=int, default=None, help="print one case's text and outcomes")
    args = parser.parse_args(argv)
    base = load(args.base_src, "fedmesh_base")
    head = load(args.head_src, "fedmesh_head")
    builtin = args.head_src / "fedmesh" / "scenarios" / "melbourne5.scenario"
    lines0 = [
        line for line in builtin.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]

    rng = random.Random(args.seed)
    verdicts: Counter[str] = Counter()
    text_only = differing = 0
    flips: list[str] = []
    unequal_ok: list[str] = []
    crashes: list[str] = []
    one_sided: set[str] = set()
    classes: Counter[tuple[str, str, str]] = Counter()
    examples: dict[tuple[str, str, str], str] = {}
    for case in range(args.cases):
        mutations = []
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(sorted(ARGS))
            mutations.append((op, rng.randint(0, 10**6), rng.choice(ARGS[op])))
        lines = list(lines0)
        for mutation in mutations:
            mutate(lines, *mutation)
        text = "\n".join(lines)
        (bv, bres), (hv, hres) = outcome(base, text), outcome(head, text)
        if case == args.show:
            print("\n".join(f"{n:4d}  {line}" for n, line in enumerate(lines, start=1)))
            for side, verdict, result in (("base", bv, bres), ("head", hv, hres)):
                print(f"{side}: {verdict}")
                for item in sorted(result.items()) if verdict == "rejected" else [result]:
                    print(f"  {item}")
            return 0
        verdicts[f"{bv} -> {hv}"] += 1
        if "crash" in (bv, hv):
            crash = bres if bv == "crash" else hres
            crashes.append(f"case {case} {mutations}: base {bv}, head {hv}: {crash}")
        elif bv != hv:
            flips.append(f"case {case} {mutations}: {bres if bv == 'rejected' else hres}")
        elif bv == "ok":
            if unequal(bres, hres, "", one_sided):
                unequal_ok.append(f"case {case} {mutations}")
        elif bres.keys() != hres.keys():
            differing += 1
            for side, have, lack in (("base", bres, hres), ("head", hres, bres)):
                for line, field in sorted(have.keys() - lack.keys()):
                    key = (side, field, SHAPE.sub("_", have[(line, field)]))
                    classes[key] += 1
                    if key not in examples:
                        shown = lines[line - 1] if 0 < line <= len(lines) else ""
                        examples[key] = (
                            f"case {case} {mutations}: line {line} {shown!r}: {have[(line, field)]!r}"
                        )
        elif bres != hres:
            text_only += 1

    print(f"cases: {args.cases} (seed {args.seed})")
    for verdict, count in sorted(verdicts.items()):
        print(f"  base -> head {verdict}: {count}")
    print(f"verdict flips: {len(flips)}")
    for flip in flips[:5]:
        print(f"  {flip}")
    print(f"unequal accepted scenarios: {len(unequal_ok)}")
    for case in unequal_ok[:5]:
        print(f"  {case}")
    if one_sided:
        print(f"fields defined on one side only: {', '.join(sorted(one_sided))}")
    print(f"crashes: {len(crashes)}")
    for crash in crashes[:5]:
        print(f"  {crash}")
    print(f"rejected inputs whose (line, field) sets differ: {differing}")
    print(f"rejected inputs that differ only in message text: {text_only}")
    for (side, field, shape), count in sorted(classes.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {side} only, field {field!r}, {shape!r}: {count}")
        print(f"    e.g. {examples[(side, field, shape)]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
