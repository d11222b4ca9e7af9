#!/usr/bin/env python3
"""Put two sets of perfbench records side by side.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- CHANGE.json [...]

Each file is a record run.py wrote under .bench_build/perfbench/results/.
Refuses (exit 3) when any record's comparable host context (CPU count,
SIMD backend, build type, compiler, workload, trace mode) differs from the
first record's, or when the two sides were not run on the same workload
seeds. Otherwise prints, per metric, each side's median and quartiles and
the change of the medians; end-to-end metrics whose median worsened by
more than the bound in BENCHMARK.json are marked and make the exit code 1.
"""

import json
import pathlib
import statistics
import sys

import benchlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def refusals(base, change):
    """Reasons the two sides cannot be compared (empty when they can)."""
    reasons = []
    first = base[0]["context"]
    for i, rec in enumerate(base + change):
        diff = benchlib.context_mismatch(first, rec["context"])
        if diff:
            reasons.append(f"record {i}: context differs on {', '.join(diff)}")
    seeds = [sorted(r["context"]["workload_seed"] for r in side) for side in (base, change)]
    if seeds[0] != seeds[1]:
        reasons.append(f"workload seeds differ: {seeds[0]} vs {seeds[1]}")
    return reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = [[json.loads(pathlib.Path(p).read_text()) for p in paths]
             for paths in (argv[:cut], argv[cut + 1:])]
    if not sides[0] or not sides[1]:
        print(__doc__, file=sys.stderr)
        return 2
    reasons = refusals(*sides)
    if reasons:
        for r in reasons:
            print(f"refused: {r}", file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print(f"{'metric':28s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} {'delta':>8s}")
    for name in sides[0][0]["result"]["metrics"]:
        stats = [quartiles([r["result"]["metrics"][name]["value"] for r in side])
                 for side in sides]
        base_med, new_med = stats[0][1], stats[1][1]
        delta = (new_med - base_med) / base_med if base_med else 0.0
        mark = ""
        rule = rules.get(name)
        if rule is not None:
            worse = delta if rule["better"] == "lower" else -delta
            if worse > rule["bound"]:
                mark, regressed = "  REGRESSION", True
        print(f"{name:28s} {'/'.join(f'{v:.4g}' for v in stats[0]):>32s} "
              f"{'/'.join(f'{v:.4g}' for v in stats[1]):>32s} {100 * delta:+7.2f}%{mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
