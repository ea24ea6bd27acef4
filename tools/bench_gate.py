#!/usr/bin/env python3
"""CI gate on the benchmark driver's quick72_session runs.

Each input file is the standard output of one run of

    benchmark/target/release/ibsim-benchmark \\
        --workload quick72_session --trace 1 --seconds 8

whose second-to-last line is the run's detail document (the last is the
contract line). The gate fails (exit 1) if any run has
``failed_checks > 0`` — at the default seed that covers the pinned digest,
resumed == uninterrupted and observed == unobserved — or if the median over
the runs of a ratio in ``driver_gate.ceilings`` of ``BENCH_CORE.json`` lies
above its ceiling. Both ratios divide two timings of the same run, so the
gate carries across machines; the median absorbs the spread of single runs.

Usage:
    python3 tools/bench_gate.py run1.txt run2.txt run3.txt
                                [--baseline BENCH_CORE.json]
"""

import argparse
import json
import statistics
import sys


def detail(path):
    """The detail document of one run: its second-to-last stdout line."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: fewer than two lines of output")
    return json.loads(lines[-2])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("runs", nargs="+", help="stdout of one driver run each")
    ap.add_argument("--baseline", default="BENCH_CORE.json")
    args = ap.parse_args()

    with open(args.baseline) as fh:
        gate = json.load(fh)["driver_gate"]
    ceilings = gate["ceilings"]

    failures = []
    values = {name: [] for name in ceilings}
    for path in args.runs:
        doc = detail(path)
        if doc.get("workload") != gate["workload"]:
            failures.append(f"{path}: workload {doc.get('workload')!r}, not {gate['workload']!r}")
            continue
        failed = doc.get("failed_checks", 1)
        print(f"bench_gate: {path}: failed_checks {failed} of {doc.get('checks_total')}")
        if failed:
            bad = [c["name"] for c in doc.get("checks", []) if not c["ok"]]
            failures.append(f"{path}: {failed} failed checks {bad}")
        for name in ceilings:
            metric = doc.get("metrics", {}).get(name)
            if metric is None:
                failures.append(f"{path}: no {name} (a --trace 1 run reports it)")
            else:
                values[name].append(metric["value"])

    for name, ceiling in sorted(ceilings.items()):
        if not values[name]:
            continue
        median = statistics.median(values[name])
        runs = " ".join(f"{v:.2f}" for v in values[name])
        verdict = "FAIL" if median > ceiling else "ok"
        print(f"bench_gate: {name}: median {median:.3f} of [{runs}] (ceiling {ceiling}) {verdict}")
        if median > ceiling:
            failures.append(f"{name}: median {median:.3f} is above its ceiling {ceiling}")

    if failures:
        print("bench_gate: REGRESSION DETECTED", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_gate: {len(args.runs)} runs pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
