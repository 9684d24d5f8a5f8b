#!/usr/bin/env python3
"""Compare bench JSON outputs against the committed baseline.

Every bench binary writes, via ``--json FILE``, one document of the form

    {"bench": "<name>",
     "metrics": {"<metric>": {"value": <number|null>,
                              "stable": true|false,
                              "unit": "<string>"}, ...}}

The committed baseline (``BENCH_baseline.json``) holds one such metrics
block per bench, keyed by bench name:

    {"benches": {"<name>": {"<metric>": {...}, ...}, ...}}

Comparison policy (the perf-regression contract, see docs/BENCHMARKS.md):

  * *stable* metrics are deterministic for a fixed seed on 1 CPU
    (counts, sizes, agreement flags). Any relative drift beyond
    ``--tolerance`` (default 10%) FAILS, as does a stable metric that
    is present in the baseline but missing from the current run.
  * *advisory* metrics (wall clock, speedups) are printed for the log
    but never fail the run — CI machines are too noisy to gate on them.
  * metrics new in the current run are reported as such; commit a
    refreshed baseline to start tracking them.

``--trend FILE`` prints the perfbench trajectory instead: one series per
(workload, metric) over the lines of ``BENCH_history.jsonl``, each line
one change measured against its parent (see docs/BENCHMARKS.md):

    {"pr": 18, "base": "<parent commit>", "nproc": 4, "host": "...",
     "groups": [{"workload": "join-topics", "trace": 0, "seconds": 25,
                 "seeds": "301-310", "pairs": 10,
                 "parent": {"<metric>": <median>, ...},
                 "change": {"<metric>": <median>, ...},
                 "parent_iqr": {"<metric>": <iqr>, ...}}, ...]}

``parent_iqr`` is optional.

Usage:
    tools/bench_compare.py --baseline BENCH_baseline.json \
        BENCH_micro_intersect.json BENCH_batch_throughput.json
    tools/bench_compare.py --update-baseline BENCH_baseline.json *.json
    tools/bench_compare.py --trend BENCH_history.jsonl

Exit status: 0 clean, 1 stable-metric regression or missing metric,
2 usage/parse error.
"""

import argparse
import json
import sys


def load_run(path):
    """Loads one bench run document; returns (bench_name, metrics)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "bench" not in doc or "metrics" not in doc:
        raise ValueError(f"{path}: not a bench JSON document "
                         "(missing 'bench' or 'metrics')")
    return doc["bench"], doc["metrics"]


def rel_diff(old, new):
    if old == new:
        return 0.0
    denom = max(abs(old), abs(new))
    return abs(new - old) / denom if denom > 0 else float("inf")


def rel_gain(old, new):
    return "n/a" if old == 0 else f"{(new - old) / abs(old):+.1%}"


def compare(baseline, runs, tolerance):
    """Returns the number of failures; prints a per-metric report."""
    failures = 0
    for bench, metrics in runs:
        base = baseline.get(bench)
        print(f"\n== {bench} ==")
        if base is None:
            print(f"  (no baseline entry for '{bench}'; nothing enforced — "
                  "commit a refreshed baseline to start tracking it)")
            continue
        for name, entry in base.items():
            if not entry.get("stable", False):
                continue
            if name not in metrics:
                print(f"  FAIL {name}: stable metric missing from current run")
                failures += 1
                continue
            old, new = entry.get("value"), metrics[name].get("value")
            if old is None or new is None:
                # Non-finite values serialize as null; nothing to enforce.
                print(f"  skip {name}: non-finite value")
                continue
            diff = rel_diff(old, new)
            if diff > tolerance:
                print(f"  FAIL {name}: {old:g} -> {new:g} "
                      f"({diff:.1%} > {tolerance:.0%} tolerance)")
                failures += 1
            else:
                print(f"  ok   {name}: {old:g} -> {new:g} ({diff:.1%})")
        for name, entry in metrics.items():
            value = entry.get("value")
            shown = "null" if value is None else f"{value:g}"
            unit = entry.get("unit", "")
            if name not in base:
                print(f"  new  {name}: {shown} {unit} (not in baseline)")
            elif not entry.get("stable", False):
                print(f"  info {name}: {shown} {unit} (advisory)")
    return failures


def update_baseline(path, runs):
    benches = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            benches = json.load(f).get("benches", {})
    except FileNotFoundError:
        pass
    for bench, metrics in runs:
        benches[bench] = metrics
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"benches": benches}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {path} ({len(benches)} benches)")


def load_history(path):
    """Loads BENCH_history.jsonl into {(workload, metric): [rows]} in file
    order, each row (label, parent, change, parent_iqr); change and
    parent_iqr may be None."""
    def number(value):
        return None if value is None else float(value)

    series = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                for group in entry["groups"]:
                    kind = "traced" if group.get("trace") else "untraced"
                    label = (f"PR {entry['pr']:>3} on {entry['base']:<8} "
                             f"nproc {entry['nproc']}  {group['pairs']:>2} x "
                             f"{kind} (seeds {group['seeds']})")
                    iqr = group.get("parent_iqr", {})
                    for metric, parent in group["parent"].items():
                        row = (label, float(parent),
                               number(group["change"].get(metric)),
                               number(iqr.get(metric)))
                        key = (group["workload"], metric)
                        series.setdefault(key, []).append(row)
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                raise ValueError(f"{path}:{lineno}: malformed history line "
                                 f"({err!r})") from err
    return series


def print_trend(series):
    for (workload, metric), rows in sorted(series.items()):
        print(f"\n== {workload} {metric} ==")
        for label, parent, change, iqr in rows:
            if change is None:
                print(f"  {label}  {parent:g} -> (not recorded)")
                continue
            spread = "" if iqr is None else f", parent IQR {iqr:g}"
            print(f"  {label}  {parent:g} -> {change:g} "
                  f"({rel_gain(parent, change)}{spread})")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff bench JSON runs against a committed baseline.")
    parser.add_argument("runs", nargs="*", help="bench --json output files")
    parser.add_argument("--baseline", help="committed baseline to enforce")
    parser.add_argument("--update-baseline", metavar="PATH",
                        help="write/refresh a baseline from the runs instead "
                             "of comparing")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative drift for stable metrics "
                             "(default 0.10)")
    parser.add_argument("--trend", metavar="FILE",
                        help="print each (workload, metric) series of a "
                             "BENCH_history.jsonl trajectory and exit")
    args = parser.parse_args(argv)

    if args.trend:
        try:
            print_trend(load_history(args.trend))
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return 0
    if not args.runs:
        print("error: need bench --json output files", file=sys.stderr)
        return 2

    try:
        runs = [load_run(path) for path in args.runs]
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.update_baseline:
        update_baseline(args.update_baseline, runs)
        return 0

    if not args.baseline:
        print("error: need --baseline (or --update-baseline)",
              file=sys.stderr)
        return 2
    try:
        with open(args.baseline, "r", encoding="utf-8") as f:
            baseline = json.load(f).get("benches", {})
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read baseline: {err}", file=sys.stderr)
        return 2

    failures = compare(baseline, runs, args.tolerance)
    if failures:
        print(f"\nbench_compare: {failures} stable-metric failure(s)")
        return 1
    print("\nbench_compare: all stable metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
