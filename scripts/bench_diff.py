#!/usr/bin/env python3
"""Diff a bench run's headline values against a committed baseline.

Usage: bench_diff.py ACTUAL_BENCH_JSON BASELINE_JSON [--rtol FRACTION]
       bench_diff.py --metrics RUN_A_BENCH_JSON RUN_B_BENCH_JSON

Compares the "values" section of a freshly-written BENCH_<name>.json against
a committed baseline (bench/baselines/<name>.json). Keys must match in both
directions — a value that appears or disappears is drift, not noise. Numeric
values compare within a relative tolerance band (--rtol, default 0: the
simulation is deterministic, so bit-identical is the expectation; the band
exists for deliberate timing-model changes, where a loosened one-off run
beats silently re-baselining). Strings compare exactly.

With --metrics, compares the registry snapshots (the "metrics" section)
of two fresh runs of the same bench instead, e.g. a run of the parent
commit against a run of a change. Each registry name whose counter, gauge
or histogram moved (or appears in only one run) is printed once, with the
deployment prefixes a federation or site bench adds ("shard3.", "siteB.",
and the hub's "stager." / "replicator." labels in front of a dotted name)
folded away, so one moved name reads the same in every bench.
This catches a registry-only move that the headline values never show.
The "engine." gauges size the host's allocation pools, not the simulation,
and are skipped, as the hlbench sim digest skips them.

Exit status: 0 on match, 1 on drift, 2 on usage/IO errors.
"""

import argparse
import json
import re
import sys

# Registry prefixes of one deployment inside a federation or site bench:
# "shard3.", "siteB.", and the observability hub's "stager." and
# "replicator." labels when a dotted registry name follows them
# ("stager.stager.failover_fetches", "replicator.site.ship_failures").
DEPLOYMENT_PREFIX = re.compile(
    r"^(?:shard\d+\.|site[A-Z][A-Za-z0-9]*\."
    r"|(?:stager|replicator)\.(?=[^.]+\.))")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_values(path):
    doc = load(path)
    if "values" not in doc or not isinstance(doc["values"], dict):
        print(f"bench_diff: {path} has no \"values\" object", file=sys.stderr)
        sys.exit(2)
    return doc.get("bench", "?"), doc["values"]


def numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def registry_name(name):
    return DEPLOYMENT_PREFIX.sub("", name)


def registry_entries(path):
    """{(snapshot label, kind, name): value} over a run's "metrics"."""
    doc = load(path)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        print(f"bench_diff: {path} has no \"metrics\" object",
              file=sys.stderr)
        sys.exit(2)
    entries = {}
    for label, snapshot in metrics.items():
        for kind, slots in snapshot.items():
            for name, value in slots.items():
                if not registry_name(name).startswith("engine."):
                    entries[(label, kind, name)] = value
    return doc.get("bench", "?"), entries


def diff_metrics(run_a, run_b):
    bench, a = registry_entries(run_a)
    _, b = registry_entries(run_b)
    moved = sorted({registry_name(key[2])
                    for key in set(a) | set(b) if a.get(key) != b.get(key)})
    if moved:
        print(f"bench_diff: {bench}: {len(moved)} registry name(s) moved "
              f"between {run_a} and {run_b}:")
        for name in moved:
            print(f"  {name}")
        return 1
    print(f"bench_diff: {bench}: {len(a)} registry entries match "
          f"between {run_a} and {run_b}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff bench headline values against a baseline, or "
                    "(--metrics) the registry snapshots of two runs.")
    parser.add_argument("actual",
                        help="BENCH_<name>.json from a fresh run (RUN_A "
                             "with --metrics)")
    parser.add_argument("baseline",
                        help="committed baseline json (RUN_B with "
                             "--metrics)")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for numeric values "
                             "(default 0: exact)")
    parser.add_argument("--metrics", action="store_true",
                        help="diff the registry snapshots of two runs")
    args = parser.parse_args()
    if args.metrics:
        return diff_metrics(args.actual, args.baseline)

    bench, actual = load_values(args.actual)
    _, baseline = load_values(args.baseline)

    drift = []
    for key in sorted(set(actual) | set(baseline)):
        if key not in actual:
            drift.append(f"missing from run:      {key} "
                         f"(baseline: {baseline[key]!r})")
            continue
        if key not in baseline:
            drift.append(f"missing from baseline: {key} "
                         f"(run: {actual[key]!r})")
            continue
        a, b = actual[key], baseline[key]
        if numeric(a) and numeric(b):
            bound = args.rtol * max(abs(a), abs(b))
            if abs(a - b) > bound:
                rel = abs(a - b) / max(abs(b), 1e-12)
                drift.append(f"value drift:           {key}: {b!r} -> {a!r} "
                             f"(rel {rel:.2e}, rtol {args.rtol:.2e})")
        elif a != b:
            drift.append(f"value drift:           {key}: {b!r} -> {a!r}")

    if drift:
        print(f"bench_diff: {bench}: {len(drift)} drift(s) vs "
              f"{args.baseline}:")
        for line in drift:
            print(f"  {line}")
        return 1
    print(f"bench_diff: {bench}: {len(actual)} values match "
          f"{args.baseline} (rtol {args.rtol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
