#!/usr/bin/env python3
"""Gate hlbench's simulated outputs against bench/baselines/hlbench_digests.json.

    python3 scripts/hlbench_digests.py

Run from the repository root. Runs every workload the baseline lists at seed
1 for 2 seconds, untraced, and fails when a run exits non-zero, reports
"correct": false, or prints a sim_digest other than the committed one. The
digest hashes every simulated metric and registry, so an engine-speed change
cannot perturb the model unnoticed.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "hlbench_digests.json")


def check(workload, want):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hlbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return f"exit status {done.returncode}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        return "correctness gate failed"
    digests = re.findall(r"^\s*sim_digest\s+([0-9a-f]+)\s*$", done.stdout,
                         re.MULTILINE)
    if digests != [want]:
        return f"sim_digest {digests} != committed {want}"
    return None


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)["sim_digest"]
    failed = False
    for workload, want in baseline.items():
        error = check(workload, want)
        print(f"  hlbench {workload}: {error or 'sim_digest ' + want}")
        failed |= error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
