#!/usr/bin/env python3
"""Gate the Perfetto timelines against bench/baselines/trace_digests.json.

    python3 scripts/trace_digests.py DIR

DIR is the directory the scripts/check.sh bench gates ran in. Fails when a
timeline the baseline lists is missing or hashes to another SHA-256, or when
DIR holds a TRACE_*.json the baseline does not list. Every timeline is a
pure function of its bench's seeded run, so any moved byte is a change to
what a span records or how the exporters print it.
"""

import glob
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "trace_digests.json")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    run_dir = sys.argv[1]
    with open(BASELINE) as f:
        want = json.load(f)["sha256"]
    found = {os.path.basename(p)
             for p in glob.glob(os.path.join(run_dir, "TRACE_*.json"))}
    failed = False
    for name in sorted(want.keys() | found):
        if name not in found:
            error = "missing"
        elif name not in want:
            error = f"not in the baseline (sha256 {sha256(os.path.join(run_dir, name))})"
        else:
            got = sha256(os.path.join(run_dir, name))
            error = None if got == want[name] else f"sha256 {got} != committed {want[name]}"
        print(f"  {name}: {error or 'sha256 ' + want[name][:16] + '...'}")
        failed |= error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
