#!/usr/bin/env bash
# Full pre-merge check: build the default and asan presets, run the test
# suite under both. Usage: scripts/check.sh [--fast]  (--fast skips asan).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 4)

run() {
  local preset=$1
  echo "==> configure ($preset)"
  cmake --preset "$preset" >/dev/null
  echo "==> build ($preset)"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test ($preset)"
  ctest --preset "$preset" -j "$jobs"
}

run default
if [[ $fast -eq 0 ]]; then
  # The whole suite, every label included, under the sanitizers.
  run asan
fi

# Paper tables: every table bench (2-6) runs end to end and its headline
# values must match the committed baseline bit-for-bit — observation and
# engine-speed work must never perturb the simulation. Table 3 also covers
# the async read pipeline's batched-fault scenario. Every bench that embeds
# a registry snapshot (tables 2-6, federation_scale, site_disaster) exits
# non-zero when a tseg accounting-anomaly counter (accounting_dropped,
# underflow_clamped, overflow_clamped) is not 0.
echo "==> paper tables 2-6 vs baselines"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
tables="table2_large_object table3_access_delays table4_migration_breakdown
  table5_raw_devices table6_migrator_throughput"
cmake --build --preset default --target $tables -j "$jobs" >/dev/null
for t in $tables; do
  (cd "$smoke_dir" && "$OLDPWD"/build/bench/"$t" >/dev/null)
  python3 scripts/bench_diff.py "$smoke_dir"/BENCH_"$t".json \
    bench/baselines/"$t".json
done

# Ablation and policy-trace pins: the section-5 ablations and the
# environment-trace policy study write every table cell EXPERIMENTS.md
# quotes to BENCH json, which must match the committed baselines.
echo "==> ablations + policy traces vs baselines"
pinned="ablation_policies policy_trace_bench"
cmake --build --preset default --target $pinned -j "$jobs" >/dev/null
for b in $pinned; do
  (cd "$smoke_dir" && "$OLDPWD"/build/bench/"$b" >/dev/null)
  python3 scripts/bench_diff.py "$smoke_dir"/BENCH_"$b".json \
    bench/baselines/"$b".json
done

# Engine-ops gate: the TsegTable bookkeeping indices must agree with their
# linear-scan references, Store() must coalesce, and the migration-pass
# loop must hold its >= 5x wall-clock speedup floor over the pre-index
# implementation (see bench/engine_ops.cc).
echo "==> engine-ops gate (deterministic smoke vs baseline)"
cmake --build --preset default --target engine_ops -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/engine_ops --smoke)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_engine_ops.json \
  bench/baselines/engine_ops.json

# Federation gate: the central stager drives 4 shards through the
# FetchBackend seam under a seeded Zipf/diurnal population; the smoke
# population's headline values (tail delays, throughput, fair-share
# counters) must match the committed baseline bit-for-bit. The run must
# also sustain the committed sim-ops/sec wall-clock floor, so an engine
# slowdown cannot hide behind bit-identical simulated output.
echo "==> federation gate (stager smoke vs baseline + ops floor)"
cmake --build --preset default --target federation_scale -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/federation_scale --smoke >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_federation_scale_smoke.json \
  bench/baselines/federation_scale_smoke.json
python3 - "$smoke_dir"/BENCH_federation_scale_smoke.json \
  bench/baselines/federation_scale_opsfloor.txt <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rate = float(doc["info"]["sim_ops_per_sec"])
floor = float(open(sys.argv[2]).read().split()[0])
print(f"  federation_scale --smoke: {rate:.0f} sim-ops/s "
      f"(committed floor: {floor:.0f})")
sys.exit(0 if rate >= floor else 1)
EOF

# Site-disaster gate: kill one of two replicated sites mid-workload, fail
# demand over to the survivor, rebuild the dead site from its peer via
# anti-entropy. The smoke drill's recovery time, re-shipped byte count and
# zero-data-loss gates are fully deterministic and must match the baseline
# bit-for-bit.
echo "==> site disaster gate (drill smoke vs baseline)"
cmake --build --preset default --target site_disaster -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/site_disaster --smoke >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_site_disaster_smoke.json \
  bench/baselines/site_disaster_smoke.json

# Timeline gate: every TRACE_*.json the gates above wrote (tables 2, 3, 4
# and 6, the federation and site-disaster smokes) must hash to its
# committed SHA-256, so the span recorder and its exporters cannot move a
# timeline byte unnoticed.
echo "==> timelines vs trace digests"
python3 scripts/trace_digests.py "$smoke_dir"

# hlbench sim-digest gate: the repository benchmark's three workloads at
# seed 1 must pass their correctness checks and reproduce the committed
# sim digests (every simulated metric and registry, hashed), so engine-speed
# work cannot perturb the model unnoticed.
echo "==> hlbench sim digests vs baseline"
python3 scripts/hlbench_digests.py
echo "All checks passed."
