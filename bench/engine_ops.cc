// Engine-ops benchmark: wall-clock throughput of the simulator's
// per-operation bookkeeping (ROADMAP item 2 — "make the simulator itself
// hardware-fast"). Unlike the table* benches, nothing here is about
// simulated time: the loops replay the TsegTable call patterns of the three
// engine hot loops (migration pass, demand fault, scrub sweep) and measure
// how many simulated operations per wall-clock second the bookkeeping
// sustains, comparing the O(1) indexed paths against the O(n) linear-scan
// reference implementations they replaced.
//
// Two run modes:
//   engine_ops            google-benchmark suite + the deterministic gate
//   engine_ops --smoke    deterministic gate only (seconds; used by
//                         scripts/check.sh and CI)
//
// The gate writes BENCH_engine_ops.json whose values are pinned to
// bench/baselines/engine_ops.json by scripts/bench_diff.py: randomized-op
// agreement between indexed and linear queries, final aggregates, Store()
// coalescing write counts, and a wide-margin >= 5x wall-clock speedup flag
// for the migration-pass loop (the measured factor is typically two to
// three orders of magnitude; the flag only asserts the floor). A further
// phase pins the engine's telemetry: steady-state span emission must not
// grow the tracer's arenas by a byte, and must sustain a conservative span
// rate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>

#include "bench/bench_util.h"
#include "blockdev/sim_disk.h"
#include "highlight/address_map.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"
#include "tests/tseg_reference.h"
#include "util/rng.h"
#include "util/span.h"

namespace hl {
namespace {

constexpr uint32_t kTsegs = 4096;
constexpr uint32_t kSegsPerVolume = 64;  // 64 volumes.
constexpr uint32_t kSpb = 64;

// Stands up an Lfs whose mkfs sized the tsegfile for kTsegs entries, plus
// the TsegTable over it.
struct TableFixture {
  SimClock clock;
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<Lfs> fs;
  std::unique_ptr<AddressMap> amap;
  std::unique_ptr<TsegTable> table;

  explicit TableFixture(uint32_t nsegs = kTsegs,
                        uint32_t segs_per_volume = kSegsPerVolume) {
    disk = std::make_unique<SimDisk>("d0", 64 * 1024, Rz57Profile(), &clock);
    LfsParams params;
    params.seg_size_blocks = kSpb;
    params.tertiary_nsegs = nsegs;
    params.segs_per_volume = segs_per_volume;
    params.num_volumes = nsegs / segs_per_volume;
    fs = hl::bench::DieOr(Lfs::Mkfs(disk.get(), &clock, params),
                          "mkfs for engine_ops");
    amap = std::make_unique<AddressMap>(fs->superblock().disk_blocks, kSpb,
                                        nsegs, segs_per_volume);
    table = std::make_unique<TsegTable>(fs.get(), amap.get());
    hl::bench::Die(table->Load(), "tsegfile load for engine_ops");
  }

  // Returns every segment to the clean pool (the tertiary-cleaner pattern),
  // so allocation loops can run indefinitely.
  void ResetClean() {
    for (uint32_t t = 0; t < table->size(); ++t) {
      if (!(table->Get(t).flags & kSegClean)) {
        table->SetFlags(t, kSegClean, kSegDirty | kSegReplica);
      }
    }
  }

  // Installs `n` replicas spread across primaries for lookup loops.
  void PlantReplicas(uint32_t n) {
    Rng rng(0x5EEDu);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t t = static_cast<uint32_t>(rng.Below(kTsegs));
      uint32_t primary = static_cast<uint32_t>(rng.Below(kTsegs));
      if (t != primary) {
        table->SetReplicaOf(t, primary);
      }
    }
  }
};

// One simulated migration-pass engine op: allocate a fresh segment, mark it
// dirty, stamp its write time, account four staged blocks. Exactly the
// TsegTable traffic of Migrator::EnsureStagingSegment + copy-out
// accounting, minus the simulated I/O.
template <typename NextFn>
void MigrationPassOp(TableFixture& f, const std::set<uint32_t>& excl,
                     uint64_t& now, NextFn next) {
  uint32_t tseg = next(excl);
  if (tseg == kNoSegment) {
    f.ResetClean();
    tseg = next(excl);
  }
  f.table->SetFlags(tseg, kSegDirty, kSegClean);
  f.table->SetWriteTime(tseg, ++now);
  for (uint32_t b = 0; b < 4; ++b) {
    f.table->OnAccounting(f.amap->TsegBase(tseg) + b, 4096);
  }
}

void BM_MigrationPass_Indexed(benchmark::State& state) {
  static TableFixture* f = new TableFixture();
  std::set<uint32_t> excl;
  uint64_t now = 0;
  for (auto _ : state) {
    MigrationPassOp(*f, excl, now, [&](const std::set<uint32_t>& e) {
      return f->table->NextFreshTseg(e);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MigrationPass_Indexed);

void BM_MigrationPass_Linear(benchmark::State& state) {
  static TableFixture* f = new TableFixture();
  std::set<uint32_t> excl;
  uint64_t now = 0;
  for (auto _ : state) {
    MigrationPassOp(*f, excl, now, [&](const std::set<uint32_t>& e) {
      return NextFreshTsegLinear(*f->table, *f->amap, e);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MigrationPass_Linear);

// One demand-fault engine op: resolve the faulting segment's replica set
// (IoServer's failover candidate list) — the per-fetch TsegTable traffic.
void BM_DemandFault_Indexed(benchmark::State& state) {
  static TableFixture* f = [] {
    auto* fx = new TableFixture();
    fx->PlantReplicas(512);
    return fx;
  }();
  Rng rng(7);
  for (auto _ : state) {
    uint32_t tseg = static_cast<uint32_t>(rng.Below(kTsegs));
    benchmark::DoNotOptimize(f->table->IsReplica(tseg));
    benchmark::DoNotOptimize(f->table->ReplicasOf(tseg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandFault_Indexed);

void BM_DemandFault_Linear(benchmark::State& state) {
  static TableFixture* f = [] {
    auto* fx = new TableFixture();
    fx->PlantReplicas(512);
    return fx;
  }();
  Rng rng(7);
  for (auto _ : state) {
    uint32_t tseg = static_cast<uint32_t>(rng.Below(kTsegs));
    benchmark::DoNotOptimize(f->table->IsReplica(tseg));
    benchmark::DoNotOptimize(ReplicasOfLinear(*f->table, tseg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandFault_Linear);

// One scrub engine op: the bookkeeping of Scrubber::ScrubOne — CRC lookup
// plus the repair-candidate replica resolution — for one segment of a
// cyclic sweep.
template <typename ReplicasFn>
void ScrubOp(TableFixture& f, uint32_t tseg, ReplicasFn replicas) {
  uint32_t crc;
  benchmark::DoNotOptimize(f.table->CrcOf(tseg, &crc));
  const SegUsage& u = f.table->Get(tseg);
  if (u.flags & kSegClean) {
    return;
  }
  if (u.flags & kSegReplica) {
    benchmark::DoNotOptimize(replicas(u.cache_tseg));
  } else {
    benchmark::DoNotOptimize(replicas(tseg));
  }
}

void BM_ScrubSweep_Indexed(benchmark::State& state) {
  static TableFixture* f = [] {
    auto* fx = new TableFixture();
    for (uint32_t t = 0; t < kTsegs; t += 2) {
      fx->table->SetFlags(t, kSegDirty, kSegClean);
    }
    fx->PlantReplicas(512);
    return fx;
  }();
  uint32_t tseg = 0;
  for (auto _ : state) {
    ScrubOp(*f, tseg, [&](uint32_t p) { return f->table->ReplicasOf(p); });
    tseg = (tseg + 1) % kTsegs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScrubSweep_Indexed);

void BM_ScrubSweep_Linear(benchmark::State& state) {
  static TableFixture* f = [] {
    auto* fx = new TableFixture();
    for (uint32_t t = 0; t < kTsegs; t += 2) {
      fx->table->SetFlags(t, kSegDirty, kSegClean);
    }
    fx->PlantReplicas(512);
    return fx;
  }();
  uint32_t tseg = 0;
  for (auto _ : state) {
    ScrubOp(*f, tseg,
            [&](uint32_t p) { return ReplicasOfLinear(*f->table, p); });
    tseg = (tseg + 1) % kTsegs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScrubSweep_Linear);

// Reporting-path aggregates: O(1) reads vs the full-table scans they
// replaced (hlsim's per-interval status line calls both every tick).
void BM_Aggregates_Indexed(benchmark::State& state) {
  static TableFixture* f = new TableFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->table->TotalLiveBytes());
    benchmark::DoNotOptimize(f->table->DirtyTsegCount());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Aggregates_Indexed);

void BM_Aggregates_Linear(benchmark::State& state) {
  static TableFixture* f = new TableFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TotalLiveBytesLinear(*f->table));
    benchmark::DoNotOptimize(DirtyTsegCountLinear(*f->table));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Aggregates_Linear);

// One span open/annotate/close on a warmed tracer — steady-state ring, all
// strings already interned — vs the same scope routed through a null
// tracer. The delta is the whole per-op cost of leaving telemetry enabled.
void BM_SpanEmit_On(benchmark::State& state) {
  static SimClock* clock = new SimClock();
  static SpanTracer* spans = [] {
    auto* t = new SpanTracer(clock, 1024);
    for (int i = 0; i < 4096; ++i) {  // Warm past ring capacity.
      SpanScope s(t, "engine_op", "engine");
      s.Annotate("tseg", "42");
    }
    return t;
  }();
  for (auto _ : state) {
    SpanScope s(spans, "engine_op", "engine");
    s.Annotate("tseg", "42");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEmit_On);

void BM_SpanEmit_Off(benchmark::State& state) {
  for (auto _ : state) {
    SpanScope s(nullptr, "engine_op", "engine");
    s.Annotate("tseg", "42");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEmit_Off);

// --- Deterministic gate -----------------------------------------------
// Everything below is seeded and platform-independent; its outputs are the
// committed baseline. The one wall-clock value is reduced to a >= 5x
// boolean with two-orders-of-magnitude headroom.

// Times `iterations` migration-pass ops on a million-user-scale table
// (16384 tsegs); best of `reps` fresh runs, so scheduler noise can only
// narrow the reported gap, not fake a regression.
double TimedMigrationLoop(bool indexed, uint32_t iterations, int reps) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    TableFixture f(/*nsegs=*/16384, /*segs_per_volume=*/256);
    std::set<uint32_t> excl;
    uint64_t now = 0;
    auto start = std::chrono::steady_clock::now();
    for (uint32_t i = 0; i < iterations; ++i) {
      MigrationPassOp(f, excl, now, [&](const std::set<uint32_t>& e) {
        return indexed ? f.table->NextFreshTseg(e)
                       : NextFreshTsegLinear(*f.table, *f.amap, e);
      });
    }
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    if (best < 0 || dt.count() < best) {
      best = dt.count();
    }
  }
  return best;
}

int RunDeterministicGate() {
  using hl::bench::Fmt;
  hl::bench::Title("engine ops gate (deterministic; pinned to baseline)");
  hl::bench::JsonReport report("engine_ops");

  // Phase 1: randomized op soup; indexed queries must equal the linear
  // reference at every step (the committed values are all-agreements).
  TableFixture f;
  Rng rng(0xE1913u);
  uint64_t agree_next = 1, agree_replicas = 1, agree_aggregates = 1;
  const uint32_t kGateOps = 4000;
  for (uint32_t op = 0; op < kGateOps; ++op) {
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2: {
        uint32_t t = f.table->NextFreshTseg({});
        if (t == kNoSegment) {
          f.ResetClean();
          break;
        }
        f.table->SetFlags(t, kSegDirty, kSegClean);
        f.table->SetWriteTime(t, op);
        f.table->OnAccounting(f.amap->TsegBase(t),
                              static_cast<int64_t>(rng.Below(16)) * 4096);
        break;
      }
      case 3: {
        uint32_t t = static_cast<uint32_t>(rng.Below(kTsegs));
        f.table->SetFlags(t, kSegClean, kSegDirty | kSegReplica);
        break;
      }
      case 4: {
        uint32_t t = static_cast<uint32_t>(rng.Below(kTsegs));
        uint32_t primary = static_cast<uint32_t>(rng.Below(kTsegs));
        if (t != primary) {
          f.table->SetReplicaOf(t, primary);
        }
        break;
      }
      case 5: {
        uint32_t t = static_cast<uint32_t>(rng.Below(kTsegs));
        int64_t delta =
            static_cast<int64_t>(rng.Below(512 * 1024)) - 128 * 1024;
        f.table->OnAccounting(f.amap->TsegBase(t) + rng.Below(kSpb), delta);
        break;
      }
      case 6: {  // Out-of-range delta: must be dropped, counted.
        f.table->OnAccounting(static_cast<uint32_t>(rng.Below(10000)), 4096);
        break;
      }
      default:
        break;
    }
    if (op % 64 == 0) {
      std::set<uint32_t> excl = {static_cast<uint32_t>(rng.Below(64))};
      uint32_t pref = static_cast<uint32_t>(rng.Below(64));
      if (f.table->NextFreshTseg(excl, pref) !=
          NextFreshTsegLinear(*f.table, *f.amap, excl, pref)) {
        agree_next = 0;
      }
      uint32_t primary = static_cast<uint32_t>(rng.Below(kTsegs));
      if (f.table->ReplicasOf(primary) != ReplicasOfLinear(*f.table, primary)) {
        agree_replicas = 0;
      }
      if (f.table->TotalLiveBytes() != TotalLiveBytesLinear(*f.table) ||
          f.table->DirtyTsegCount() != DirtyTsegCountLinear(*f.table)) {
        agree_aggregates = 0;
      }
    }
  }
  report.Value("gate.ops", static_cast<uint64_t>(kGateOps));
  report.Value("gate.agree_next_fresh", agree_next);
  report.Value("gate.agree_replicas", agree_replicas);
  report.Value("gate.agree_aggregates", agree_aggregates);
  report.Value("gate.total_live_bytes", f.table->TotalLiveBytes());
  report.Value("gate.dirty_tsegs",
               static_cast<uint64_t>(f.table->DirtyTsegCount()));
  report.Value("gate.accounting_dropped",
               f.table->stats().accounting_dropped.value());
  hl::bench::Note("indexed-vs-linear agreement: next_fresh=" +
                  std::to_string(agree_next) + " replicas=" +
                  std::to_string(agree_replicas) + " aggregates=" +
                  std::to_string(agree_aggregates));

  // Phase 2: Store() coalescing on a known dirty pattern — one 300-entry
  // run (split at 170-entry block granularity) plus 8 scattered entries:
  // 10 writes instead of 308.
  {
    TableFixture g;
    uint64_t writes_before = g.table->stats().store_writes.value();
    for (uint32_t t = 100; t < 400; ++t) {
      g.table->SetAvailBytes(t, t);
    }
    for (uint32_t t = 500; t < 4000; t += 450) {
      g.table->SetAvailBytes(t, t);
    }
    hl::bench::Die(g.table->Store(), "coalesced store");
    report.Value("store.dirty_entries", static_cast<uint64_t>(308));
    report.Value("store.writes",
                 g.table->stats().store_writes.value() - writes_before);
    hl::bench::Note(
        "store coalescing: 308 dirty entries -> " +
        std::to_string(g.table->stats().store_writes.value() - writes_before) +
        " tsegfile writes");
  }

  // Phase 3: migration-pass wall-clock speedup, reduced to the >= 5x floor
  // the baseline pins (measured factor is typically 100x+ at 4096 tsegs).
  const uint32_t kTimedOps = 12000;
  double indexed_s = TimedMigrationLoop(/*indexed=*/true, kTimedOps, 3);
  double linear_s = TimedMigrationLoop(/*indexed=*/false, kTimedOps, 2);
  double speedup = indexed_s > 0 ? linear_s / indexed_s : 0.0;
  hl::bench::Note(Fmt("migration-pass loop: indexed %.0f ops/s",
                      kTimedOps / indexed_s));
  hl::bench::Note(Fmt("migration-pass loop: linear  %.0f ops/s",
                      kTimedOps / linear_s));
  hl::bench::Note(Fmt("speedup: %.1fx (gate: >= 5x)", speedup));
  report.Value("speedup.migration_pass_ge_5x",
               static_cast<uint64_t>(speedup >= 5.0 ? 1 : 0));

  // Phase 4: telemetry steady state. Warm a small tracer past its ring
  // capacity, then drive 4096 more spans through it: the interned-string
  // table and the record window must not grow by a single byte (the
  // zero-allocation claim), and emission must sustain a conservative span
  // rate — an overhead ceiling of 5 us/span with two orders of magnitude
  // of headroom on typical hardware.
  uint64_t telemetry_ok = 0;
  {
    SimClock tclock;
    SpanTracer tracer(&tclock, 256);
    auto emit = [](SpanTracer* t, uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        SpanScope s(t, (i % 2) == 0 ? "fetch" : "stage", "engine");
        s.Annotate("tseg", 42);
        s.Annotate("bytes", 4096);
      }
    };
    emit(&tracer, 1024);  // Warm: ring slots, arg arenas, intern table.
    const size_t warm_window = tracer.window_bytes();
    const size_t warm_interned = tracer.interned_strings();
    emit(&tracer, 4096);  // Steady state: nothing may grow.
    const uint64_t window_growth =
        static_cast<uint64_t>(tracer.window_bytes() - warm_window);
    const uint64_t interned_growth =
        static_cast<uint64_t>(tracer.interned_strings() - warm_interned);

    auto timed_emit = [&](uint32_t n, int reps) {
      double best = -1.0;
      for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        emit(&tracer, n);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        if (best < 0 || dt.count() < best) {
          best = dt.count();
        }
      }
      return best;
    };
    const uint32_t kSpanOps = 200000;
    const double on_s = timed_emit(kSpanOps, 3);
    const double rate = on_s > 0 ? kSpanOps / on_s : 0.0;
    const uint64_t rate_ok = rate >= 200000.0 ? 1 : 0;
    report.Value("telemetry.window_growth_bytes", window_growth);
    report.Value("telemetry.interned_growth", interned_growth);
    report.Value("telemetry.interned_strings",
                 static_cast<uint64_t>(tracer.interned_strings()));
    report.Value("telemetry.quiescent",
                 static_cast<uint64_t>(tracer.quiescent() ? 1 : 0));
    report.Value("telemetry.span_rate_ge_200k", rate_ok);
    telemetry_ok = (window_growth == 0 && interned_growth == 0 &&
                    tracer.quiescent() && rate_ok != 0)
                       ? 1
                       : 0;
    hl::bench::Note(Fmt("span emission: %.0f spans/s (gate: >= 200k/s, "
                        "zero arena growth)",
                        rate));
  }

  report.Write();
  return (agree_next && agree_replicas && agree_aggregates &&
          speedup >= 5.0 && telemetry_ok != 0)
             ? 0
             : 1;
}

}  // namespace
}  // namespace hl

int main(int argc, char** argv) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 2;
    }
    benchmark::RunSpecifiedBenchmarks();
  }
  return hl::RunDeterministicGate();
}
