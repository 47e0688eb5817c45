// Shared types of hlbench: what one iteration of a workload
// returns, and the helpers every workload uses to derive its metrics.
//
// One iteration builds fresh deployments through the public API (timed as
// set-up), runs the workload's timed phase, snapshots the simulated-time
// metrics, and then runs the correctness gate. Everything simulated is a
// pure function of the seed, so the sim digest of every iteration of a run
// must match.

#ifndef HLBENCH_HLBENCH_H_
#define HLBENCH_HLBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/block_device.h"
#include "host_trace.h"
#include "util/metrics.h"
#include "util/status.h"

namespace hl {
class HighLightFs;
class SimClock;
class SpanTracer;
}  // namespace hl

namespace hlbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  // Workload operations attempted in the timed phase, and how many failed
  // (fetch errors, unserved admissions, failed file calls, read-back
  // mismatches, unrecoverable segments).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;  // Host seconds to build the deployments.
  double run_s = 0;    // Host seconds of the timed phase.
  // Simulated-time metrics and exact counts, in report order.
  std::vector<Metric> sim;
  // Failed correctness checks (any entry makes the run incorrect).
  std::vector<std::string> check_failures;
  // FNV-1a over `sim` and every registry snapshot the workload folded in.
  uint64_t digest = 0xcbf29ce484222325ull;
  // Work the per-layer normalisation divides by.
  uint64_t crc_bytes = 0;       // Checksummed in the timed phase (counters).
  uint64_t migrated_bytes = 0;  // MigrationReport::bytes_migrated, summed.

  void Sim(std::string name, double value, std::string unit) {
    sim.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  // Records a failed operation; returns whether `status` was OK.
  bool Op(const hl::Status& status) {
    if (!status.ok()) {
      failed++;
    }
    return status.ok();
  }

  void FoldBytes(const void* data, size_t n);
  void FoldString(std::string_view s) { FoldBytes(s.data(), s.size()); }
  // Folds every counter, gauge and histogram except the host-memory
  // `engine.*` gauges, which track allocator arenas rather than the model.
  void FoldSnapshot(std::string_view label, const hl::MetricsSnapshot& snap);
  // Folds `sim` (call once, after the workload added its last metric).
  void FoldSimMetrics();
};

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seeded, deterministic file content: 8 bytes per SplitMix64 step.
void FillPayload(std::span<uint8_t> out, uint64_t key);
std::vector<uint8_t> Payload(size_t n, uint64_t key);
uint64_t Mix(uint64_t a, uint64_t b);

// Histogram lookup by exact name (empty data when absent), and the sum of
// one histogram across several registries.
hl::Histogram::Data FindHist(const hl::MetricsSnapshot& snap,
                             const std::string& name);
hl::Histogram::Data MergedHist(const std::vector<hl::MetricsSnapshot>& snaps,
                               const std::string& name);
double PercentileMs(const hl::Histogram::Data& h, double p);

// Sum of every counter/gauge whose name starts with `prefix` and ends with
// `suffix` (e.g. "disk." + ".seeks" over all disks).
uint64_t SumMatching(const hl::MetricsSnapshot& snap, std::string_view prefix,
                     std::string_view suffix);

// Bytes one HighLightFs passed through hl::Crc32, reconstructed from its
// counters: every fetched image verified, every copied-out image stamped,
// every scrubbed image checked (one segment image each), and every block
// the log wrote (segment-summary data checksums).
uint64_t CrcBytesOf(const hl::MetricsSnapshot& snap, uint64_t segment_bytes);

inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

// A recall pool deployment (recall_storm shards, site_rebuild sites): one
// disk, one small jukebox, and `files` one-segment-sized files migrated to
// tertiary and dropped from the cache.
inline constexpr uint32_t kPoolSegBlocks = 64;
inline constexpr uint32_t kPoolCacheLines = 8;
inline constexpr uint64_t kPoolFileBytes = 200 * 1024;
inline constexpr uint64_t kPoolSegmentBytes = uint64_t{kPoolSegBlocks} * hl::kBlockSize;
struct PoolSpec {
  uint32_t files = 0;
  uint32_t segs_per_volume = 0;  // Volume size, in segments.
  int slots = 0;                 // Jukebox slots.
};
// File i holds FillPayload(Mix(key_base, i)). Returns null, with a check
// failure recorded, when any set-up step fails.
std::unique_ptr<hl::HighLightFs> BuildPool(const PoolSpec& spec,
                                           hl::SimClock* clock,
                                           hl::SpanTracer* shared_spans,
                                           const std::string& track_prefix,
                                           uint64_t key_base, HostTrace* trace,
                                           RunResult& r);
// Reads every pool file back and compares it with its payload; each
// mismatch or failed read counts as a failed operation.
bool ReadBackPool(hl::HighLightFs& hl, uint32_t files, uint64_t key_base,
                  HostTrace* trace, RunResult& r);

// The three workloads. `trace` is null for an untraced iteration.
RunResult RunRecallStorm(uint64_t seed, HostTrace* trace);
RunResult RunIngestMigrate(uint64_t seed, HostTrace* trace);
RunResult RunSiteRebuild(uint64_t seed, HostTrace* trace);

}  // namespace hlbench

#endif  // HLBENCH_HLBENCH_H_
