// Host-time spans recorded by the benchmark around its own calls into the
// engine's public API.
//
// The engine's SpanTracer measures *simulated* time; this recorder measures
// what the simulator costs to run. A span brackets one call into a module
// (an Lfs file call, a HighLightFs migration, a StagerScheduler pump, a
// FetchBackend / SiteStore call made through the forwarding seams in
// seams.h). Spans nest by an explicit open stack — the benchmark is one
// thread — so a layer's self time is its span time minus the time its child
// spans cover. Spans stay in memory and are written out when the run ends.

#ifndef HLBENCH_HOST_TRACE_H_
#define HLBENCH_HOST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hlbench {

// One row per public seam the benchmark times.
enum Layer : int {
  kWorkloadNext,      // Input generator: the next request / file call.
  kWorkloadPayload,   // Seeded payload generation for writes.
  kLfsCreate,         // Lfs::Create.
  kLfsWrite,          // Lfs::Write.
  kLfsRead,           // Lfs::Read.
  kLfsSync,           // Lfs::Sync / Lfs::Checkpoint.
  kLfsFsck,           // CheckFs.
  kHlCreate,          // HighLightFs::Create (device stack + mkfs).
  kHlMigrate,         // HighLightFs::Migrate.
  kHlClean,           // HighLightFs::CleanUntil.
  kHlScrub,           // Scrubber passes and FetchBackend::ScrubStep.
  kHlDropCache,       // HighLightFs::DropCleanCacheLines.
  kHlMetrics,         // HighLightFs::Metrics / registry snapshots.
  kHlFetchBatch,      // FetchBackend::FetchBatch / FetchSegment.
  kHlFetchProbe,      // FetchBackend cache/pool/swap probes.
  kHlImageRead,       // SiteStore::ReadSegmentImage.
  kHlImageInstall,    // SiteStore::InstallSegmentImage.
  kHlSiteBlob,        // SiteStore::PersistBlob / LoadBlob.
  kSiteKill,          // The drill's site kill (volume erase, catalog wipe).
  kStagerSubmit,      // StagerScheduler::SubmitFetch.
  kStagerPump,        // StagerScheduler::Pump / RunUntilIdle.
  kReplicator,        // SiteReplicator calls.
  kNumLayers,
};

const char* LayerName(int layer);

class HostTrace {
 public:
  struct Record {
    int layer = 0;
    int32_t parent = -1;  // Index of the enclosing span, -1 at top level.
    int64_t begin_ns = 0;
    int64_t end_ns = -1;  // -1 while open.
  };
  struct LayerTotals {
    uint64_t calls = 0;
    int64_t total_ns = 0;  // Inclusive time.
    int64_t self_ns = 0;   // Minus the child spans it encloses.
    uint64_t units = 0;    // Work done (bytes, segments), as the caller adds.
  };

  HostTrace();

  size_t Begin(int layer);
  void End(size_t index);
  void AddUnits(int layer, uint64_t units) { units_[layer] += units; }

  bool quiescent() const { return open_.empty(); }
  size_t size() const { return records_.size(); }

  std::vector<LayerTotals> Totals() const;
  // Sum of top-level span durations: the traced time some layer owns.
  int64_t TopLevelNs() const;

  // Writes every span as a Chrome/Perfetto "X" event (microseconds).
  bool WriteJson(const std::string& path) const;

 private:
  // Nanoseconds since this trace was created (its epoch).
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<size_t> open_;
  std::vector<uint64_t> units_;
};

// RAII span; a null trace makes it a no-op, so untraced runs pay one branch.
class Span {
 public:
  Span(HostTrace* trace, int layer, uint64_t units = 0) : trace_(trace) {
    if (trace_ != nullptr) {
      index_ = trace_->Begin(layer);
      if (units != 0) {
        trace_->AddUnits(layer, units);
      }
    }
  }
  ~Span() {
    if (trace_ != nullptr) {
      trace_->End(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  HostTrace* trace_;
  size_t index_ = 0;
};

}  // namespace hlbench

#endif  // HLBENCH_HOST_TRACE_H_
