// Forwarding decorators at the engine's public seams.
//
// TimedBackend stands in front of a HighLightFs wherever a StagerScheduler
// expects a FetchBackend, and TimedSiteStore wherever a SiteReplicator
// expects a SiteStore. Each call forwards unchanged and returns the inner
// result unchanged; with a HostTrace attached it is also wrapped in a span.
// The stager's and the replicator's self time is therefore measured (their
// span time minus the time spent behind these seams), never inferred, and
// the simulated outputs cannot differ between traced and untraced runs.
//
// Cheap SiteStore catalog queries (SegmentCrc, StampSegmentCrc,
// ReplicableSegments, SegmentImageBytes) forward untimed: they stay in the
// replicator's self time rather than paying a clock read each.
//
// TracedLfs does the same for the benchmark's own Lfs file calls.

#ifndef HLBENCH_SEAMS_H_
#define HLBENCH_SEAMS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "highlight/fetch_backend.h"
#include "host_trace.h"
#include "lfs/lfs.h"

namespace hlbench {

class TimedBackend final : public hl::FetchBackend {
 public:
  TimedBackend(hl::FetchBackend* inner, HostTrace* trace)
      : inner_(inner), trace_(trace) {}

  bool SegmentCached(uint32_t tseg) const override {
    Span span(trace_, kHlFetchProbe);
    return inner_->SegmentCached(tseg);
  }
  uint32_t TertiarySegments() const override {
    Span span(trace_, kHlFetchProbe);
    return inner_->TertiarySegments();
  }
  std::vector<uint32_t> FetchableSegments() const override {
    Span span(trace_, kHlFetchProbe);
    return inner_->FetchableSegments();
  }
  hl::Result<hl::FetchOutcome> FetchSegment(uint32_t tseg) override {
    Span span(trace_, kHlFetchBatch, 1);
    return inner_->FetchSegment(tseg);
  }
  hl::Result<std::vector<hl::FetchOutcome>> FetchBatch(
      const std::vector<uint32_t>& tsegs) override {
    Span span(trace_, kHlFetchBatch, tsegs.size());
    return inner_->FetchBatch(tsegs);
  }
  hl::Result<hl::MigrationReport> Migrate(
      const hl::MigrationRequest& request) override {
    Span span(trace_, kHlMigrate);
    return inner_->Migrate(request);
  }
  hl::Result<uint32_t> ScrubStep(uint32_t max_segments) override {
    Span span(trace_, kHlScrub);
    return inner_->ScrubStep(max_segments);
  }
  uint64_t MediaSwaps() const override {
    Span span(trace_, kHlFetchProbe);
    return inner_->MediaSwaps();
  }

 private:
  hl::FetchBackend* inner_;
  HostTrace* trace_;
};

class TimedSiteStore final : public hl::SiteStore {
 public:
  TimedSiteStore(hl::SiteStore* inner, HostTrace* trace)
      : inner_(inner), trace_(trace) {}

  uint64_t SegmentImageBytes() const override {
    return inner_->SegmentImageBytes();
  }
  std::vector<uint32_t> ReplicableSegments() const override {
    return inner_->ReplicableSegments();
  }
  hl::Result<std::vector<uint8_t>> ReadSegmentImage(uint32_t tseg) override {
    Span span(trace_, kHlImageRead, 1);
    return inner_->ReadSegmentImage(tseg);
  }
  hl::Status InstallSegmentImage(uint32_t tseg,
                                 std::span<const uint8_t> image) override {
    Span span(trace_, kHlImageInstall, 1);
    return inner_->InstallSegmentImage(tseg, image);
  }
  bool SegmentCrc(uint32_t tseg, uint32_t* crc) const override {
    return inner_->SegmentCrc(tseg, crc);
  }
  void StampSegmentCrc(uint32_t tseg, uint32_t crc) override {
    inner_->StampSegmentCrc(tseg, crc);
  }
  hl::Status PersistBlob(const std::string& name,
                         std::span<const uint8_t> data) override {
    Span span(trace_, kHlSiteBlob, data.size());
    return inner_->PersistBlob(name, data);
  }
  hl::Result<std::vector<uint8_t>> LoadBlob(const std::string& name) override {
    Span span(trace_, kHlSiteBlob);
    return inner_->LoadBlob(name);
  }

 private:
  hl::SiteStore* inner_;
  HostTrace* trace_;
};

// The benchmark's Lfs file calls, each in a span; units are bytes.
class TracedLfs {
 public:
  TracedLfs(hl::Lfs& fs, HostTrace* trace) : fs_(fs), trace_(trace) {}

  hl::Result<uint32_t> Create(std::string_view path) {
    Span span(trace_, kLfsCreate, 1);
    return fs_.Create(path);
  }
  hl::Status Write(uint32_t ino, uint64_t offset,
                   std::span<const uint8_t> data) {
    Span span(trace_, kLfsWrite, data.size());
    return fs_.Write(ino, offset, data);
  }
  hl::Result<size_t> Read(uint32_t ino, uint64_t offset,
                          std::span<uint8_t> out) {
    Span span(trace_, kLfsRead, out.size());
    return fs_.Read(ino, offset, out);
  }
  hl::Status Sync() {
    Span span(trace_, kLfsSync);
    return fs_.Sync();
  }
  hl::Status Checkpoint() {
    Span span(trace_, kLfsSync);
    return fs_.Checkpoint();
  }

 private:
  hl::Lfs& fs_;
  HostTrace* trace_;
};

}  // namespace hlbench

#endif  // HLBENCH_SEAMS_H_
