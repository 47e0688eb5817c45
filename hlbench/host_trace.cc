#include "host_trace.h"

#include <cstdio>

namespace hlbench {

namespace {

constexpr const char* kLayerNames[kNumLayers] = {
    "workload.next",
    "workload.payload",
    "lfs.create",
    "lfs.write",
    "lfs.read",
    "lfs.sync",
    "lfs.fsck",
    "highlight.create",
    "highlight.migrate",
    "highlight.clean",
    "highlight.scrub",
    "highlight.drop_cache",
    "highlight.metrics",
    "highlight.fetch_batch",
    "highlight.fetch_probe",
    "highlight.image_read",
    "highlight.image_install",
    "highlight.site_blob",
    "site.kill",
    "federation.stager.submit",
    "federation.stager.pump",
    "federation.replicator",
};

}  // namespace

const char* LayerName(int layer) { return kLayerNames[layer]; }

HostTrace::HostTrace()
    : epoch_(std::chrono::steady_clock::now()), units_(kNumLayers, 0) {
  records_.reserve(1 << 16);
}

int64_t HostTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

size_t HostTrace::Begin(int layer) {
  Record r;
  r.layer = layer;
  r.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  records_.push_back(r);
  open_.push_back(records_.size() - 1);
  // Read the clock last so the bookkeeping above is not charged to the span.
  records_.back().begin_ns = NowNs();
  return records_.size() - 1;
}

void HostTrace::End(size_t index) {
  const int64_t now = NowNs();
  records_[index].end_ns = now;
  // Spans are RAII-scoped, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<HostTrace::LayerTotals> HostTrace::Totals() const {
  std::vector<LayerTotals> totals(kNumLayers);
  for (const Record& r : records_) {
    if (r.end_ns < 0) {
      continue;
    }
    const int64_t dur = r.end_ns - r.begin_ns;
    LayerTotals& t = totals[r.layer];
    t.calls++;
    t.total_ns += dur;
    t.self_ns += dur;
    if (r.parent >= 0) {
      totals[records_[r.parent].layer].self_ns -= dur;
    }
  }
  for (int l = 0; l < kNumLayers; ++l) {
    totals[l].units = units_[l];
  }
  return totals;
}

int64_t HostTrace::TopLevelNs() const {
  int64_t sum = 0;
  for (const Record& r : records_) {
    if (r.parent < 0 && r.end_ns >= 0) {
      sum += r.end_ns - r.begin_ns;
    }
  }
  return sum;
}

bool HostTrace::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Record& r : records_) {
    if (r.end_ns < 0) {
      continue;
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", kLayerNames[r.layer],
                 static_cast<double>(r.begin_ns) / 1000.0,
                 static_cast<double>(r.end_ns - r.begin_ns) / 1000.0);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hlbench
