#include <algorithm>
#include <cstdio>
#include <cstring>

#include "blockdev/block_device.h"
#include "hlbench.h"

namespace hlbench {

void RunResult::FoldBytes(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    digest ^= p[i];
    digest *= 0x100000001b3ull;
  }
}

void RunResult::FoldSnapshot(std::string_view label,
                             const hl::MetricsSnapshot& snap) {
  FoldString(label);
  for (const auto& [name, value] : snap.counters) {
    FoldString(name);
    FoldBytes(&value, sizeof(value));
  }
  for (const auto& [name, data] : snap.gauges) {
    if (name.rfind("engine.", 0) == 0) {
      continue;
    }
    FoldString(name);
    FoldBytes(&data.value, sizeof(data.value));
    FoldBytes(&data.max, sizeof(data.max));
  }
  for (const auto& [name, data] : snap.histograms) {
    FoldString(name);
    FoldBytes(data.buckets, sizeof(data.buckets));
    FoldBytes(&data.count, sizeof(data.count));
    FoldBytes(&data.sum, sizeof(data.sum));
    FoldBytes(&data.min, sizeof(data.min));
    FoldBytes(&data.max, sizeof(data.max));
  }
}

void RunResult::FoldSimMetrics() {
  for (const Metric& m : sim) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g", m.value);
    FoldString(m.name);
    FoldString(buf);
  }
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FillPayload(std::span<uint8_t> out, uint64_t key) {
  uint64_t state = key;
  size_t i = 0;
  while (i < out.size()) {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const size_t n = std::min<size_t>(8, out.size() - i);
    std::memcpy(out.data() + i, &z, n);
    i += n;
  }
}

std::vector<uint8_t> Payload(size_t n, uint64_t key) {
  std::vector<uint8_t> v(n);
  FillPayload(v, key);
  return v;
}

hl::Histogram::Data FindHist(const hl::MetricsSnapshot& snap,
                             const std::string& name) {
  for (const auto& [hist_name, data] : snap.histograms) {
    if (hist_name == name) {
      return data;
    }
  }
  return {};
}

hl::Histogram::Data MergedHist(const std::vector<hl::MetricsSnapshot>& snaps,
                               const std::string& name) {
  hl::Histogram::Data merged{};
  for (const hl::MetricsSnapshot& snap : snaps) {
    const hl::Histogram::Data h = FindHist(snap, name);
    if (h.count == 0) {
      continue;
    }
    merged.min = merged.count == 0 ? h.min : std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
    merged.count += h.count;
    merged.sum += h.sum;
    for (int i = 0; i < hl::Histogram::kNumBuckets; ++i) {
      merged.buckets[i] += h.buckets[i];
    }
  }
  return merged;
}

double PercentileMs(const hl::Histogram::Data& h, double p) {
  return static_cast<double>(h.Percentile(p)) / 1000.0;
}

namespace {

bool Matches(const std::string& name, std::string_view prefix,
             std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

uint64_t SumMatching(const hl::MetricsSnapshot& snap, std::string_view prefix,
                     std::string_view suffix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (Matches(name, prefix, suffix)) {
      sum += value;
    }
  }
  for (const auto& [name, data] : snap.gauges) {
    if (Matches(name, prefix, suffix)) {
      sum += static_cast<uint64_t>(data.value);
    }
  }
  return sum;
}

uint64_t CrcBytesOf(const hl::MetricsSnapshot& snap, uint64_t segment_bytes) {
  const uint64_t images = snap.Value("io.crc_verified") +
                          snap.Value("io.segments_copied_out") +
                          snap.Value("scrub.segments_scrubbed");
  return images * segment_bytes +
         snap.Value("lfs.blocks_written") * uint64_t{hl::kBlockSize};
}

}  // namespace hlbench
