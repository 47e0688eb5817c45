// MetricsRegistry: the unified observability layer of the storage hierarchy.
//
// HighLight's evaluation is entirely about where time goes — bus contention,
// volume switches, cache hits versus demand faults — so instrumentation is a
// first-class subsystem, not an afterthought. Every component registers named
// counters, gauges and sim-time latency histograms with one registry; the
// hot path increments through a pre-resolved handle (a raw slot pointer; no
// lookup, no allocation). HighLightFs owns one registry per instance and
// exposes a consolidated snapshot via HighLightFs::Metrics().
//
// Handles also work detached: a component built without a registry (unit
// tests drive SegmentCache or SimDisk standalone) counts into handle-local
// storage, and BindTo() later folds those counts into the registry slot.
// Because slots are keyed by name, a component torn down and rebuilt across
// Remount() re-binds to the same slots — counters accumulate across the
// remount, which is exactly what an operator of the real system would want
// from a long-running daemon's statistics.

#ifndef HIGHLIGHT_UTIL_METRICS_H_
#define HIGHLIGHT_UTIL_METRICS_H_

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace hl {

class MetricsRegistry;

// Monotonic event count. Implicitly converts to uint64_t so registry-backed
// counters can replace plain integer statistics fields in place.
class Counter {
 public:
  Counter() = default;

  void Inc(uint64_t delta = 1) {
    if (slot_ != nullptr) {
      *slot_ += delta;
    } else {
      local_ += delta;
    }
  }
  Counter& operator++() {
    Inc();
    return *this;
  }
  void operator++(int) { Inc(); }
  Counter& operator+=(uint64_t delta) {
    Inc(delta);
    return *this;
  }

  uint64_t value() const { return slot_ != nullptr ? *slot_ : local_; }
  operator uint64_t() const { return value(); }

  // Re-points the handle at the registry slot for `name`, folding any counts
  // accumulated while detached into the slot.
  void BindTo(MetricsRegistry& registry, const std::string& name);

 private:
  uint64_t* slot_ = nullptr;
  uint64_t local_ = 0;
};

// Instantaneous level (queue depth, busy time) with a high-water mark.
class Gauge {
 public:
  struct Data {
    int64_t value = 0;
    int64_t max = 0;
  };

  Gauge() = default;

  void Set(int64_t v) {
    Data& d = data();
    d.value = v;
    d.max = std::max(d.max, v);
  }
  void Add(int64_t delta) { Set(data().value + delta); }
  void SetMax(int64_t v) {
    Data& d = data();
    d.max = std::max(d.max, v);
  }

  int64_t value() const { return data_ != nullptr ? data_->value : local_.value; }
  int64_t max() const { return data_ != nullptr ? data_->max : local_.max; }
  operator int64_t() const { return value(); }

  void BindTo(MetricsRegistry& registry, const std::string& name);

 private:
  Data& data() { return data_ != nullptr ? *data_ : local_; }
  const Data& data() const { return data_ != nullptr ? *data_ : local_; }

  Data* data_ = nullptr;
  Data local_;
};

// Sim-time latency histogram with power-of-two microsecond buckets: bucket i
// counts observations v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 counts zero-latency observations; the last bucket is a catch-all.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;  // Up to ~2^39 us (~6 sim-days).

  struct Data {
    uint64_t buckets[kNumBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;

    // Estimated p-quantile (p in [0, 1]): rank-selects the bucket holding
    // the quantile, interpolates linearly inside its [2^(i-1), 2^i) value
    // range, and clamps to the observed [min, max]. Exact for p=1 (max);
    // otherwise accurate to within the bucket's power-of-two resolution.
    uint64_t Percentile(double p) const;
  };

  Histogram() = default;

  void Observe(uint64_t us) {
    Data& d = data();
    d.buckets[BucketOf(us)]++;
    if (d.count == 0 || us < d.min) {
      d.min = us;
    }
    d.max = std::max(d.max, us);
    d.count++;
    d.sum += us;
  }

  uint64_t count() const { return data().count; }
  uint64_t sum() const { return data().sum; }
  uint64_t min() const { return data().min; }
  uint64_t max() const { return data().max; }
  uint64_t bucket(int i) const { return data().buckets[i]; }
  double Mean() const {
    const Data& d = data();
    return d.count == 0 ? 0.0
                        : static_cast<double>(d.sum) /
                              static_cast<double>(d.count);
  }

  static int BucketOf(uint64_t us) {
    int width = 0;
    while (us != 0) {
      ++width;
      us >>= 1;
    }
    return std::min(width, kNumBuckets - 1);
  }

  void BindTo(MetricsRegistry& registry, const std::string& name);

 private:
  Data& data() { return data_ != nullptr ? *data_ : local_; }
  const Data& data() const { return data_ != nullptr ? *data_ : local_; }

  Data* data_ = nullptr;
  Data local_;
};

// Point-in-time copy of every registered metric, decoupled from the live
// registry (safe to keep after the file system is torn down).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, Gauge::Data>> gauges;
  std::vector<std::pair<std::string, Histogram::Data>> histograms;

  // Counter or gauge value by exact name; 0 when absent.
  uint64_t Value(const std::string& name) const;
  bool Has(const std::string& name) const;
  // counters[b] == 0 ? 0 : counters[a] / (counters[a] + counters[b]) — the
  // hit-rate shape (hits over hits+misses).
  double Ratio(const std::string& a, const std::string& b) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson(int indent = 2) const;
};

// Name-keyed store of metric slots. Slot addresses are stable for the life
// of the registry (deque storage), so handles are raw pointers. The
// simulation is single-threaded; there is no locking.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handle acquisition: registers the name on first use, returns the
  // existing slot afterwards (so a rebuilt component keeps its counts).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  // Slot accessors for handle re-binding.
  uint64_t* CounterSlot(const std::string& name);
  Gauge::Data* GaugeSlot(const std::string& name);
  Histogram::Data* HistogramSlot(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string ToJson(int indent = 2) const { return Snapshot().ToJson(indent); }

  // Zeroes every value; registrations (and outstanding handles) stay valid.
  void Reset();

  size_t NumMetrics() const {
    return counter_index_.size() + gauge_index_.size() +
           histogram_index_.size();
  }

 private:
  std::map<std::string, size_t> counter_index_;
  std::map<std::string, size_t> gauge_index_;
  std::map<std::string, size_t> histogram_index_;
  std::deque<uint64_t> counters_;
  std::deque<Gauge::Data> gauges_;
  std::deque<Histogram::Data> histograms_;
};

// Minimal JSON string escaping for metric names and trace payloads.
std::string JsonEscape(const std::string& s);

// Appends `v` in decimal, exactly as std::to_string prints it, with no
// temporary string: the exporters' integer writer.
template <std::integral Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_METRICS_H_
