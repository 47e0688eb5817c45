// Time-series telemetry: gauge/counter curves over a run.
//
// End-of-run totals (MetricsRegistry snapshots) answer "how much"; the
// sampler answers "when" — cache-hit-rate ramping up as the working set
// loads, queue depth spiking during a migration burst, a device going busy
// for 13.5 s on every media swap. Named probes (plain closures returning an
// int64) are sampled at a fixed sim-time cadence into bounded per-series
// rings.
//
// Sampling is driven by the SimClock tick hook: Poll(now) fires after every
// clock advancement and takes at most one sample per crossed cadence
// boundary, stamped *at* the boundary — so identical seeded runs produce
// bit-identical series, regardless of how the advancement happened to be
// chunked. Probes only read state; sampling never perturbs the simulation.

#ifndef HIGHLIGHT_UTIL_TIMESERIES_H_
#define HIGHLIGHT_UTIL_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_clock.h"

namespace hl {

class TimeSeriesSampler {
 public:
  struct Point {
    SimTime t_us = 0;
    int64_t value = 0;
  };
  using Probe = std::function<int64_t()>;

  // `cadence_us` = 0 disables sampling entirely (Poll becomes a no-op).
  explicit TimeSeriesSampler(SimTime cadence_us, size_t capacity = 4096);

  void AddSeries(std::string name, Probe probe);

  // Samples every series once if `now` crossed the next cadence boundary,
  // stamping the point at the most recent boundary. Called from the clock
  // tick hook; cheap when no boundary was crossed.
  void Poll(SimTime now);

  SimTime cadence_us() const { return cadence_us_; }
  size_t capacity() const { return capacity_; }
  // Number of sampling instants taken so far (each covers every series).
  uint64_t samples_taken() const { return samples_; }

  std::vector<std::string> SeriesNames() const;
  // Points for `name`, oldest first; empty for unknown series.
  const std::deque<Point>& Series(const std::string& name) const;
  // The stable index of series `name` (kNoSeries when there is none yet),
  // for callers that read one series at every sample, and its points.
  static constexpr size_t kNoSeries = SIZE_MAX;
  size_t SeriesIndex(const std::string& name) const;
  const std::deque<Point>& SeriesAt(size_t index) const {
    return series_[index].points;
  }

  void Clear();

  // {"cadence_us": N, "series": {"<name>": [{"t_us":..,"v":..}, ...]}}.
  std::string ToJson() const;

 private:
  struct SeriesData {
    std::string name;
    Probe probe;
    std::deque<Point> points;
  };

  SimTime cadence_us_;
  size_t capacity_;
  SimTime next_sample_;
  std::vector<SeriesData> series_;
  uint64_t samples_ = 0;
};

// Appends Perfetto counter events ("ph":"C") for every series under process
// `pid`, for embedding alongside AppendPerfettoSpanEvents output.
void AppendPerfettoCounterEvents(const TimeSeriesSampler& sampler, int pid,
                                 std::string* out);

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_TIMESERIES_H_
