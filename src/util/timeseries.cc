#include "util/timeseries.h"

#include "util/metrics.h"

namespace hl {

namespace {
const std::deque<TimeSeriesSampler::Point> kNoPoints;
}  // namespace

TimeSeriesSampler::TimeSeriesSampler(SimTime cadence_us, size_t capacity)
    : cadence_us_(cadence_us),
      capacity_(capacity == 0 ? 1 : capacity),
      next_sample_(cadence_us) {}

void TimeSeriesSampler::AddSeries(std::string name, Probe probe) {
  SeriesData s;
  s.name = std::move(name);
  s.probe = std::move(probe);
  series_.push_back(std::move(s));
}

void TimeSeriesSampler::Poll(SimTime now) {
  if (cadence_us_ == 0 || now < next_sample_) {
    return;
  }
  // Stamp at the most recent crossed boundary: one sampling instant per
  // Poll, however far the clock jumped (a 13.5 s media swap advances in one
  // step; replaying a stale value at every skipped boundary would invent
  // data the system never exhibited at a higher cost).
  const SimTime stamp = now - now % cadence_us_;
  for (SeriesData& s : series_) {
    Point p;
    p.t_us = stamp;
    p.value = s.probe ? s.probe() : 0;
    s.points.push_back(p);
    while (s.points.size() > capacity_) {
      s.points.pop_front();
    }
  }
  ++samples_;
  next_sample_ = stamp + cadence_us_;
}

std::vector<std::string> TimeSeriesSampler::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const SeriesData& s : series_) {
    names.push_back(s.name);
  }
  return names;
}

const std::deque<TimeSeriesSampler::Point>& TimeSeriesSampler::Series(
    const std::string& name) const {
  const size_t index = SeriesIndex(name);
  return index == kNoSeries ? kNoPoints : SeriesAt(index);
}

size_t TimeSeriesSampler::SeriesIndex(const std::string& name) const {
  for (size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) {
      return i;
    }
  }
  return kNoSeries;
}

void TimeSeriesSampler::Clear() {
  for (SeriesData& s : series_) {
    s.points.clear();
  }
  samples_ = 0;
  next_sample_ = cadence_us_;
}

std::string TimeSeriesSampler::ToJson() const {
  std::string out =
      "{\"cadence_us\": " + std::to_string(cadence_us_) + ", \"series\": {";
  for (size_t i = 0; i < series_.size(); ++i) {
    const SeriesData& s = series_[i];
    out += "\n  \"" + JsonEscape(s.name) + "\": [";
    for (size_t j = 0; j < s.points.size(); ++j) {
      out += "{\"t_us\": " + std::to_string(s.points[j].t_us) +
             ", \"v\": " + std::to_string(s.points[j].value) + "}";
      if (j + 1 < s.points.size()) {
        out += ", ";
      }
    }
    out += "]";
    if (i + 1 < series_.size()) {
      out += ",";
    }
  }
  out += "\n}}";
  return out;
}

void AppendPerfettoCounterEvents(const TimeSeriesSampler& sampler, int pid,
                                 std::string* out) {
  const std::vector<std::string> names = sampler.SeriesNames();
  const std::string pid_args = ", \"pid\": " + std::to_string(pid) +
                               ", \"args\": {\"value\": ";
  for (size_t i = 0; i < names.size(); ++i) {
    // A series' name is escaped once, not once per point.
    const std::string head =
        "  {\"ph\": \"C\", \"name\": \"" + JsonEscape(names[i]) + "\", \"ts\": ";
    for (const TimeSeriesSampler::Point& p : sampler.SeriesAt(i)) {
      *out += head;
      AppendDecimal(out, p.t_us);
      *out += pid_args;
      AppendDecimal(out, p.value);
      *out += "}},\n";
    }
  }
}

}  // namespace hl
