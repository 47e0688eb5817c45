// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench prints the paper's measured value next to the simulated one so
// the shape comparison (who wins, by what factor) is immediate. Absolute
// agreement is not expected — the substrate is a timing model, not the
// authors' 1992 testbed — but the relative structure should hold.

#ifndef HIGHLIGHT_BENCH_BENCH_UTIL_H_
#define HIGHLIGHT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_clock.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/status.h"
#include "util/timeseries.h"

namespace hl::bench {

inline void Title(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

inline void Note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) {
          widths[c] = std::max(widths[c], row[c].size());
        }
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("  ");
      for (size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::vector<std::string> dashes;
    for (size_t w : widths) {
      dashes.push_back(std::string(w, '-'));
    }
    print_row(dashes);
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Seconds(SimTime us) {
  return Fmt("%.2f s", static_cast<double>(us) / kUsPerSec);
}

inline std::string KBps(uint64_t bytes, SimTime us) {
  if (us == 0) {
    return "inf";
  }
  double kbps = (static_cast<double>(bytes) / 1024.0) /
                (static_cast<double>(us) / kUsPerSec);
  return Fmt("%.0f KB/s", kbps);
}

inline double KBpsValue(uint64_t bytes, SimTime us) {
  return us == 0 ? 0.0
                 : (static_cast<double>(bytes) / 1024.0) /
                       (static_cast<double>(us) / kUsPerSec);
}

// Deterministic payload generator (all benches print their seed).
inline std::vector<uint8_t> Payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

// Accounting-anomaly gate: a tseg live-byte delta that was dropped or
// clamped means the simulation's accounting broke, so the run fails rather
// than publish numbers built on it. Matches every deployment's counters,
// plain ("tseg.underflow_clamped") or hub-namespaced ("shard0.tseg...").
inline void CheckTsegAccounting(const MetricsSnapshot& snap,
                                const std::string& what) {
  static const std::string kAnomalies[] = {"tseg.accounting_dropped",
                                           "tseg.underflow_clamped",
                                           "tseg.overflow_clamped"};
  for (const auto& [name, value] : snap.counters) {
    for (const std::string& anomaly : kAnomalies) {
      const bool match = name == anomaly || name.ends_with("." + anomaly);
      if (match && value != 0) {
        std::fprintf(stderr, "FATAL %s: %s = %llu (must stay 0)\n",
                     what.c_str(), name.c_str(),
                     static_cast<unsigned long long>(value));
        std::exit(1);
      }
    }
  }
}

// Machine-readable companion to the printed tables: each bench writes
// BENCH_<name>.json holding its headline values (throughput, elapsed times)
// plus one full MetricsRegistry snapshot per configuration it ran. The
// derived gauges in the snapshot (cache.hit_permille, disk.*.busy_permille,
// footprint.media_swaps, ...) are what EXPERIMENTS.md graphs from.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Value(const std::string& key, double v) {
    values_.emplace_back(key, Fmt("%.3f", v));
  }
  void Value(const std::string& key, uint64_t v) {
    values_.emplace_back(key, std::to_string(v));
  }
  void Value(const std::string& key, const std::string& s) {
    values_.emplace_back(key, Quoted(s));
  }

  // Run facts that are *not* part of the compared surface: wall-clock
  // timings, host throughput, mode flags. They land in the report's "info"
  // object, which scripts/bench_diff.py never reads — "values" is reserved
  // for deterministic simulation output, and anything nondeterministic in
  // it would break the bit-identity gates.
  void Info(const std::string& key, double v) {
    info_.emplace_back(key, Fmt("%.3f", v));
  }
  void Info(const std::string& key, uint64_t v) {
    info_.emplace_back(key, std::to_string(v));
  }
  void Info(const std::string& key, const std::string& s) {
    info_.emplace_back(key, Quoted(s));
  }

  // Embeds a registry snapshot under metrics.<label>, after the snapshot
  // passes CheckTsegAccounting.
  void Snapshot(const std::string& label, const MetricsSnapshot& snap) {
    CheckTsegAccounting(snap, name_ + " " + label);
    snapshots_.emplace_back(label, snap.ToJson(4));
  }

  // Accumulates one Perfetto timeline process per call: the configuration's
  // completed spans (one thread lane per device/daemon track) plus its
  // sampled series as counter tracks. Write() emits the combined document
  // as TRACE_<name>.json next to the BENCH json.
  void Timeline(const std::string& label, const SpanTracer& spans,
                const TimeSeriesSampler* series = nullptr) {
    const int pid = ++timeline_pids_;
    AppendPerfettoSpanEvents(spans, pid, label, &timeline_events_);
    if (series != nullptr) {
      AppendPerfettoCounterEvents(*series, pid, &timeline_events_);
    }
  }

  // Supplies a complete pre-merged Perfetto document (the
  // ObservabilityHub's MergedTimelineJson) to write as TRACE_<name>.json
  // instead of the per-call accumulation above.
  void TimelineDocument(std::string doc) { timeline_doc_ = std::move(doc); }

  // Writes BENCH_<name>.json in the current directory.
  void Write() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String(name_);
    w.Key("values");
    w.BeginObject();
    for (const auto& [key, encoded] : values_) {
      w.Key(key);
      w.Raw(encoded);  // Pre-encoded by Value() (Fmt("%.3f") / quoting).
    }
    w.EndObject();
    if (!info_.empty()) {
      w.Key("info");
      w.BeginObject();
      for (const auto& [key, encoded] : info_) {
        w.Key(key);
        w.Raw(encoded);
      }
      w.EndObject();
    }
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [label, body] : snapshots_) {
      w.Key(label);
      w.Raw(body);
    }
    w.EndObject();
    w.EndObject();

    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    const std::string doc = w.Take() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("  wrote %s\n", path.c_str());

    if (!timeline_events_.empty() || !timeline_doc_.empty()) {
      const std::string timeline = timeline_doc_.empty()
                                       ? PerfettoTraceJson(timeline_events_)
                                       : timeline_doc_;
      std::string tpath = "TRACE_" + name_ + ".json";
      std::FILE* tf = std::fopen(tpath.c_str(), "w");
      if (tf == nullptr) {
        std::fprintf(stderr, "warning: cannot write %s\n", tpath.c_str());
        return;
      }
      std::fwrite(timeline.data(), 1, timeline.size(), tf);
      std::fclose(tf);
      std::printf("  wrote %s\n", tpath.c_str());
    }
  }

 private:
  static std::string Quoted(const std::string& s) {
    return "\"" + JsonEscape(s) + "\"";
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::string>> snapshots_;
  std::string timeline_events_;
  std::string timeline_doc_;
  int timeline_pids_ = 0;
};

// End-of-run span-context leak check. A missed SpanScope unwind leaves the
// implicit-context stack non-empty and silently mis-parents every later
// span; benches assert quiescence at teardown so the leak fails the run
// deterministically instead.
inline void CheckSpansQuiescent(const SpanTracer& spans, const char* what) {
  if (!spans.quiescent()) {
    std::fprintf(stderr,
                 "FATAL %s: span context leak (%zu spans still open)\n",
                 what, spans.open_count());
    std::exit(1);
  }
}

inline void Die(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T DieOr(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace hl::bench

#endif  // HIGHLIGHT_BENCH_BENCH_UTIL_H_
