// hlbench: the repository benchmark.
//
//   hlbench --workload recall_storm|ingest_migrate|site_rebuild
//           --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Each iteration builds fresh deployments through the public API (set-up),
// runs the workload's timed phase, and checks the outputs. Iterations repeat
// until S host seconds have passed (at least three), and the host metrics
// are medians over iterations. Everything simulated is a function of the
// seed alone, so every iteration must produce the same sim digest.
//
// --trace 0 reports the end-to-end metrics (ops_per_s, setup_s,
// peak_rss_mb). --trace 1 alternates untraced and traced iterations,
// reports the per-layer metrics from the traced ones (median over traced
// iterations), prints a per-layer self-time table whose rows plus an
// "unattributed" row add up to the traced wall time, and writes the last
// traced iteration's spans to PATH. Both modes print every simulated-time
// metric and the sim digest; the last stdout line is one JSON object.
// The exit status is non-zero when any correctness check fails.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "hlbench.h"
#include "util/crc32.h"

namespace hlbench {
namespace {

struct WorkloadDef {
  const char* name;
  RunResult (*run)(uint64_t seed, HostTrace* trace);
};

constexpr WorkloadDef kWorkloads[] = {
    {"recall_storm", RunRecallStorm},
    {"ingest_migrate", RunIngestMigrate},
    {"site_rebuild", RunSiteRebuild},
};

// Per-layer metrics the JSON result carries with --trace 1: the ones every
// workload measures. The printed report has the workload-specific rest.
constexpr const char* kPerLayerJson[] = {
    "workload.next_ns",        "lfs.create_us",
    "lfs.write_us_per_mb",     "lfs.read_us_per_mb",
    "lfs.sync_ms",             "highlight.migrate_ms_per_mb",
    "util.crc32.gb_per_s",     "util.crc32.mb",
    "util.crc32.est_share",    "hlbench.unattributed_ms",
    "trace_overhead_pct",
};

constexpr int kMinIterations = 3;
constexpr double kMaxRunSeconds = 150.0;  // Stop iterating past this.
constexpr double kMB = 1024.0 * 1024.0;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

// hl::Crc32 throughput on one segment-sized buffer, median of 9 trials.
double Crc32GbPerSec(size_t segment_bytes) {
  std::vector<uint8_t> buf = Payload(segment_bytes, 0xC3C32);
  std::vector<double> rates;
  uint32_t sink = 0;
  for (int trial = 0; trial < 9; ++trial) {
    const auto t0 = Clock::now();
    constexpr int kReps = 8;
    for (int i = 0; i < kReps; ++i) {
      sink ^= hl::Crc32(buf, sink);
    }
    const double s = SecondsSince(t0);
    rates.push_back(static_cast<double>(segment_bytes) * kReps / s / 1e9);
  }
  // Keep the checksum observable so the loop is not optimized away.
  if (sink == 0x5EED) {
    std::fprintf(stderr, " ");
  }
  return Median(rates);
}

struct LayerRow {
  std::string name;
  uint64_t calls;
  double self_ms;
};

// Per-layer metrics of one traced iteration, keyed by name. A metric whose
// layer the workload never called is left out.
std::map<std::string, Metric> LayerMetrics(const HostTrace& trace,
                                           const RunResult& r, double wall_s,
                                           double crc_gb_s) {
  const std::vector<HostTrace::LayerTotals> t = trace.Totals();
  std::map<std::string, Metric> m;
  auto set = [&](const std::string& name, double value, const char* unit) {
    m[name] = Metric{name, value, unit};
  };
  auto ns = [&](Layer l) { return static_cast<double>(t[l].total_ns); };
  auto per_call = [&](const char* name, Layer l, double scale,
                      const char* unit) {
    if (t[l].calls > 0) {
      set(name, ns(l) / scale / static_cast<double>(t[l].calls), unit);
    }
  };
  auto total = [&](const char* name, Layer l, double scale, const char* unit) {
    if (t[l].calls > 0) {
      set(name, ns(l) / scale, unit);
    }
  };
  auto per_unit = [&](const char* name, Layer l, double scale, double units,
                      const char* unit) {
    if (t[l].calls > 0 && units > 0) {
      set(name, ns(l) / scale / units, unit);
    }
  };
  auto self = [&](const char* name, Layer l) {
    if (t[l].calls > 0) {
      set(name, static_cast<double>(t[l].self_ns) / 1e6, "ms");
    }
  };
  per_call("workload.next_ns", kWorkloadNext, 1.0, "ns");
  per_call("federation.stager.submit_ns", kStagerSubmit, 1.0, "ns");
  self("federation.stager.pump_self_ms", kStagerPump);
  per_unit("highlight.fetch_us_per_seg", kHlFetchBatch, 1e3,
           static_cast<double>(t[kHlFetchBatch].units), "us");
  per_unit("highlight.migrate_ms_per_mb", kHlMigrate, 1e6,
           static_cast<double>(r.migrated_bytes) / kMB, "ms/MB");
  total("highlight.clean_ms", kHlClean, 1e6, "ms");
  per_unit("lfs.write_us_per_mb", kLfsWrite, 1e3,
           static_cast<double>(t[kLfsWrite].units) / kMB, "us/MB");
  per_unit("lfs.read_us_per_mb", kLfsRead, 1e3,
           static_cast<double>(t[kLfsRead].units) / kMB, "us/MB");
  total("lfs.sync_ms", kLfsSync, 1e6, "ms");
  per_call("lfs.create_us", kLfsCreate, 1e3, "us");
  self("federation.replicator.self_ms", kReplicator);
  per_call("highlight.image_read_us", kHlImageRead, 1e3, "us");
  per_call("highlight.image_install_us", kHlImageInstall, 1e3, "us");
  total("highlight.scrub_ms", kHlScrub, 1e6, "ms");
  set("util.crc32.gb_per_s", crc_gb_s, "GB/s");
  set("util.crc32.mb", static_cast<double>(r.crc_bytes) / 1e6, "MB");
  // Estimated share of the timed phase spent in hl::Crc32.
  set("util.crc32.est_share",
      static_cast<double>(r.crc_bytes) / (crc_gb_s * 1e9) / r.run_s, "ratio");
  set("hlbench.unattributed_ms",
      (wall_s * 1e9 - static_cast<double>(trace.TopLevelNs())) / 1e6, "ms");
  return m;
}

void PrintLayerTable(const HostTrace& trace, double wall_s) {
  const std::vector<HostTrace::LayerTotals> t = trace.Totals();
  std::vector<LayerRow> rows;
  double attributed_ms = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    if (t[l].calls == 0) {
      continue;
    }
    const double self_ms = static_cast<double>(t[l].self_ns) / 1e6;
    attributed_ms += self_ms;
    rows.push_back(LayerRow{LayerName(l), t[l].calls, self_ms});
  }
  std::sort(rows.begin(), rows.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  const double wall_ms = wall_s * 1e3;
  const double unattributed_ms = wall_ms - attributed_ms;
  std::printf("\n  per-layer self time (last traced iteration)\n");
  std::printf("  %-28s %10s %12s %8s\n", "layer", "calls", "self_ms", "share");
  for (const LayerRow& row : rows) {
    std::printf("  %-28s %10" PRIu64 " %12.3f %7.2f%%\n", row.name.c_str(),
                row.calls, row.self_ms, 100.0 * row.self_ms / wall_ms);
  }
  std::printf("  %-28s %10s %12.3f %7.2f%%\n", "unattributed", "-",
              unattributed_ms, 100.0 * unattributed_ms / wall_ms);
  std::printf("  %-28s %10s %12.3f %7.2f%%\n", "total (traced wall)", "-",
              attributed_ms + unattributed_ms, 100.0);
}

void PrintMetric(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-44s %16.6f  %s\n", name.c_str(), value, unit.c_str());
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hlbench --workload recall_storm|ingest_migrate|"
               "site_rebuild --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace_mode = 0;
  std::string spans_out = "hlbench_spans.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace_mode = std::atoi(value);
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (workload == w.name) {
      def = &w;
    }
  }
  if (def == nullptr || (argc - 1) % 2 != 0 ||
      (trace_mode != 0 && trace_mode != 1)) {
    return Usage();
  }

  std::vector<RunResult> runs;         // Untraced iterations.
  std::vector<double> untraced_wall;   // Whole-iteration host seconds.
  std::vector<double> traced_wall;
  std::vector<std::map<std::string, Metric>> layer_metrics;
  HostTrace last_trace;
  std::vector<std::string> failures;
  // Pin glibc's allocation thresholds. Left dynamic, the mmap threshold
  // rises after the first large free, so whether a later iteration's device
  // images reuse already-faulted heap or fault in fresh pages depends on
  // heap history, and set-up time flips between two modes from run to run.
  // Disk images (>= 16 MB) are always fresh mappings; the heap is never
  // trimmed, so smaller buffers never re-fault.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const double crc_gb_s = trace_mode == 1 ? Crc32GbPerSec(64 * 4096) : 0;

  const auto start = Clock::now();
  while (SecondsSince(start) < kMaxRunSeconds &&
         (SecondsSince(start) < seconds ||
          static_cast<int>(runs.size()) < kMinIterations)) {
    auto t0 = Clock::now();
    runs.push_back(def->run(seed, nullptr));
    untraced_wall.push_back(SecondsSince(t0));
    if (trace_mode == 1) {
      HostTrace trace;
      t0 = Clock::now();
      RunResult traced = def->run(seed, &trace);
      const double wall = SecondsSince(t0);
      traced_wall.push_back(wall);
      if (traced.digest != runs.front().digest) {
        failures.push_back("traced run's simulated outputs match untraced");
      }
      if (!trace.quiescent()) {
        failures.push_back("host span context is quiescent");
      }
      for (const std::string& f : traced.check_failures) {
        failures.push_back(f);
      }
      layer_metrics.push_back(LayerMetrics(trace, traced, wall, crc_gb_s));
      last_trace = std::move(trace);
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ops_per_s;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  for (const RunResult& r : runs) {
    attempted += r.attempted;
    failed += r.failed;
    const uint64_t completed = r.attempted - std::min(r.failed, r.attempted);
    ops_per_s.push_back(static_cast<double>(completed) /
                        std::max(r.run_s, 1e-9));
    setup_s.push_back(r.setup_s);
    run_s.push_back(r.run_s);
    for (const std::string& f : r.check_failures) {
      failures.push_back(f);
    }
    if (r.digest != runs.front().digest) {
      failures.push_back("every iteration produces the same sim digest");
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  const RunResult& first = runs.front();

  std::printf("hlbench workload=%s seed=%" PRIu64 " trace=%d iterations=%zu\n",
              def->name, seed, trace_mode, runs.size());
  std::printf("\n  simulated time (exact at a fixed seed)\n");
  for (const Metric& m : first.sim) {
    PrintMetric(m.name, m.value, m.unit);
  }
  std::printf("  %-44s %016" PRIx64 "\n", "sim_digest", first.digest);
  std::printf("\n  host time (median of %zu iterations)\n", runs.size());
  const double ops = Median(ops_per_s);
  const double setup = Median(setup_s);
  const double rss = PeakRssMb();
  PrintMetric("ops_per_s", ops, "1/s");
  PrintMetric("setup_s", setup, "s");
  PrintMetric("run_s", Median(run_s), "s");
  PrintMetric("peak_rss_mb", rss, "MB");
  PrintMetric("failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio");
  PrintMetric("attempted", static_cast<double>(attempted), "count");

  std::map<std::string, Metric> layers;
  if (trace_mode == 1) {
    for (const auto& [name, metric] : layer_metrics.front()) {
      std::vector<double> v;
      for (const auto& m : layer_metrics) {
        auto it = m.find(name);
        if (it != m.end()) {
          v.push_back(it->second.value);
        }
      }
      layers[name] = Metric{name, Median(v), metric.unit};
    }
    layers["trace_overhead_pct"] = Metric{
        "trace_overhead_pct",
        100.0 * (Median(traced_wall) / Median(untraced_wall) - 1.0), "%"};
    std::printf("\n  per-layer host time (median of %zu traced iterations)\n",
                traced_wall.size());
    for (const auto& [name, m] : layers) {
      PrintMetric(name, m.value, m.unit);
    }
    PrintLayerTable(last_trace, traced_wall.back());
    if (last_trace.WriteJson(spans_out)) {
      std::printf("  wrote %zu spans to %s\n", last_trace.size(),
                  spans_out.c_str());
    } else {
      failures.push_back("spans written at exit");
    }
  }

  // The JSON metrics: the end-to-end set untraced, the shared per-layer
  // set traced.
  std::vector<Metric> reported;
  if (trace_mode == 0) {
    reported = {Metric{"ops_per_s", ops, "1/s"}, Metric{"setup_s", setup, "s"},
                Metric{"peak_rss_mb", rss, "MB"}};
  } else {
    for (const char* name : kPerLayerJson) {
      auto it = layers.find(name);
      if (it == layers.end()) {
        failures.push_back(std::string("per-layer metric measured: ") + name);
      } else {
        reported.push_back(it->second);
      }
    }
  }

  const bool correct = failures.empty();
  std::printf("\n  correctness: %s\n", correct ? "all checks passed" : "FAILED");
  for (const std::string& f : failures) {
    std::printf("    failed check: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += i == 0 ? "" : ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hlbench

int main(int argc, char** argv) { return hlbench::Main(argc, argv); }
